"""The indefinite-sum engine: the Gregory evaluator against the limit
definition and the Eulerian series, its public surface, and termwise
derivatives."""

import inspect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indefsum.sigma as sigma_module
from indefsum import asymptotics, constants, identities, shape
from indefsum.catalog import CATALOG_NAMES, builtin, from_expression
from indefsum.numerics import integrate
from indefsum.sigma import (
    GFunction,
    SigmaResult,
    gregory_constant,
    integral_from_1,
    sigma,
    sigma_deriv,
)

from _frozen import (
    DIGAMMA_5,
    EULER_GAMMA,
    LN_2PI,
    LN_PI,
    PSI2_HALF,
    TRIGAMMA_3,
)
from reference import f_pn, sigma_deriv_eulerian, sigma_direct, sigma_eulerian


# ---------------------------------------------------------------------------
# GFunction plumbing

def test_gfunction_validates_metadata():
    with pytest.raises(ValueError):
        GFunction(eval=math.log, jet=None, antideriv=None, p=1, shape="wavy", name="bad")
    with pytest.raises(ValueError):
        GFunction(eval=math.log, jet=None, antideriv=None, p=-1, shape="concave", name="bad")


def test_gfunction_deriv_requires_jet():
    g = GFunction(eval=math.log, jet=None, antideriv=None, p=1, shape="concave", name="g")
    with pytest.raises(ValueError):
        g.deriv(2.0, 1)
    assert g.deriv(2.0, 0) == math.log(2.0)


# ---------------------------------------------------------------------------
# integral helper

def test_integral_from_1_uses_antiderivative(ln_entry):
    # closed form x ln x - x + 1
    assert integral_from_1(ln_entry.g, 2.0) == pytest.approx(
        2.0 * math.log(2.0) - 1.0, abs=1e-14)
    assert integral_from_1(ln_entry.g, 0.5) == pytest.approx(
        0.5 * math.log(0.5) + 0.5, abs=1e-14)
    assert integral_from_1(ln_entry.g, 1.0) == 0.0


def test_integral_from_1_quadrature_route_matches_closed_form():
    entry = from_expression("ln(x)", p=1, shape="concave")
    assert integral_from_1(entry.g, 3.0) == pytest.approx(
        3.0 * math.log(3.0) - 2.0, abs=1e-10)


# the benchmark's two expressions, with their decay degree and shape
EXPRESSIONS = {"1/x + ln(x)": (1, "concave"), "x*ln(x) - x + ln(2*pi)/2": (2, "concave")}
ANCHORS = [30.0 * 2.0 ** k for k in range(10)]


def expression_g(src):
    p, shape = EXPRESSIONS[src]
    return from_expression(src, p=p, shape=shape).g


@pytest.mark.parametrize("src", EXPRESSIONS)
def test_anchored_integral_matches_one_shot_quadrature(src):
    # each quadrature piece is good to 1e-12, and so is the one-shot reference
    g = expression_g(src)
    rng = random.Random(10)
    ys = ANCHORS + [math.nextafter(a, 0.0) for a in ANCHORS]
    ys += [math.exp(rng.uniform(math.log(30.0), math.log(2e4))) for _ in range(200)]
    for y in ys:
        got = integral_from_1(g, y)
        want = integrate(g.eval, 1.0, y, 1e-12).value
        below = [a for a in ANCHORS if a <= y]
        pieces = len(below) + (y != below[-1]) if below else 1
        ulp = math.ulp(max(abs(got), abs(want)))
        assert abs(got - want) <= (pieces + 1) * 1e-12 + 8.0 * ulp, (src, y, got - want)


@pytest.mark.parametrize("src", EXPRESSIONS)
def test_sigma_on_expression_is_independent_of_query_order(src):
    xs = [0.5, 7.3, 29.9, 30.0, 45.0, 100.0, 250.0, 1e3, 5e3, 1e4]
    up, down = expression_g(src), expression_g(src)
    ascending = [sigma(up, x) for x in xs]
    descending = [sigma(down, x) for x in reversed(xs)][::-1]
    assert ascending == descending
    assert up.anchor_integrals == down.anchor_integrals


def test_anchor_cache_of_a_copy_leaves_the_original_alone():
    g = expression_g("1/x + ln(x)")
    integral_from_1(g, 31.0)
    before = g.anchor_integrals
    copy = GFunction(g.eval, g.jet, g.antideriv, 2, g.shape, g.name, g.sigma_constant,
                     g.anchor_integrals)
    integral_from_1(copy, 1e3)
    assert len(before) == 1 and len(copy.anchor_integrals) == 6
    assert g.anchor_integrals is before
    assert copy.anchor_integrals[0] == before[0]


@pytest.mark.parametrize("src", EXPRESSIONS)
def test_expression_point_costs_one_short_quadrature(src):
    g = expression_g(src)
    for x in (0.5, 7.3, 1e4):
        sigma(g, x)  # fills sigma[g] and the anchors up to x + N
    calls = [0]
    inner = g.eval

    def counted(t):
        calls[0] += 1
        return inner(t)

    g.eval = counted
    for x in (0.5, 7.3, 1e4):
        calls[0] = 0
        sigma(g, x)
        assert calls[0] <= 60, (src, x, calls[0])


# ---------------------------------------------------------------------------
# the defining limit

def test_f_pn_exact_at_normalization_point(ln_entry):
    for n in (2, 10, 100):
        assert f_pn(ln_entry.g, n, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_f_pn_converges_for_log(ln_entry):
    assert f_pn(ln_entry.g, 10_000, 0.5) == pytest.approx(0.5 * LN_PI, abs=2e-5)


def test_f_pn_converges_for_psi2(psi2_entry):
    assert f_pn(psi2_entry.g, 1000, 2.0) == pytest.approx(0.5 * LN_2PI - 1.0, abs=1e-9)


def test_f_pn_error_shrinks_uniformly(ln_entry):
    # sup over a fixed grid of |f_pn - Sigma g| must fall as n doubles
    grid = [0.1 + 0.35 * i for i in range(15)]
    ref = {x: sigma(ln_entry.g, x).value for x in grid}
    sups = []
    for k in (5, 6, 7, 8, 9):
        n = 2 ** k
        sups.append(max(abs(f_pn(ln_entry.g, n, x) - ref[x]) for x in grid))
    assert all(b < a for a, b in zip(sups, sups[1:]))


# ---------------------------------------------------------------------------
# individual strategies

def test_sigma_direct_log(ln_entry):
    res = sigma_direct(ln_entry.g, 0.5)
    assert res.value == pytest.approx(0.5 * LN_PI, abs=1e-9)
    assert res.strategy == "direct"
    assert res.err_estimate >= 0.0


def test_sigma_direct_recip_at_two(recip_entry):
    # psi(2) + gamma = 1
    assert sigma_direct(recip_entry.g, 2.0).value == pytest.approx(1.0, abs=1e-9)


def test_sigma_eulerian_normalization(all_entries):
    for entry in all_entries:
        assert sigma_eulerian(entry.g, 1.0).value == pytest.approx(0.0, abs=1e-12)


def test_sigma_eulerian_log_at_two(ln_entry):
    assert sigma_eulerian(ln_entry.g, 2.0).value == pytest.approx(0.0, abs=1e-10)


def test_sigma_eulerian_psi2_at_half(psi2_entry):
    want = PSI2_HALF - 0.5 * LN_2PI
    assert sigma_eulerian(psi2_entry.g, 0.5).value == pytest.approx(want, abs=1e-9)


def test_sigma_gregory_log(ln_entry):
    res = sigma(ln_entry.g, 0.5)
    assert res.value == pytest.approx(0.5 * LN_PI, abs=1e-10)
    assert res.strategy == "gregory"


def test_sigma_gregory_psi2_normalization(psi2_entry):
    assert sigma(psi2_entry.g, 1.0).value == pytest.approx(0.0, abs=1e-9)


def test_sigma_gregory_fills_constant_on_first_use():
    entry = from_expression("ln(x)", p=1, shape="concave")
    assert entry.g.sigma_constant is None
    res = sigma(entry.g, 2.0)
    assert res.value == pytest.approx(0.0, abs=1e-10)
    assert entry.g.sigma_constant == gregory_constant(entry.g).value


def test_sigma_gregory_validation(ln_entry):
    with pytest.raises(ValueError):
        sigma(ln_entry.g, -1.0)
    with pytest.raises(ValueError):
        sigma(ln_entry.g, 0.0)


# ---------------------------------------------------------------------------
# dispatcher

def test_sigma_dispatch_prefers_gregory_when_armed(ln_entry):
    res = sigma(ln_entry.g, 7.0)
    assert res.strategy == "gregory"
    assert res.value == pytest.approx(math.log(720.0), abs=1e-9)


def test_sigma_dispatch_is_gregory_without_cached_constant():
    entry = from_expression("ln(x)", p=1, shape="concave")
    res = sigma(entry.g, 2.0)
    assert res.strategy == "gregory"
    assert res.value == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("x", [0.25, 0.5, 1.5, 3.7, 10.0])
def test_strategies_agree(all_entries, x):
    for entry in all_entries:
        g = entry.g
        vals = [
            sigma_direct(g, x).value,
            sigma_eulerian(g, x).value,
            sigma(g, x).value,
        ]
        spread = max(vals) - min(vals)
        assert spread <= 1e-8, (entry.name, x, spread)


@given(x=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_difference_equation_log(ln_entry, x):
    lhs = sigma(ln_entry.g, x + 1.0)
    rhs = sigma(ln_entry.g, x)
    resid = lhs.value - rhs.value - math.log(x)
    slack = max(1e-9, 10.0 * (lhs.err_estimate + rhs.err_estimate))
    assert abs(resid) <= slack


@given(x=st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_difference_equation_psi2(psi2_entry, x):
    g = psi2_entry.g
    resid = sigma(g, x + 1.0).value - sigma(g, x).value - g.eval(x)
    assert abs(resid) <= 1e-9


@given(name=st.sampled_from(CATALOG_NAMES + tuple(EXPRESSIONS)),
       logx=st.floats(min_value=math.log(0.01), max_value=math.log(1e4)))
@settings(max_examples=200, deadline=None)
def test_difference_equation_within_err_estimate(name, logx):
    # Sigma g(x+1) - Sigma g(x) = g(x), up to both estimates plus roundoff;
    # on an expression x + N and x + 1 + N may straddle a cached anchor
    g = builtin(name).g if name in CATALOG_NAMES else expression_g(name)
    x = math.exp(logx)
    lo, hi, gx = sigma(g, x), sigma(g, x + 1.0), g.eval(x)
    resid = hi.value - lo.value - gx
    ulp = math.ulp(max(abs(lo.value), abs(hi.value), abs(gx)))
    assert abs(resid) <= lo.err_estimate + hi.err_estimate + 8.0 * ulp, (name, x, resid)


# ---------------------------------------------------------------------------
# one owner per evaluation parameter

def test_sigma_signature_is_fixed():
    # benchmark harnesses bind tol as the third positional argument
    params = inspect.signature(sigma).parameters
    assert list(params) == ["g", "x", "tol"]
    assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params.values())
    assert params["tol"].default == 1e-10


def test_engine_functions_read_p_from_g():
    # p is a property of g; only the ignored p of asymptotic_constant (kept
    # for existing callers) still takes one
    allowed = {"indefsum.constants.asymptotic_constant"}
    taking_p = {
        f"{mod.__name__}.{fname}"
        for mod in (sigma_module, constants, asymptotics, identities)
        for fname, fn in vars(mod).items()
        if inspect.isfunction(fn) and not fname.startswith("_")
        and fn.__module__ == mod.__name__ and "p" in inspect.signature(fn).parameters
    }
    assert taking_p == allowed


@pytest.mark.parametrize("fn,params", [
    (asymptotics.binet, ["g", "x"]),
    (sigma_deriv, ["g", "x", "r"]),
    (identities.euler_series_analogue, ["N"]),
    (shape.classify, ["g", "rng"]),
    (shape.dp_degree, ["g"]),
], ids=["binet", "sigma_deriv", "euler_series_analogue", "classify", "dp_degree"])
def test_one_path_signatures_are_pinned(fn, params):
    # one algorithm per function: no mode, strategy or acceleration switch,
    # and no knob that every caller leaves at one value
    assert list(inspect.signature(fn).parameters) == params


def test_sigma_result_is_a_slotted_plain_value(ln_entry):
    res = sigma(ln_entry.g, 2.5)
    assert type(res).__slots__ == ("value", "err_estimate", "strategy", "terms_used")
    assert not hasattr(res, "__dict__")
    assert res == sigma(ln_entry.g, 2.5)
    other = SigmaResult(res.value + 1.0, res.err_estimate, res.strategy, res.terms_used)
    assert other != res and other.err_estimate == res.err_estimate
    with pytest.raises(TypeError):
        hash(res)


def test_sigma_all_lists_the_public_names():
    public = {
        name for name, obj in vars(sigma_module).items()
        if not name.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == sigma_module.__name__
    }
    assert sorted(sigma_module.__all__) == sorted(public) == [
        "GFunction", "SigmaResult", "gregory_constant", "integral_from_1", "sigma",
        "sigma_deriv"]


# ---------------------------------------------------------------------------
# derivatives

def test_sigma_deriv_log_values(ln_entry):
    g = ln_entry.g
    assert sigma_deriv(g, 1.0, 1).value == pytest.approx(-EULER_GAMMA, abs=1e-10)
    assert sigma_deriv(g, 5.0, 1).value == pytest.approx(DIGAMMA_5, abs=1e-10)
    assert sigma_deriv(g, 3.0, 2).value == pytest.approx(TRIGAMMA_3, abs=1e-9)


def test_sigma_deriv_psi2_first_derivative_is_lgamma(psi2_entry):
    # d/dx of the normalized sum at 2 equals ln Gamma(2) = 0
    assert sigma_deriv(psi2_entry.g, 2.0, 1).value == pytest.approx(0.0, abs=1e-9)


def test_sigma_deriv_r0_delegates(ln_entry):
    a = sigma_deriv(ln_entry.g, 2.5, 0)
    b = sigma(ln_entry.g, 2.5)
    assert a.value == b.value


def test_sigma_deriv_strategies_agree(ln_entry):
    a = sigma_deriv(ln_entry.g, 1.7, 1).value
    b = sigma_deriv_eulerian(ln_entry.g, 1.7, 1, 1e-10).value
    assert a == pytest.approx(b, abs=1e-9)


def test_sigma_deriv_matches_central_difference():
    h = 1e-4
    for name in CATALOG_NAMES + tuple(EXPRESSIONS):
        g = builtin(name).g if name in CATALOG_NAMES else expression_g(name)
        for x in (0.7, 2.3, 41.0):
            central = (sigma(g, x + h).value - sigma(g, x - h).value) / (2.0 * h)
            assert sigma_deriv(g, x, 1).value == pytest.approx(central, rel=1e-6), (name, x)


# D^r ln Gamma = psi^(r-1): five terms of the asymptotic series of the trigamma,
# tetragamma and pentagamma functions as (coefficient, power of 1/x); the first
# omitted term is below 1e-30 relative at x = 1e4
_POLYGAMMA_SERIES = {
    2: ((1.0, 1), (0.5, 2), (1.0 / 6.0, 3), (-1.0 / 30.0, 5), (1.0 / 42.0, 7)),
    3: ((-1.0, 2), (-1.0, 3), (-0.5, 4), (1.0 / 6.0, 6), (-1.0 / 6.0, 8)),
    4: ((2.0, 3), (3.0, 4), (2.0, 5), (-1.0, 7), (4.0 / 3.0, 9)),
}


@pytest.mark.parametrize("r", [2, 3, 4])
def test_sigma_deriv_relative_accuracy_at_large_x(ln_entry, r):
    # the termwise form keeps full relative accuracy where D^r Sigma ln is tiny
    # (2e-12 for r = 4 at x = 1e4); a route through sigma() would lose it to
    # the cancellation of O(1) terms
    x = 1e4
    want = math.fsum(c * x ** -k for c, k in _POLYGAMMA_SERIES[r])
    assert sigma_deriv(ln_entry.g, x, r).value == pytest.approx(want, rel=1e-14, abs=0.0)


def test_sigma_deriv_validation(ln_entry):
    with pytest.raises(ValueError):
        sigma_deriv(ln_entry.g, 2.0, 5)
    with pytest.raises(ValueError):
        sigma_deriv(ln_entry.g, -2.0, 1)
    jetless = GFunction(eval=math.log, jet=None, antideriv=None, p=1,
                        shape="concave", name="jetless")
    with pytest.raises(ValueError):
        sigma_deriv(jetless, 2.0, 1)
