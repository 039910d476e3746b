"""Residual checks for the classical identity catalog: Raabe,
multiplication, Webster, Wallis, reflection, series expansions, and the
inequality chains."""

import math

import pytest

from indefsum.identities import (
    _WALLIS_MS,
    _richardson_by_4,
    _wallis_partials,
    alpha_beta_sup_gap,
    bounds_alpha_beta,
    chain_report,
    decay_report,
    euler_series_analogue,
    euler_series_closed,
    inequality_chains_psi2,
    lngamma_value,
    make_report,
    mult_finite_sum_psi2,
    mult_sides,
    psi2_value,
    raabe_sides,
    reflection_sides_psi2,
    sides_report,
    taylor_psi2,
    wallis_extrapolated,
    webster_sides,
)
from indefsum.asymptotics import binet
from indefsum.catalog import builtin, from_expression, reference_lgamma, reference_psi2
from indefsum.sigma import integral_from_1

from _frozen import (
    EULER_SERIES_CLOSED,
    LN_2PI,
    LN_GLAISHER,
    PSI2_HALF,
    SUP_GAP,
    WALLIS_LIMIT_1,
    WALLIS_LIMIT_2,
    ZETA_2,
)
from reference import characterization_limit_psi2, euler_series_raw, gautschi_root_check, \
    inequality_chains_psi2_per_point, mult_scaling_limit_psi2, mult_sides_per_point, \
    wallis_partial_psi2


# ---------------------------------------------------------------------------
# report plumbing

def test_make_report_max_abs_and_validation():
    r = make_report("demo", [1, 2, 3], [0.5, -2.0, 0.25])
    assert r.max_abs == 2.0
    assert r.sides is None
    with pytest.raises(ValueError):
        make_report("demo", [1, 2], [0.1])


@pytest.mark.parametrize("residuals, sides, what", [
    ([0.0, math.nan], None, "residual"),
    ([0.0, math.inf], [[1.0], [2.0]], "residual"),
    ([0.0, 0.0], [[1.0, 2.0], [math.nan, 2.0]], "side"),
    ([0.0, 0.0], [[], [-math.inf]], "side"),
])
def test_make_report_refuses_values_that_are_not_finite(residuals, sides, what):
    # max(0.0, nan) is 0.0: a NaN side behind a finite residual is refused too
    with pytest.raises(ArithmeticError, match=f"^demo: a {what} is not finite$"):
        make_report("demo", [1, 2], residuals, sides)


def test_sides_report_is_lhs_minus_rhs_with_sides_of_their_own():
    pairs = [(3.0, 1.0), (0.5, 0.75)]
    r = sides_report("demo", ["a", "b"], pairs)
    assert (r.residuals, r.max_abs) == ([2.0, -0.25], 2.0)
    assert r.sides == [[3.0, 1.0], [0.5, 0.75]]
    assert all(type(s) is list for s in r.sides)


def test_chain_report_scaled_violation():
    r = chain_report("demo", [1, 2, 3, 4], [[], [0.0, 0.5, 0.5], [0.0, 4.0, 1.0],
                                             [0.5, 0.25]])
    # an empty chain holds; a violation is the worst gap over max(1, |member|)
    assert r.residuals == [0.0, 0.0, 3.0 / 4.0, 0.25]
    assert r.max_abs == 0.75
    assert r.sides[2] == [0.0, 4.0, 1.0]


def test_decay_report_steps_and_refuses_magnitudes_that_are_not_finite():
    r = decay_report("demo", [1.0, 2.0, 4.0], [([0.5], [3.0, 1.0, 1.5])])
    assert r.points == [[0.5, 1.0, 2.0], [0.5, 2.0, 4.0]]
    assert (r.residuals, r.sides) == ([0.0, 0.5], None)
    # the report has no sides: max(0.0, nan - 1.0) would read 0.0, a pass
    with pytest.raises(ArithmeticError, match="^demo: a magnitude is not finite$"):
        decay_report("demo", [1.0, 2.0], [([], [1.0, math.nan])])


def test_engine_backed_values_match_references():
    for x in (0.5, 2.5, 7.0):
        assert psi2_value(x) == pytest.approx(reference_psi2(x), abs=1e-9)
        assert lngamma_value(x) == pytest.approx(reference_lgamma(x), abs=1e-9)


# ---------------------------------------------------------------------------
# Raabe-type area identity

@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0, 10.0])
def test_raabe_residual_log_and_psi2(ln_entry, psi2_entry, x):
    for entry in (ln_entry, psi2_entry):
        lhs, rhs = raabe_sides(entry.g, x)
        assert abs(lhs - rhs) <= 1e-7, entry.name


@pytest.mark.parametrize("x", [0.5, 2.0])
def test_raabe_residual_other_entries(xlnx_entry, recip_entry, x):
    for entry in (xlnx_entry, recip_entry):
        lhs, rhs = raabe_sides(entry.g, x)
        assert abs(lhs - rhs) <= 1e-7, entry.name


def test_raabe_area_constancy(ln_entry, psi2_entry):
    # integral_x^{x+1} Sigma g - integral_1^x g is the constant sigma[g]
    for entry in (ln_entry, psi2_entry):
        vals = [raabe_sides(entry.g, x)[0] - integral_from_1(entry.g, x)
                for x in (0.5, 1.0, 2.0, 5.0)]
        assert max(vals) - min(vals) <= 1e-7, entry.name


@pytest.mark.parametrize("x", [0.5, 1.0, 2.0, 5.0])
def test_raabe_closed_form_psi2(psi2_entry, x):
    lhs = raabe_sides(psi2_entry.g, x)[0] + 0.5 * LN_2PI
    want = (0.5 * x * x * math.log(x) - 0.75 * x * x
            + 0.25 * (2.0 * x + 1.0) * LN_2PI + LN_GLAISHER)
    assert lhs == pytest.approx(want, abs=1e-7)


# ---------------------------------------------------------------------------
# multiplication

@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("x", [1.0, 2.7])
def test_mult_residual_all_entries(all_entries, m, x):
    for entry in all_entries:
        [(lhs, rhs)] = mult_sides(entry.g, m, [x])
        assert abs(lhs - rhs) <= 1e-7, entry.name


def test_mult_residual_degenerate_copy_count(psi2_entry):
    [(lhs, rhs)] = mult_sides(psi2_entry.g, 1, [3.3])
    assert abs(lhs - rhs) <= 1e-10


def test_mult_sides_equal_the_per_point_form(all_entries):
    # g_m, sigma[g_m] and integral_1^m g_m once per m; every float as at a lone point
    gs = [e.g for e in all_entries] + [from_expression("1/x + ln(x)", p=1, shape="concave").g]
    xs = [0.3, 1.0, 2.7, 8.0]
    for g in gs:
        for m in (1, 2, 3, 5):
            assert mult_sides(g, m, xs) == [mult_sides_per_point(g, m, x) for x in xs], \
                (g.name, m)
    assert mult_sides(gs[0], 2, []) == []
    with pytest.raises(ValueError):
        mult_sides(gs[0], 0, xs)


def test_mult_sides_compute_one_scaled_constant_per_m(monkeypatch, psi2_entry):
    from indefsum import identities
    real = identities.asymptotic_constant
    seen = []
    monkeypatch.setattr(identities, "asymptotic_constant",
                        lambda g: seen.append(g.name) or real(g))
    mult_sides(psi2_entry.g, 3, [0.3, 1.0, 2.7, 8.0])
    assert len(seen) == 2 and seen[0] == psi2_entry.g.name


def test_mult_finite_sum_psi2():
    for m in (2, 3):
        lhs, rhs = mult_finite_sum_psi2(m)
        assert lhs == pytest.approx(rhs, abs=1e-7), m
    with pytest.raises(ValueError):
        mult_finite_sum_psi2(0)


def test_mult_scaling_limit_psi2():
    # approach rate ~ (x/2m)(1 + ln(2 pi) - ln m - ln x): the magnitude
    # may bump where the parenthesis changes sign, so only the net
    # approach and the final size are asserted
    for x, cap in ((1.0, 3e-3), (2.0, 5e-3)):
        limit = 0.5 * x * x * math.log(x) - 0.75 * x * x
        errs = [abs(v - limit) for v in mult_scaling_limit_psi2(x, [10, 100, 1000])]
        assert errs[-1] < errs[0], x
        assert errs[-1] <= cap, (x, errs[-1])
    with pytest.raises(ValueError):
        mult_scaling_limit_psi2(0.0, [10])


# ---------------------------------------------------------------------------
# Webster functional equation

@pytest.mark.parametrize("m", [1, 2, 5])
@pytest.mark.parametrize("x", [0.7, 1.0, 2.0])
def test_webster_functional_equation(m, x):
    lhs, rhs = webster_sides(m, x)
    assert abs(lhs - rhs) <= 1e-7


# ---------------------------------------------------------------------------
# Wallis-type products

def test_wallis_partials_move_toward_limits():
    # keep n below the cancellation noise floor of the n^2 ln n terms
    d1 = [abs(wallis_partial_psi2(n)[0] - WALLIS_LIMIT_1) for n in (25, 100, 400)]
    d2 = [abs(wallis_partial_psi2(n)[1] - WALLIS_LIMIT_2) for n in (25, 100, 400)]
    assert all(b < a for a, b in zip(d1, d1[1:]))
    assert all(b < a for a, b in zip(d2, d2[1:]))


def test_wallis_partials_err_in_powers_of_one_over_m_squared():
    # the table's premise: the error's leading term is c/m^2, so doubling m quarters it
    ms = [4, 8, 16, 32, 64]
    partials = [wallis_partial_psi2(m) for m in ms]
    for i, limit in enumerate((WALLIS_LIMIT_1, WALLIS_LIMIT_2)):
        errs = [p[i] - limit for p in partials]
        ratios = [a / b for a, b in zip(errs, errs[1:])]
        assert all(3.9 <= r <= 4.1 for r in ratios), (i, ratios)


def test_richardson_by_4_removes_four_powers_of_h():
    c = 0.5772156649015329
    for a, b, d, e in ((1.3, -2.1, 5.0, -7.7), (100.0, -50.0, 30.0, 20.0)):
        column = [c + a * h + b * h ** 2 + d * h ** 3 + e * h ** 4
                  for h in (1.0 / (m * m) for m in _WALLIS_MS)]
        assert abs(_richardson_by_4(column) - c) <= 1e-13, (a, b, d, e)


def test_wallis_engine_partials_equal_the_reference():
    assert _wallis_partials() == [wallis_partial_psi2(m) for m in _WALLIS_MS]


@pytest.mark.parametrize("n", [4, 5, 41, 200, 10_000])
def test_wallis_extrapolated_bit_identical_to_two_partials(n):
    # any two rows m = n/2, n: the engine's partials equal the term-by-term reference,
    # and one table level over them is (4 full - half)/3 to the bit
    half, full = _wallis_partials((n // 2, n))
    assert half == wallis_partial_psi2(n // 2)
    assert full == wallis_partial_psi2(n)
    for i in (0, 1):
        assert _richardson_by_4([half[i], full[i]]) == (4.0 * full[i] - half[i]) / 3.0


def test_wallis_extrapolated_meets_the_limits():
    h1, h2 = wallis_extrapolated()
    assert abs(h1 - WALLIS_LIMIT_1) <= 1e-9
    assert abs(h2 - WALLIS_LIMIT_2) <= 1e-9


def test_wallis_g_evals(monkeypatch):
    # 64 sigma() points (435 shift and 512 head evaluations) and the 64 values g(k)
    g = builtin("psi2g").g
    wallis_extrapolated()  # sigma[psi2g] is cached before counting
    evals = [0]
    f = g.eval

    def counting(x):
        evals[0] += 1
        return f(x)

    monkeypatch.setattr(g, "eval", counting)
    wallis_extrapolated()
    assert evals[0] <= 1_011


# ---------------------------------------------------------------------------
# reflection

@pytest.mark.parametrize("x", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_reflection_residual(x):
    lhs, rhs = reflection_sides_psi2(x)
    assert abs(lhs - rhs) <= 1e-7


@pytest.mark.parametrize("bad", [-0.1, 0.0, 1.0, 1.5])
def test_reflection_domain(bad):
    with pytest.raises(ValueError):
        reflection_sides_psi2(bad)


# ---------------------------------------------------------------------------
# series expansions

@pytest.mark.parametrize("x", [-0.5, -0.25, 0.25, 0.5])
def test_taylor_psi2(x):
    assert taylor_psi2(x) == pytest.approx(reference_psi2(1.0 + x), abs=1e-9)


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.2])
def test_taylor_domain(bad):
    with pytest.raises(ValueError):
        taylor_psi2(bad)


def test_euler_series_closed_value():
    assert euler_series_closed() == pytest.approx(EULER_SERIES_CLOSED, abs=1e-12)


def test_euler_series_analogue():
    assert euler_series_analogue(50) == pytest.approx(EULER_SERIES_CLOSED, abs=1e-12)
    # the raw two-term head is zeta(2)/24 on the nose
    assert euler_series_raw(2) == pytest.approx(ZETA_2 / 24.0, abs=1e-15)
    raw = abs(euler_series_raw(10) - EULER_SERIES_CLOSED)
    acc = abs(euler_series_analogue(10) - EULER_SERIES_CLOSED)
    assert acc < raw


# ---------------------------------------------------------------------------
# inequality chains

@pytest.mark.parametrize("x", [0.5, 2.5, 5.0])
@pytest.mark.parametrize("a", [0.25, 1.0, 2.25])
def test_inequality_chains_hold(x, a):
    report = inequality_chains_psi2([x], [a])
    assert report.max_abs <= 1e-9, (x, a, report.max_abs)
    assert len(report.points) == len(report.residuals) == 4


def test_gautschi_chain_gated_by_digamma_root():
    tags = {pt[0]: pt[3] for pt in inequality_chains_psi2([1.0], [0.25]).points}
    assert tags["gautschi"] == "not-applicable"
    tags = {pt[0]: pt[3] for pt in inequality_chains_psi2([1.0], [1.25]).points}
    assert tags["gautschi"] == "checked"


# the grid `verify --suite inequalities` checks
CLI_XS = [0.25 * i for i in range(1, 21)]
CLI_AS = [0.25 * j for j in range(10)]


def test_inequality_grid_equals_its_points_one_at_a_time():
    grid = inequality_chains_psi2(CLI_XS, CLI_AS)
    points, residuals, sides = [], [], []
    for x in CLI_XS:
        for a in CLI_AS:
            rep = inequality_chains_psi2([x], [a])
            points += rep.points
            residuals += rep.residuals
            sides += rep.sides
    assert (grid.points, grid.residuals, grid.sides) == (points, residuals, sides)
    assert grid.max_abs == max(abs(r) for r in residuals)


def test_inequality_grid_equals_the_per_point_form():
    # the per-x and per-a terms are computed once; every float as at a lone point
    xs = [0.25, 0.5, 1.25, 1.5, 2.5, 7.75]
    a_grid = [0.0, 0.25, 0.5, 1.0, 1.75, 2.0, 2.25, 2.6]
    grid = inequality_chains_psi2(xs, a_grid)
    want = inequality_chains_psi2_per_point(xs, a_grid)
    assert grid == want
    assert grid.identity == "inequality-chains"
    assert {pt[3] for pt in grid.points if pt[0] == "gautschi"} == {"checked", "not-applicable"}


def test_inequality_grid_sides_never_alias():
    grid = inequality_chains_psi2([0.5, 2.5], CLI_AS)
    assert len({id(s) for s in grid.sides}) == len(grid.sides)
    g = builtin("psi2g").g
    for x in (0.5, 2.5):
        chains = [s for pt, s in zip(grid.points, grid.sides)
                  if pt[0] == "stirling" and pt[1] == x]
        assert len(chains) == len(CLI_AS)
        # one evaluation per x, handed out as equal lists of their own
        assert all(c == chains[0] and c is not chains[0] for c in chains[1:])
        assert chains[0][1] == -binet(g, x)
        chains[0].append(None)
        assert all(len(c) == 4 for c in chains[1:])


def test_inequality_grid_validation(monkeypatch):
    for xs, a_grid in (([0.0], [0.5]), ([1.0, -1.0], [0.5]), ([1.0], [0.5, -0.25])):
        with pytest.raises(ValueError):
            inequality_chains_psi2(xs, a_grid)
    g = builtin("psi2g").g
    monkeypatch.setattr(g, "eval", lambda x: pytest.fail("an empty grid evaluates g"))
    for xs, a_grid in (([], CLI_AS), (CLI_XS, [])):
        empty = inequality_chains_psi2(xs, a_grid)
        assert (empty.points, empty.residuals, empty.max_abs) == ([], [], 0.0)


def test_alpha_beta_bounds_bracket_reference():
    xs = [0.1 * k for k in range(1, 501, 7)] + [10.0, 20.0, 35.0, 50.0]
    for x in xs:
        alpha, beta = bounds_alpha_beta(x)
        ref = reference_psi2(x)
        scale = max(1.0, abs(ref))
        assert alpha <= ref + 1e-9 * scale, x
        assert ref <= beta + 1e-9 * scale, x


def test_alpha_beta_sup_gap_matches_closed_form():
    gap = alpha_beta_sup_gap()
    assert gap == pytest.approx(SUP_GAP, abs=1e-3)
    assert gap <= SUP_GAP + 1e-9


def test_characterization_limit():
    assert characterization_limit_psi2(0.0, 64) == 0.0
    vals = [abs(characterization_limit_psi2(2.0, n)) for n in (64, 256, 1024)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 5e-4


def test_gautschi_root_is_digamma_zero():
    assert gautschi_root_check() <= 1e-12
