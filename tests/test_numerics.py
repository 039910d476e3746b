"""Difference calculus, special coefficients, quadrature, interpolation."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indefsum import numerics
from indefsum.numerics import (
    QuadratureError,
    bernoulli_number,
    divided_difference,
    forward_diffs,
    gen_binomial,
    gregory_terms,
    integrate,
    integrate_singular,
    zeta_int,
    zeta_int_minus_1,
)

from _frozen import ZETA_2, ZETA_3, psi2_integrand
from reference import bernoulli_fraction, gregory_fraction, interp_poly_eval, \
    richardson_extrapolate


def test_numerics_public_names_are_pinned():
    # one accessor per value: the coefficient tables are read through gregory_terms
    # and bernoulli_number; their exact rationals live in tests/reference.py
    public = sorted(
        name for name, obj in vars(numerics).items()
        if not name.startswith("_") and callable(obj)
        and getattr(obj, "__module__", None) == numerics.__name__
    )
    assert public == [
        "QuadResult", "QuadratureError", "bernoulli_number", "divided_difference",
        "forward_diffs", "gen_binomial", "gregory_terms", "integrate",
        "integrate_singular", "zeta_int", "zeta_int_minus_1"]


# ---------------------------------------------------------------------------
# generalized binomial

def test_gen_binomial_small_values():
    assert gen_binomial(0.5, 2) == pytest.approx(-0.125, abs=1e-15)
    assert gen_binomial(3.0, 5) == 0.0
    assert gen_binomial(7.3, 0) == 1.0
    assert gen_binomial(7.0, 3) == pytest.approx(math.comb(7, 3), rel=1e-14)


@given(n=st.integers(min_value=0, max_value=25), j=st.integers(min_value=0, max_value=8))
def test_gen_binomial_matches_comb_on_integers(n, j):
    assert gen_binomial(float(n), j) == pytest.approx(math.comb(n, j), rel=1e-12, abs=1e-12)


def test_gen_binomial_rejects_negative_order():
    with pytest.raises(ValueError):
        gen_binomial(1.0, -1)


# ---------------------------------------------------------------------------
# forward differences and divided differences

def test_forward_diff_log():
    assert forward_diffs([math.log(1.0)])[0] == 0.0
    assert forward_diffs([math.log(1.0), math.log(2.0)])[1] == pytest.approx(
        math.log(2.0), abs=1e-15)
    assert forward_diffs([math.log(2.0), math.log(3.0), math.log(4.0)])[2] == pytest.approx(
        math.log(8.0 / 9.0), abs=1e-14)


def test_forward_diff_tail_tracks_log():
    # Delta(x ln x - x + c)(x) = ln x + O(1/x)
    x = 1.0e6
    delta = forward_diffs([psi2_integrand(x), psi2_integrand(x + 1.0)])[1]
    assert delta - math.log(x) == pytest.approx(0.0, abs=1e-5)


def test_divided_difference_log_and_quadratics():
    assert divided_difference(math.log, [1.0, 2.0]) == pytest.approx(math.log(2.0), abs=1e-15)
    sq = lambda t: t * t
    assert divided_difference(sq, [0.3, 1.7, 4.1]) == pytest.approx(1.0, rel=1e-12)
    assert divided_difference(sq, [1.0, 2.0, 3.0, 4.0]) == pytest.approx(0.0, abs=1e-12)


@given(
    nodes=st.lists(
        st.floats(min_value=0.5, max_value=9.5, allow_nan=False),
        min_size=2, max_size=5, unique=True,
    ).filter(lambda ns: min(abs(a - b) for i, a in enumerate(ns) for b in ns[i + 1:]) > 1e-3)
)
@settings(max_examples=40, deadline=None)
def test_divided_difference_symmetric_in_nodes(nodes):
    v1 = divided_difference(math.log, nodes)
    v2 = divided_difference(math.log, list(reversed(nodes)))
    assert v1 == pytest.approx(v2, rel=1e-6, abs=1e-9)


@pytest.mark.parametrize("j", range(7))
def test_forward_diff_is_scaled_divided_difference(j):
    x = 1.7
    nodes = [x + i for i in range(j + 1)]
    lhs = forward_diffs([math.log(t) for t in nodes])[j]
    rhs = divided_difference(math.log, nodes) * math.factorial(j)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-12)


def _textbook_diffs(values):
    # the level-by-level recurrence, kept as the reference for forward_diffs
    out = []
    level = list(values)
    while level:
        out.append(level[0])
        level = [level[i + 1] - level[i] for i in range(len(level) - 1)]
    return out


def test_forward_diffs_bit_identical_to_textbook_recurrence():
    rng = random.Random(7)
    for n in range(14):
        for _ in range(50):
            window = [rng.uniform(-1.0, 1.0) * 10.0 ** rng.randint(-8, 8) for _ in range(n)]
            assert forward_diffs(window) == _textbook_diffs(window), window


# ---------------------------------------------------------------------------
# Gregory coefficients and Bernoulli numbers

def test_gregory_first_values():
    assert numerics._GREGORY[:4] == (0.5, -1.0 / 12.0, 1.0 / 24.0, -19.0 / 720.0)
    assert gregory_fraction(3) == Fraction(1, 24)
    assert gregory_fraction(5) == Fraction(3, 160)
    assert gregory_fraction(6) == Fraction(-863, 60480)


def test_gregory_signs_alternate_and_magnitudes_decrease():
    vals = numerics._GREGORY
    for i, v in enumerate(vals):
        expected_sign = 1.0 if i % 2 == 0 else -1.0
        assert math.copysign(1.0, v) == expected_sign
    mags = [abs(v) for v in vals[1:]]
    assert all(b < a for a, b in zip(mags, mags[1:]))


def test_coefficient_tables_are_the_exact_rationals_rounded():
    # the engine reads G_1..G_30 and B_0..B_30 from literals, never from the builders
    assert numerics._GREGORY == tuple(float(gregory_fraction(j)) for j in range(1, 31))
    assert numerics._BERNOULLI == tuple(float(bernoulli_fraction(k)) for k in range(31))


@pytest.mark.parametrize("J", range(1, 13))
def test_gregory_terms_bit_identical_to_exact_coefficients(J):
    x = 3.7
    diffs = _textbook_diffs([math.log(x + i) for i in range(J)])
    expected = [float(gregory_fraction(n)) * d for n, d in enumerate(diffs, 1)]
    assert gregory_terms(math.log, x, J) == expected


def test_gregory_terms_order_range():
    assert gregory_terms(math.log, 2.0, 0) == []
    with pytest.raises(ValueError):
        gregory_terms(math.log, 2.0, 31)


def test_gregory_coefficient_is_binomial_moment():
    # G_5 = integral_0^1 C(t, 5) dt
    res = integrate(lambda t: gen_binomial(t, 5), 0.0, 1.0, 1e-13)
    assert res.value == pytest.approx(float(gregory_fraction(5)), abs=1e-13)


def test_bernoulli_values():
    assert bernoulli_number(0) == 1.0
    assert bernoulli_number(1) == -0.5
    assert bernoulli_number(2) == pytest.approx(1.0 / 6.0, abs=1e-16)
    assert bernoulli_fraction(4) == Fraction(-1, 30)
    assert bernoulli_fraction(6) == Fraction(1, 42)
    for k in range(3, 16, 2):
        assert bernoulli_number(k) == 0.0


# ---------------------------------------------------------------------------
# integer zeta values

def test_zeta_int_values():
    assert zeta_int(2) == pytest.approx(ZETA_2, abs=1e-15)
    assert zeta_int(3) == pytest.approx(ZETA_3, abs=1e-15)
    assert zeta_int(50) == pytest.approx(1.0 + 2.0 ** -50, rel=1e-15)
    assert zeta_int_minus_1(50) == pytest.approx(2.0 ** -50, rel=1e-8)


@pytest.mark.parametrize("bad", [1, 0, -3, 61])
def test_zeta_int_rejects_out_of_range(bad):
    with pytest.raises(ValueError):
        zeta_int(bad)


# ---------------------------------------------------------------------------
# quadrature

def test_integrate_constant_and_log():
    res = integrate(lambda t: 1.0, 0.0, 1.0)
    assert res.value == pytest.approx(1.0, abs=1e-14)
    res = integrate(math.log, 1.0, 2.0)
    assert res.value == pytest.approx(2.0 * math.log(2.0) - 1.0, abs=1e-12)
    assert res.err_estimate >= 0.0
    assert res.subdivisions > 0


def test_integrate_requires_increasing_limits():
    with pytest.raises(ValueError):
        integrate(lambda t: t, 2.0, 1.0)


@given(b=st.floats(min_value=1.05, max_value=1.95))
@settings(max_examples=25, deadline=None)
def test_integrate_additive_in_interval(b):
    tol = 1e-11
    whole = integrate(math.log, 1.0, 2.0, tol).value
    split = integrate(math.log, 1.0, b, tol).value + integrate(math.log, b, 2.0, tol).value
    assert whole == pytest.approx(split, abs=2.0 * tol)


def test_integrate_singular_log_sine():
    # integral_0^(1/2) ln sin(pi t) dt = -(ln 2)/2, log singularity at t = 0
    res = integrate_singular(lambda t: math.log(math.sin(math.pi * t)), 0.0, 0.5, 1e-11)
    assert res.value == pytest.approx(-0.5 * math.log(2.0), abs=1e-11)
    assert res.err_estimate <= 1e-11


# ---------------------------------------------------------------------------
# interpolation and extrapolation

def test_interp_poly_eval_examples():
    assert interp_poly_eval(math.log, 1.0, 1, 5.0) == pytest.approx(0.0, abs=1e-15)
    assert interp_poly_eval(math.log, 1.0, 2, 3.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-13)
    sq = lambda t: t * t
    for x in (0.2, 1.9, 7.3):
        assert interp_poly_eval(sq, 1.0, 3, x) == pytest.approx(x * x, rel=1e-12)


def test_interp_poly_eval_reproduces_nodes():
    for i in range(4):
        got = interp_poly_eval(math.log, 2.0, 4, 2.0 + i)
        assert got == pytest.approx(math.log(2.0 + i), rel=1e-12, abs=1e-12)


def test_richardson_extrapolate_geometric_error():
    seq = [1.0 + 3.0 * 2.0 ** -k for k in range(10)]
    value, err = richardson_extrapolate(seq)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert err >= 0.0


@given(
    limit=st.floats(min_value=-5.0, max_value=5.0),
    amp=st.floats(min_value=0.1, max_value=4.0),
)
@settings(max_examples=30, deadline=None)
def test_richardson_recovers_limit(limit, amp):
    seq = [limit + amp * 2.0 ** -k for k in range(9)]
    value, _ = richardson_extrapolate(seq)
    assert value == pytest.approx(limit, abs=1e-10)
