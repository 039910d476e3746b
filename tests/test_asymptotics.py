"""Interpolation remainders, the generalized Binet function, Bernoulli
asymptotic expansions, and the special-case quadrature formula."""

import math

import pytest

from indefsum.asymptotics import asym_expansion, binet, expansion_remainder, wendel_residual
from indefsum.catalog import from_expression, reference_lgamma, reference_psi2
from indefsum.constants import asymptotic_constant, euler_constant_gen
from indefsum.numerics import forward_diffs
from indefsum.sigma import integral_from_1, sigma

from _frozen import LN_2PI, LN_GLAISHER, SIGMA_LN
from reference import binet_integral, liu_formula_psi2, rho


def _binet3_closed_psi2(x: float) -> float:
    """Closed form of the order-3 remainder for the x ln x - x family."""
    return (reference_psi2(x)
            - (x + 1.0) / 12.0 * math.log(x + 1.0)
            + (3.0 * x - 1.0) ** 2 / 12.0
            - x * (6.0 * x - 7.0) / 12.0 * math.log(x)
            - 0.5 * x * LN_2PI
            - LN_GLAISHER)


# ---------------------------------------------------------------------------
# interpolation remainder rho

def test_rho_vanishes_at_interpolation_nodes():
    # offsets 0..p-1 are the nodes of the subtracted polynomial
    for x in (0.0, 1.0):
        assert rho(reference_lgamma, 2, 2.0, x) == pytest.approx(0.0, abs=1e-12)


def test_rho_wendel_bracket_for_lgamma():
    for a in (0.25, 0.5, 0.75):
        for x in (1.0, 10.0, 100.0):
            val = rho(reference_lgamma, 2, x, a)
            lo = (a - 1.0) * math.log1p(a / x)
            assert lo - 1e-12 <= val <= 1e-12, (a, x, val)


def test_rho_requires_positive_order():
    with pytest.raises(ValueError):
        rho(reference_lgamma, 0, 2.0, 0.5)


# ---------------------------------------------------------------------------
# Wendel-type residuals

def test_wendel_residual_integer_step_is_difference_equation(ln_entry):
    # a = 1 collapses to Sigma g(x+1) - Sigma g(x) - g(x)
    for x in (0.5, 2.0, 11.0):
        assert wendel_residual(ln_entry.g, 1.0, x) == pytest.approx(0.0, abs=1e-9)


def test_wendel_residual_decays_along_doublings(ln_entry, psi2_entry, recip_entry):
    for entry in (ln_entry, psi2_entry, recip_entry):
        for a in (0.25, 1.5, 3.0):
            seq = [abs(wendel_residual(entry.g, a, float(2 ** k)))
                   for k in range(4, 9)]
            assert all(b < a_ for a_, b in zip(seq, seq[1:])), (entry.name, a)


def test_wendel_residual_far_field_psi2(psi2_entry):
    assert abs(wendel_residual(psi2_entry.g, 1.5, 1000.0)) <= 1e-4


def test_wendel_limit_form_psi2(psi2_entry, ln_entry):
    # f(x+a) - f(x) - a ln Gamma(x) - (a^2/2) ln x -> 0 for the named sum
    a, x = 1.5, 1000.0
    f = lambda t: sigma(psi2_entry.g, t).value + 0.5 * LN_2PI
    lg = sigma(ln_entry.g, x).value
    form = f(x + a) - f(x) - a * lg - 0.5 * a * a * math.log(x)
    assert abs(form) <= 1e-4


# ---------------------------------------------------------------------------
# generalized Binet function

def test_binet_log_at_one(ln_entry):
    want = 1.0 - 0.5 * LN_2PI
    assert binet(ln_entry.g, 1.0, sigma(ln_entry.g, 1.0).value) == pytest.approx(want, abs=1e-9)
    assert binet(ln_entry.g, 1.0, sigma(ln_entry.g, 1.0).value) == pytest.approx(
        -euler_constant_gen(ln_entry.g), abs=1e-9)


def test_binet_log_far_field_matches_stirling_tail(ln_entry):
    # J(x) ~ 1/(12 x)
    val = binet(ln_entry.g, 100.0, sigma(ln_entry.g, 100.0).value)
    assert val == pytest.approx(1.0 / 1200.0, rel=0.05)


@pytest.mark.parametrize("x", [1.0, 2.5, 10.0])
def test_binet_psi2_matches_closed_form(psi2_entry, x):
    assert binet(psi2_entry.g, x, sigma(psi2_entry.g, x).value) == pytest.approx(
        _binet3_closed_psi2(x), abs=1e-8)


@pytest.mark.parametrize("x", [1.0, 2.5, 10.0])
def test_binet_modes_agree(ln_entry, psi2_entry, recip_entry, x):
    for entry in (ln_entry, psi2_entry, recip_entry):
        explicit = binet(entry.g, x, sigma(entry.g, x).value)
        integral = binet_integral(entry.g, x)
        assert explicit == pytest.approx(integral, abs=1e-7), entry.name


def test_binet_at_one_is_minus_gamma(all_entries):
    for entry in all_entries:
        assert binet(entry.g, 1.0, sigma(entry.g, 1.0).value) == pytest.approx(
            -euler_constant_gen(entry.g), abs=1e-8), entry.name


def test_stirling_decay_profile_monotone(ln_entry, psi2_entry):
    for entry in (ln_entry, psi2_entry):
        prof = [abs(binet(entry.g, x, sigma(entry.g, x).value)) for x in (10.0, 100.0, 1000.0)]
        assert all(b < a for a, b in zip(prof, prof[1:])), entry.name


def test_stirling_chain_bound_psi2(psi2_entry):
    # 0 <= -J^3 <= (5/12) Delta^2 g(x)
    g = psi2_entry.g
    for x in (1.0, 5.0, 20.0, 100.0):
        neg_j3 = -binet(g, x, sigma(g, x).value)
        assert neg_j3 >= -1e-10, x
        assert neg_j3 <= (5.0 / 12.0) * forward_diffs([g(x + i) for i in range(3)])[2] + 1e-10, x


def test_binet_vanishes_for_polynomial_inputs():
    # the remainder of an exactly summable g is identically zero
    for src, p in (("1/2", 1), ("x", 2)):
        entry = from_expression(src, p=p, shape="convex")
        for x in (0.7, 1.0, 3.7, 12.0):
            assert binet(entry.g, x, sigma(entry.g, x).value) == pytest.approx(0.0, abs=1e-9), src


# ---------------------------------------------------------------------------
# Bernoulli expansion

def test_asym_expansion_psi2_far_field(psi2_entry):
    total, terms = asym_expansion(psi2_entry.g, 10.0, 6, 1)
    assert total + 0.5 * LN_2PI == pytest.approx(reference_psi2(10.0), abs=1e-8)
    assert [t.k for t in terms] == [1, 2, 3, 4, 5, 6]
    assert terms[0].coefficient == -0.5
    for t in terms:
        if t.k >= 3 and t.k % 2 == 1:
            assert t.value == 0.0


def test_asym_expansion_log_is_stirling(ln_entry):
    total, _ = asym_expansion(ln_entry.g, 20.0, 2, 1)
    assert total == pytest.approx(reference_lgamma(20.0), abs=1e-6)


def test_asym_expansion_order_zero_is_main_part(ln_entry):
    total, terms = asym_expansion(ln_entry.g, 10.0, 0, 1)
    assert terms == []
    want = asymptotic_constant(ln_entry.g) + integral_from_1(ln_entry.g, 10.0)
    assert total == pytest.approx(want, abs=1e-12)


def test_asym_expansion_averaged_copies(psi2_entry):
    # m = 2 targets the average of the two interleaved evaluations
    total, _ = asym_expansion(psi2_entry.g, 10.0, 6, 2)
    avg = 0.5 * (sigma(psi2_entry.g, 10.0).value + sigma(psi2_entry.g, 10.5).value)
    assert total == pytest.approx(avg, abs=1e-8)


def test_asym_expansion_validation(ln_entry):
    with pytest.raises(ValueError):
        asym_expansion(ln_entry.g, 10.0, 9, 1)
    with pytest.raises(ValueError):
        asym_expansion(ln_entry.g, 10.0, 4, 0)
    for x in (0.0, -1.0):
        with pytest.raises(ValueError, match="^x must be positive$"):
            asym_expansion(ln_entry.g, x, 4, 1)


@pytest.mark.parametrize("q", [2, 4])
@pytest.mark.parametrize("x", [10.0, 25.0])
def test_expansion_error_bounded_by_first_omitted_term(all_entries, q, x):
    # |expansion(q) - Sigma g| <= 2 |first omitted nonzero term|; the
    # odd-index Bernoulli term above an even q vanishes, so that term
    # lives at order q + 2
    for entry in all_entries:
        if entry.g.p == 0:
            continue
        total, _ = asym_expansion(entry.g, x, q, 1)
        err = abs(total - sigma(entry.g, x).value)
        _, probe = asym_expansion(entry.g, x, q + 2, 1)
        omitted = abs(probe[-1].value)
        assert err <= 2.0 * omitted, (entry.name, q, x)


def test_expansion_remainder_coincides_with_binet_at_order_one(ln_entry):
    for x in (5.0, 50.0):
        assert expansion_remainder(ln_entry.g, x) == pytest.approx(
            binet(ln_entry.g, x, sigma(ln_entry.g, x).value), abs=1e-12)


def test_expansion_remainder_psi2_two_term_law(psi2_entry):
    # remainder after the q = 2 expansion: 1/(720 x^2) - 1/(5040 x^4) + ...
    for x in (25.0, 50.0, 100.0):
        rem = expansion_remainder(psi2_entry.g, x)
        assert abs(rem) <= 1.1 / (720.0 * x * x), x
    x = 50.0
    rem = expansion_remainder(psi2_entry.g, x)
    law = 1.0 / (720.0 * x * x) - 1.0 / (5040.0 * x ** 4)
    assert rem == pytest.approx(law, rel=0.10)


# ---------------------------------------------------------------------------
# special-case quadrature formula

def test_liu_formula_psi2_values(psi2_entry):
    assert liu_formula_psi2(1.0) == pytest.approx(0.5 * LN_2PI, abs=1e-7)
    assert liu_formula_psi2(0.5) == pytest.approx(reference_psi2(0.5), abs=1e-7)
    assert liu_formula_psi2(10.0) == pytest.approx(reference_psi2(10.0), abs=1e-8)
