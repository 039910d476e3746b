"""Normalization constants: sigma[g], gamma[g], and their special-case
integral and series representations."""

import math

import pytest

from indefsum.catalog import builtin, from_expression
from indefsum.numerics import integrate
from indefsum.sigma import GFunction, gregory_constant
from indefsum.constants import asymptotic_constant, constants_report, euler_constant_gen
from indefsum.shape import ShapeError

from _frozen import (
    EULER_GAMMA,
    GAMMA_PSI2G,
    SIGMA_LN,
    SIGMA_PSI2G,
    SIGMA_XLNX,
)
from reference import b2_fractional, fontana_partial, gamma_piecewise_interp, \
    sigma_eulerian, sigma_integral_rep_psi2


# ---------------------------------------------------------------------------
# sigma[g]

def test_asymptotic_constant_closed_forms(all_entries):
    want = {
        "ln": SIGMA_LN,
        "psi2g": SIGMA_PSI2G,
        "xlnx": SIGMA_XLNX,
        "recip": EULER_GAMMA,
        "1/x + ln(x)": EULER_GAMMA + SIGMA_LN,
        "x*ln(x) - x + ln(2*pi)/2": SIGMA_PSI2G,
    }
    # the benchmark's two expressions have no antiderivative, so the
    # integral in the Gregory form goes through quadrature
    exprs = ("1/x + ln(x)", "x*ln(x) - x + ln(2*pi)/2")
    gs = [entry.g for entry in all_entries] + [from_expression(src).g for src in exprs]
    for g in gs:
        err = abs(asymptotic_constant(g) - want[g.name])
        assert err <= 1e-12, (g.name, err)
        report = constants_report(g)
        assert report.method == "gregory"
        assert report.err >= err, (g.name, report.err, err)


def test_gregory_constant_agrees_with_eulerian_quadrature(ln_entry, recip_entry):
    # the independent route: sigma[g] = integral_1^2 Sigma g, with Sigma g
    # from the Eulerian series
    for entry in (ln_entry, recip_entry):
        g = entry.g
        quad = integrate(lambda t: sigma_eulerian(g, t, tol=1e-12).value,
                         1.0, 2.0, tol=1e-11)
        assert quad.value == pytest.approx(gregory_constant(g).value, abs=1e-11), entry.name


def test_asymptotic_constant_is_idempotent(ln_entry):
    first = asymptotic_constant(ln_entry.g)
    assert asymptotic_constant(ln_entry.g) == first
    assert ln_entry.g.sigma_constant == first


# ---------------------------------------------------------------------------
# gamma[g]

def test_euler_constant_gen_values(all_entries):
    want = {
        "ln": SIGMA_LN,       # head vanishes since g(1) = 0
        "psi2g": GAMMA_PSI2G,
        "xlnx": GAMMA_PSI2G,  # same constant as the normalized psi family
        "recip": EULER_GAMMA,
    }
    for entry in all_entries:
        assert euler_constant_gen(entry.g) == pytest.approx(
            want[entry.name], abs=1e-8), entry.name


def test_euler_constant_sign_geometry(ln_entry, psi2_entry):
    assert euler_constant_gen(ln_entry.g) < 0.0
    assert euler_constant_gen(psi2_entry.g) > 0.0


def test_euler_constant_rejects_non_minimal_order(ln_entry):
    g = ln_entry.g
    with pytest.raises(ShapeError):
        euler_constant_gen(GFunction(g.eval, g.jet, g.antideriv, 2, g.shape, g.name))


def test_gamma_piecewise_interp_routes(recip_entry, psi2_entry):
    assert gamma_piecewise_interp(recip_entry.g, 2000) == pytest.approx(
        EULER_GAMMA, abs=1e-8)
    assert gamma_piecewise_interp(psi2_entry.g, 2000) == pytest.approx(
        GAMMA_PSI2G, abs=1e-8)


def test_gamma_two_routes_agree(all_entries):
    for entry in all_entries:
        a = euler_constant_gen(entry.g)
        b = gamma_piecewise_interp(entry.g, 2000)
        assert a == pytest.approx(b, abs=1e-4), entry.name


def test_gamma_piecewise_interp_validates_n(recip_entry):
    with pytest.raises(ValueError):
        gamma_piecewise_interp(recip_entry.g, 5)


# ---------------------------------------------------------------------------
# integral representation of sigma for the x ln x family

def test_sigma_integral_rep_psi2_value():
    assert sigma_integral_rep_psi2(2048) == pytest.approx(SIGMA_PSI2G, abs=1e-12)


def test_sigma_integral_rep_partials_monotone():
    value, partials = sigma_integral_rep_psi2(2048, with_partials=True)
    dists = [abs(p - value) for p in partials]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert dists[-1] <= 1e-8


def test_b2_fractional_periodic():
    assert b2_fractional(0.0) == pytest.approx(1.0 / 6.0, abs=1e-15)
    assert b2_fractional(0.25) == b2_fractional(1.25)
    assert b2_fractional(0.75) == b2_fractional(3.75)


# ---------------------------------------------------------------------------
# Fontana-style series for sigma

def test_fontana_partial_lengths_and_bounds(psi2_entry):
    sums = fontana_partial(psi2_entry.g, 1.0, 7)
    assert len(sums) == 7
    with pytest.raises(ValueError):
        fontana_partial(psi2_entry.g, 1.0, 0)
    with pytest.raises(ValueError):
        fontana_partial(psi2_entry.g, 1.0, 13)


def test_fontana_partials_approach_sigma(ln_entry, psi2_entry):
    for entry, final_gap in ((ln_entry, 2e-3), (psi2_entry, 6e-4)):
        target = asymptotic_constant(entry.g)
        gaps = [abs(s - target) for s in fontana_partial(entry.g, 1.0, 10)]
        # monotone from N = 2 on; the one-term sum may sit closer by luck
        tail = gaps[1:]
        assert all(b < a for a, b in zip(tail, tail[1:])), entry.name
        assert gaps[-1] <= final_gap, entry.name


def test_fontana_psi2_tail_magnitude(psi2_entry):
    # the series converges too slowly to cross 1e-4 by N = 10; pin the
    # actual (independently verified) size of the N = 10 gap instead
    s10 = fontana_partial(psi2_entry.g, 1.0, 10)[-1]
    assert abs(s10 - SIGMA_PSI2G) == pytest.approx(5.357249854e-4, rel=1e-5)


# ---------------------------------------------------------------------------
# bundled report

def test_constants_report_cached_route(ln_entry):
    report = constants_report(ln_entry.g)
    assert report.p == 1
    assert report.method == "gregory"
    assert report.sigma == pytest.approx(SIGMA_LN, abs=1e-9)
    assert report.gamma_gen == pytest.approx(SIGMA_LN, abs=1e-9)
    assert report.err >= 0.0


def test_constants_report_fresh_route():
    entry = from_expression("1/x", p=0, shape="concave")
    report = constants_report(entry.g)
    assert report.method == "gregory"
    assert report.sigma == pytest.approx(EULER_GAMMA, abs=1e-8)
