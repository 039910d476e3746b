"""End-to-end acceptance gate.

Each test is one numbered criterion and prints exactly one pass/fail
line (visible with -s or in verbose test listings).  Tolerances are the
contract values; nothing here is tuned to the engine's achieved error.
"""

import math
import random
from fractions import Fraction

import pytest

from indefsum.asymptotics import binet, expansion_remainder, wendel_residual
from indefsum.catalog import reference_lgamma
from indefsum.constants import asymptotic_constant, euler_constant_gen
from indefsum.identities import (
    alpha_beta_sup_gap,
    bounds_alpha_beta,
    euler_series_analogue,
    inequality_chains_psi2,
    mult_finite_sum_psi2,
    mult_sides,
    raabe_sides,
    reflection_sides_psi2,
    taylor_psi2,
    wallis_extrapolated,
)
from indefsum.catalog import reference_psi2
from indefsum.shape import classify
from indefsum.sigma import sigma

from _frozen import (
    EULER_GAMMA,
    EULER_SERIES_CLOSED,
    GAMMA_PSI2G,
    LN_2,
    LN_2PI,
    LN_GLAISHER,
    PSI2_HALF,
    SIGMA_LN,
    SIGMA_PSI2G,
    SUP_GAP,
    psi2_integrand,
)
from reference import fontana_partial, rho, richardson_extrapolate, sigma_direct, \
    sigma_eulerian

SEED = 20260816


def _line(num: str, desc: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {desc}{tail}")


# ---------------------------------------------------------------------------

def test_c01_lgamma_reproduction_all_strategies(ln_entry):
    rng = random.Random(SEED)
    xs = [0.1, 30.0] + [rng.uniform(0.1, 30.0) for _ in range(198)]
    worst = 0.0
    for x in xs:
        want = reference_lgamma(x)
        for res in (
            sigma_direct(ln_entry.g, x),
            sigma_eulerian(ln_entry.g, x),
            sigma(ln_entry.g, x),
        ):
            worst = max(worst, abs(res.value - want))
    ok = worst <= 1e-9
    _line("1", "log-gamma reproduction, 200 points, three strategies", ok,
          f"max |err| = {worst:.3e}")
    assert ok


def test_c02_sigma_log(ln_entry):
    err = abs(asymptotic_constant(ln_entry.g) - SIGMA_LN)
    ok = err <= 1e-9
    _line("2", "sigma[ln] against ln(2 pi)/2 - 1", ok, f"|err| = {err:.3e}")
    assert ok


def test_c03_psi2_constants(psi2_entry):
    err_s = abs(asymptotic_constant(psi2_entry.g) - SIGMA_PSI2G)
    gamma = euler_constant_gen(psi2_entry.g)
    err_g = abs(gamma - GAMMA_PSI2G)
    ok = err_s <= 1e-8 and err_g <= 1e-8 and abs(gamma - 0.031) <= 5e-3
    _line("3", "sigma and gamma of the x ln x - x family", ok,
          f"|sigma err| = {err_s:.3e}, |gamma err| = {err_g:.3e}")
    assert ok


def test_c04_half_integer_value(psi2_entry):
    got = sigma(psi2_entry.g, 0.5).value + 0.5 * LN_2PI
    err = abs(got - PSI2_HALF)
    ok = err <= 1e-8
    _line("4", "closed-form value at 1/2", ok, f"|err| = {err:.3e}")
    assert ok


def test_c05_difference_equation(all_entries):
    rng = random.Random(SEED + 5)
    worst = 0.0
    for entry in all_entries:
        g = entry.g
        for _ in range(100):
            x = rng.uniform(1e-3, 20.0)
            resid = sigma(g, x + 1.0).value - sigma(g, x).value - g.eval(x)
            worst = max(worst, abs(resid))
    ok = worst <= 1e-9
    _line("5", "difference equation, 100 random points x 4 entries", ok,
          f"max |resid| = {worst:.3e}")
    assert ok


def test_c06_raabe(ln_entry, psi2_entry):
    worst = 0.0
    for entry in (ln_entry, psi2_entry):
        for x in (0.5, 1.0, 2.0, 5.0, 10.0):
            lhs, rhs = raabe_sides(entry.g, x)
            worst = max(worst, abs(lhs - rhs))
    ok = worst <= 1e-7
    _line("6", "Raabe area identity at five abscissas", ok,
          f"max |resid| = {worst:.3e}")
    assert ok


def test_c07_multiplication(ln_entry, psi2_entry):
    worst = 0.0
    for entry in (ln_entry, psi2_entry):
        for m in (1, 2, 3, 5):
            for lhs, rhs in mult_sides(entry.g, m, [0.3, 1.0, 2.7, 8.0]):
                worst = max(worst, abs(lhs - rhs))
    lhs, rhs = mult_finite_sum_psi2(2)
    finite = abs(lhs - rhs)
    ok = worst <= 1e-7 and finite <= 1e-7
    _line("7", "multiplication identity incl. two-copy finite sum", ok,
          f"max |resid| = {worst:.3e}, finite-sum |err| = {finite:.3e}")
    assert ok


def test_c08_remainder_decay(ln_entry, psi2_entry):
    worst_ratio = 0.0
    for x in (25.0, 50.0, 100.0):
        rem = expansion_remainder(psi2_entry.g, x)
        worst_ratio = max(worst_ratio, abs(rem) / (1.1 / (720.0 * x * x)))
    x = 50.0
    law = 1.0 / (720.0 * x * x) - 1.0 / (5040.0 * x ** 4)
    rel = abs(expansion_remainder(psi2_entry.g, x) - law) / law
    ln_err = abs(binet(ln_entry.g, 100.0) - 1.0 / 1200.0)
    ok = worst_ratio <= 1.0 and rel <= 0.10 and ln_err <= 0.1 / 1200.0
    _line("8", "remainder magnitudes track the two-term law", ok,
          f"bound ratio = {worst_ratio:.3f}, law rel err = {rel:.2e}, "
          f"log tail err = {ln_err:.2e}")
    assert ok


def test_c09_wendel_bracket(ln_entry):
    f = lambda t: sigma(ln_entry.g, t).value
    ok = True
    worst_tail = 0.0
    for a in (0.25, 0.5, 0.75):
        for x in (1.0, 10.0, 100.0):
            val = rho(f, 2, x, a)
            lo = (a - 1.0) * math.log1p(a / x)
            ok = ok and (lo - 1e-10 <= val <= 1e-10)
        tail = abs(rho(f, 2, 1e4, a))
        worst_tail = max(worst_tail, tail)
        ok = ok and tail < 1e-4
    _line("9", "Wendel bracket and far-field decay", ok,
          f"max |rho(1e4)| = {worst_tail:.3e}")
    assert ok


def test_c10_inequality_chains():
    worst = inequality_chains_psi2([0.25 * i for i in range(1, 21)],
                                   [0.25 * j for j in range(10)]).max_abs
    bound_bad = 0
    for k in list(range(1, 501)) + [100, 200, 350, 500]:
        x = 0.1 * k
        alpha, beta = bounds_alpha_beta(x)
        ref = reference_psi2(x)
        scale = max(1.0, abs(ref))
        if not (alpha <= ref + 1e-9 * scale and ref <= beta + 1e-9 * scale):
            bound_bad += 1
    gap_err = abs(alpha_beta_sup_gap() - SUP_GAP)
    ok = worst <= 1e-9 and bound_bad == 0 and gap_err <= 1e-3
    _line("10", "inequality chains, double bound, sup gap", ok,
          f"chain max = {worst:.3e}, sup gap err = {gap_err:.3e}")
    assert ok


def test_c11_series_expansions():
    worst_taylor = max(
        abs(taylor_psi2(x) - reference_psi2(1.0 + x))
        for x in (-0.5, -0.25, 0.25, 0.5)
    )
    series_err = abs(euler_series_analogue(50) - EULER_SERIES_CLOSED)
    ok = worst_taylor <= 1e-9 and series_err <= 1e-12
    _line("11", "Taylor series and zeta-series constant", ok,
          f"taylor max = {worst_taylor:.3e}, series err = {series_err:.3e}")
    assert ok


def test_c12_reflection():
    worst = max(abs(lhs - rhs) for lhs, rhs in
                (reflection_sides_psi2(x) for x in (0.1, 0.25, 0.5, 0.75, 0.9)))
    ok = worst <= 1e-7
    _line("12", "reflection identity", ok, f"max |resid| = {worst:.3e}")
    assert ok


def test_c13_wallis():
    h1, h2 = wallis_extrapolated()
    e1 = abs(h1 - (LN_2 / 12.0 - 3.0 * LN_GLAISHER))
    e2 = abs(h2 - (LN_GLAISHER - LN_2 / 12.0))
    ok = e1 <= 1e-3 and e2 <= 1e-3
    _line("13", "Wallis-type limits from a Richardson table over m = 2, 4, ..., 32", ok,
          f"|err| = {e1:.3e}, {e2:.3e}")
    assert ok


def test_c14a_fontana_error_decreases(psi2_entry):
    gaps = [abs(s - SIGMA_PSI2G) for s in fontana_partial(psi2_entry.g, 1.0, 10)]
    tail = gaps[1:]  # N = 2..10
    ok = all(b < a for a, b in zip(tail, tail[1:]))
    _line("14a", "Fontana-type partial sums improve for N = 2..10", ok,
          f"|S_10 - sigma| = {gaps[-1]:.3e}")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="|S_10 - sigma| = 5.357e-4 for the x ln x family: the series "
           "tail (recomputed with exact Gregory coefficients in "
           "test_c14b_tail_is_the_series_own) exceeds the 1e-4 target, "
           "which no correct implementation can meet; the tail size is a "
           "property of the series itself, not of this engine",
)
def test_c14b_fontana_tail_size(psi2_entry):
    gap = abs(fontana_partial(psi2_entry.g, 1.0, 10)[-1] - SIGMA_PSI2G)
    ok = gap <= 1e-4
    _line("14b", "Fontana-type tail below 1e-4 by N = 10", ok,
          f"FAIL expected: |S_10 - sigma| = {gap:.3e} > 1e-4 by the exact "
          f"series value")
    assert ok


def test_c14b_tail_is_the_series_own(psi2_entry):
    # S_10 = sum_{j<=10} G_j Delta^{j-1} g(1) without the engine's Gregory terms: G_j
    # exactly from z/ln(1+z) = 1/sum_k (-z)^k/(k+1), each difference an fsum of binomials
    a = [Fraction((-1) ** k, k + 1) for k in range(11)]
    G = [Fraction(1)]
    for n in range(1, 11):
        G.append(-sum(a[k] * G[n - k] for k in range(1, n + 1)))
    g = psi2_entry.g.eval
    diffs = [math.fsum((-1) ** (j - i) * math.comb(j, i) * g(1.0 + i) for i in range(j + 1))
             for j in range(10)]
    s10 = float(sum(G[j + 1] * Fraction(d) for j, d in enumerate(diffs)))
    assert 5.35e-4 <= abs(s10 - SIGMA_PSI2G) <= 5.36e-4


def test_c15_classification(ln_entry, psi2_entry, recip_entry):
    rl = classify(ln_entry.g.eval)
    rp = classify(psi2_entry.g.eval)
    rr = classify(recip_entry.g.eval)
    ok = (
        (rl.p, rl.shape) == (1, "concave")
        and (rp.p, rp.shape) == (2, "concave")
        and (rr.p, rr.shape) == (0, "concave")
        and rl.minimal_p and rp.minimal_p
    )
    _line("15", "shape classification of the three base entries", ok,
          f"got ({rl.p},{rl.shape}) ({rp.p},{rp.shape}) ({rr.p},{rr.shape})")
    assert ok


def test_c16_constant_recovery(psi2_entry):
    # gamma from the defining sequence H_{n-1} - ln n, extrapolated
    snapshots = []
    harmonic = 0.0
    k_next = 1024
    n = 1
    while n <= 131072:
        if n == k_next:
            snapshots.append(harmonic - math.log(n))
            k_next *= 2
        harmonic += 1.0 / n
        n += 1
    gamma_ext, _ = richardson_extrapolate(snapshots)
    e_gamma = abs(gamma_ext - EULER_GAMMA)
    ln_a = asymptotic_constant(psi2_entry.g) + 0.75 - 0.25 * LN_2PI
    e_a = abs(ln_a - LN_GLAISHER)
    ok = e_gamma <= 1e-10 and e_a <= 1e-8
    _line("16", "Euler constant by extrapolation; Glaisher constant from sigma",
          ok, f"|gamma err| = {e_gamma:.3e}, |ln A err| = {e_a:.3e}")
    assert ok


def test_c17_strategy_cross_agreement(all_entries):
    rng = random.Random(SEED + 17)
    worst = 0.0
    for entry in all_entries:
        g = entry.g
        for _ in range(25):
            x = rng.uniform(0.1, 30.0)
            vals = (
                sigma_direct(g, x).value,
                sigma_eulerian(g, x).value,
                sigma(g, x).value,
            )
            worst = max(worst, max(vals) - min(vals))
    ok = worst <= 1e-8
    _line("17", "pairwise strategy agreement, 25 random points per entry",
          ok, f"max spread = {worst:.3e}")
    assert ok
