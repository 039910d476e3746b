"""Interpolation error, generalized Binet function, Bernoulli expansions.

Everything in here measures how far Sigma g is from its polynomial or
integral skeleton: rho is the raw interpolation error, the Binet function
J is the Gregory-corrected deviation from the sigma-plus-integral main
part (it vanishes at infinity), and the asymptotic expansion refines the
main part with Bernoulli-number corrections.  Every function of a g
reads its order p from g.p; only rho, which takes a plain callable, is
given p.  Differences, Gregory heads and the Newton interpolant come from
numerics (forward_diffs, gregory_terms, interp_poly_eval).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .numerics import NAMED_CONSTANTS, bernoulli_number, forward_diffs, gen_binomial, \
    gregory_terms, integrate, interp_poly_eval
from .sigma import GFunction, integral_from_1, sigma
from .constants import asymptotic_constant, b2_kernel_tail


@dataclass(frozen=True)
class ExpansionTerm:
    """One Bernoulli correction term: value = coefficient * g^(k-1)(x)."""

    k: int
    coefficient: float
    value: float


def rho(f, p: int, a: float, x: float) -> float:
    """Interpolation error rho^p_a[f](x) = f(x+a) - sum_{j<p} C(x,j) Delta^j f(a).

    The subtracted Newton polynomial (numerics.interp_poly_eval)
    interpolates f at the nodes a, a+1, ..., a+p-1; x is the offset from
    the base point a.  f may be any callable, in particular an engine
    Sigma g closure.  p must be >= 1.
    """
    return f(x + a) - interp_poly_eval(f, a, p, a + x)


def wendel_residual(g: GFunction, a: float = 0.5, x: float = 1.0) -> float:
    """Sigma g(x+a) - Sigma g(x) - sum_{j=1}^p C(a,j) Delta^{j-1} g(x), p = g.p.

    Tends to zero as x grows; the rate is the content of the Wendel-type
    limit theorem, and for g = ln it sits inside the classical bracket
    [(a-1) ln(1+a/x), 0].
    """
    diffs = forward_diffs([g(x + i) for i in range(g.p)])
    head = math.fsum(gen_binomial(a, j) * diffs[j - 1] for j in range(1, g.p + 1))
    return sigma(g, x + a).value - sigma(g, x).value - head


def binet(g: GFunction, x: float = 1.0, mode: str = "explicit") -> float:
    """Generalized Binet function J^{p+1}[Sigma g](x), p = g.p.

    explicit : Sigma g(x) - sigma[g] - integral_1^x g
               + sum_{j=1}^p G_j Delta^{j-1} g(x)
    integral : -integral_0^1 rho_x^{p+1}[Sigma g](t) dt, where the
               differences of Sigma g at x collapse through the
               difference equation (Delta^j Sigma g = Delta^{j-1} g for
               j >= 1), so only one Sigma evaluation per quadrature node
               is needed.

    Both modes vanish as x -> infinity; the explicit mode is the cheap
    one, the integral mode exists as a structural cross-check.
    """
    p = g.p
    if mode == "explicit":
        head = math.fsum(gregory_terms(g, x, p))
        return sigma(g, x).value - asymptotic_constant(g) - integral_from_1(g, x) + head

    if mode == "integral":
        sig_x = sigma(g, x).value
        diffs = forward_diffs([g(x + i) for i in range(p)])

        def rho_t(t: float) -> float:
            head = sig_x + math.fsum(gen_binomial(t, j) * diffs[j - 1]
                                     for j in range(1, p + 1))
            return sigma(g, x + t).value - head

        return -integrate(rho_t, 0.0, 1.0, tol=1e-10).value

    raise ValueError("mode must be 'explicit' or 'integral'")


def stirling_decay_profile(g: GFunction,
                           xs: tuple[float, ...] = (10.0, 100.0, 1000.0)) -> list[float]:
    """|J^{p+1}[Sigma g]| sampled along xs; diagnostic for decay at infinity."""
    return [abs(binet(g, x, mode="explicit")) for x in xs]


def asym_expansion(g: GFunction, x: float = 10.0, q: int = 6,
                   m: int = 1) -> tuple[float, list[ExpansionTerm]]:
    """Bernoulli expansion of Sigma g around the sigma-plus-integral core.

    total = sigma[g] + integral_1^x g + sum_{k=1}^q B_k/(m^k k!) g^(k-1)(x).

    For m = 1 the total approximates Sigma g(x) itself with error of the
    order of the first omitted term; for m > 1 it approximates the
    average (1/m) sum_{j<m} Sigma g(x + j/m).  B_1 = -1/2 here; the
    shipped derivation note fixes the convention by matching the known
    closed-form expansion of the x ln x family.
    """
    if not 0 <= q <= 8:
        raise ValueError("q must be in 0..8")
    if m < 1:
        raise ValueError("m must be >= 1")
    main = asymptotic_constant(g) + integral_from_1(g, x)
    terms: list[ExpansionTerm] = []
    for k in range(1, q + 1):
        coeff = bernoulli_number(k) / (float(m) ** k * math.factorial(k))
        value = coeff * g.deriv(x, k - 1)
        terms.append(ExpansionTerm(k=k, coefficient=coeff, value=value))
    total = main + math.fsum(t.value for t in terms)
    return total, terms


def expansion_remainder(g: GFunction, x: float = 10.0, q: int | None = None) -> float:
    """Sigma g(x) minus the order-q Bernoulli expansion (q defaults to g.p).

    Unlike the Binet function, whose correction head uses finite
    differences, this subtracts the derivative corrections, so for the
    x ln x family with q = 2 it decays like 1/(720 x^2); at q = p = 1 the
    two objects coincide.
    """
    if q is None:
        q = g.p
    total, _ = asym_expansion(g, x, q, 1)
    return sigma(g, x).value - total


def liu_formula_psi2(x: float, n_intervals: int = 2048) -> float:
    """Bernoulli-kernel integral representation of psi_-2.

    psi_-2(x) = (1/12)(6x^2-6x+1) ln x - (1/4)(3x-2)x + (x/2) ln(2 pi)
                + ln A + (1/2) integral_0^inf B_2({t})/(x+t) dt.

    The improper integral is constants.b2_kernel_tail, shared with the
    sigma integral representation (which is its value at x = 1).
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    main = (
        (6.0 * x * x - 6.0 * x + 1.0) / 12.0 * math.log(x)
        - 0.25 * (3.0 * x - 2.0) * x
        + 0.5 * x * math.log(2.0 * math.pi)
        + NAMED_CONSTANTS["ln_glaisher"]
    )
    tail, _ = b2_kernel_tail(x, n_intervals)
    return main + 0.5 * tail
