"""Generalized Binet function, Wendel residuals, Bernoulli expansions.

Everything in here measures how far Sigma g is from its polynomial or
integral skeleton: the Wendel residual is the deviation of Sigma g(x+a)
from its Newton head at x, the Binet function J is the Gregory-corrected
deviation of a caller's Sigma g(x) from the sigma-plus-integral main part
(it vanishes at infinity), and the asymptotic expansion refines the main
part with Bernoulli-number corrections.  Every function reads its order p
from g.p; differences and Gregory heads come from numerics.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .numerics import bernoulli_number, forward_diffs, gen_binomial, gregory_terms
from .sigma import GFunction, integral_from_1, sigma
from .constants import asymptotic_constant


class ExpansionTerm(NamedTuple):
    """One Bernoulli correction term: value = coefficient * g^(k-1)(x)."""

    k: int
    coefficient: float
    value: float


def wendel_residual(g: GFunction, a: float, x: float) -> float:
    """Sigma g(x+a) - Sigma g(x) - sum_{j=1}^p C(a,j) Delta^{j-1} g(x), p = g.p.

    Tends to zero as x grows; the rate is the content of the Wendel-type
    limit theorem, and for g = ln it sits inside the classical bracket
    [(a-1) ln(1+a/x), 0].
    """
    diffs = forward_diffs([g(x + i) for i in range(g.p)])
    head = math.fsum(gen_binomial(a, j) * diffs[j - 1] for j in range(1, g.p + 1))
    return sigma(g, x + a).value - sigma(g, x).value - head


def binet(g: GFunction, x: float, value: float) -> float:
    """Generalized Binet function J^{p+1}[Sigma g](x), p = g.p, from value = Sigma g(x).

    value - sigma[g] - integral_1^x g + sum_{j=1}^p G_j Delta^{j-1} g(x),
    which vanishes as x -> infinity.  J is only as accurate as value, so
    the caller evaluates Sigma g(x) at the tol it owns.
    """
    head = math.fsum(gregory_terms(g, x, g.p))
    return value - asymptotic_constant(g) - integral_from_1(g, x) + head


def asym_expansion(g: GFunction, x: float, q: int, m: int) -> tuple[float, list[ExpansionTerm]]:
    """Bernoulli expansion of Sigma g around the sigma-plus-integral core.

    total = sigma[g] + integral_1^x g + sum_{k=1}^q B_k/(m^k k!) g^(k-1)(x).

    For m = 1 the total approximates Sigma g(x) itself with error of the
    order of the first omitted term; for m > 1 it approximates the
    average (1/m) sum_{j<m} Sigma g(x + j/m).  B_1 = -1/2 here; the
    shipped derivation note fixes the convention by matching the known
    closed-form expansion of the x ln x family.
    """
    if not x > 0.0:
        raise ValueError("x must be positive")
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


def expansion_remainder(g: GFunction, x: float) -> float:
    """Sigma g(x) minus the order-p Bernoulli expansion, p = g.p.

    Unlike the Binet function, whose correction head uses finite
    differences, this subtracts the derivative corrections, so for the
    x ln x family (p = 2) it decays like 1/(720 x^2); at p = 1 the two
    objects coincide.
    """
    total, _ = asym_expansion(g, x, g.p, 1)
    return sigma(g, x).value - total
