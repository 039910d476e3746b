"""Asymptotic constant sigma[g], generalized Euler constant gamma[g].

sigma[g] is the definite integral of Sigma g over [1, 2]; it is computed
as the shifted Gregory form at x = 1 (sigma.gregory_constant), where
Sigma g(1) = 0 leaves the constant alone, and cached in g.sigma_constant.
gamma[g] peels off the Gregory head sum_{j<=p} G_j Delta^{j-1} g(1)
(numerics.gregory_terms) at p = g.p, which must be the decay degree of g
(shape.dp_degree).
Both get an independent cross-check route: a piecewise
interpolation-error integral for gamma, and a Bernoulli-kernel integral
representation for the x ln x - x + ln(2 pi)/2 entry's sigma, whose
B_2({t}) tail (b2_kernel_tail) is shared with asymptotics.liu_formula_psi2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .numerics import gregory_terms, integrate, interp_poly_eval, richardson_extrapolate
from .shape import ShapeError, dp_degree
from .sigma import GFunction, gregory_constant


@dataclass(frozen=True)
class ConstantsReport:
    p: int
    sigma: float
    gamma_gen: float
    err: float
    method: str


def asymptotic_constant(g: GFunction, p: int | None = None) -> float:
    """sigma[g] = integral_1^2 Sigma g(t) dt, cached on g once computed.

    The value is sigma.gregory_constant's; sigma[g] does not depend on
    the order p, which is ignored and accepted only for the callers that
    pass it.  Idempotent: repeated calls return the cached value.
    """
    if g.sigma_constant is None:
        g.sigma_constant = gregory_constant(g).value
    return g.sigma_constant


def euler_constant_gen(g: GFunction) -> float:
    """gamma[g] = sigma[g] - sum_{j=1}^p G_j Delta^{j-1} g(1), p = g.p.

    The constant is only meaningful when p is the decay degree of g: any
    other p shifts the value (a larger one silently), so ShapeError is
    raised unless g.p equals shape.dp_degree(g).
    """
    degree = dp_degree(g)
    if g.p != degree:
        raise ShapeError(f"{g.name}: p = {g.p} is not the decay degree {degree} of g")
    return asymptotic_constant(g) - math.fsum(gregory_terms(g, 1.0, g.p))


def gamma_piecewise_interp(g: GFunction, N: int = 10_000) -> float:
    """gamma[g] as the accumulated interpolation-error integral.

    On each [k, k+1] the degree-p interpolant of g (p = g.p) at nodes
    k..k+p is integrated against g; partial sums at N/4, N/2, N are
    extrapolated to absorb the O(1/N) tail.  Independent of the sigma[g]
    route: no Sigma evaluation is involved.
    """
    if N < 10:
        raise ValueError("N must be >= 10")
    marks = sorted({max(1, N // 4), max(2, N // 2), N})
    partials = []
    acc = []
    for k in range(1, N + 1):
        piece = integrate(
            lambda t: interp_poly_eval(g, float(k), g.p + 1, t) - g(t),
            float(k), float(k + 1), tol=1e-13,
        )
        acc.append(piece.value)
        if k in marks:
            partials.append(math.fsum(acc))
    value, _ = richardson_extrapolate(partials)
    return value


def b2_fractional(t: float) -> float:
    """Second Bernoulli polynomial at the fractional part of t."""
    u = t - math.floor(t)
    return u * u - u + 1.0 / 6.0


def b2_kernel_tail(x: float, n: int) -> tuple[float, list[float]]:
    """integral_0^inf B_2({t})/(x+t) dt, summed over n unit intervals.

    Partial sums are snapshot at 8, 16, 32, ... intervals and at n, and
    extrapolated; returns (value, snapshots).  Each unit integral is
    positive, so the snapshots increase monotonically to the limit.
    """
    pieces = []
    partials = []
    mark = 8
    for k in range(n):
        piece = integrate(lambda u, c=x + k: b2_fractional(u) / (c + u), 0.0, 1.0, tol=1e-14)
        pieces.append(piece.value)
        if k + 1 == mark or k + 1 == n:
            partials.append(math.fsum(pieces))
            mark *= 2
    value, _ = richardson_extrapolate(partials)
    return value, partials


def sigma_integral_rep_psi2(N: int = 2048, with_partials: bool = False):
    """sigma for g(x) = x ln x - x + ln(2 pi)/2 by the Bernoulli-kernel route.

    sigma = g(1)/2 - (1/2) integral_1^inf B_2({t})/t dt, the kernel tail
    at x = 1 over N unit intervals.  Partial values decrease
    monotonically to the limit.  Returns the extrapolated value, or
    (value, partials) when with_partials is set.
    """
    g1 = 0.5 * math.log(2.0 * math.pi) - 1.0
    tail, tails = b2_kernel_tail(1.0, N)
    value = 0.5 * g1 - 0.5 * tail
    if with_partials:
        return value, [0.5 * g1 - 0.5 * t for t in tails]
    return value


def fontana_partial(g, x: float = 1.0, N: int = 10) -> list[float]:
    """Running Gregory-coefficient sums S_n = sum_{j<=n} G_j Delta^{j-1} g(x).

    At x = 1 these converge to sigma[g], slowly; the classical g = 1/x
    case reproduces the Fontana-Mascheroni series for Euler's constant.
    sigma.gregory_constant evaluates the same series at x = 61 and
    carries it back to x = 1 through the difference equation.
    """
    if not 1 <= N <= 12:
        raise ValueError("N must be in 1..12")
    return list(itertools.accumulate(gregory_terms(g, x, N)))


def constants_report(g: GFunction) -> ConstantsReport:
    """Assemble (p, sigma, gamma, err) with the method that produced sigma.

    err is gregory_constant's bound on the error of sigma; gamma comes from
    euler_constant_gen, so a g.p other than the decay degree raises
    ShapeError.
    """
    res = gregory_constant(g)
    if g.sigma_constant is None:
        g.sigma_constant = res.value
    return ConstantsReport(p=g.p, sigma=g.sigma_constant, gamma_gen=euler_constant_gen(g),
                           err=res.err_estimate, method=res.strategy)
