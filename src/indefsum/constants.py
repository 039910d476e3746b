"""Asymptotic constant sigma[g], generalized Euler constant gamma[g].

sigma[g] is the definite integral of Sigma g over [1, 2]; it is computed
as the shifted Gregory form at x = 1 (sigma.gregory_constant), where
Sigma g(1) = 0 leaves the constant alone, and cached in g.sigma_constant.
gamma[g] peels off the Gregory head sum_{j<=p} G_j Delta^{j-1} g(1)
(numerics.gregory_terms) at p = g.p, which must be the decay degree of g
(shape.dp_degree).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .numerics import gregory_terms
from .shape import ShapeError, dp_degree
from .sigma import GFunction, gregory_constant


class ConstantsReport(NamedTuple):
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
