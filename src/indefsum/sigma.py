"""Principal indefinite sums Sigma g and their derivatives.

Sigma g is evaluated by the shifted Gregory form

  Sigma g(x) = sigma[g] + integral_1^{x+N} g
               - sum_{n=1..J} G_n Delta^{n-1} g(x+N) - sum_{k<N} g(x+k),

with N the smallest shift putting x + N >= 30 and J = 8: sigma() is that
evaluator and takes neither N nor J.  Since Sigma g(1) = 0, the same form
at x = 1 yields the asymptotic constant sigma[g] itself (gregory_constant),
so sigma() needs no prepared input: it fills g.sigma_constant on first
use; it is the one place the package evaluates Sigma g.  sigma_deriv()
differentiates the form termwise, where the constant drops out.  The
Gregory terms come from numerics.gregory_terms.  Without an
antiderivative, integral_1^{x+N} g is a cached integral up to an anchor
30 * 2^k (g.anchor_integrals) plus one short quadrature.

The independent routes the tests check this form against (the defining
Gauss-type limit f^p_n and the Eulerian series) are in tests/reference.py.
"""

from __future__ import annotations

import math
import sys
from typing import Callable, Optional

from .exprlang import Jet
from .numerics import gregory_terms, integrate

__all__ = [
    "GFunction",
    "SigmaResult",
    "gregory_constant",
    "sigma",
    "sigma_deriv",
    "integral_from_1",
]


class GFunction:
    """A function g with the metadata the engine needs; equal only to itself.

    eval must be finite on (0, inf); jet(x, r) returns Taylor data of
    order r (r <= 8 expected); antideriv, when present, is the definite
    integral from 1, i.e. antideriv(x) = integral_1^x g(t) dt; p and
    shape certify g in D^p intersect K^p (caller's responsibility,
    normally via shape.classify or catalog metadata); sigma_constant
    caches sigma[g] once sigma() or constants.asymptotic_constant has
    computed it; anchor_integrals caches integral_1^{30 * 2^k} g, k = 0,
    1, ..., for integral_from_1 (a tuple, so copies never alias it).
    """

    def __init__(self, eval: Callable[[float], float],
                 jet: Optional[Callable[[float, int], Jet]],
                 antideriv: Optional[Callable[[float], float]], p: int, shape: str,
                 name: str, sigma_constant: Optional[float] = None,
                 anchor_integrals: tuple[float, ...] = ()):
        if shape not in ("convex", "concave"):
            raise ValueError("shape must be 'convex' or 'concave'")
        if p < 0:
            raise ValueError("p must be >= 0")
        self.eval, self.jet, self.antideriv = eval, jet, antideriv
        self.p, self.shape, self.name = p, shape, name
        self.sigma_constant, self.anchor_integrals = sigma_constant, anchor_integrals

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def deriv(self, x: float, r: int) -> float:
        """g^(r)(x) recovered from the jet."""
        if r == 0:
            return self.eval(x)
        if self.jet is None:
            raise ValueError(f"{self.name}: no jet available for derivatives")
        return self.jet(x, r).derivative(r)


class SigmaResult:
    """One evaluated point: a plain value, compared with ==, never hashed or cached.

    strategy is "gregory" for everything this package computes, with
    terms_used = J + N; only the test references (tests/reference.py)
    label their routes "direct" and "eulerian".  Slotted: no per-point dict.
    """

    __slots__ = ("value", "err_estimate", "strategy", "terms_used")
    __hash__ = None

    def __init__(self, value: float, err_estimate: float, strategy: str, terms_used: int):
        self.value, self.err_estimate = value, err_estimate
        self.strategy, self.terms_used = strategy, terms_used

    def __eq__(self, other):
        return type(other) is SigmaResult and (
            (self.value, self.err_estimate, self.strategy, self.terms_used)
            == (other.value, other.err_estimate, other.strategy, other.terms_used))


_QUAD_TOL = 1e-12
# the head of sigma() sits at the first x + N >= _SHIFT_TARGET, with _ORDER Gregory terms
_SHIFT_TARGET = 30.0
_ORDER = 8


def integral_from_1(g: GFunction, y: float) -> float:
    """integral_1^y g(t) dt, by closed form when available else quadrature.

    Without an antiderivative, y >= 30 takes the cached integral up to the
    largest anchor a_k = 30 * 2^k <= y (chained up in ascending k, so no
    value depends on earlier calls) plus one quadrature over [a_k, y].
    """
    if g.antideriv is not None:
        return g.antideriv(y)
    if 30.0 <= y < math.inf:
        k, a = 0, 30.0
        while 2.0 * a <= y:
            k, a = k + 1, 2.0 * a
        while len(g.anchor_integrals) <= k:
            done = g.anchor_integrals
            hi = 30.0 * 2.0 ** len(done)
            lo, below = (hi / 2.0, done[-1]) if done else (1.0, 0.0)
            g.anchor_integrals = done + (below + integrate(g.eval, lo, hi, _QUAD_TOL).value,)
        head = g.anchor_integrals[k]
        return head if y == a else head + integrate(g.eval, a, y, _QUAD_TOL).value
    if y == 1.0:
        return 0.0
    if y > 1.0:
        return integrate(g.eval, 1.0, y, _QUAD_TOL).value
    return -integrate(g.eval, y, 1.0, _QUAD_TOL).value


def gregory_constant(g: GFunction) -> SigmaResult:
    """sigma[g] from the shifted Gregory form at x = 1, where Sigma g(1) = 0.

    sigma[g] = sum_{k=1..N} g(k) - integral_1^{N+1} g
               + sum_{n=1..J} G_n Delta^{n-1} g(N+1),   N = 60, J = 12:

    the generalized Fontana-Mascheroni series sum_j G_j Delta^{j-1} g(1),
    moved by N steps through the difference equation so it converges fast.
    err_estimate is the last retained Gregory term plus 4 ulp of the
    summed magnitudes, plus 1e-12 per quadrature piece of integral_1^61 g
    ([1, 30], [30, 60], [60, 61]) when g has no antiderivative.  The value
    is not cached here; see sigma.
    """
    N, J = 60, 12
    terms = gregory_terms(g.eval, 1.0 + N, J)
    shifted = [g.eval(1.0 + k) for k in range(N)]
    integral = integral_from_1(g, 1.0 + N)
    value = math.fsum(shifted) - integral + math.fsum(terms)
    scale = math.fsum(abs(v) for v in shifted) + abs(integral)
    err = abs(terms[-1]) + 4.0 * sys.float_info.epsilon * scale
    if g.antideriv is None:
        err += 3.0 * _QUAD_TOL
    return SigmaResult(value, err, "gregory", N + J)


def sigma(g: GFunction, x: float, tol: float = 1e-10) -> SigmaResult:
    """Sigma g(x) by shift plus truncated Gregory series.

    value = [sigma[g] + integral_1^{x+N} g - sum_{n=1..J} G_n
    Delta^{n-1} g(x+N)] - sum_{k<N} g(x+k), with N the smallest shift
    putting x+N >= 30 and J = 8. sigma[g] comes from g.sigma_constant,
    filled by gregory_constant on first use. err_estimate is the
    magnitude of the last retained Gregory term |G_J Delta^{J-1} g(x+N)|,
    a deliberately conservative omitted-term heuristic (one order down).
    tol does not select N or J yet; callers compare err_estimate with it.
    """
    if not x > 0.0:
        raise ValueError("x must be positive")
    N, J = max(0, math.ceil(_SHIFT_TARGET - x)), _ORDER
    if g.sigma_constant is None:
        g.sigma_constant = gregory_constant(g).value
    terms = gregory_terms(g.eval, x + N, J)
    shifted = [g.eval(x + k) for k in range(N)]
    head = g.sigma_constant + integral_from_1(g, x + N) - math.fsum(terms)
    return SigmaResult(head - math.fsum(shifted), abs(terms[-1]), "gregory", J + N)


def sigma_deriv(g: GFunction, x: float, r: int) -> SigmaResult:
    """r-th derivative of Sigma g at x, 0 <= r <= 4 (r=0 delegates to sigma).

    Differentiates the shifted Gregory form termwise (the N of sigma,
    J = 10): the sigma constant drops out, leaving

      D^r Sigma g(x) = g^(r-1)(x+N) - sum_{n=1..J} G_n Delta^{n-1}
                       g^(r)(x+N) - sum_{k<N} g^(r)(x+k).
    """
    if r == 0:
        return sigma(g, x)
    if r < 0 or r > 4:
        raise ValueError("derivative order r must be in 0..4")
    if not x > 0.0:
        raise ValueError("x must be positive")
    if g.jet is None:
        raise ValueError(f"{g.name}: derivatives require jets")

    def dr_of(y: float) -> float:
        return g.jet(y, r).derivative(r)

    N, J = max(0, math.ceil(_SHIFT_TARGET - x)), 10
    terms = gregory_terms(dr_of, x + N, J)
    shifted = [dr_of(x + k) for k in range(N)]
    lead = g.jet(x + N, max(1, r - 1)).derivative(r - 1)
    return SigmaResult(lead - math.fsum(terms) - math.fsum(shifted), abs(terms[-1]),
                       "gregory", J + N)
