"""Principal indefinite sums Sigma g and their derivatives.

The production path is the shifted Gregory form

  Sigma g(x) = sigma[g] + integral_1^{x+N} g
               - sum_{n=1..J} G_n Delta^{n-1} g(x+N) - sum_{k<N} g(x+k),

with N the smallest shift putting x + N >= 30 and J = 8: sigma() is that
evaluator and takes neither N nor J.  Since Sigma g(1) = 0, the same form
at x = 1 yields the asymptotic constant sigma[g] itself (gregory_constant),
so sigma() needs no prepared input: it fills g.sigma_constant on first
use.  sigma_deriv() differentiates the form termwise, where the constant
drops out.  The Gregory terms come from numerics.gregory_terms and every
unit-step difference from numerics.forward_diffs.  Without an
antiderivative, integral_1^{x+N} g is a cached integral up to an anchor
30 * 2^k (g.anchor_integrals) plus one short quadrature.

Every route reads its order p from g.p, the decay degree of g.  Two
independent routes are kept as cross-checks:

  sigma_direct    the defining Gauss-style limit f_pn along n = n0 * 2^k
                  with Richardson extrapolation of the snapshots;
  sigma_eulerian  the additive Euler-product series with the same
                  snapshot extrapolation.

All strategies normalize Sigma g(1) = 0. For x > 2 the cross-check
routes apply exact argument reduction through the difference equation
Sigma g(x) = Sigma g(x - m) + sum_{k<m} g(x - m + k), evaluating the
series at x - m in (1, 2] where their convergence is clean, then adding
the finite sum back.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional

from .exprlang import Jet
from .numerics import (
    forward_diffs,
    gen_binomial,
    gregory_terms,
    integrate,
    richardson_extrapolate,
)

__all__ = [
    "GFunction",
    "SigmaResult",
    "f_pn",
    "gregory_constant",
    "sigma_direct",
    "sigma_eulerian",
    "sigma",
    "sigma_deriv",
    "integral_from_1",
]


@dataclass(eq=False)
class GFunction:
    """A function g with the metadata the engine needs.

    eval must be finite on (0, inf); jet(x, r) returns Taylor data of
    order r (r <= 8 expected); antideriv, when present, is the definite
    integral from 1, i.e. antideriv(x) = integral_1^x g(t) dt; p and
    shape certify g in D^p intersect K^p (caller's responsibility,
    normally via shape.classify or catalog metadata); sigma_constant
    caches sigma[g] once sigma() or constants.asymptotic_constant has
    computed it; anchor_integrals caches integral_1^{30 * 2^k} g, k = 0,
    1, ..., for integral_from_1 (a tuple: replace() copies never alias).
    """

    eval: Callable[[float], float]
    jet: Optional[Callable[[float, int], Jet]]
    antideriv: Optional[Callable[[float], float]]
    p: int
    shape: str
    name: str
    sigma_constant: Optional[float] = field(default=None, repr=False)
    anchor_integrals: tuple[float, ...] = field(default=(), repr=False)

    def __post_init__(self):
        if self.shape not in ("convex", "concave"):
            raise ValueError("shape must be 'convex' or 'concave'")
        if self.p < 0:
            raise ValueError("p must be >= 0")

    def __call__(self, x: float) -> float:
        return self.eval(x)

    def deriv(self, x: float, r: int) -> float:
        """g^(r)(x) recovered from the jet."""
        if r == 0:
            return self.eval(x)
        if self.jet is None:
            raise ValueError(f"{self.name}: no jet available for derivatives")
        return self.jet(x, r).derivative(r)


@dataclass(frozen=True)
class SigmaResult:
    value: float
    err_estimate: float
    strategy: str  # direct | eulerian | gregory
    terms_used: int


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


def _reduce_argument(f: Callable[[float], float], x: float) -> tuple[float, float]:
    # for x > 2 rewrite Sigma f(x) = Sigma f(xr) + sum_{k<m} f(xr+k),
    # xr = x - m in (1, 2]; exact difference-equation bookkeeping
    if x <= 2.0:
        return x, 0.0
    m = math.ceil(x) - 2
    xr = x - m
    shift = math.fsum(f(xr + k) for k in range(m))
    return xr, shift


def _newton_tail(g: GFunction, n: int, x: float) -> list[float]:
    # C(x, j) Delta^{j-1} g(n) for j = 1..p: the interpolation head of f_pn
    diffs = forward_diffs([g.eval(float(n + i)) for i in range(g.p)])
    return [gen_binomial(x, j) * diffs[j - 1] for j in range(1, g.p + 1)]


def f_pn(g: GFunction, n: int, x: float) -> float:
    """The defining approximant f^p_n[g](x), evaluated as a finite sum.

    Terms are arranged pairwise, g(k) - g(x+k), and summed with
    compensation so the large-n cancellation between the two sums does
    not dominate the roundoff.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not x > 0.0:
        raise ValueError("x must be positive")
    terms = [-g.eval(x)]
    for k in range(1, n):
        terms.append(g.eval(float(k)) - g.eval(x + k))
    return math.fsum(terms + _newton_tail(g, n, x))


_QUAD_TOL = 1e-12
_DIRECT_N0 = 8
_DIRECT_CAP = 1 << 17
_EULERIAN_N0 = 8
_EULERIAN_CAP = 1 << 16
_MIN_SNAPSHOTS = 4


def _check_series_args(x: float, tol: float) -> None:
    if not x > 0.0:
        raise ValueError("x must be positive")
    if tol < 1e-12:
        raise ValueError("tol must be >= 1e-12")


def _extrapolate(partials: Iterator[tuple[int, float]], tol: float, shift: float,
                 strategy: str) -> SigmaResult:
    # Richardson-extrapolate snapshots S(n), n = n0 * 2^k, until the last
    # consecutive-diagonal difference drops below tol or the budget runs out
    snapshots: list[float] = []
    for n, partial in partials:
        snapshots.append(partial)
        if len(snapshots) >= _MIN_SNAPSHOTS:
            value, err = richardson_extrapolate(snapshots)
            if err < tol:
                return SigmaResult(value + shift, err, strategy, n)
    value, err = richardson_extrapolate(snapshots)
    return SigmaResult(value + shift, err, strategy, n)


def _direct_partials(g: GFunction, xr: float) -> Iterator[tuple[int, float]]:
    # f^p_n[g](xr) along n = 8 * 2^k, extending the pair sum incrementally
    pair_terms = [-g.eval(xr)]
    n = _DIRECT_N0
    while n <= _DIRECT_CAP:
        for k in range(len(pair_terms), n):
            pair_terms.append(g.eval(float(k)) - g.eval(xr + k))
        yield n, math.fsum(pair_terms + _newton_tail(g, n, xr))
        n *= 2


def sigma_direct(g: GFunction, x: float, tol: float = 1e-10) -> SigmaResult:
    """Sigma g(x) as the extrapolated limit of f^p_n[g](x).

    Snapshots along n = 8 * 2^k feed Richardson extrapolation; the last
    consecutive-diagonal difference is the error estimate. If the
    budget runs out before tol is met, the best value is returned with
    err_estimate > tol as the flag (no exception).
    """
    _check_series_args(x, tol)
    xr, shift = _reduce_argument(g.eval, x)
    return _extrapolate(_direct_partials(g, xr), tol, shift, "direct")


def _eulerian_series(g: GFunction, f: Callable[[float], float],
                     weight: Callable[[float, int], float], x: float,
                     tol: float) -> SigmaResult:
    # -f(xr) + sum_{j=1..p} w_j Delta^{j-1} g(1)
    #        - sum_{n>=1} (f(xr+n) - sum_{j=0..p} w_j Delta^j g(n)),
    # w_j = weight(xr, j); f = g with binomial weights sums Sigma g, and
    # f = g^(r) with the r-th derivatives of the binomials sums D^r Sigma g
    p = g.p
    xr, shift = _reduce_argument(f, x)
    w = [weight(xr, j) for j in range(p + 1)]

    def partials() -> Iterator[tuple[int, float]]:
        fdiffs = forward_diffs([g.eval(float(1 + i)) for i in range(p)])
        head = [-f(xr)] + [w[j] * fdiffs[j - 1] for j in range(1, p + 1)]
        # a rolling window over g(n..n+p) keeps the cost at two evaluations per term
        window = [g.eval(float(1 + i)) for i in range(p + 1)]
        terms: list[float] = []
        next_snap = _EULERIAN_N0
        for n in range(1, _EULERIAN_CAP + 1):
            diffs = forward_diffs(window)
            terms.append(-(f(xr + n) - math.fsum(w[j] * diffs[j] for j in range(p + 1))))
            if n == next_snap:
                yield n, math.fsum(head + terms)
                next_snap *= 2
            window.pop(0)
            window.append(g.eval(float(n + 1 + p)))

    return _extrapolate(partials(), tol, shift, "eulerian")


def sigma_eulerian(g: GFunction, x: float, tol: float = 1e-10) -> SigmaResult:
    """Sigma g(x) by the Eulerian series.

    -g(x) + sum_{j=1..p} C(x,j) Delta^{j-1} g(1)
          - sum_{n>=1} (g(x+n) - sum_{j=0..p} C(x,j) Delta^j g(n)).

    Partial sums at N = 8 * 2^k feed the same extrapolation as
    sigma_direct.
    """
    _check_series_args(x, tol)
    return _eulerian_series(g, g.eval, gen_binomial, x, tol)


def gregory_constant(g: GFunction) -> SigmaResult:
    """sigma[g] from the shifted Gregory form at x = 1, where Sigma g(1) = 0.

    sigma[g] = sum_{k=1..N} g(k) - integral_1^{N+1} g
               + sum_{n=1..J} G_n Delta^{n-1} g(N+1),   N = 60, J = 12:

    the generalized Fontana-Mascheroni series of constants.fontana_partial,
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
    N, J = max(0, math.ceil(30.0 - x)), 8
    if g.sigma_constant is None:
        g.sigma_constant = gregory_constant(g).value
    terms = gregory_terms(g.eval, x + N, J)
    shifted = [g.eval(x + k) for k in range(N)]
    head = g.sigma_constant + integral_from_1(g, x + N) - math.fsum(terms)
    return SigmaResult(head - math.fsum(shifted), abs(terms[-1]), "gregory", J + N)


def _binom_jet(x: float, j: int, r: int) -> list[float]:
    # Taylor coefficients in t of C(x + t, j), truncated at order r
    acc = [0.0] * (r + 1)
    acc[0] = 1.0
    for i in range(j):
        fac = [(x - i), 1.0] + [0.0] * max(0, r - 1)
        fac = fac[: r + 1]
        new = [0.0] * (r + 1)
        for a in range(r + 1):
            if acc[a] == 0.0:
                continue
            for bidx in range(min(2, r + 1 - a)):
                new[a + bidx] += acc[a] * fac[bidx]
        acc = new
    inv = 1.0 / math.factorial(j)
    return [c * inv for c in acc]


def sigma_deriv(
    g: GFunction,
    x: float,
    r: int,
    strategy: str = "gregory",
    tol: float = 1e-10,
) -> SigmaResult:
    """r-th derivative of Sigma g at x, 0 <= r <= 4 (r=0 delegates).

    Default path differentiates the shifted Gregory form (the N of sigma,
    J = 10): the sigma constant drops out, leaving

      D^r Sigma g(x) = g^(r-1)(x+N) - sum_{n=1..J} G_n Delta^{n-1}
                       g^(r)(x+N) - sum_{k<N} g^(r)(x+k).

    strategy="eulerian" differentiates the Eulerian series termwise
    instead (with d/dx of C(x, j) done by polynomial jet arithmetic);
    it is slower and kept as an independent cross-check route.
    """
    if r == 0:
        return sigma(g, x, tol)
    if r < 0 or r > 4:
        raise ValueError("derivative order r must be in 0..4")
    if not x > 0.0:
        raise ValueError("x must be positive")
    if g.jet is None:
        raise ValueError(f"{g.name}: derivatives require jets")

    def dr_of(y: float) -> float:
        return g.jet(y, r).derivative(r)

    if strategy == "gregory":
        N, J = max(0, math.ceil(30.0 - x)), 10
        terms = gregory_terms(dr_of, x + N, J)
        shifted = [dr_of(x + k) for k in range(N)]
        lead = g.jet(x + N, max(1, r - 1)).derivative(r - 1)
        return SigmaResult(lead - math.fsum(terms) - math.fsum(shifted), abs(terms[-1]),
                           "gregory", J + N)
    if strategy != "eulerian":
        raise ValueError("strategy must be 'gregory' or 'eulerian'")
    fact_r = math.factorial(r)
    return _eulerian_series(g, dr_of, lambda xr, j: fact_r * _binom_jet(xr, j, r)[r],
                            x, tol)
