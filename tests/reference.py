"""Independent reference routes that only the tests call.

Acceptance criterion c17 needs three independent evaluations of Sigma g
that agree: the engine's shifted Gregory form (indefsum.sigma.sigma), the
defining Gauss-type limit f^p_n with Richardson extrapolation
(sigma_direct) and the Eulerian series (sigma_eulerian).  The last two,
and the other second routes the tests compare the engine against (the
integral form of the Binet function, the piecewise-interpolation gamma[g],
the Bernoulli-kernel integrals of the x ln x family, the raw zeta series,
the printer that round-trips an expression tree), live here so that every
public function of the package has one path.  They are routes the package
itself never takes; keeping them apart from it is what makes them
independent.  So are the exact rationals G_n and B_k that the package's
literal coefficient tables round.

Tests import this module as they import _frozen: tests/ has no
__init__.py, so pytest puts the directory on sys.path.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from indefsum.catalog import builtin, reference_digamma
from indefsum.exprlang import Binary, Constant, Expr, Literal, Unary, Variable
from indefsum.asymptotics import binet
from indefsum.constants import asymptotic_constant
from indefsum.identities import GAUTSCHI_X0, ResidualReport, _chain_violation, \
    _scaled_entry, lngamma_value, make_report, psi2_value
from indefsum.numerics import NAMED_CONSTANTS, forward_diffs, gen_binomial, \
    gregory_terms, integrate, zeta_int
from indefsum.sigma import GFunction, SigmaResult, integral_from_1, sigma


# ---------------------------------------------------------------------------
# exact coefficients

@functools.cache
def gregory_fraction(j: int) -> Fraction:
    """Gregory coefficient G_j = integral_0^1 C(t, j) dt as an exact rational.

    Expands the falling factorial t(t-1)...(t-j+1) and integrates term by
    term; exactness avoids the cancellation that kills a naive float
    recurrence past j ~ 15.
    """
    poly = [Fraction(1)]
    for i in range(j):
        shifted = [Fraction(0)] + poly
        for k, c in enumerate(poly):
            shifted[k] -= c * i
        poly = shifted
    total = sum(c / (k + 1) for k, c in enumerate(poly))
    return total / math.factorial(j)


@functools.cache
def bernoulli_fraction(k: int) -> Fraction:
    """Bernoulli number B_k (B_1 = -1/2) from sum_{j<=k} C(k+1, j) B_j = 0, exactly."""
    if k == 0:
        return Fraction(1)
    acc = Fraction(0)
    for j in range(k):
        acc += math.comb(k + 1, j) * bernoulli_fraction(j)
    return -acc / (k + 1)


# ---------------------------------------------------------------------------
# interpolation and extrapolation kernels

def interp_poly_eval(
    g: Callable[[float], float], a: float, p: int, x: float
) -> float:
    """Interpolating polynomial of g at nodes a, a+1, ..., a+p-1, at x.

    Newton form with unit-spaced nodes (level-k divided differences
    divide by k); exact for polynomials of degree < p and reproduces the
    node values to roundoff.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    level = [g(a + i) for i in range(p)]
    coeffs = [level[0]]
    for k in range(1, p):
        level = [(level[i + 1] - level[i]) / k for i in range(len(level) - 1)]
        coeffs.append(level[0])
    acc = coeffs[-1]
    for k in range(p - 2, -1, -1):
        acc = coeffs[k] + (x - (a + k)) * acc
    return acc


def richardson_extrapolate(
    snapshots: Sequence[float], ratio: float = 2.0
) -> tuple[float, float]:
    """Accelerate snapshots S(h), S(h/ratio), S(h/ratio^2), ...

    Assumes the error expands in integer powers of h. Builds the
    classical triangular table and returns the diagonal entry with the
    smallest consecutive-diagonal difference, together with that
    difference as the error estimate; best-tracking keeps the result
    stable when later rows hit a roundoff floor.
    """
    seq = list(snapshots)
    if not seq:
        raise ValueError("at least one snapshot required")
    table = [[seq[0]]]
    best = seq[0]
    besterr = math.inf
    for s in seq[1:]:
        row = [s]
        prev = table[-1]
        for j in range(len(prev)):
            fac = ratio ** (j + 1)
            row.append((fac * row[j] - prev[j]) / (fac - 1.0))
        err = abs(row[-1] - prev[-1])
        if err < besterr:
            best, besterr = row[-1], err
        table.append(row)
    return best, besterr


# ---------------------------------------------------------------------------
# Sigma g by the defining limit and by the Eulerian series
#
# Both normalize Sigma g(1) = 0. For x > 2 they apply exact argument
# reduction through the difference equation Sigma g(x) = Sigma g(x - m) +
# sum_{k<m} g(x - m + k), evaluating the series at x - m in (1, 2] where
# their convergence is clean, then adding the finite sum back.

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


def sigma_deriv_eulerian(g: GFunction, x: float, r: int, tol: float) -> SigmaResult:
    """r-th derivative of Sigma g at x, 1 <= r <= 4, by the Eulerian series.

    Differentiates the series termwise, with d/dx of C(x, j) done by
    polynomial jet arithmetic; slower than indefsum.sigma.sigma_deriv and
    independent of it.
    """
    if r < 1 or r > 4:
        raise ValueError("derivative order r must be in 1..4")
    if not x > 0.0:
        raise ValueError("x must be positive")
    if g.jet is None:
        raise ValueError(f"{g.name}: derivatives require jets")

    def dr_of(y: float) -> float:
        return g.jet(y, r).derivative(r)

    fact_r = math.factorial(r)
    return _eulerian_series(g, dr_of, lambda xr, j: fact_r * _binom_jet(xr, j, r)[r],
                            x, tol)


# ---------------------------------------------------------------------------
# constants: gamma[g] by interpolation error, sigma by the Bernoulli kernel,
# Fontana-type partial sums

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


# ---------------------------------------------------------------------------
# asymptotics: interpolation error, the integral form of the Binet function,
# the Bernoulli-kernel formula for psi_-2

def rho(f, p: int, a: float, x: float) -> float:
    """Interpolation error rho^p_a[f](x) = f(x+a) - sum_{j<p} C(x,j) Delta^j f(a).

    The subtracted Newton polynomial (interp_poly_eval) interpolates f at
    the nodes a, a+1, ..., a+p-1; x is the offset from the base point a.
    f may be any callable, in particular an engine Sigma g closure.  p
    must be >= 1.
    """
    return f(x + a) - interp_poly_eval(f, a, p, a + x)


def binet_integral(g: GFunction, x: float) -> float:
    """Generalized Binet function J^{p+1}[Sigma g](x), p = g.p, in integral form.

    -integral_0^1 rho_x^{p+1}[Sigma g](t) dt, where the differences of
    Sigma g at x collapse through the difference equation (Delta^j
    Sigma g = Delta^{j-1} g for j >= 1), so only one Sigma evaluation per
    quadrature node is needed.  A structural cross-check of
    indefsum.asymptotics.binet.
    """
    p = g.p
    sig_x = sigma(g, x).value
    diffs = forward_diffs([g(x + i) for i in range(p)])

    def rho_t(t: float) -> float:
        head = sig_x + math.fsum(gen_binomial(t, j) * diffs[j - 1]
                                 for j in range(1, p + 1))
        return sigma(g, x + t).value - head

    return -integrate(rho_t, 0.0, 1.0, tol=1e-10).value


def liu_formula_psi2(x: float, n_intervals: int = 2048) -> float:
    """Bernoulli-kernel integral representation of psi_-2.

    psi_-2(x) = (1/12)(6x^2-6x+1) ln x - (1/4)(3x-2)x + (x/2) ln(2 pi)
                + ln A + (1/2) integral_0^inf B_2({t})/(x+t) dt.

    The improper integral is b2_kernel_tail, shared with the sigma
    integral representation (which is its value at x = 1).
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


# ---------------------------------------------------------------------------
# identities: each grid evaluator's terms computed afresh at every point, the
# references the engine's grids (which share the terms that depend on m, on x
# or on a alone) must equal bit for bit

def mult_sides_per_point(g: GFunction, m: int, x: float) -> tuple[float, float]:
    """Both sides of the multiplication identity at one x, with a fresh g_m."""
    sig_g = asymptotic_constant(g)
    lhs = math.fsum(sigma(g, (x + j) / m).value for j in range(m))
    gm = _scaled_entry(g, m)
    sig_gm = asymptotic_constant(gm)
    rhs = sigma(gm, x).value + m * sig_g - sig_gm - integral_from_1(gm, float(m))
    return lhs, rhs


def inequality_chains_psi2_per_point(xs: list[float], a_grid: list[float]) -> ResidualReport:
    """The four inequality chains on every (x, a), x-major, each term at each point."""
    entry = builtin("psi2g")
    g = entry.g.eval
    dg = lambda y: g(y + 1.0) - g(y)
    d2g = lambda y: g(y + 2.0) - 2.0 * g(y + 1.0) + g(y)
    psi2 = functools.cache(psi2_value)
    lngamma = functools.cache(lngamma_value)
    points, residuals, sides = [], [], []
    for x in xs:
        for a in a_grid:
            s = a * (a - 1.0) * (a - 2.0)
            sgn = 0.0 if s == 0.0 else math.copysign(1.0, s)
            w1 = sgn * (psi2(x + a) - psi2(x) - a * g(x) - gen_binomial(a, 2) * dg(x))
            w2 = abs(gen_binomial(a - 1.0, 2)) * (dg(x + a) - dg(x))
            w3 = math.ceil(a) * abs(gen_binomial(a - 1.0, 2)) * d2g(x)
            fa = math.floor(a)
            fr = a - fa
            base = x + fa + 1.0
            b1 = (psi2(x + a + 1.0) - psi2(base) - fr * g(base)
                  - gen_binomial(fr, 2) * dg(base))
            b2 = 0.5 * fr * (g(x + a) - g(base) - (fr - 1.0) * dg(base))
            gautschi = None  # not applicable below the digamma root
            if x + fa >= GAUTSCHI_X0:
                ca = math.ceil(a)
                gautschi = [(a - ca) * lngamma(x + ca), psi2(x + a) - psi2(x + ca),
                            (a - ca) * g(x + fa)]
            s2 = integrate(lambda t: 0.5 * (t - 1.0) * (t - 2.0) * (dg(x + t) - dg(x)),
                           0.0, 1.0, tol=1e-11).value
            stirling = [0.0, -binet(entry.g, x), s2, (5.0 / 12.0) * d2g(x)]
            for name, chain in (("wendel", [0.0, w1, w2, w3]), ("webster", [0.0, b1, b2]),
                                ("gautschi", gautschi), ("stirling", stirling)):
                points.append((name, x, a, "checked" if chain is not None else
                               "not-applicable"))
                residuals.append(_chain_violation(chain) if chain is not None else 0.0)
                sides.append(chain if chain is not None else [])
    return make_report("inequality-chains", points, residuals, sides)


# ---------------------------------------------------------------------------
# identities: limits and sums the verify suites do not run

def mult_scaling_limit_psi2(x: float, m_list) -> list[float]:
    """Sequence psi_-2(m x)/m^2 - (x^2/2) ln m; tends to (x^2/2) ln x - 3 x^2/4."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    return [psi2_value(m * x) / (m * m) - 0.5 * x * x * math.log(m) for m in m_list]


def wallis_partial_psi2(n: int) -> tuple[float, float]:
    """Normalized alternating partial sums of g and psi_-2 up to 2n.

    first  = (n + 1/4) ln n - n(1 - ln 2) + sum_{k<=2n} (-1)^{k-1} g(k)
    second = n^2 ln(2n) - 3n^2/2 + n ln(2 pi)/2 - (ln n)/12
             + sum_{k<=2n} (-1)^{k-1} psi_-2(k)

    Summed term by term: one engine point psi2_value(k) and one g(k) per k.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    g = builtin("psi2g").g.eval
    gsum = [(-1.0) ** (k - 1) * g(float(k)) for k in range(1, 2 * n + 1)]
    psum = [(-1.0) ** (k - 1) * psi2_value(float(k)) for k in range(1, 2 * n + 1)]
    h1 = (n + 0.25) * math.log(n) - n * (1.0 - math.log(2.0))
    h2 = (n * n * math.log(2.0 * n) - 1.5 * n * n + 0.5 * n * math.log(2.0 * math.pi)
          - math.log(n) / 12.0)
    return h1 + math.fsum(gsum), h2 + math.fsum(psum)


def euler_series_raw(N: int) -> float:
    """Raw partial sum of sum_{n>=2} (-1)^n zeta(n)/(n(n+1)(n+2)), 2 <= N <= 60.

    Converges like 2^-N; indefsum.identities.euler_series_analogue sums
    the accelerated form of the same series.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    if N > 60:
        raise ValueError("raw mode is limited to N <= 60")
    return math.fsum(
        (-1.0) ** n * zeta_int(n) / (n * (n + 1) * (n + 2))
        for n in range(2, N + 1)
    )


def characterization_limit_psi2(x: float, n: int) -> float:
    """f(x+n) - f(n) - x ln Gamma(n) - (x^2/2) ln n with f = engine psi_-2.

    Converges to 0 as n grows exactly when f is the right solution; the
    rate is empirical.
    """
    if x < 0.0:
        raise ValueError("x must be >= 0")
    if n < 2:
        raise ValueError("n must be >= 2")
    if x == 0.0:
        return 0.0
    return (
        psi2_value(x + n) - psi2_value(float(n))
        - x * lngamma_value(float(n))
        - 0.5 * x * x * math.log(n)
    )


def gautschi_root_check(tol: float = 1e-12) -> float:
    """Bisection root of the digamma oracle near x_0; returns |root - stored|."""
    lo, hi = 1.0, 2.0
    while hi - lo > tol / 4.0:
        mid = 0.5 * (lo + hi)
        if reference_digamma(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return abs(0.5 * (lo + hi) - GAUTSCHI_X0)


# ---------------------------------------------------------------------------
# expression printing

# Precedence levels for minimal-parenthesis printing
_LEVEL_ADD = 1
_LEVEL_MUL = 2
_LEVEL_NEG = 3
_LEVEL_POW = 4
_LEVEL_ATOM = 5

_BIN_TOKEN = {"add": "+", "sub": "-", "mul": "*", "div": "/", "pow": "^"}


def _level(e: Expr) -> int:
    if isinstance(e, Binary):
        if e.op == "pow":
            return _LEVEL_POW
        if e.op in ("mul", "div"):
            return _LEVEL_MUL
        return _LEVEL_ADD
    if isinstance(e, Unary):
        return _LEVEL_NEG if e.op == "neg" else _LEVEL_ATOM
    return _LEVEL_ATOM


def _wrap(s: str, need: bool) -> str:
    return f"({s})" if need else s


def pretty(e: Expr) -> str:
    """Minimal-parenthesis rendering; parse(pretty(e)) reproduces e."""
    if isinstance(e, Literal):
        return repr(e.value)
    if isinstance(e, Constant):
        return e.name
    if isinstance(e, Variable):
        return "x"
    if isinstance(e, Unary):
        if e.op == "neg":
            child = pretty(e.child)
            return "-" + _wrap(child, _level(e.child) <= _LEVEL_NEG)
        return f"{e.op}({pretty(e.child)})"
    if isinstance(e, Binary):
        op = e.op
        left = pretty(e.left)
        right = pretty(e.right)
        if op == "pow":
            # left slot is an atom in the grammar; right slot is a factor
            return (
                _wrap(left, _level(e.left) <= _LEVEL_POW)
                + "^"
                + _wrap(right, _level(e.right) <= _LEVEL_MUL)
            )
        lvl = _LEVEL_MUL if op in ("mul", "div") else _LEVEL_ADD
        return (
            _wrap(left, _level(e.left) < lvl)
            + _BIN_TOKEN[op]
            + _wrap(right, _level(e.right) <= lvl)
        )
    raise AssertionError(type(e))
