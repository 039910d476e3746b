"""Residual reports for the identity and inequality families.

The evaluators compute both sides of a displayed identity with the engine.
Every residual comes from one of three builders: sides_report (lhs - rhs),
chain_report (the scaled ordering violation of a <= chain) and
decay_report (the growth of a magnitude from one x to the next); under
all three, make_report refuses a residual or a side that is not finite.
The psi_-2 specializations fix g(x) = x ln x - x + ln(2 pi)/2 and compare
the normalized Sigma g plus its offset against closed forms built from the
named constants.  inequality_chains_psi2 takes a whole (x, a) grid at once,
so that each engine point it shares is evaluated once per call; nothing is
cached beyond the call.
"""

from __future__ import annotations

import functools
import math
from itertools import chain
from operator import neg
from typing import NamedTuple, Optional, Sequence

from .numerics import NAMED_CONSTANTS, gen_binomial, integrate, integrate_singular, \
    zeta_int, zeta_int_minus_1
from .sigma import GFunction, integral_from_1, sigma
from .constants import asymptotic_constant
from .asymptotics import binet
from .catalog import builtin

# unique positive zero of the digamma function; gates the Gautschi chain
GAUTSCHI_X0 = 1.461632144968362


class ResidualReport(NamedTuple):
    """One identity's evaluation grid with residuals.

    points and residuals are parallel lists; max_abs is the largest
    |residual|.  sides, when present, holds the (lhs, rhs) pair or the
    chain behind each residual.
    """

    identity: str
    points: list
    residuals: list[float]
    max_abs: float
    sides: Optional[list] = None


def make_report(identity: str, points: list, residuals: list[float],
                sides: Optional[list] = None) -> ResidualReport:
    if len(points) != len(residuals):
        raise ValueError("points and residuals must have equal length")
    # max(0.0, nan) is 0.0, so a NaN side can hide behind a finite residual
    if not all(map(math.isfinite, residuals)):
        raise ArithmeticError(f"{identity}: a residual is not finite")
    if sides is not None and not all(map(math.isfinite, chain.from_iterable(sides))):
        raise ArithmeticError(f"{identity}: a side is not finite")
    max_abs = max((abs(r) for r in residuals), default=0.0)
    return ResidualReport(identity=identity, points=points, residuals=residuals,
                          max_abs=max_abs, sides=sides)


def sides_report(identity: str, points: list, sides: list) -> ResidualReport:
    """Residual lhs - rhs of each (lhs, rhs) pair; each side a list of its own."""
    return make_report(identity, points, [lhs - rhs for lhs, rhs in sides],
                       [list(s) for s in sides])


def _chain_violation(members: Sequence[float]) -> float:
    """Largest ordering violation of a <= chain over max(1, |member|); 0.0 if empty."""
    scale = max([1.0, *map(abs, members)])
    worst = max((a - b for a, b in zip(members, members[1:])), default=0.0)
    return max(0.0, worst) / scale


def chain_report(identity: str, points: list, chains: list) -> ResidualReport:
    """Residual _chain_violation of each chain; the chains are the sides."""
    return make_report(identity, points, list(map(_chain_violation, chains)), chains)


def decay_report(identity: str, xs: Sequence[float], rows: list) -> ResidualReport:
    """Residual max(0, |f(x')| - |f(x)|) for each step x -> x' of xs, row by row.

    Each row is (point prefix, |f(x)| for x in xs).  The report has no sides,
    so a magnitude that is not finite (it reads as a 0.0 residual) is refused.
    """
    points, residuals = [], []
    for prefix, mags in rows:
        if not all(map(math.isfinite, mags)):
            raise ArithmeticError(f"{identity}: a magnitude is not finite")
        points += [[*prefix, x, x2] for x, x2 in zip(xs, xs[1:])]
        residuals += [max(0.0, m2 - m) for m, m2 in zip(mags, mags[1:])]
    return make_report(identity, points, residuals)


def psi2_value(x: float) -> float:
    """Engine psi_-2(x): normalized Sigma g plus the ln(2 pi)/2 offset."""
    entry = builtin("psi2g")
    return sigma(entry.g, x).value + entry.offset


def lngamma_value(x: float) -> float:
    """Engine log-gamma, i.e. Sigma ln."""
    return sigma(builtin("ln").g, x).value


# ---------------------------------------------------------------------------
# Raabe

def raabe_sides(g: GFunction, x: float) -> tuple[float, float]:
    """(integral_x^{x+1} Sigma g, sigma[g] + integral_1^x g)."""
    lhs = integrate(lambda t: sigma(g, t).value, x, x + 1.0, tol=1e-10).value
    rhs = asymptotic_constant(g) + integral_from_1(g, x)
    return lhs, rhs


# ---------------------------------------------------------------------------
# Multiplication

def _scaled_entry(g: GFunction, m: int) -> GFunction:
    """g_m(x) = g(x/m), sharing p and shape with g (dilation preserves both)."""
    if m == 1:
        return g
    fm = float(m)

    def eval_m(t: float) -> float:
        return g.eval(t / fm)

    antideriv_m = None
    if g.antideriv is not None:
        def antideriv_m(y: float) -> float:
            return fm * (g.antideriv(y / fm) - g.antideriv(1.0 / fm))

    return GFunction(eval=eval_m, jet=None, antideriv=antideriv_m,
                     p=g.p, shape=g.shape, name=f"{g.name}(x/{m})")


def mult_sides(g: GFunction, m: int, xs: Sequence[float]) -> list[tuple[float, float]]:
    """Both sides of the multiplication identity at each x of xs.

    lhs = sum_{j<m} Sigma g((x+j)/m)
    rhs = Sigma g_m(x) + m sigma[g] - sigma[g_m] - integral_1^m g_m

    g_m, sigma[g_m] and integral_1^m g_m depend on m alone and are
    computed once per call.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    sig_g = asymptotic_constant(g)
    gm = _scaled_entry(g, m)
    sig_gm = asymptotic_constant(gm)
    int_gm = integral_from_1(gm, float(m))
    return [(math.fsum(sigma(g, (x + j) / m).value for j in range(m)),
             sigma(gm, x).value + m * sig_g - sig_gm - int_gm)
            for x in xs]


def mult_finite_sum_psi2(m: int) -> tuple[float, float]:
    """(engine sum_{j=1}^{m-1} psi_-2(j/m), its closed form).

    Closed form: -(ln m)/(12 m) + (m-1) ln(2 pi)/4 + (m - 1/m) ln A.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    engine = math.fsum(psi2_value(j / m) for j in range(1, m))
    closed = (
        -math.log(m) / (12.0 * m)
        + 0.25 * (m - 1) * NAMED_CONSTANTS["ln_2pi"]
        + (m - 1.0 / m) * NAMED_CONSTANTS["ln_glaisher"]
    )
    return engine, closed


# ---------------------------------------------------------------------------
# Webster functional equation

def webster_sides(m: int, x: float) -> tuple[float, float]:
    """(sum_{j<m} f(x + j/m), g(x)) for f(t) = psi_-2(t + 1/m) - psi_-2(t)."""
    if m < 1:
        raise ValueError("m must be >= 1")
    entry = builtin("psi2g")
    lhs = math.fsum(
        psi2_value(x + j / m + 1.0 / m) - psi2_value(x + j / m) for j in range(m)
    )
    return lhs, entry.g.eval(x)


# ---------------------------------------------------------------------------
# Wallis

# The partial at m errs by c_2/m^2 + c_4/m^4 + ... (only even powers of 1/m), so each
# level of a Richardson table in h = 1/m^2 removes one power.  Roundoff of the m^2 ln m
# terms overtakes the truncation near m = 256, so a taller table only loses accuracy;
# four levels over m <= 32 take 64 engine points.
_WALLIS_MS = (2, 4, 8, 16, 32)


def _wallis_partials(ms: Sequence[int] = _WALLIS_MS) -> list[tuple[float, float]]:
    # the partial sums up to 2m for each m in ms, each one correctly rounded, so
    # order-free, fsum over its signed terms g(k) and psi2_value(k)
    g = builtin("psi2g").g.eval
    ks = [float(k) for k in range(1, 2 * max(ms) + 1)]
    gs, ps = [g(k) for k in ks], [psi2_value(k) for k in ks]
    out = []
    for m in ms:
        h1 = (m + 0.25) * math.log(m) - m * (1.0 - math.log(2.0))
        h2 = (
            m * m * math.log(2.0 * m)
            - 1.5 * m * m
            + 0.5 * m * math.log(2.0 * math.pi)
            - math.log(m) / 12.0
        )
        k = 2 * m
        out.append((h1 + math.fsum(chain(gs[0:k:2], map(neg, gs[1:k:2]))),
                    h2 + math.fsum(chain(ps[0:k:2], map(neg, ps[1:k:2])))))
    return out


def _richardson_by_4(column: Sequence[float]) -> float:
    # the corner of the table over entries at h, h/4, h/16, ...: level j removes h^j
    for j in range(1, len(column)):
        column = [(4 ** j * b - a) / (4 ** j - 1) for a, b in zip(column, column[1:])]
    return column[0]


def wallis_extrapolated() -> tuple[float, float]:
    """The two Wallis-type limits, from a Richardson table over m = 2, 4, ..., 32.

    The partial at m is the pair of normalized alternating sums up to 2m,

      first  = (m + 1/4) ln m - m(1 - ln 2) + sum_{k<=2m} (-1)^{k-1} g(k)
      second = m^2 ln(2m) - 3m^2/2 + m ln(2 pi)/2 - (ln m)/12
               + sum_{k<=2m} (-1)^{k-1} psi_-2(k),

    and it errs by c_2/m^2 + c_4/m^4 + ... .  The table treats each
    partial as a polynomial in h = 1/m^2 and takes four Richardson levels,
    which remove the h, ..., h^4 terms, to its corner.  All five partials
    come from the terms up to 64: 64 engine points psi2_value(k) and 64
    values g(k).
    """
    firsts, seconds = zip(*_wallis_partials())
    return _richardson_by_4(firsts), _richardson_by_4(seconds)


# ---------------------------------------------------------------------------
# Reflection

def _lnsin_integral(x: float) -> float:
    # integral_0^x ln sin(pi t) dt with the log singularity at 0 regularized
    f = lambda t: math.log(math.sin(math.pi * t))
    if x <= 0.5:
        return integrate_singular(f, 0.0, x, tol=1e-11).value
    head = integrate_singular(f, 0.0, 0.5, tol=1e-11).value
    return head + integrate(f, 0.5, x, tol=1e-11).value


def reflection_sides_psi2(x: float) -> tuple[float, float]:
    """(psi_-2(x) - psi_-2(1-x), x ln pi - ln(2 pi)/2 - integral_0^x ln sin(pi t) dt)."""
    if not 0.0 < x < 1.0:
        raise ValueError("x must be in (0, 1)")
    lhs = psi2_value(x) - psi2_value(1.0 - x)
    rhs = (
        x * NAMED_CONSTANTS["ln_pi"]
        - 0.5 * NAMED_CONSTANTS["ln_2pi"]
        - _lnsin_integral(x)
    )
    return lhs, rhs


# ---------------------------------------------------------------------------
# Taylor and Euler-type series

_TAYLOR_TERMS = 60


def taylor_psi2(x: float) -> float:
    """Partial Taylor sum of psi_-2(1+x) about 0, N = 60.

    ln(2 pi)/2 - gamma x^2/2 + sum_{n=3}^N (-1)^(n-1) zeta(n-1)/(n(n-1)) x^n.
    """
    if abs(x) > 0.75:
        raise ValueError("|x| must be <= 0.75")
    terms = [0.5 * NAMED_CONSTANTS["ln_2pi"],
             -0.5 * NAMED_CONSTANTS["euler_gamma"] * x * x]
    for n in range(3, _TAYLOR_TERMS + 1):
        terms.append((-1.0) ** (n - 1) * zeta_int(n - 1) / (n * (n - 1)) * x ** n)
    return math.fsum(terms)


def euler_series_closed() -> float:
    """gamma/6 - 3/4 + ln(2 pi)/4 + ln A, from the named constants."""
    return (
        NAMED_CONSTANTS["euler_gamma"] / 6.0
        - 0.75
        + 0.25 * NAMED_CONSTANTS["ln_2pi"]
        + NAMED_CONSTANTS["ln_glaisher"]
    )


def euler_series_analogue(N: int) -> float:
    """Partial sum of sum_{n>=2} (-1)^n zeta(n)/(n(n+1)(n+2)).

    The raw alternating sum converges like 2^-N, far too slowly for
    twelve digits by N = 50; this accelerated form splits zeta(n) =
    1 + (zeta(n)-1), sums the pure-1 part in closed form (17/12 - 2 ln 2)
    and keeps the fast (zeta(n)-1) remainder.  Terms beyond the zeta
    table contribute below 1e-18 and are dropped.
    """
    if N < 2:
        raise ValueError("N must be >= 2")
    base = 17.0 / 12.0 - 2.0 * math.log(2.0)
    tail = [
        (-1.0) ** n * zeta_int_minus_1(n) / (n * (n + 1) * (n + 2))
        for n in range(2, min(N, 60) + 1)
    ]
    return base + math.fsum(tail)


# ---------------------------------------------------------------------------
# Inequality chains

def inequality_chains_psi2(xs: list[float], a_grid: list[float]) -> ResidualReport:
    """The four displayed inequality chains on every (x, a), x-major, as one chain_report.

    The Gautschi chain is reported as not-applicable, an empty chain,
    when x + floor(a) < x_0.  The terms that depend on a alone are
    computed once per a, those that depend on x alone (g, its
    differences, psi_-2 and the Stirling-based chain) once per x, and a
    table local to the call evaluates each distinct psi_-2 and ln Gamma
    point once; each chain is a list of its own.
    """
    if any(x <= 0.0 for x in xs) or any(a < 0.0 for a in a_grid):
        raise ValueError("require x > 0 and a >= 0")
    entry = builtin("psi2g")
    g = entry.g.eval
    dg = lambda y: g(y + 1.0) - g(y)
    d2g = lambda y: g(y + 2.0) - 2.0 * g(y + 1.0) + g(y)
    psi2 = functools.cache(psi2_value)
    lngamma = functools.cache(lngamma_value)

    per_a = []
    for a in a_grid:
        s = a * (a - 1.0) * (a - 2.0)
        fa = math.floor(a)
        fr = a - fa
        per_a.append((a, 0.0 if s == 0.0 else math.copysign(1.0, s), gen_binomial(a, 2),
                      abs(gen_binomial(a - 1.0, 2)), fa, math.ceil(a), fr,
                      gen_binomial(fr, 2)))

    points = []
    chains = []
    for x in xs if per_a else ():  # an empty a-grid evaluates nothing
        gx, dgx, d2gx, psi2x = g(x), dg(x), d2g(x), psi2(x)
        # Stirling-based: 0 <= -J^3[Sigma g](x)
        #                   <= integral_0^1 C(t-1,2)(dg(x+t) - dg(x)) dt
        #                   <= (5/12) d2g(x)
        stirling = (0.0, -binet(entry.g, x),
                    integrate(lambda t: 0.5 * (t - 1.0) * (t - 2.0) * (dg(x + t) - dgx),
                              0.0, 1.0, tol=1e-11).value,
                    (5.0 / 12.0) * d2gx)
        for a, sgn, c_a2, c_a12, fa, ca, fr, c_fr2 in per_a:
            # Wendel: 0 <= sign(a(a-1)(a-2)) (psi(x+a) - psi(x) - a g(x) - C(a,2) dg(x))
            #           <= |C(a-1,2)| (dg(x+a) - dg(x)) <= ceil(a) |C(a-1,2)| d2g(x)
            xa = x + a
            at_xa = psi2(xa)  # shared by the Wendel and Gautschi chains
            wendel = [0.0, sgn * (at_xa - psi2x - a * gx - c_a2 * dgx),
                      c_a12 * (dg(xa) - dgx), ca * c_a12 * d2gx]

            # Webster: 0 <= psi(x+a+1) - psi(x+floor(a)+1) - {a} g(x+floor(a)+1)
            #               - C({a},2) dg(x+floor(a)+1)
            #            <= ({a}/2)(g(x+a) - g(x+floor(a)+1) - ({a}-1) dg(x+floor(a)+1))
            base = x + fa + 1.0
            g_base, dg_base = g(base), dg(base)
            webster = [0.0, psi2(xa + 1.0) - psi2(base) - fr * g_base - c_fr2 * dg_base,
                       0.5 * fr * (g(xa) - g_base - (fr - 1.0) * dg_base)]

            # Gautschi: (a - ceil(a)) ln Gamma(x + ceil(a)) <= psi(x+a) - psi(x+ceil(a))
            #             <= (a - ceil(a)) g(x + floor(a)),  when x + floor(a) >= x_0
            gautschi = []
            if x + fa >= GAUTSCHI_X0:
                gautschi = [(a - ca) * lngamma(x + ca), at_xa - psi2(x + ca),
                            (a - ca) * g(x + fa)]

            points += [("wendel", x, a, "checked"), ("webster", x, a, "checked"),
                       ("gautschi", x, a, "checked" if gautschi else "not-applicable"),
                       ("stirling", x, a, "checked")]
            chains += [wendel, webster, gautschi, list(stirling)]

    return chain_report("inequality-chains", points, chains)


def bounds_alpha_beta(x: float) -> tuple[float, float]:
    """Closed-form envelope (alpha(x), beta(x)) with alpha <= psi_-2 <= beta."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    ln_a = NAMED_CONSTANTS["ln_glaisher"]
    ln_2pi = NAMED_CONSTANTS["ln_2pi"]
    alpha = math.fsum([
        ln_a,
        -5.0 / 18.0,
        x / 24.0,
        -5.0 / 6.0 * x * x,
        0.5 * x * ln_2pi,
        -x * (x * x + 12.0) / 12.0 * math.log(x),
        (x + 1.0) * (x * x + 5.0 * x + 1.0) / 12.0 * math.log(x + 1.0),
    ])
    beta = math.fsum([
        ln_a,
        -1.0 / 3.0,
        -0.75 * x * x,
        0.5 * x * ln_2pi,
        -x * math.log(x),
        (x + 1.0) * (6.0 * x - 1.0) / 12.0 * math.log(x + 1.0),
        (x + 2.0) / 12.0 * math.log(x + 2.0),
    ])
    return alpha, beta


_SUP_GAP_GRID = tuple(
    [1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.05]
    + [0.1 * k for k in range(1, 101)]
    + [15.0, 20.0, 30.0, 50.0]
)


def alpha_beta_sup_gap() -> float:
    """max_x (beta - alpha) over a fixed grid; the supremum is reached as x -> 0."""
    gaps = []
    for x in _SUP_GAP_GRID:
        alpha, beta = bounds_alpha_beta(x)
        gaps.append(beta - alpha)
    return max(gaps)
