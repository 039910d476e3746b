"""Shared numeric kernels.

Generalized binomials, forward and divided differences, the terms of
Gregory's formula, Bernoulli numbers, integer zeta values, and adaptive
quadrature.  The Gregory coefficients and Bernoulli numbers are literal
tables; the exact rationals they round live in tests/reference.py.
Everything here is scalar, pure, and deterministic.
"""

from __future__ import annotations

import heapq
import math
from functools import lru_cache
from typing import Callable, Iterable, NamedTuple, Sequence

# the named constants of the catalog and of the expression language
NAMED_CONSTANTS = {
    "euler_gamma": 0.5772156649015329,
    "ln_glaisher": 0.24875447703378425,
    "ln_2pi": 1.8378770664093456,
    "ln_pi": 1.1447298858494002,
    "ln_2": 0.6931471805599453,
}


def gen_binomial(x: float, j: int) -> float:
    """Generalized binomial coefficient C(x, j) = x(x-1)...(x-j+1)/j!.

    Evaluated as a left-to-right product of (x - i)/(i + 1) factors so
    intermediate magnitudes stay balanced. C(x, 0) = 1 for every x.
    """
    if j < 0:
        raise ValueError("binomial order j must be >= 0")
    acc = 1.0
    for i in range(j):
        acc *= (x - i) / (i + 1)
    return acc


def _push_diff(diag: list[float], v: float) -> float:
    """Extend a difference table by g(x+n) = v and return Delta^n g(x).

    diag is the table's last diagonal, Delta^k g(x+n-1-k) for k < n, and
    is replaced in place by the new one: its entry k is
    Delta^k g(x+n-k) = Delta^{k-1} g(x+n-k+1) - Delta^{k-1} g(x+n-k), the
    difference of the same two lower-level entries as in a table built
    level by level.
    """
    k = 0  # a counter, not enumerate: its tuples cost a fifth of the head's time
    for d in diag:
        diag[k] = v
        v -= d
        k += 1
    diag.append(v)
    return v


def forward_diffs(values: Iterable[float]) -> list[float]:
    """Forward differences Delta^0 .. Delta^k at the left end of a unit-step window.

    values holds g(x), g(x+1), ..., g(x+k); the result is [Delta^0 g(x),
    ..., Delta^k g(x)].  An empty window gives an empty list (an order-0
    head has no differences).
    """
    diag: list[float] = []
    return [_push_diff(diag, v) for v in values]


def divided_difference(f: Callable[[float], float], nodes: Sequence[float]) -> float:
    """Divided difference f[x_0, ..., x_k] via the Newton recurrence.

    Nodes must be pairwise distinct; the result is symmetric under node
    permutation.
    """
    pts = [float(t) for t in nodes]
    if not pts:
        raise ValueError("at least one node required")
    n = len(pts)
    seen = set()
    for t in pts:
        if t in seen:
            raise ValueError(f"duplicate node {t!r} in divided difference")
        seen.add(t)
    vals = [f(t) for t in pts]
    for level in range(1, n):
        vals = [
            (vals[i + 1] - vals[i]) / (pts[i + level] - pts[i])
            for i in range(n - level)
        ]
    return vals[0]


# G_1 .. G_30 and B_0 .. B_30, each the float nearest its exact rational
# (tests/reference.py builds the rationals; the tests pin the two together)
_GREGORY = (0.5, -0.08333333333333333, 0.041666666666666664, -0.02638888888888889,
            0.01875, -0.014269179894179895, 0.01136739417989418, -0.00935653659611993,
            0.00789255401234568, -0.006785849984634707, 0.005924056412337663,
            -0.005236693257950285, 0.004677498407042265, -0.004214952239005473,
            0.003826899553211884, -0.0034973498453499175, 0.0032144964313235674,
            -0.0029694477154582097, 0.002755390299436716, -0.0025670225450072377,
            0.00240016237859072, -0.0022514701977588703, 0.0021182495272954456,
            -0.001998301255043453, 0.001889815463678697, -0.0017912900780718934,
            0.0017014689263700736, -0.0016192940490963672, 0.0015438685969283421,
            -0.001474427689060962)
_BERNOULLI = (1.0, -0.5, 0.16666666666666666, 0.0, -0.03333333333333333, 0.0,
              0.023809523809523808, 0.0, -0.03333333333333333, 0.0, 0.07575757575757576,
              0.0, -0.2531135531135531, 0.0, 1.1666666666666667, 0.0, -7.092156862745098,
              0.0, 54.971177944862156, 0.0, -529.1242424242424, 0.0, 6192.123188405797,
              0.0, -86580.25311355312, 0.0, 1425517.1666666667, 0.0, -27298231.067816094,
              0.0, 601580873.9006424)


def gregory_terms(f: Callable[[float], float], x: float, J: int,
                  tol: float | None = None) -> list[float]:
    """The Gregory terms G_n Delta^{n-1} f(x), n = 1, 2, ...: J of them, or more to meet tol.

    G_n = integral_0^1 C(t, n) dt is a stored literal, the float nearest
    the exact rational.  The sum of the terms is the head of Gregory's
    formula; the differences come from the one table builder,
    _push_diff, one evaluation per term.  With tol, terms are added past
    J (once there are two) while the last exceeds tol and is smaller than
    the one before (a table at its roundoff floor stops), up to the 30
    coefficients; J > 30 raises ValueError.
    """
    if J > len(_GREGORY):
        raise ValueError("Gregory coefficient order must be in 1..30")
    diag: list[float] = []
    terms: list[float] = []
    while len(terms) < J or (tol is not None and 2 <= len(terms) < len(_GREGORY)
                             and tol < abs(terms[-1]) < abs(terms[-2])):
        n = len(terms)
        terms.append(_GREGORY[n] * _push_diff(diag, f(x + n)))
    return terms


def bernoulli_number(k: int) -> float:
    """Bernoulli number B_k in the B_1 = -1/2 convention.

    A stored literal: the float nearest the exact rational B_k (the
    recurrence sum_{j<=k} C(k+1, j) B_j = 0).  B_k = 0 for odd k >= 3.
    """
    if k < 0 or k > 30:
        raise ValueError("Bernoulli index must be in 0..30")
    return _BERNOULLI[k]


@lru_cache(maxsize=None)
def zeta_int_minus_1(n: int) -> float:
    """zeta(n) - 1 for an integer n in 2..60, with full relative accuracy.

    Direct summation over 2..K-1 plus an Euler-Maclaurin tail for
    sum_{k>=K} k^(-n); cached.  zeta(n) itself is 1.0 + zeta_int_minus_1(n),
    |error| < 1e-14; the difference form is needed wherever the
    alternating Fontana-style series is rearranged around zeta(n) -> 1.
    """
    if n < 2 or n > 60:
        raise ValueError("zeta argument must be an integer in 2..60")
    K = 32
    head = [float(k) ** (-n) for k in range(2, K)]
    tail = [float(K) ** (1 - n) / (n - 1), 0.5 * float(K) ** (-n)]
    rising = float(n)
    kpow = float(K) ** (-(n + 1))
    for j in range(1, 7):
        tail.append(bernoulli_number(2 * j) / math.factorial(2 * j) * rising * kpow)
        rising *= (n + 2 * j - 1) * (n + 2 * j)
        kpow /= float(K) * float(K)
    return math.fsum(head + tail)


class QuadResult(NamedTuple):
    """Outcome of one adaptive integration."""

    value: float
    err_estimate: float
    subdivisions: int


class QuadratureError(RuntimeError):
    """Raised when the panel budget is exhausted before reaching tol.

    Carries the best estimate found so far in the `best` attribute.
    """

    def __init__(self, message: str, best: "QuadResult | None" = None):
        super().__init__(message)
        self.best = best


# Gauss(7)/Kronrod(15) node-weight pair on [-1, 1]; positive abscissae only,
# the rule is symmetric. Gauss nodes sit at odd indices plus the center.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997855,
    0.10479001032225018,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.1294849661688697,
    0.27970539148927664,
    0.3818300505051189,
    0.4179591836734694,
)

_PANEL_CAP = 10_000


def _panel(f: Callable[[float], float], a: float, b: float) -> tuple[float, float]:
    c = 0.5 * a + 0.5 * b  # a + b can overflow; the rounding is the same
    h = 0.5 * (b - a)
    fc = f(c)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    for i in range(7):
        t = h * _XGK[i]
        f1 = f(c - t)
        f2 = f(c + t)
        kron += _WGK[i] * (f1 + f2)
        if i % 2 == 1:
            gauss += _WG[i // 2] * (f1 + f2)
    kron *= h
    gauss *= h
    return kron, abs(kron - gauss) + 1e-300


def integrate(
    f: Callable[[float], float], a: float, b: float, tol: float = 1e-10
) -> QuadResult:
    """Adaptive quadrature of f over [a, b] to absolute tolerance tol.

    Globally adaptive bisection: each panel is scored by a fixed
    symmetric rule pair (embedded 7/15-point pair) and the worst panel
    is split first. Endpoints are never sampled, so mild endpoint
    behavior is tolerated, but genuine integrable singularities must go
    through integrate_singular. Raises QuadratureError (carrying the
    best estimate) if 10^4 panels do not reach tol.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if not a < b:
        raise ValueError("integration requires a < b")
    if not (tol > 0):
        raise ValueError("tol must be positive")
    val, err = _panel(f, a, b)
    heap: list[tuple[float, float, float, float]] = [(-err, a, b, val)]
    total_err = err
    panels = 1
    while total_err > tol and panels < _PANEL_CAP:
        neg_err, pa, pb, _pval = heapq.heappop(heap)
        mid = 0.5 * pa + 0.5 * pb
        v1, e1 = _panel(f, pa, mid)
        v2, e2 = _panel(f, mid, pb)
        heapq.heappush(heap, (-e1, pa, mid, v1))
        heapq.heappush(heap, (-e2, mid, pb, v2))
        total_err += e1 + e2 + neg_err
        panels += 1
        if panels % 64 == 0:
            total_err = math.fsum(-item[0] for item in heap)
    total_val = math.fsum(item[3] for item in heap)
    total_err = math.fsum(-item[0] for item in heap)
    result = QuadResult(total_val, total_err, panels)
    if total_err > tol:
        raise QuadratureError(
            f"quadrature stalled at err_estimate={total_err:.3e} > tol={tol:.3e} "
            f"after {panels} panels",
            best=result,
        )
    return result


def integrate_singular(f: Callable[[float], float], a: float, b: float,
                       tol: float) -> QuadResult:
    """Integrate f over [a, b] with an integrable singularity at the left end a.

    Substitutes t = a + u^2, which regularizes logarithmic and
    inverse-square-root endpoint behavior, then delegates to integrate.
    """
    if not a < b:
        raise ValueError("integration requires a < b")
    return integrate(lambda u: 2.0 * u * f(a + u * u), 0.0, math.sqrt(b - a), tol)
