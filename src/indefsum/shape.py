"""Numerical certification of decay degree and eventual convexity class.

A function g is admitted by the summation engine when some forward
difference order p has Delta^p g(n) -> 0 and g is eventually p-convex or
p-concave.  Nothing here is a proof; it is a finite sampling protocol with
fixed settings, meant to pick a sensible p and shape automatically while
letting the caller override both.
"""

from __future__ import annotations

import math
import random
import sys
from typing import NamedTuple

from .numerics import divided_difference, forward_diffs


class ShapeError(ValueError):
    """Raised when no admissible degree or shape can be certified."""


class ShapeReport(NamedTuple):
    """Outcome of classify().

    p          : certified decay degree (smallest passing order)
    dp_margin  : max |Delta^p g(n)| over the sampled tail
    shape      : "convex" or "concave" at order p
    window     : (x_lo, x_hi) interval where shape was certified
    minimal_p  : True when order p-1 failed the decay test
    """

    p: int
    dp_margin: float
    shape: str
    window: tuple[float, float]
    minimal_p: bool


_P_CAP = 6
# the decay test samples |Delta^p g(n)| at n = _N_MAX/4, _N_MAX/2, _N_MAX
_N_MAX = 4096
_ETA = 1e-3
# divided differences sampled per shape window
_SAMPLES = 200
_GROWTH_ANCHORS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)
_WINDOW_SPAN = 64.0


def _tail_samples(g, p: int) -> list[float]:
    return [abs(forward_diffs([g(float(n + i)) for i in range(p + 1)])[p])
            for n in (_N_MAX // 4, _N_MAX // 2, _N_MAX)]


def decays_at(g, p: int) -> bool:
    """Finite test for Delta^p g(n) -> 0.

    Passes when |Delta^p g| is non-increasing along n in
    {1024, 2048, 4096} and the last sample is below 1e-3.
    Non-strict comparison keeps exactly-vanishing differences (polynomials)
    in the accepted set.
    """
    v = _tail_samples(g, p)
    return v[2] <= v[1] <= v[0] and v[2] < _ETA


def dp_degree(g) -> int:
    """Smallest p <= 6 whose p-th differences decay; ShapeError if none."""
    for p in range(_P_CAP + 1):
        if decays_at(g, p):
            return p
    raise ShapeError(
        "no difference order p <= %d decays below %g by n = %d" % (_P_CAP, _ETA, _N_MAX)
    )


def _distinct_nodes(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    # min separation guards the divided-difference table against blowup
    gap = (hi - lo) * 1e-4
    for _ in range(100):
        nodes = sorted(rng.uniform(lo, hi) for _ in range(count))
        if all(b - a >= gap for a, b in zip(nodes, nodes[1:])):
            return nodes
    # fall back to a jittered equispaced set; always well separated
    step = (hi - lo) / (count + 1)
    return [lo + (i + 1) * step + rng.uniform(-0.25, 0.25) * step for i in range(count)]


def kp_check(g, p: int, window: tuple[float, float],
             rng: random.Random | None = None) -> str:
    """Sample 200 order-(p+1) divided differences; return convex/concave/neither.

    convex  : all sampled differences >= -eps
    concave : all sampled differences <= +eps
    with eps = 1e-10 relative to the largest magnitude seen.  A function
    passing both tests (vanishing differences) is reported convex.
    """
    lo, hi = float(window[0]), float(window[1])
    if lo <= 0.0:
        raise ShapeError("window must lie in (0, inf)")
    if hi - lo < p + 2:
        raise ShapeError("window width must be >= p + 2")
    if rng is None:
        rng = random.Random(0)
    dmin = dmax = 0.0
    magmax = 0.0
    noise = 0.0
    for _ in range(_SAMPLES):
        nodes = _distinct_nodes(rng, lo, hi, p + 2)
        values = dict(zip(nodes, map(g, nodes)))  # g once per node
        dd = divided_difference(values.__getitem__, nodes)
        dmin = min(dmin, dd)
        dmax = max(dmax, dd)
        magmax = max(magmax, abs(dd))
        # conditioning of this sample's table: rounding in g enters dd
        # through weights 1/prod_j |x_i - x_j|
        fmax = max(map(abs, values.values()))
        amp = max(
            1.0 / math.prod(abs(a - b) for k, b in enumerate(nodes) if k != i)
            for i, a in enumerate(nodes)
        )
        noise = max(noise, 16.0 * sys.float_info.epsilon * fmax * amp)
    eps = max(1e-10 * magmax, noise)
    is_convex = dmin >= -eps
    is_concave = dmax <= eps
    if is_convex:
        return "convex"
    if is_concave:
        return "concave"
    return "neither"


def classify(g, rng: random.Random | None = None) -> ShapeReport:
    """Select (p, shape) for g and report the certification window.

    The shape window is grown geometrically from x0 = 1 until the sampled
    divided differences settle on one sign; "eventually" convex functions
    that misbehave near the origin are still admitted.
    """
    p = dp_degree(g)
    margin = max(_tail_samples(g, p))
    minimal = p == 0 or not decays_at(g, p - 1)
    for x0 in _GROWTH_ANCHORS:
        lo = max(1.0, float(x0))
        window = (lo, lo + _WINDOW_SPAN)
        verdict = kp_check(g, p, window, rng=rng)
        if verdict != "neither":
            return ShapeReport(p=p, dp_margin=margin, shape=verdict,
                               window=window, minimal_p=minimal)
    raise ShapeError("no window up to x0 = %d certifies a shape at p = %d"
                     % (_GROWTH_ANCHORS[-1], p))
