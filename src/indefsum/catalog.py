"""Built-in function entries and their independent reference oracles.

Each entry packages a GFunction (with closed-form jets and antiderivative)
together with closed-form sigma/gamma values and an oracle computed by
classical means only: Stirling-type series and direct quadrature, never
the summation engine itself.  The oracles are what the acceptance tests
trust.  One table, _ENTRIES, holds each entry once; the named constants
the closed forms are built from live in numerics.NAMED_CONSTANTS.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

from .exprlang import Jet, eval_jet, evaluate, parse
from .shape import classify
from .sigma import GFunction
from .numerics import NAMED_CONSTANTS, integrate

_HALF_LN_2PI = NAMED_CONSTANTS["ln_2pi"] / 2.0
_EULER_GAMMA = NAMED_CONSTANTS["euler_gamma"]

# closed forms assembled from the named constants, frozen as literals so
# results stay bit-identical across runs
_SIGMA_LN = -0.08106146679532726        # ln(2 pi)/2 - 1
_SIGMA_PSI2G = -0.04177625636387937     # ln A + ln(2 pi)/4 - 3/4
_GAMMA_PSI2G = 0.030945673793775146     # ln A + ln(2)/6 - 1/3
_SIGMA_XLNX = -0.08457885629954907      # ln A - 1/3


class CatalogEntry(NamedTuple):
    """A GFunction plus the ground truth the tests compare against.

    offset shifts the normalized Sigma g onto the named special function
    (Sigma g + offset = reference target); sigma_closed/gamma_closed are
    the closed-form constants when the literature provides them.
    """

    name: str
    g: GFunction
    sigma_closed: Optional[float]
    gamma_closed: Optional[float]
    offset: float
    reference: Optional[Callable[[float], float]]


@lru_cache(maxsize=None)
def reference_lgamma(x: float) -> float:
    """Classical log-gamma oracle: shift to x+k >= 10, then Stirling series.

    Bernoulli corrections through B10 keep the absolute error below
    1e-11 on (0, 200].
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    shift = []
    y = x
    while y < 10.0:
        shift.append(math.log(y))
        y += 1.0
    y2 = y * y
    series = [
        (y - 0.5) * math.log(y),
        -y,
        _HALF_LN_2PI,
        1.0 / (12.0 * y),
        -1.0 / (360.0 * y * y2),
        1.0 / (1260.0 * y * y2 * y2),
        -1.0 / (1680.0 * y * y2 * y2 * y2),
        1.0 / (1188.0 * y * y2 * y2 * y2 * y2),
    ]
    return math.fsum(series) - math.fsum(shift)


@lru_cache(maxsize=None)
def reference_digamma(x: float) -> float:
    """Digamma oracle by the same shift-then-asymptotic-series scheme."""
    if x <= 0.0:
        raise ValueError("x must be positive")
    shift = []
    y = x
    while y < 10.0:
        shift.append(1.0 / y)
        y += 1.0
    y2 = y * y
    series = [
        math.log(y),
        -0.5 / y,
        -1.0 / (12.0 * y2),
        1.0 / (120.0 * y2 * y2),
        -1.0 / (252.0 * y2 * y2 * y2),
        1.0 / (240.0 * y2 * y2 * y2 * y2),
        -1.0 / (132.0 * y2 * y2 * y2 * y2 * y2),
    ]
    return math.fsum(series) - math.fsum(shift)


@lru_cache(maxsize=None)
def reference_psi2(x: float) -> float:
    """integral_0^x ln Gamma(t) dt by quadrature of the log-gamma oracle.

    The endpoint singularity is removed exactly: ln Gamma(t) =
    ln Gamma(t+1) - ln t, and integral_0^x (-ln t) dt = x - x ln x.
    """
    if x <= 0.0:
        raise ValueError("x must be positive")
    smooth = integrate(lambda t: reference_lgamma(t + 1.0), 0.0, x, tol=1e-11).value
    return smooth - (x * math.log(x) - x)


def _jet_ln(x: float, r: int) -> Jet:
    coeffs = [math.log(x)]
    for k in range(1, r + 1):
        coeffs.append((-1.0) ** (k - 1) / (k * x ** k))
    return Jet(center=x, coeffs=tuple(coeffs))


def _tail_psi2g(x: float, r: int) -> list[float]:
    # shared c_k, k >= 2, for both x ln x families: g'' = 1/x onward
    return [(-1.0) ** k / (k * (k - 1) * x ** (k - 1)) for k in range(2, r + 1)]


def _jet_psi2g(x: float, r: int) -> Jet:
    coeffs = [x * math.log(x) - x + _HALF_LN_2PI]
    if r >= 1:
        coeffs.append(math.log(x))
    coeffs.extend(_tail_psi2g(x, r))
    return Jet(center=x, coeffs=tuple(coeffs))


def _jet_xlnx(x: float, r: int) -> Jet:
    coeffs = [x * math.log(x)]
    if r >= 1:
        coeffs.append(math.log(x) + 1.0)
    coeffs.extend(_tail_psi2g(x, r))
    return Jet(center=x, coeffs=tuple(coeffs))


def _jet_recip(x: float, r: int) -> Jet:
    coeffs = [(-1.0) ** k / x ** (k + 1) for k in range(r + 1)]
    return Jet(center=x, coeffs=tuple(coeffs))


def _antideriv_psi2g(x: float) -> float:
    c = _HALF_LN_2PI
    return 0.5 * x * x * math.log(x) - 0.75 * x * x + c * x + 0.75 - c


# name -> (g, its jet, its antiderivative, p, sigma_closed, gamma_closed, offset,
# reference); every entry is concave, and this order is CATALOG_NAMES
_ENTRIES = {
    "ln": (math.log, _jet_ln, lambda x: x * math.log(x) - x + 1.0, 1,
           _SIGMA_LN, _SIGMA_LN, 0.0, reference_lgamma),
    "psi2g": (lambda x: x * math.log(x) - x + _HALF_LN_2PI, _jet_psi2g, _antideriv_psi2g, 2,
              _SIGMA_PSI2G, _GAMMA_PSI2G, _HALF_LN_2PI, reference_psi2),
    "xlnx": (lambda x: x * math.log(x), _jet_xlnx,
             lambda x: 0.5 * x * x * math.log(x) - 0.25 * x * x + 0.25, 2,
             _SIGMA_XLNX, _GAMMA_PSI2G, 0.0,
             # Sigma(x ln x) is the log-hyperfactorial: C(x,2) + psi2(x) - x psi2(1)
             lambda x: 0.5 * x * (x - 1.0) + reference_psi2(x) - x * _HALF_LN_2PI),
    "recip": (lambda x: 1.0 / x, _jet_recip, math.log, 0,
              _EULER_GAMMA, _EULER_GAMMA, 0.0, lambda x: reference_digamma(x) + _EULER_GAMMA),
}
CATALOG_NAMES = tuple(_ENTRIES)


@lru_cache(maxsize=None)
def builtin(name: str) -> CatalogEntry:
    """Catalog lookup; entries are shared singletons (sigma cache included)."""
    if name not in _ENTRIES:
        raise KeyError(f"unknown catalog entry {name!r}")
    f, jet, antideriv, p, sigma_closed, gamma_closed, offset, reference = _ENTRIES[name]
    g = GFunction(eval=f, jet=jet, antideriv=antideriv, p=p, shape="concave", name=name)
    return CatalogEntry(name, g, sigma_closed, gamma_closed, offset, reference)


def from_expression(src: str, p: Optional[int] = None, shape: Optional[str] = None,
                    rng=None) -> CatalogEntry:
    """Build a CatalogEntry, named by its source text, from expression-language source.

    p and shape come from classify() unless overridden; no closed forms
    or oracle are attached, so only engine-internal invariants apply.
    """
    tree = parse(src)

    def g_eval(x: float) -> float:
        return evaluate(tree, x)

    def g_jet(x: float, r: int) -> Jet:
        return eval_jet(tree, x, r)

    if p is None or shape is None:
        report = classify(g_eval, rng=rng)
        p = report.p if p is None else p
        shape = report.shape if shape is None else shape
    g = GFunction(eval=g_eval, jet=g_jet, antideriv=None, p=p, shape=shape, name=src)
    return CatalogEntry(name=g.name, g=g, sigma_closed=None, gamma_closed=None,
                        offset=0.0, reference=None)
