"""Correctness checks of every benchmark operation, against independent oracles.

Each check returns a Verdict.  An operation *fails* when it raised, exited
non-zero, reported an error estimate above the tolerance it was given, or
verified nothing; failures are counted, never dropped.  A failure is also
*wrong* when the program returned a number that contradicts its oracle
while claiming it was within tolerance (or within its own error
estimate), or when the same input gave two different outputs; any wrong
operation makes the run's `correct` false.

A failure of a kind listed in KNOWN_DEFECTS is a *known defect* of the
engine: it is counted and printed as a failure, like any other, but the
result line's `failed` holds only the other, unexpected failures (as a
test suite reports an xfail apart from a failure).  A known-defect
operation that is also wrong still makes `correct` false.

Thresholds come from the oracles' documented accuracy:

* ORACLE_ABS: `catalog.reference_lgamma` keeps its absolute error below
  1e-11 on (0, 200]; `reference_digamma` uses the same scheme;
  `reference_psi2` integrates the log-gamma oracle to 1e-11.
* ULPS: beyond (0, 200] the oracles and the engine are both limited by
  rounding of values up to 4e8.  The calibration bound the engine aims
  for is err_estimate + 4 ulp; the oracle's own rounding adds up to
  another 4 ulp of the value.
* CONST_TOL: sigma[g] and gamma[g] are compared with closed forms that
  are exact to double precision; 1e-11 is the default target of
  `constants.asymptotic_constant`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

ORACLE_ABS = 1e-11
ULPS = 8
CONST_TOL = 1e-11

E1 = "1/x + ln(x)"                 # p = 1; equals recip + ln by linearity
E2 = "x*ln(x) - x + ln(2*pi)/2"    # p = 2; the psi2g catalog entry as text
CATALOG = ("ln", "psi2g", "xlnx", "recip")

EXIT_CONVERGENCE = 3  # the CLI's exit code when a point missed its tol

# Failure kinds that the engine shows today, with their cause.
KNOWN_DEFECTS = {
    "over_tol": "the sigma dispatcher ignores tol: err_estimate > tol at many "
                "1e-11 points (the value still lies within its own estimate)",
    "empty_report:inequalities": "`verify --suite inequalities` returns an "
                                 "empty report list as a pass",
}


@dataclass(frozen=True)
class Verdict:
    ok: bool
    kind: Optional[str] = None  # failure kind, e.g. "over_tol", "exit_3"
    wrong: bool = False

    @staticmethod
    def fail(kind: str, wrong: bool = False) -> "Verdict":
        return Verdict(False, kind, wrong)

    @property
    def known(self) -> bool:
        return not self.ok and self.kind in KNOWN_DEFECTS


OK = Verdict(True)


class Oracles:
    """Reference values for the benchmark's functions, from the catalog only."""

    def __init__(self, catalog):
        self._entry = {name: catalog.builtin(name) for name in CATALOG}

    def sigma(self, fn: str, x: float) -> float:
        """Normalized Sigma g(x), with Sigma g(1) = 0."""
        if fn == E1:
            return self.sigma("recip", x) + self.sigma("ln", x)
        if fn == E2:
            return self.sigma("psi2g", x)
        e = self._entry[fn]
        return e.reference(x) - e.offset

    def sigma_closed(self, fn: str) -> float:
        if fn == E1:
            return self._entry["recip"].sigma_closed + self._entry["ln"].sigma_closed
        return self._entry["psi2g" if fn == E2 else fn].sigma_closed

    def gamma_closed(self, fn: str) -> float:
        if fn == E1:
            # gamma = sigma - G_1 g(1), G_1 = 1/2, g(1) = 1
            return self.sigma_closed(E1) - 0.5
        return self._entry["psi2g" if fn == E2 else fn].gamma_closed

    @staticmethod
    def integral_from_1(fn: str, x: float) -> float:
        """integral_1^x g in closed form (ln, recip and E1)."""
        ln_part = x * math.log(x) - x + 1.0
        if fn == "ln":
            return ln_part
        if fn == "recip":
            return math.log(x)
        if fn == E1:
            return ln_part + math.log(x)
        raise KeyError(fn)

    def binet(self, fn: str, x: float) -> float:
        """J[Sigma g](x) = Sigma g(x) - sigma[g] - integral_1^x g + sum_j G_j D^(j-1) g(x)."""
        head = {"ln": 0.5 * math.log(x), "recip": 0.0}[fn]
        return self.sigma(fn, x) - self.sigma_closed(fn) - self.integral_from_1(fn, x) + head


def near(value: float, ref: float, allowance: float) -> bool:
    return abs(value - ref) <= allowance + ORACLE_ABS + ULPS * math.ulp(abs(ref))


def _point(ref: float, value: float, err_estimate: float, tol: float) -> Verdict:
    if not err_estimate <= tol:
        # the program says it missed tol; its estimate must still hold
        return Verdict.fail("over_tol", wrong=not near(value, ref, err_estimate))
    return OK if near(value, ref, tol) else Verdict.fail("value_off", wrong=True)


def check_point(oracles: Oracles, fn: str, x: float, tol: float, result) -> Verdict:
    """One library call sigma(g, x, tol): a SigmaResult or the exception it raised."""
    if isinstance(result, BaseException):
        return Verdict.fail(f"raised:{type(result).__name__}")
    return _point(oracles.sigma(fn, x), result.value, result.err_estimate, tol)


def _parse(stdout: str):
    try:
        return json.loads(stdout)
    except ValueError:
        return None


def check_cli(oracles: Oracles, call, rc: int, stdout: str) -> Verdict:
    """One CLI call (eval, constants, expand, tabulate or verify)."""
    data = _parse(stdout)
    if rc != 0 and (data is None or call.command != "eval"):
        return Verdict.fail(f"exit_{rc}")
    if data is None:
        return Verdict.fail("unparsable_output", wrong=True)
    return _CLI_CHECKS[call.command](oracles, call, rc, data)


def _check_eval(oracles, call, rc, data) -> Verdict:
    rows = data.get("rows", [])
    if [r["x"] for r in rows] != call.xs:
        return Verdict.fail("rows_mismatch", wrong=True)
    verdicts = [_point(oracles.sigma(call.fn, r["x"]), r["sigma"], r["err_estimate"], call.tol)
                for r in rows]
    wrong = [v for v in verdicts if v.wrong]
    if wrong:
        return wrong[0]
    bad = [v for v in verdicts if not v.ok]
    if rc == EXIT_CONVERGENCE and bad:
        return bad[0]  # the exit code says a row missed tol, and one did
    if rc != 0:
        return Verdict.fail(f"exit_{rc}")
    return bad[0] if bad else OK


def _check_constants(oracles, call, rc, data) -> Verdict:
    if not (near(data["sigma"], oracles.sigma_closed(call.fn), CONST_TOL)
            and near(data["gamma"], oracles.gamma_closed(call.fn), CONST_TOL)):
        return Verdict.fail("value_off", wrong=True)
    return OK


def _check_expand(oracles, call, rc, data) -> Verdict:
    x = data["x"]
    main = oracles.sigma_closed(call.fn) + oracles.integral_from_1(call.fn, x)
    # an asymptotic series errs by less than its last retained nonzero term
    last = next((abs(t["value"]) for t in reversed(data["terms"]) if t["value"] != 0.0), 0.0)
    if not (near(data["main"], main, CONST_TOL)
            and near(data["total"], oracles.sigma(call.fn, x), last + CONST_TOL)
            and len(data["terms"]) == call.q):
        return Verdict.fail("value_off", wrong=True)
    return OK


def _check_tabulate(oracles, call, rc, data) -> Verdict:
    rows = data.get("rows", [])
    if len(rows) != call.rows:
        return Verdict.fail("rows_mismatch", wrong=True)
    for row in rows:
        x = row["x"]
        if not (near(row["sigma"], oracles.sigma(call.fn, x), call.tol)
                and near(row["binet"], oracles.binet(call.fn, x), call.tol + CONST_TOL)):
            return Verdict.fail("value_off", wrong=True)
    return OK


def _check_verify(oracles, call, rc, data) -> Verdict:
    reports = data.get("reports", [])
    if not reports:
        # a suite that checked nothing must not count as a pass
        return Verdict.fail(f"empty_report:{call.suite}")
    failing = [r["identity"] for r in reports if not r["pass"]]
    if failing or not data.get("pass"):
        return Verdict.fail(f"report_fail:{','.join(failing)}")
    return OK


_CLI_CHECKS = {"eval": _check_eval, "constants": _check_constants,
               "expand": _check_expand, "tabulate": _check_tabulate,
               "verify": _check_verify}


def residual_points(stdout: str) -> int:
    data = _parse(stdout)
    if data is None:
        return 0
    return sum(len(r["points"]) for r in data.get("reports", []))
