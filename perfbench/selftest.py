"""Self-test of the benchmark itself.

Usage (from the repository root):  python3 perfbench/selftest.py

Runs each workload at a tiny size, with and without trace, and checks
that the last output line has exactly the keys of the result and every
metric named in BENCHMARK.json with its unit; that today's known defects
(a verify suite that checks nothing, over-tol points) count in
failed_frac, but not in the result line's `failed`;
that deliberately corrupted outputs are caught by the correctness checks;
that timings are scaled to the nominal host as hostspeed.py describes;
and that the counts repeat exactly and reproduce the cold-constant and
Gregory-point g-evaluation counts measured by hand (ROADMAP Baseline).
Takes about a minute; exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys

import run
import workloads
from checks import E1, Oracles, check_cli, check_point
from hostspeed import NOMINAL_BRACKET_S, NOMINAL_SAMPLE_S, HostSampler
from spans import Tracer
from workloads import ROOT

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# g-evaluations of one cold sigma[g] (constants.asymptotic_constant)
BASELINE_COLD_G_EVALS = {"psi2g": 1_966_170, "xlnx": 1_966_170, "ln": 39_981,
                         "recip": 153_645}
GREGORY_POINT_G_EVALS = (31, 38)  # shift N = ceil(30 - x) plus J = 8, for x in (0, 7]


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def shrink() -> None:
    """Tiny workloads: cheap functions only, one short pass each."""
    workloads.COLD_MIX = (("eval", "ln"), ("eval", "recip"), ("constants", E1),
                          ("expand", "ln"), ("tabulate", "recip"))
    workloads.COLD_SETUP_REPS = 2
    workloads.WARM_FUNCTIONS = ("ln", "recip")
    workloads.WARM_BLOCKS = 4
    workloads.VERIFY_MIX = (("psi2g", ("euler-series", "inequalities")),
                            ("ln", ("raabe", "stirling")))


def run_once(workload: str, trace: int, seed: int = 7) -> tuple[dict, str]:
    if "indefsum.catalog" in sys.modules:  # start cold, as a fresh process would
        sys.modules["indefsum.catalog"].builtin.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", str(seed),
                       "--seconds", "0.01", "--trace", str(trace)])
    text = buf.getvalue()
    expect(rc == 0, f"{workload} trace={trace} exits 0")
    return json.loads(text.strip().splitlines()[-1]), text


def check_result(workload: str, trace: int, result: dict, text: str) -> None:
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload} trace={trace}: result keys")
    expect(result["correct"] is True and result["attempted"] >= 1,
           f"{workload} trace={trace}: correct, attempted >= 1")
    expect({m["name"]: m["unit"] for m in wanted}
           == {k: v["unit"] for k, v in result["metrics"].items()},
           f"{workload} trace={trace}: every metric emitted, with its unit")
    expect(all(isinstance(v["value"], (int, float)) and math.isfinite(v["value"])
               for v in result["metrics"].values()),
           f"{workload} trace={trace}: finite numeric values")
    if not trace:
        names = [m["name"] for m in wanted] + ["failed_frac"]
        expect(all(f"  {n} " in text for n in names),
               f"{workload}: summary prints {', '.join(names)} by name")


def check_workloads() -> None:
    runs = {}
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            runs[workload, trace] = run_once(workload, trace)
            check_result(workload, trace, *runs[workload, trace])
    traced = runs["warm_points", 1][0]["metrics"]
    expect(traced["sigma.over_tol_frac"]["value"] > 0.0,
           "warm_points: over-tol 1e-11 points are visible")
    result, text = runs["verify_suites", 0]
    expect("empty_report:inequalities" in text and "failed_frac      = 0.0 " not in text,
           "verify_suites: `--suite inequalities` with no reports counts in failed_frac")
    result, text = runs["warm_points", 0]
    expect("'over_tol'" in text and "failed_frac      = 0.0 " not in text,
           "warm_points: over-tol 1e-11 points count in failed_frac")
    expect(all(r[0]["failed"] == 0 for r in runs.values()),
           "known defects are kept out of the result line's `failed`")
    again = run_once("warm_points", 1)[0]["metrics"]
    counts = ("g.evals", "numerics.integrate_panels", "sigma.terms_used_mean",
              "constants.cold_g_evals", "exprlang.evaluate_calls", "sigma.points")
    expect(all(again[c] == traced[c] for c in counts),
           f"warm_points: counts repeat exactly ({', '.join(counts)})")


def check_corruption() -> None:
    cli = sys.modules["indefsum.cli"]
    catalog = sys.modules["indefsum.catalog"]
    sigma_mod = sys.modules["indefsum.sigma"]
    oracles = Oracles(catalog)
    ln = catalog.builtin("ln")
    sys.modules["indefsum.constants"].asymptotic_constant(ln.g)

    res = sigma_mod.sigma(ln.g, 0.5, 1e-9)
    expect(check_point(oracles, "ln", 0.5, 1e-9, res).ok, "point check passes a true value")
    bad = dataclasses.replace(res, value=res.value + 1e-7)
    verdict = check_point(oracles, "ln", 0.5, 1e-9, bad)
    expect(not verdict.ok and verdict.wrong, "point check catches a value off by 1e-7")

    call = workloads.Call("eval", "ln", [], xs=[0.5, 3.0], tol=1e-9)
    buf = io.StringIO()
    rc = cli.run(["eval", "--fn", "ln", "--x", "0.5,3.0", "--format", "json"], out=buf)
    expect(check_cli(oracles, call, rc, buf.getvalue()).ok, "eval check passes the CLI output")
    data = json.loads(buf.getvalue())
    data["rows"][1]["sigma"] += 1e-7
    verdict = check_cli(oracles, call, 0, json.dumps(data))
    expect(not verdict.ok and verdict.wrong, "eval check catches a corrupted row")

    call = workloads.Call("tabulate", "recip", [], rows=5)
    buf = io.StringIO()
    rc = cli.run(["tabulate", "--fn", "recip", "--from", "2.5", "--to", "4.5", "--step", "0.5",
                  "--format", "json"], out=buf)
    expect(check_cli(oracles, call, rc, buf.getvalue()).ok, "tabulate check passes the CLI output")
    data = json.loads(buf.getvalue())
    data["rows"][2]["binet"] += 1e-8
    expect(check_cli(oracles, call, 0, json.dumps(data)).wrong, "tabulate check catches a corrupted binet")

    call = workloads.Call("verify", "psi2g", [], suite="wallis")
    empty = json.dumps({"command": "verify", "pass": True, "reports": []})
    expect(not check_cli(oracles, call, 0, empty).ok, "verify check fails an empty report list")


def check_host_scaling() -> None:
    host = HostSampler()
    host.times, host.probes = [10.25, 10.75], [NOMINAL_SAMPLE_S, 2 * NOMINAL_SAMPLE_S]
    expect(math.isclose(host.scaled((10.0, 11.0, None)), 0.75),
           "a sampled span weighs each stretch by its nearest sample's speed")
    expect(math.isclose(host.scaled((9.0, 9.5, None)), 0.5),
           "a sampled span before the first sample takes the first sample's speed")
    expect(math.isclose(host.scaled((0.0, 2.0, 2 * NOMINAL_BRACKET_S)), 1.0),
           "a bracketed span is scaled by its own probes")


def check_baseline_counts() -> None:
    catalog = sys.modules["indefsum.catalog"]
    constants = sys.modules["indefsum.constants"]
    sigma_mod = sys.modules["indefsum.sigma"]
    catalog.builtin.cache_clear()  # fresh entries: no constant cached yet
    tracer = Tracer()
    with workloads.tracing(tracer):
        entries = {name: catalog.builtin(name) for name in BASELINE_COLD_G_EVALS}
        for e in entries.values():
            constants.asymptotic_constant(e.g)
        per_point = []
        for x in (0.01, 0.5, 1.0, 3.3, 7.0):
            before = tracer.counts["sigma.g_evals_in_points"]
            sigma_mod.sigma(entries["psi2g"].g, x, 1e-9)
            per_point.append(tracer.counts["sigma.g_evals_in_points"] - before)
    expect(dict(tracer.cold_g_evals_by_fn) == BASELINE_COLD_G_EVALS,
           f"cold sigma[g] g-evals match the baseline {BASELINE_COLD_G_EVALS}")
    lo, hi = GREGORY_POINT_G_EVALS
    expect(min(per_point) == lo and max(per_point) == hi,
           f"Gregory points at x in (0, 7] cost {lo}-{hi} g-evals ({per_point})")


def main() -> int:
    shrink()
    check_workloads()
    check_corruption()
    check_host_scaling()
    check_baseline_counts()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
