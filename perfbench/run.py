"""Benchmark of the indefsum engine.

Usage (from the repository root):

    python3 perfbench/run.py --workload cold_cli|warm_points|verify_suites \
        --seed N --seconds S --trace 0|1

With --trace 0 it reports the end-to-end metrics of one workload, timed
with no instrumentation and scaled to a nominal host speed (see
hostspeed.py; the unscaled walls are printed beside them); with
--trace 1 it runs one fixed pass untraced and once traced and reports
the per-layer metrics.  Every operation is
checked against an independent oracle, outside the timed region.

Output: a readable summary (every metric by name, with its unit and its
sample count, plus failed_frac and how many failures are known defects),
one `record` line with the run's conditions, and as the last line one
JSON object with the keys `correct`, `attempted`, `failed` and `metrics`.
`failed` counts the failures that are not known defects of the engine
(checks.KNOWN_DEFECTS); failed_frac counts them all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from checks import KNOWN_DEFECTS
from hostspeed import HostSampler
from workloads import ROOT, WORKLOADS, wall


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != str(ROOT):
        return "unknown"  # not a git checkout of its own
    return lines[1]


def _end_to_end(out, seconds) -> dict[str, tuple[float, str, int]]:
    """The metrics; `seconds(spans)` gives the time of a list of spans."""
    return {
        "setup_s": (statistics.median(seconds(s) for s in out.setups), "s", len(out.setups)),
        # median over the run's passes, so one slow stretch weighs little
        "good_ops_per_s": (statistics.median(good / seconds(spans) for good, spans in out.passes),
                           "ops/s", len(out.passes)),
        "peak_rss_mb": (out.peak_rss_mb, "MiB", 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_before = os.getloadavg()
    started = time.perf_counter()
    if args.trace:
        out = WORKLOADS[args.workload](args.seed, args.seconds, True)
    else:
        with HostSampler() as host:
            out = WORKLOADS[args.workload](args.seed, args.seconds, False)
    record = {
        "workload": args.workload, "seed": args.seed, "run_seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(), "git_sha": _git_sha(),
        "nproc": os.cpu_count(), "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "timed_wall_s": out.timed_wall_s, "total_wall_s": time.perf_counter() - started,
        **out.details,
    }
    if not args.trace:
        record["host_sample_s_median"] = host.probe_median()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    failures = dict(out.failures.most_common())
    failed_frac = (out.attempted - out.good) / out.attempted
    unexpected = out.attempted - out.good - out.known
    if args.trace:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in out.layers.items()}
        for name, (v, u) in out.layers.items():
            print(f"  {name:34s} = {v!r} {u}")
    else:
        e2e = _end_to_end(out, lambda spans: sum(map(host.scaled, spans)))
        raw = _end_to_end(out, wall)
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _) in e2e.items()}
        for name, (v, u, n) in e2e.items():
            print(f"  {name:16s} = {v!r} {u} (n={n}; unscaled wall: {raw[name][0]!r})")
    print(f"  {'failed_frac':16s} = {failed_frac!r} 1 (n={out.attempted}; {failures})")
    print(f"  {'known_defects':16s} = {out.known} of the failures are known defects "
          f"({', '.join(KNOWN_DEFECTS)}); {unexpected} are not")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": out.wrong == 0,
        "attempted": out.attempted,
        "failed": unexpected,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
