"""Paired parent/change runs of the perfbench workloads, written to one BENCH file.

Usage (from anywhere):

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --out BENCH_<n>.json \
        --pairs verify_suites=1-10 [--pairs cold_cli=1-10 ...] \
        [--claim verify_suites:good_ops_per_s] [--traced verify_suites]

PARENT_DIR and CHANGE_DIR are two checkouts of the repository (for
instance `git archive` of the parent commit, and the working tree).  For
each workload and seed named by --pairs it runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the `run_seconds` of BENCHMARK.json, the same on both trees, as a
subprocess in each tree, one tree right after the other, and
alternates which tree goes first from one pair to the next.  It reads the
last line of each run (the JSON object with `correct`, `attempted`,
`failed` and `metrics`) and the `record` line, and writes to --out:

  - each tree's HEAD, with a hash of `git diff HEAD` if the tree has
    uncommitted changes;
  - every run's end-to-end metrics, `correct`, `failed` and `attempted`;
  - per workload and metric: the parent's and the change's median and
    inclusive quartiles, how many pairs the change wins, and a verdict on
    the bound BENCHMARK.json gives: "within bound" or "worse than bound"
    by the ratio of medians, or "unresolved" when the parent's own q3 - q1
    is wider than the bound and not every change run beats every parent
    run;
  - for --claim W:METRIC, the claim check: the change wins at least 9 of
    10 pairs, and its median beats the parent's by more than the parent's
    interquartile range;
  - for --traced W, one `--trace 1` run per tree on the first seed of W.

It only runs perfbench/; it neither imports nor edits it.  Standard
library only.  Runs go one at a time, so the two trees never compete for
the host.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACED_KEYS = ("sigma.points", "g.evals", "constants.cold_calls", "constants.cold_g_evals",
               "identities.suite_s.wallis", "identities.suite_s.mult",
               "identities.suite_s.inequalities", "sigma.self_frac", "identities.self_frac")


def _seeds(spec: str) -> list[int]:
    """'1-5' or '1,3,7' (or a mix) as a list of seeds."""
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def _git(tree: Path, *args: str) -> str | None:
    proc = subprocess.run(["git", *args], cwd=tree, capture_output=True, text=True)
    return proc.stdout if proc.returncode == 0 else None


def _revision(tree: Path) -> str:
    """HEAD's sha; for a tree with uncommitted changes also how many paths differ
    and the sha256 of `git diff HEAD --binary`."""
    head = _git(tree, "rev-parse", "HEAD")
    if head is None:
        return "not a git checkout"
    dirty = _git(tree, "status", "--porcelain") or ""
    if not dirty:
        return head.strip()
    diff = hashlib.sha256(_git(tree, "diff", "HEAD", "--binary").encode()).hexdigest()
    return (f"{head.strip()} with uncommitted changes in {len(dirty.splitlines())} paths, "
            f"sha256 of `git diff HEAD --binary` {diff[:16]}")


def run_once(tree: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in tree; its last-line JSON plus the `record` line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: {' '.join(argv[1:])} exited {proc.returncode}\n"
                           f"{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    record = next((json.loads(line[len("record "):]) for line in lines
                   if line.startswith("record ")), {})
    return {
        "metrics": {name: m["value"] for name, m in last["metrics"].items()},
        "correct": last["correct"],
        "failed": last["failed"],
        "attempted": last["attempted"],
        "total_wall_s": record.get("total_wall_s"),
    }


def _spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": statistics.median(values), "q3": q3, "n": len(values)}


def _verdict(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """The bound check of one metric.  A parent whose own q3 - q1 exceeds the bound
    cannot show a move of that size, so the check is left unresolved unless every
    change run beats every parent run."""
    p, c = _spread(parent), _spread(change)
    if p["q3"] - p["q1"] > bound * abs(p["median"]):
        if min(sign * v for v in change) > max(sign * v for v in parent):
            return "within bound"
        return "unresolved"
    if not p["median"]:
        return "unresolved"
    ratio = c["median"] / p["median"]
    worse_by = 1.0 - ratio if sign > 0 else ratio - 1.0
    return "within bound" if worse_by <= bound else "worse than bound"


def summarize(runs: list[dict], e2e: dict) -> dict:
    """Medians, quartiles, wins and the bound verdict of each end-to-end metric."""
    metrics = {}
    for name, spec in e2e.items():
        pairs = [(r["parent"]["metrics"][name], r["change"]["metrics"][name]) for r in runs]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        parent_values, change_values = [p for p, _ in pairs], [c for _, c in pairs]
        parent, change = _spread(parent_values), _spread(change_values)
        metrics[name] = {
            "better": spec["better"], "bound": spec["bound"],
            "parent": parent, "change": change,
            "change_wins": sum(sign * (c - p) > 0 for p, c in pairs),
            "ties": sum(c == p for p, c in pairs),
            "ratio_of_medians": change["median"] / parent["median"] if parent["median"] else None,
            "verdict": _verdict(parent_values, change_values, sign, spec["bound"]),
        }
    return {
        "pairs": len(runs),
        "seeds": [r["seed"] for r in runs],
        "correct_all": all(r[side]["correct"] for r in runs for side in ("parent", "change")),
        "failed_total": {side: sum(r[side]["failed"] for r in runs)
                         for side in ("parent", "change")},
        "metrics": metrics,
        "runs": runs,
    }


def claim_check(summary: dict, metric: str) -> dict:
    m = summary["metrics"][metric]
    sign = 1.0 if m["better"] == "higher" else -1.0
    gain = sign * (m["change"]["median"] - m["parent"]["median"])
    iqr = m["parent"]["q3"] - m["parent"]["q1"]
    pairs = summary["pairs"]
    return {
        "rule": "change wins >= 9/10 of the pairs, and its median beats the parent's by "
                "more than the parent's q3 - q1",
        "wins": f"{m['change_wins']}/{pairs}",
        "median_gain": gain,
        "parent_iqr": iqr,
        "ratio_of_medians": m["ratio_of_medians"],
        "met": m["change_wins"] >= 0.9 * pairs and gain > iqr,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--pairs", action="append", required=True, metavar="WORKLOAD=SEEDS",
                        help="seeds of one workload, e.g. verify_suites=1-10; repeat per workload")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD:METRIC")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    plan = dict(spec.split("=", 1) for spec in args.pairs)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    workloads, turn = {}, 0
    for workload, spec in plan.items():
        runs = []
        for seed in _seeds(spec):
            order = ("parent", "change") if turn % 2 == 0 else ("change", "parent")
            turn += 1
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                pair[side] = run_once(trees[side], workload, seed, seconds, 0)
                print(f"{workload} seed {seed} {side}: {pair[side]['metrics']}",
                      file=sys.stderr, flush=True)
            runs.append(pair)
        workloads[workload] = summarize(runs, e2e)

    out = {
        "parent_sha": _revision(trees["parent"]),
        "change_sha": _revision(trees["change"]),
        "host": f"{platform.machine()}, {platform.system()}, Python "
                f"{platform.python_version()}",
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds:g} "
                   "--trace 0",
        "protocol": "in each pair the parent and the change run back to back on the same "
                    "seed, one process at a time, alternating which tree goes first; "
                    "medians and inclusive quartiles over the pairs",
        "workloads": workloads,
        "claim_check": {claim: claim_check(workloads[claim.split(":")[0]], claim.split(":")[1])
                        for claim in args.claim},
        "traced": {},
    }
    for workload in args.traced:
        seed = _seeds(plan.get(workload, "1"))[0]
        traced = {"command": f"python3 perfbench/run.py --workload {workload} --seed {seed} "
                             f"--seconds {seconds:g} --trace 1"}
        for side in ("parent", "change"):
            run = run_once(trees[side], workload, seed, seconds, 1)
            traced[side] = {k: run["metrics"][k] for k in TRACED_KEYS if k in run["metrics"]}
            traced[side].update(correct=run["correct"], failed=run["failed"])
        out["traced"][workload] = traced
    args.out.write_text(json.dumps(out, indent=2) + "\n")
    for claim, check in out["claim_check"].items():
        print(f"claim {claim}: wins {check['wins']}, median gain {check['median_gain']:.4g}, "
              f"parent IQR {check['parent_iqr']:.4g}, met {check['met']}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
