"""The three workloads: inputs drawn from the seed, set-up, timed loop, checks.

Load comes from one process with one caller (closed loop): the next
operation starts when the previous one has returned, and at most one CLI
child runs at a time.  The seed draws the points, the tolerances and the
call order; the count of each command and function per pass is fixed, so
the cost mix does not drift with the seed.

Every workload returns an Outcome.  With trace on, the timed loop is one
fixed pass (so counts repeat exactly for a seed), run once untraced and
once traced; the difference of the two walls is the tracing overhead.
"""

from __future__ import annotations

import importlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from checks import CATALOG, E1, E2, Oracles, Verdict, check_cli, check_point, \
    residual_points
from hostspeed import Bracket, Span, stamp
from spans import TRACE_MARK, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = Path(__file__).resolve().parent / "child.py"

TOLS = (1e-9, 1e-11)
CLI_TIMEOUT_S = 100


def wall(spans: list[Span]) -> float:
    return sum(b - a for a, b, _ in spans)


@dataclass
class Outcome:
    """What a run did.  Times are kept as spans, which run.py scales to nominal seconds."""

    setups: list[list[Span]] = field(default_factory=list)  # the spans of each set-up
    passes: list[tuple[int, list[Span]]] = field(default_factory=list)  # (good ops, timed spans)
    timed_wall_s: float = 0.0
    peak_rss_mb: float = 0.0
    attempted: int = 0
    good: int = 0
    known: int = 0  # failures of a kind in checks.KNOWN_DEFECTS
    wrong: int = 0
    failures: Counter = field(default_factory=Counter)
    layers: Optional[dict] = None
    details: dict = field(default_factory=dict)

    def add(self, verdict: Verdict, times: int = 1) -> None:
        self.attempted += times
        if verdict.ok:
            self.good += times
        else:
            self.failures[verdict.kind] += times
        if verdict.known:
            self.known += times
        if verdict.wrong:
            self.wrong += times


def log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def import_engine() -> Span:
    """Import the engine from this checkout's src/; returns the import's span."""
    if not (SRC / "indefsum" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no engine sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = stamp()
    cli = importlib.import_module("indefsum.cli")
    span = (t0, stamp(), None)
    if Path(cli.__file__).resolve().parent != (SRC / "indefsum").resolve():
        raise SystemExit(f"perfbench: indefsum imported from {cli.__file__}, not {SRC}")
    return span


def _mods():
    return {name: sys.modules[f"indefsum.{name}"]
            for name in ("cli", "catalog", "constants", "sigma")}


@contextmanager
def tracing(tracer: Optional[Tracer]):
    """Install the tracer's wrappers for the block, if there is a tracer."""
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n log-uniform draws on [lo, hi], one in each of n equal strata of log x, shuffled.

    Stratifying keeps the pool's cost mix the same from seed to seed while
    every point still comes from the seed.
    """
    a, b = math.log(lo), math.log(hi)
    xs = [math.exp(a + (b - a) * (i + rng.random()) / n) for i in range(n)]
    rng.shuffle(xs)
    return xs


def _fn_args(fn: str) -> list[str]:
    return ["--fn", fn] if fn in CATALOG else ["--expr", fn]


@dataclass
class Call:
    """One CLI invocation and what its check needs to know."""

    command: str
    fn: str
    argv: list[str]
    xs: list[float] = field(default_factory=list)
    tol: float = 1e-9
    q: int = 6
    rows: int = 0
    suite: str = ""


# ---------------------------------------------------------------------------
# cold_cli: one fresh `python -m indefsum.cli` process per operation

COLD_MIX = (
    ("eval", "ln"), ("eval", "recip"), ("eval", "psi2g"), ("eval", E1),
    ("constants", "recip"), ("constants", "xlnx"), ("constants", E1), ("constants", E2),
    ("expand", "ln"), ("expand", E1),
    ("tabulate", "ln"), ("tabulate", "recip"),
)
COLD_SETUP_REPS = 5


def cold_pass(rng: random.Random) -> list[Call]:
    evals = sum(cmd == "eval" for cmd, _ in COLD_MIX)
    tols = [TOLS[i % 2] for i in range(evals)]
    rng.shuffle(tols)
    calls = []
    for cmd, fn in COLD_MIX:
        argv = [cmd] + _fn_args(fn) + ["--format", "json"]
        call = Call(cmd, fn, argv)
        if cmd == "eval":
            # one point in each third of log x, so each call's cost and
            # outcome are the same from seed to seed
            call.xs = stratified(rng, 0.01, 1e4, 3)
            call.tol = tols.pop()
            argv += ["--x=" + ",".join(map(repr, call.xs)), "--tol", repr(call.tol)]
        elif cmd == "expand":
            argv += ["--x", repr(log_uniform(rng, 5.0, 50.0)), "--q", str(call.q)]
        elif cmd == "tabulate":
            start = rng.uniform(0.5, 20.0)
            call.rows = 5
            argv += ["--from", repr(start), "--to", repr(start + 2.0), "--step", "0.5"]
        calls.append(call)
    rng.shuffle(calls)
    return calls


def _cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _spawn(argv: list[str], env: dict):
    """Run one child to completion; returns (rc, stdout, stderr, span)."""
    t0 = stamp()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        return -1, exc.stdout or "", exc.stderr or "", (t0, stamp(), None)
    return proc.returncode, proc.stdout, proc.stderr, (t0, stamp(), None)


def run_cold_cli(seed: int, seconds: float, trace: bool) -> Outcome:
    import_engine()
    oracles = Oracles(_mods()["catalog"])
    env = _cli_env()
    cli_cmd = [sys.executable, "-m", "indefsum.cli"]
    out = Outcome()
    rng = random.Random(seed)

    # set-up: the process-start floor every call pays
    for _ in range(1 if trace else COLD_SETUP_REPS):
        rc, stdout, stderr, span = _spawn(cli_cmd + ["catalog", "--format", "json"], env)
        if rc != 0:
            raise SystemExit(f"perfbench: `indefsum catalog` failed ({rc}): {stderr.strip()}")
        out.setups.append([span])

    def one_pass(calls, prefix, tracer=None):
        spans, good = [], out.good
        for call in calls:
            rc, stdout, stderr, span = _spawn(prefix + call.argv, env)
            spans.append(span)
            if tracer is not None:
                _merge_child_trace(tracer, stderr)
            out.add(check_cli(oracles, call, rc, stdout))
        out.passes.append((out.good - good, spans))
        return wall(spans)

    if not trace:
        while True:
            out.timed_wall_s += one_pass(cold_pass(rng), cli_cmd)
            if out.timed_wall_s >= seconds:
                break
        out.peak_rss_mb = _children_rss_mb()
        return out

    calls = cold_pass(rng)
    untraced = one_pass(calls, cli_cmd)
    tracer = Tracer()
    traced = one_pass(calls, [sys.executable, str(CHILD)], tracer)
    out.timed_wall_s = traced
    out.layers = layer_metrics(None, tracer, traced, untraced, len(calls))
    out.details["cold_g_evals_by_fn"] = dict(tracer.cold_g_evals_by_fn)
    return out


def _merge_child_trace(tracer: Tracer, stderr: str) -> None:
    for line in stderr.splitlines():
        if line.startswith(TRACE_MARK):
            tracer.merge_json(json.loads(line[len(TRACE_MARK):]))


# ---------------------------------------------------------------------------
# warm_points: a seeded stream of library calls sigma(g, x, tol)

WARM_FUNCTIONS = CATALOG
WARM_BLOCK_PER_CATALOG = 10    # points per catalog entry per block
WARM_BLOCKS = 100              # 100 blocks of 41 points = a pool of 4100


def warm_pool(rng: random.Random) -> list[tuple[str, float, float]]:
    """Isolated points: x log-uniform on [0.01, 1e4], no shared fractional parts.

    Each block holds 10 points per catalog entry (5 at each tol) and one
    expression point, so the expression share is fixed at 1/41.
    """
    k = WARM_BLOCK_PER_CATALOG
    xs = {fn: stratified(rng, 0.01, 1e4, WARM_BLOCKS * k) for fn in WARM_FUNCTIONS}
    expr_xs = stratified(rng, 0.01, 1e4, WARM_BLOCKS)
    pool = []
    for b in range(WARM_BLOCKS):
        block = [(fn, xs[fn][b * k + i], TOLS[i % 2]) for fn in WARM_FUNCTIONS for i in range(k)]
        block.append((E1, expr_xs[b], TOLS[b % 2]))
        rng.shuffle(block)
        pool += block
    return pool


def _warm_setup(seed: int) -> dict:
    m = _mods()
    entries = {name: m["catalog"].builtin(name) for name in WARM_FUNCTIONS}
    entries[E1] = m["catalog"].from_expression(E1, rng=random.Random(seed))
    for e in entries.values():
        m["constants"].asymptotic_constant(e.g, e.g.p)
    return {fn: e.g for fn, e in entries.items()}


def _replay(sigma, pool_g, bracket: Bracket) -> tuple[list, Span]:
    results = []
    append = results.append
    t0 = stamp()
    for g, x, tol in pool_g:
        try:
            append(sigma(g, x, tol))
        except Exception as exc:  # counted as a failed operation
            append(exc)
    return results, bracket.span(t0, stamp())


def _same(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b)
    return a == b


def run_warm_points(seed: int, seconds: float, trace: bool) -> Outcome:
    import_span = import_engine()
    m = _mods()
    out = Outcome()
    rng = random.Random(seed)
    pool = warm_pool(rng)

    # one set-up per run: it takes about 10 s of the run's budget
    setup_tracer = Tracer() if trace else None
    with tracing(setup_tracer):
        t0 = stamp()
        gs = _warm_setup(seed)
        out.setups.append([import_span, (t0, stamp(), None)])
    pool_g = [(gs[fn], x, tol) for fn, x, tol in pool]

    bracket = Bracket()
    first, span = _replay(m["sigma"].sigma, pool_g, bracket)
    spans = [span]
    repeats = []  # per later replay, the indices whose result differs from the first

    def differing(results):
        return [i for i, (a, b) in enumerate(zip(first, results)) if not _same(a, b)]

    if not trace:
        while wall(spans) < seconds:
            results, span = _replay(m["sigma"].sigma, pool_g, bracket)
            spans.append(span)
            repeats.append(differing(results))
        out.timed_wall_s = wall(spans)
        out.peak_rss_mb = _self_rss_mb()
    else:
        tracer = Tracer()
        tracer.import_s.append(wall([import_span]))
        with tracing(tracer):
            for g in gs.values():
                tracer.count_g(g)
            results, span = _replay(m["sigma"].sigma, pool_g, bracket)
        repeats.append(differing(results))
        out.timed_wall_s = traced = wall([span])
        out.layers = layer_metrics(setup_tracer, tracer, traced, wall(spans), len(pool))
        out.details["cold_g_evals_by_fn"] = dict(setup_tracer.cold_g_evals_by_fn)

    oracles = Oracles(m["catalog"])
    changed = Counter(i for bad in repeats for i in bad)
    good_per_replay = 0
    for i, ((fn, x, tol), res) in enumerate(zip(pool, first)):
        verdict = check_point(oracles, fn, x, tol, res)
        good_per_replay += verdict.ok
        out.add(verdict, 1 + len(repeats) - changed[i])
        if changed[i]:
            out.add(Verdict.fail("nondeterministic", wrong=True), changed[i])
    # a replay that changed a result is wrong, so its rate no longer matters
    out.passes = [(good_per_replay, [span]) for span in spans]
    return out


# ---------------------------------------------------------------------------
# verify_suites: in-process `cli.run(["verify", ...])` calls

PSI2_SUITES = ("raabe", "mult", "wendel", "stirling", "webster", "wallis",
               "reflection", "taylor", "euler-series", "inequalities")
GENERIC_SUITES = ("raabe", "mult", "wendel", "stirling")
VERIFY_MIX = (("psi2g", PSI2_SUITES), ("ln", GENERIC_SUITES), ("recip", GENERIC_SUITES))


def _suite_grid(rng: random.Random, fn: str, suite: str) -> list[str]:
    """--m/--x arguments for one suite, drawn around the CLI's default grids."""
    def xs(values):  # one token, so a leading minus sign is not read as a flag
        return ["--x=" + ",".join(repr(v) for v in values)]

    if suite == "raabe":
        return xs([log_uniform(rng, 0.5, 10.0) for _ in range(5)])
    if suite == "mult":
        return ["--m", "2,3"] + xs([log_uniform(rng, 0.3, 8.0) for _ in range(4)])
    if suite == "wendel":
        if fn == "ln":
            return xs([log_uniform(rng, 1.0, 100.0) for _ in range(3)])
        x0 = log_uniform(rng, 16.0, 32.0)  # the decay check needs a rising grid
        return xs([x0, 4.0 * x0, 16.0 * x0])
    if suite == "stirling":
        if fn == "psi2g":
            return xs([log_uniform(rng, 25.0, 100.0) for _ in range(3)])
        x0 = log_uniform(rng, 10.0, 30.0)
        return xs([x0, 10.0 * x0, 100.0 * x0])
    if suite == "webster":
        return xs([rng.uniform(0.7, 2.0) for _ in range(3)])
    if suite == "reflection":
        return xs([rng.uniform(0.1, 0.9) for _ in range(5)])
    if suite == "taylor":
        return xs([rng.uniform(-0.5, 0.5) for _ in range(4)])
    return []  # wallis, euler-series, inequalities take no grid


def verify_pass(rng: random.Random) -> list[Call]:
    calls = []
    for fn, suites in VERIFY_MIX:
        for suite in suites:
            argv = ["verify", "--fn", fn, "--suite", suite] + _suite_grid(rng, fn, suite)
            calls.append(Call("verify", fn, argv, suite=suite))
    rng.shuffle(calls)
    return calls


def _run_cli(cli, argv, bracket: Optional[Bracket] = None) -> tuple[int, str, Span]:
    buf = io.StringIO()
    t0 = stamp()
    try:
        rc = cli.run(argv, out=buf)
    except SystemExit as exc:  # argparse rejected the arguments
        rc = exc.code
    t1 = stamp()
    return rc, buf.getvalue(), (t0, t1, None) if bracket is None else bracket.span(t0, t1)


def run_verify_suites(seed: int, seconds: float, trace: bool) -> Outcome:
    import_span = import_engine()
    m = _mods()
    out = Outcome()
    rng = random.Random(seed)

    # one set-up per run (an untimed warm-up pass): it takes about 15 s
    warmup = verify_pass(rng)
    setup_tracer = Tracer() if trace else None
    with tracing(setup_tracer):
        t0 = stamp()
        for call in warmup:
            _run_cli(m["cli"], call.argv)
        out.setups.append([import_span, (t0, stamp(), None)])
    oracles = Oracles(m["catalog"])
    bracket = Bracket()

    def one_pass(calls, tracer=None):
        spans, good = [], out.good
        for call in calls:
            rc, stdout, span = _run_cli(m["cli"], call.argv, bracket)
            spans.append(span)
            out.add(check_cli(oracles, call, rc, stdout))
            if tracer is not None:
                tracer.suite_s[call.suite] += wall([span])
                tracer.counts["identities.residual_points"] += residual_points(stdout)
        out.passes.append((out.good - good, spans))
        return wall(spans)

    if not trace:
        while out.timed_wall_s < seconds:
            out.timed_wall_s += one_pass(verify_pass(rng))
        out.peak_rss_mb = _self_rss_mb()
        return out

    calls = verify_pass(rng)
    untraced = one_pass(calls)
    tracer = Tracer()
    tracer.import_s.append(wall([import_span]))
    with tracing(tracer):
        traced = one_pass(calls, tracer)
    out.timed_wall_s = traced
    out.layers = layer_metrics(setup_tracer, tracer, traced, untraced, len(calls))
    out.details["cold_g_evals_by_fn"] = dict(setup_tracer.cold_g_evals_by_fn)
    return out


WORKLOADS = {
    "cold_cli": run_cold_cli,
    "warm_points": run_warm_points,
    "verify_suites": run_verify_suites,
}
