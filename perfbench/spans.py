"""Spans and counters recorded from outside the library.

install() replaces every public function of the engine's layers with a
timing wrapper, in every `indefsum` namespace that holds a reference to
it: the defining module, each module that imported it by name (for
example `cli.sigma`, `identities.sigma`, `identities.asymptotic_constant`)
and the package re-exports.  The modules are reached through sys.modules,
because `indefsum.sigma` names the function, not the module.  uninstall()
puts every original back.

Spans are aggregated at the boundary, per qualified name: calls,
inclusive seconds and self seconds (inclusive minus the time covered by
nested spans).  Per-call durations are kept only for the sigma()
dispatcher, whose latency percentiles are reported.  g-evaluations are
counted by wrapping `eval`/`jet` on the GFunction objects a workload
uses; that wrapper only counts and does not time.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
from collections import Counter

LAYERS = ("cli", "catalog", "shape", "exprlang", "constants", "sigma",
          "numerics", "asymptotics", "identities")

SUITES = ("raabe", "mult", "wendel", "stirling", "webster", "wallis",
          "reflection", "taylor", "euler-series", "inequalities")

# Prefix of the stderr line on which a traced CLI child reports its spans.
TRACE_MARK = "PERFBENCH_TRACE "

# Not wrapped: the catalog oracles, which the benchmark checks against, and
# coefficient lookups and closed-form arithmetic, whose span would cost more
# than the call (their time counts as the caller's self time).
_SKIP = {"catalog": {"reference_lgamma", "reference_digamma", "reference_psi2",
                     "named_constant"},
         "numerics": {"gen_binomial", "gregory_coeff", "gregory_coeff_fraction",
                      "bernoulli_number", "bernoulli_fraction", "zeta_int",
                      "zeta_int_minus_1"},
         "cli": {"main"}}


class Tracer:
    """Aggregated spans and counters for one traced section."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, inclusive_s, self_s]
        self.g_evals = 0
        self.counts: Counter = Counter()
        self.point_us: list[float] = []
        self.cold_g_evals_by_fn: Counter = Counter()
        self.import_s: list[float] = []
        self.suite_s: Counter = Counter()
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def span(self, name, fn, before=None, after=None):
        """Wrap fn in a span; before(args, kwargs) -> state, after(state, result, exc, dt, g_delta)."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            g0 = self.g_evals
            stack.append(0.0)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dt = clock() - t0
                inner = stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                if stack:
                    stack[-1] += dt
                if after is not None:
                    after(state, result, exc, dt, self.g_evals - g0)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def count_g(self, g) -> None:
        """Count calls to g.eval and g.jet (idempotent per object)."""
        for attr in ("eval", "jet"):
            inner = getattr(g, attr)
            if inner is None or getattr(inner, "_perfbench_counted", False):
                continue

            def counted(*args, _inner=inner):
                self.g_evals += 1
                return _inner(*args)

            counted._perfbench_counted = True
            self._patches.append((g, attr, inner))
            setattr(g, attr, counted)

    # -- install / uninstall ------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of the layers, in every namespace."""
        mods = {name: sys.modules[f"indefsum.{name}"] for name in LAYERS}
        namespaces = [m for n, m in sys.modules.items()
                      if (n == "indefsum" or n.startswith("indefsum.")) and m is not None]
        for layer, mod in mods.items():
            for fname, fn in _public_functions(mod, layer):
                wrapped = self._wrap_for(layer, fname, fn)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._patches.append((ns, attr, fn))
                            setattr(ns, attr, wrapped)

    def uninstall(self) -> None:
        for obj, attr, original in reversed(self._patches):
            setattr(obj, attr, original)
        self._patches.clear()

    def _wrap_for(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        if layer == "constants" and fname in ("asymptotic_constant", "constants_report"):
            return self.span(name, fn, self._constant_before, self._constant_after)
        if layer == "sigma" and fname == "sigma":
            return self.span(name, fn, _bind_tol(fn), self._point_after)
        if layer == "numerics" and fname == "integrate":
            return self.span(name, fn, after=self._integrate_after)
        if layer == "shape" and fname == "classify":
            spanned = self.span(name, fn, after=self._classify_after)

            def classify(g, *args, **kwargs):  # count the probes of g
                def counted(x):
                    self.g_evals += 1
                    return g(x)
                return spanned(counted, *args, **kwargs)
            return classify
        if layer == "catalog" and fname in ("builtin", "from_expression"):
            def observe(state, result, exc, dt, g_delta):
                if result is not None:
                    self.count_g(result.g)
            return self.span(name, fn, after=observe)
        return self.span(name, fn)

    # -- observers ----------------------------------------------------------

    @staticmethod
    def _constant_before(args, kwargs):
        g = args[0] if args else kwargs["g"]
        return g.name, g.sigma_constant is None

    def _constant_after(self, state, result, exc, dt, g_delta):
        fn_name, cold = state
        if exc is not None:
            self.counts["constants.errors"] += 1
        if cold:
            self.counts["constants.cold_calls"] += 1
            self.counts["constants.cold_g_evals"] += g_delta
            self.counts["constants.cold_s"] += dt
            self.cold_g_evals_by_fn[fn_name] += g_delta
        else:
            self.counts["constants.hits"] += 1

    def _point_after(self, tol, result, exc, dt, g_delta):
        self.point_us.append(dt * 1e6)
        self.counts["sigma.g_evals_in_points"] += g_delta
        if result is None:
            return
        self.counts["sigma.points_ok"] += 1
        self.counts[f"sigma.strategy.{result.strategy}"] += 1
        self.counts["sigma.terms_used"] += result.terms_used
        if not result.err_estimate <= tol:
            self.counts["sigma.over_tol"] += 1

    def _integrate_after(self, state, result, exc, dt, g_delta):
        if result is None:
            result = getattr(exc, "best", None)
        if result is not None:
            self.counts["numerics.integrate_panels"] += result.subdivisions

    def _classify_after(self, state, result, exc, dt, g_delta):
        self.counts["shape.classify_g_evals"] += g_delta

    # -- merging (children of cold_cli) -------------------------------------

    def to_json(self) -> dict:
        return {"spans": self.spans, "g_evals": self.g_evals,
                "counts": dict(self.counts), "point_us": self.point_us,
                "cold_g_evals_by_fn": dict(self.cold_g_evals_by_fn),
                "import_s": self.import_s, "suite_s": dict(self.suite_s)}

    def merge_json(self, data: dict) -> None:
        for name, (calls, incl, self_s) in data["spans"].items():
            stat = self.spans.setdefault(name, [0, 0.0, 0.0])
            stat[0] += calls
            stat[1] += incl
            stat[2] += self_s
        self.g_evals += data["g_evals"]
        self.counts.update(data["counts"])
        self.point_us.extend(data["point_us"])
        self.cold_g_evals_by_fn.update(data["cold_g_evals_by_fn"])
        self.import_s.extend(data["import_s"])
        self.suite_s.update(data["suite_s"])


def _public_functions(mod, layer):
    skip = _SKIP.get(layer, set())
    for fname, fn in vars(mod).items():
        if fname.startswith("_") or fname in skip:
            continue
        if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
            yield fname, fn
        elif hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == mod.__name__:
            yield fname, fn  # lru_cache-wrapped public function (catalog.builtin)


def _bind_tol(fn):
    default = inspect.signature(fn).parameters["tol"].default

    def before(args, kwargs):
        if len(args) > 2:
            return args[2]
        return kwargs.get("tol", default)
    return before


def tail_percentile(n: int) -> float:
    """Highest of p99.9/p99/p90 with at least ten samples beyond it; else the max."""
    for q in (99.9, 99.0, 90.0):
        if n * (1.0 - q / 100.0) >= 10.0:
            return q
    return 100.0


def percentile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    k = min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))
    return ordered[k]


def _layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def layer_metrics(setup: Tracer | None, loop: Tracer, loop_wall_s: float,
                  untraced_wall_s: float, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, by name -> (value, unit).

    constants.* cover set-up and loop (on warm workloads the constants are
    filled in set-up); every other metric covers the traced loop only.
    """
    sp = loop.spans
    c = loop.counts
    cc = Counter(c)
    if setup is not None:
        cc.update(setup.counts)

    def calls(name):
        return sp.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return sp.get(name, [0, 0.0, 0.0])[1]

    const_calls = cc["constants.cold_calls"] + cc["constants.hits"]
    points = calls("sigma.sigma")
    ok = c["sigma.points_ok"]
    tail_q = tail_percentile(len(loop.point_us))
    m: dict[str, tuple[float, str]] = {
        "constants.cold_calls": (cc["constants.cold_calls"], "count"),
        "constants.cold_s": (cc["constants.cold_s"], "s"),
        "constants.cold_g_evals": (cc["constants.cold_g_evals"], "count"),
        "constants.hit_frac": (cc["constants.hits"] / const_calls if const_calls else 0.0, "1"),
        "constants.errors": (cc["constants.errors"], "count"),
        "sigma.points": (points, "count"),
        "sigma.point_us_p50": (percentile(loop.point_us, 50.0), "us"),
        "sigma.point_us_tail": (percentile(loop.point_us, tail_q), "us"),
        "sigma.g_evals_per_point": (c["sigma.g_evals_in_points"] / points if points else 0.0, "count"),
        "sigma.terms_used_mean": (c["sigma.terms_used"] / ok if ok else 0.0, "count"),
        "sigma.over_tol_frac": (c["sigma.over_tol"] / ok if ok else 0.0, "1"),
        "sigma.eulerian_calls": (calls("sigma.sigma_eulerian"), "count"),
        "sigma.eulerian_s": (incl("sigma.sigma_eulerian"), "s"),
        "exprlang.evaluate_calls": (calls("exprlang.evaluate"), "count"),
        "exprlang.evaluate_s": (incl("exprlang.evaluate"), "s"),
        "exprlang.eval_jet_calls": (calls("exprlang.eval_jet"), "count"),
        "exprlang.eval_jet_s": (incl("exprlang.eval_jet"), "s"),
        "shape.classify_s": (incl("shape.classify"), "s"),
        "shape.classify_g_evals": (c["shape.classify_g_evals"], "count"),
        "numerics.integrate_calls": (calls("numerics.integrate"), "count"),
        "numerics.integrate_panels": (c["numerics.integrate_panels"], "count"),
        # self time: the quadrature itself, without the integrand's spans
        "numerics.integrate_s": (sp.get("numerics.integrate", [0, 0.0, 0.0])[2], "s"),
        "asymptotics.binet_calls": (calls("asymptotics.binet"), "count"),
        "asymptotics.binet_s": (incl("asymptotics.binet"), "s"),
        "asymptotics.asym_expansion_s": (incl("asymptotics.asym_expansion"), "s"),
        "identities.residual_points": (c["identities.residual_points"], "count"),
        "g.evals": (loop.g_evals, "count"),
        "g.evals_per_op": (loop.g_evals / ops if ops else 0.0, "count"),
        "cli.import_s": (percentile(loop.import_s, 50.0), "s"),
        "cli.run_self_s": (sum(v[2] for k, v in sp.items() if _layer_of(k) == "cli"), "s"),
        "trace.overhead_s": (loop_wall_s - untraced_wall_s, "s"),
        "trace.overhead_frac": ((loop_wall_s - untraced_wall_s) / untraced_wall_s
                                if untraced_wall_s > 0 else 0.0, "1"),
    }
    for strategy in ("gregory", "eulerian", "direct"):
        m[f"sigma.strategy_frac.{strategy}"] = (
            c[f"sigma.strategy.{strategy}"] / ok if ok else 0.0, "1")
    for suite in SUITES:
        m[f"identities.suite_s.{suite}"] = (loop.suite_s.get(suite, 0.0), "s")
    for layer in LAYERS:
        self_s = sum(v[2] for k, v in sp.items() if _layer_of(k) == layer)
        m[f"{layer}.self_frac"] = (self_s / loop_wall_s if loop_wall_s > 0 else 0.0, "1")
    return m
