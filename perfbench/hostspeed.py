"""Host speed probes, to take the shared host's speed out of the timings.

The host this benchmark was defined on (2 vCPUs of a shared machine) runs
a process at a speed that drifts by up to 2x within seconds (other
tenants, CPU frequency), with CPU time tracking wall time, so neither a
median within a run nor CPU time steadies a timing.  A fixed pure-Python
loop, the probe, tracks that drift.  Every end-to-end timing is therefore
reported in *nominal seconds*: its wall, with each stretch weighted by
the host's speed then, relative to a nominal host on which the probe
takes a fixed time.  The probe is the benchmark's own code and never
changes with the engine, so a faster or slower engine still shows in
full; only the host's speed is divided out.  run.py prints the unscaled
walls beside the scaled ones.

The probe is timed in one of two ways, whichever follows the unit:

* bracketed: in the benchmark's own thread, right before and right after
  a short unit (a replay of the point pool, one verify call):
      scaled = wall * NOMINAL_BRACKET_S / mean(probe before, probe after)
  Over a minute of 0.2 s replays, the medians of six 10 s windows spread
  0.30 (IQR/median) unscaled and 0.03 bracketed.
* sampled: by a sampler child, every INTERVAL_S (a 5% duty cycle on the
  other vCPU) while the benchmark runs a long unit it cannot interrupt (a
  set-up, a CLI child):
      scaled(a, b) = integral over [a, b] of NOMINAL_SAMPLE_S / sample(t) dt
  with sample(t) the sample nearest in time.  Over ten cold CLI calls the
  wall spread 0.36 and the sampled scaling 0.07.  (Bracketing a unit of
  several seconds does not follow the drift inside it.)

The two nominal times differ because a sample runs beside the busy
benchmark, which on the host about doubles the probe's time; each is
chosen so that nominal seconds are close to the host's typical seconds.
Timestamps are time.monotonic(), the system-wide CLOCK_MONOTONIC on
Linux, so the sampler's compare with the benchmark's.
"""

from __future__ import annotations

import bisect
import json
import math
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

PROBE_N = 20_000           # loop length: 3-4 ms on a vCPU of the host
PROBE_REPEATS = 3          # a probe is the median of 3 loops
INTERVAL_S = 0.2           # between samples
NOMINAL_BRACKET_S = 0.004  # a bracketing probe on the nominal host
NOMINAL_SAMPLE_S = 0.008   # a sample on the nominal host, beside the busy benchmark

# A timed unit: (start, end, mean of its bracketing probes, or None if sampled).
Span = tuple[float, float, Optional[float]]


def _loop(n: int) -> float:
    s = 0.0
    for i in range(1, n):
        s += math.log(i) / (i + 0.5)
    return s


def probe() -> float:
    """The loop's time now, in seconds (median of a few runs)."""
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _loop(PROBE_N)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def stamp() -> float:
    """A timestamp that compares with the sampler's."""
    return time.monotonic()


class Bracket:
    """Probes between back-to-back short units; the probe after one unit is the one before the next."""

    def __init__(self):
        self._last = probe()

    def span(self, a: float, b: float) -> Span:
        """The span of a unit that ran from a to b, just ended."""
        before, self._last = self._last, probe()
        return (a, b, 0.5 * (before + self._last))


class HostSampler:
    """Context manager: runs the sampler child for the block.

    After the block, scaled(span) gives the nominal seconds of a span.
    """

    def __init__(self):
        self._proc = None
        self.times: list[float] = []
        self.probes: list[float] = []

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                      text=True)
        return self

    def __exit__(self, exc_type, exc, tb):
        proc, self._proc = self._proc, None
        try:
            # closing its stdin asks the sampler to report and end
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        if exc_type is None:
            if proc.returncode != 0:
                raise SystemExit(f"perfbench: host sampler failed ({proc.returncode})")
            samples = json.loads(out)
            if not samples:
                raise SystemExit("perfbench: host sampler took no sample")
            self.times = [t for t, _ in samples]
            self.probes = [p for _, p in samples]
        return False

    def scaled(self, span: Span) -> float:
        """Nominal seconds of a span, bracketed or sampled."""
        a, b, bracket = span
        if bracket is not None:
            return (b - a) * NOMINAL_BRACKET_S / bracket
        # each stretch weighted by the nearest sample's speed
        times, probes = self.times, self.probes
        total = 0.0
        i = max(bisect.bisect_left(times, a) - 1, 0)  # the sample nearest a is i or i + 1
        while i < len(times):
            lo = -math.inf if i == 0 else 0.5 * (times[i - 1] + times[i])
            if lo >= b:
                break
            hi = math.inf if i == len(times) - 1 else 0.5 * (times[i] + times[i + 1])
            total += max(0.0, min(b, hi) - max(a, lo)) * NOMINAL_SAMPLE_S / probes[i]
            i += 1
        return total

    def probe_median(self) -> float:
        return statistics.median(self.probes)


def sample_until_stdin_closes() -> None:
    samples = []
    while True:
        t0 = stamp()
        p = probe()
        samples.append((t0 + 0.5 * (stamp() - t0), p))
        ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
        if ready and not sys.stdin.read(1):
            break
    print(json.dumps(samples))


if __name__ == "__main__":
    sample_until_stdin_closes()
