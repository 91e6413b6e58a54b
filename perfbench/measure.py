"""Timing statistics, host speed, process counters and run provenance."""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

TAIL_SAMPLES = 10
TAIL_CAP = 99
CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
# The host-speed reference job, and its median time on the host where
# the bounds in BENCHMARK.json were set (a 2-vCPU Xeon VM).
REFERENCE_LOOP = 40_000
REFERENCE_SORT = 400_000
REFERENCE_MS = 5.0
REFERENCE_INTERVAL_S = 0.2
SETUP_REPEATS = 3  # setup_s is the median of this many set-ups
SETUP_SAMPLES = 3  # reference samples before each set-up
# A run with at least two windows of this many ops reports the median
# over windows of each window's host-normalised tail (see end_to_end).
TAIL_WINDOW = 1000


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    position = (len(ordered) - 1) * pct / 100.0
    lo = int(position)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (position - lo)


def tail_percentile(count: int) -> int:
    """The highest whole percentile with at least ten samples beyond it,
    kept within p50..p99 (beyond p99 one scheduler stall moves it)."""
    if count <= 2 * TAIL_SAMPLES:
        return 50
    return min(TAIL_CAP, 100 * (count - TAIL_SAMPLES) // count)


def tail_label(count: int) -> str:
    """Which percentile ``op_tail_ms`` is, for the provenance line."""
    if count < 2 * TAIL_WINDOW:
        return f"p{tail_percentile(count)}"
    return f"median over {TAIL_WINDOW}-op windows of p{tail_percentile(TAIL_WINDOW)}"


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process (Linux ``/proc``)."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class HostSpeed:
    """How slowly the host runs a fixed job now, relative to ``REFERENCE_MS``.

    Shared hosts drift by tens of percent within minutes.  The job (a
    pure-Python loop and a numpy sort) shares no code with the program
    and is timed between operations, never during one.  On a 2-vCPU
    shared host its time correlated 0.8 (log-log) with a fixed k-NN
    query's, and dividing by it cut the spread of 15-second medians of
    that query from 28% to 12%.  ``factor`` > 1 means a slower host.
    """

    def __init__(self) -> None:
        self._array = np.random.default_rng(0).random(REFERENCE_SORT)
        self.samples: List[float] = []
        self.times: List[float] = []
        self.spent_s = 0.0
        self._next = 0.0
        self.sample()  # the first run pays page faults and cache misses
        self.samples.clear()
        self.times.clear()

    def samples_of(self, count: int) -> None:
        for _ in range(count):
            self.sample()

    def sample(self) -> float:
        """Time the job once; returns the seconds it took."""
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        np.sort(self._array)
        seconds = time.perf_counter() - start
        self.samples.append(seconds * 1000.0)
        self.times.append(time.perf_counter())
        self.spent_s += seconds
        self._next = time.perf_counter() + REFERENCE_INTERVAL_S
        return seconds

    def tick(self) -> float:
        """Sample when the interval has passed; returns the seconds spent."""
        return self.sample() if time.perf_counter() >= self._next else 0.0

    @property
    def factor(self) -> float:
        return median(self.samples) / REFERENCE_MS if self.samples else 1.0

    def factor_between(self, start: float, end: float) -> float:
        """The factor from samples taken in ``[start, end]`` (else the run's)."""
        inside = [ms for t, ms in zip(self.times, self.samples) if start <= t <= end]
        return median(inside) / REFERENCE_MS if inside else self.factor


def tail_ms(ms: Sequence[float], done: Sequence[float], speed: HostSpeed) -> float:
    """The host-normalised ``op_tail_ms`` of ops finishing at ``done``.

    Small runs: the tail percentile of the run ÷ the run's factor.  Runs
    with at least two windows of ``TAIL_WINDOW`` consecutive ops: the
    median over windows of the window's p99 ÷ the factor measured during
    that window.  On a shared host the hot path's p50 moved 2x between
    seconds of one run and a few stalled seconds set the run's p99;
    the window median keeps the tail a property of the program.
    """
    if len(ms) < 2 * TAIL_WINDOW:
        return percentile(ms, tail_percentile(len(ms))) / speed.factor
    windows = []
    for lo in range(0, len(ms) - TAIL_WINDOW + 1, TAIL_WINDOW):
        hi = lo + TAIL_WINDOW
        factor = speed.factor_between(done[lo] - ms[lo] / 1000.0, done[hi - 1])
        windows.append(percentile(ms[lo:hi], tail_percentile(TAIL_WINDOW)) / factor)
    return median(windows)


def end_to_end(
    latencies_s: List[float],
    done_s: List[float],
    elapsed_s: float,
    cpu_s: float,
    peak_rss_mb: float,
    setup_s: float,
    attempted: int,
    failed: int,
    run_speed: HostSpeed,
    setup_speed: HostSpeed,
) -> Tuple[Dict[str, dict], Dict[str, float]]:
    """The host-normalised end-to-end metrics, and their raw values.

    Every time is divided, and every rate multiplied, by the host-speed
    factor measured alongside it, so the metrics read as on a host that
    runs the reference job in ``REFERENCE_MS``.  ``done_s`` holds each
    op's completion time (``time.perf_counter``).
    """
    ms = [value * 1000.0 for value in latencies_s]
    raw = {
        "setup_s": setup_s,
        "ops_per_s": len(ms) / elapsed_s,
        "op_p50_ms": percentile(ms, 50),
        "op_tail_ms": percentile(ms, tail_percentile(len(ms))),
        "cpu_ms_per_op": cpu_s * 1000.0 / max(len(ms), 1),
    }
    run, setup = run_speed.factor, setup_speed.factor
    metrics = {
        "setup_s": {"value": setup_s / setup, "unit": "s"},
        "ops_per_s": {"value": raw["ops_per_s"] * run, "unit": "1/s"},
        "op_p50_ms": {"value": raw["op_p50_ms"] / run, "unit": "ms"},
        "op_tail_ms": {"value": tail_ms(ms, done_s, run_speed), "unit": "ms"},
        "cpu_ms_per_op": {"value": raw["cpu_ms_per_op"] / run, "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MiB"},
        "ok_ratio": {"value": (attempted - failed) / max(attempted, 1), "unit": "ratio"},
    }
    return metrics, {**raw, "host_factor_run": run, "host_factor_setup": setup}


def load_average() -> List[float]:
    return [round(value, 2) for value in os.getloadavg()]


def provenance(**extra) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
        **extra,
    }
