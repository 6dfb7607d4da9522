"""Summary statistics the benchmark reports."""

from __future__ import annotations

import gc
import math
import statistics
import time

# Metric name -> unit, as BENCHMARK.json lists them.
END_TO_END = {
    "setup_s": "s",
    "facts_per_s": "facts/s",
    "oracle_facts_per_s": "facts/s",
    "job_ms": "ms",
    "oracle_job_ms": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s",
    "frontend.read_s": "s",
    "frontend.extract_s": "s",
    "frontend.nodes": "count",
    "frontend.edb_facts": "count",
    "analysis.ruleset_s": "s",
    "analysis.self_s": "s",
    "analysis.rules": "count",
    "analysis.strata": "count",
    "engine.saturate_s": "s",
    "engine.rounds": "count",
    "engine.peak_facts": "count",
    "engine.derived_facts": "count",
    "machine.self_s": "s",
    "machine.start_s": "s",
    "machine.drain_s": "s",
    "machine.steps": "count",
    "machine.recheck_s": "s",
    "serialize.write_s": "s",
    "serialize.rows": "count",
    "serialize.bytes": "bytes",
    "serialize.rows_per_s": "rows/s",
    "terms.pool_terms": "count",
    "trace.overhead_ratio": "ratio",
}
# Per-layer metrics that must repeat exactly for the same seed.
COUNTS = tuple(name for name, unit in PER_LAYER.items() if unit in ("count", "bytes"))

# Percentiles tried from the highest down; one is reported only when at least
# MIN_BEYOND samples lie beyond it.
PERCENTILES = (99.9, 99.0, 90.0)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    # Rounded first, so that 99.9% of 10000 is rank 9990 and not 9991.
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def percentile(samples: list[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    return sorted(samples)[_rank(p, len(samples)) - 1]


def high_percentile(samples: list[float]) -> tuple[float, float] | None:
    """The highest percentile in PERCENTILES with at least MIN_BEYOND samples
    beyond it, as ``(p, value)``; None when there are too few samples."""
    n = len(samples)
    for p in PERCENTILES:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p, percentile(samples, p)
    return None


def failed_ratio(failed: int, attempted: int) -> float:
    if attempted < 1:
        raise ValueError("no jobs attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, as the benchmark's steadiness check computes it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


# What one reference sample takes on an unloaded core of the machine the
# baseline was measured on; it sets the scale of the normalized timings.
REF_SECONDS = 0.020
REF_ITERATIONS = 40_000


def _reference_work(n: int) -> set:
    # Dict, set and tuple work like the analyzers', over a working set of up
    # to 40k tuples (a few MB) that leaves the fastest caches, as the
    # analyzers' joins do.  Over six runs of each workload, job times
    # normalized by it spread by 0.03-0.06 (coefficient of variation), where
    # the same work over under 6k tuples left 0.04-0.09.
    index: dict[int, int] = {}
    seen = set()
    for i in range(n):
        a, b = i % 997, i % 613
        index[a] = index.get(a, 0) + b
        if (b, a) not in seen:
            seen.add((b, a))
    return seen


class Calibration:
    """Measures how fast the machine runs interpreter work right now.

    A shared virtual machine drifts by up to 2x over minutes, which moves every
    timing of a run together.  The benchmark times a fixed piece of dict,
    set and tuple work, independent of schemeflow, between jobs, and divides
    its timings by ``slowdown()``: the mean sample over REF_SECONDS, with
    the fastest and slowest fifth of the samples left out, so that a burst
    of a few stalled samples does not swing it.  The
    garbage collector is off during a sample, so the size of the program's
    heap does not leak into it.

    The working set of the last sample stays alive until the next one, so
    that it adds a constant few MB to the process's peak RSS from the first
    sample on.  Freed after each sample, it would set a floor under the
    peak, and a program change below that floor would not show.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._working_set: set = set()

    def sample(self) -> None:
        enabled = gc.isenabled()
        gc.disable()
        self._working_set = set()
        try:
            t0 = time.perf_counter()
            self._working_set = _reference_work(REF_ITERATIONS)
            self.samples.append(time.perf_counter() - t0)
        finally:
            if enabled:
                gc.enable()

    def slowdown(self) -> float:
        ordered = sorted(self.samples)
        cut = len(ordered) // 5
        return statistics.fmean(ordered[cut : len(ordered) - cut]) / REF_SECONDS
