"""In-memory spans recorded around the public calls of each layer.

The tracer wraps module attributes from outside the package: it replaces
``owner.attr`` with a function that records a span around the original call
and restores the original on ``unwrap_all``.  Spans stay in memory until the
benchmark writes them out at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.job: int | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.job)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._stack.pop() is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def wrap(self, owner: object, attr: str, name: str, count: Callable | None = None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.
        ``count(counts, result, args)`` runs after the span has ended."""
        original = getattr(owner, attr, None)
        if original is None:
            label = getattr(owner, "__name__", repr(owner))
            raise SystemExit(f"trace: {label}.{attr} no longer exists; update perfbench/worker.py")
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if count is not None:
                count(tracer.counts, result, args)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.job] for s in self.spans]
        path.write_text(json.dumps(rows))


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered(children[s.sid], s.start, s.end) for s in spans
    }


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    own = self_times(spans)
    for s in spans:
        out[s.name] += own[s.sid]
    return dict(out)


def check_self_times_add_up(spans: list[Span], root: str, tol: float = 1e-6) -> None:
    """Within each job, the self times of all its spans must add up to the
    duration of the job's root span."""
    own = self_times(spans)
    per_job: dict[int | None, float] = defaultdict(float)
    roots: dict[int | None, float] = {}
    for s in spans:
        per_job[s.job] += own[s.sid]
        if s.name == root and s.parent is None:
            roots[s.job] = s.end - s.start
    for job, total in per_job.items():
        if job not in roots:
            raise RuntimeError(f"job {job} has spans but no {root!r} root span")
        if abs(total - roots[job]) > tol:
            raise RuntimeError(
                f"job {job}: self times add up to {total:.9f}s, job span is {roots[job]:.9f}s"
            )
