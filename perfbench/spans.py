"""In-memory span recording for the traced run, and the statistics read
from the spans afterwards.

A span is (name, start, end, parent, run id).  Calls are recorded from
outside the library by wrapping its public functions, in one thread, so the
innermost span still open is the parent of the next one.
"""

from __future__ import annotations

import gzip
import json
import math
import time
from contextlib import contextmanager


class Tracer:
    """Recorder of nested spans, kept in parallel lists until written."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        i = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(math.nan)
        self._open.append(i)
        self.starts.append(time.perf_counter())
        return i

    def end(self, i: int) -> None:
        self.ends[i] = time.perf_counter()
        if self._open.pop() != i:
            raise RuntimeError(f"span {self.names[i]!r} closed out of order")

    @contextmanager
    def span(self, name: str):
        i = self.begin(name)
        try:
            yield
        finally:
            self.end(i)

    def wrap(self, name: str, fn):
        """`fn` with every call recorded as a span called `name`."""
        def traced(*args, **kwargs):
            i = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(i)
        return traced

    def write(self, path) -> None:
        """All spans as gzipped JSON lines."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "run": self.run_id, "id": i, "name": name,
                    "start": self.starts[i], "end": self.ends[i],
                    "parent": self.parents[i]}) + "\n")


def self_times(starts, ends, parents) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i, (s, e) in enumerate(zip(starts, ends)):
        covered = 0.0
        reach = s
        for c in sorted(children.get(i, ()), key=lambda c: starts[c]):
            lo, hi = max(starts[c], reach), min(ends[c], e)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((e - s) - covered)
    return out


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    k = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[k - 1]


def layer_stats(tracer: Tracer) -> dict[str, dict]:
    """Per span name: call count, total and self time (s), and the p50 and
    p99 of single-call durations (us)."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    durations: dict[str, list[float]] = {}
    selfs: dict[str, float] = {}
    for i, name in enumerate(tracer.names):
        durations.setdefault(name, []).append(tracer.ends[i] - tracer.starts[i])
        selfs[name] = selfs.get(name, 0.0) + own[i]
    return {
        name: {"calls": len(d), "total_s": sum(d), "self_s": selfs[name],
               "us_p50": percentile(d, 50) * 1e6,
               "us_p99": percentile(d, 99) * 1e6}
        for name, d in durations.items()
    }
