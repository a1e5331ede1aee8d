"""Timing of the benchmark's calls into pipeforge, and spans for traced runs.

Every call into a layer goes through :meth:`Recorder.call`, named
``layer.function`` after the pipeforge module that does the work.  Calls are
grouped into jobs (one ``pipeforge generate``, one lowering, one simulation
...); each job belongs to the ``generate`` or the ``verify`` phase.  Job
times are kept per job, so that a run can take each job's median over its
rounds.  With spans on, each job and each call also leaves a span ``(name,
job, parent, start, end)`` in memory; they are summarised, and written out,
after the run.

A shared host runs up to about 1.6 times slower for seconds at a time,
which swamps the changes worth measuring.  So a short fixed loop, timed
between jobs, tracks the host's current speed, and every job time is also
kept scaled to ``REFERENCE_S``, the loop's time on an unloaded host.  The
scaled times are "reference-speed seconds".
"""

from __future__ import annotations

import time
from contextlib import contextmanager

LAYERS = ("specfile", "model", "resolve", "protocol", "netlist", "verilog",
          "dot", "sim")
REFERENCE_S = 0.00125  # probe loop, best of three, on an unloaded 2 GHz host
PROBE_EVERY_S = 0.05


def slowness() -> float:
    """How many times slower than the reference the host runs right now."""
    def loop() -> float:
        t0 = time.perf_counter()
        counts: dict[int, int] = {}
        pairs = []
        for i in range(3000):
            k = (i * 7919) & 255
            counts[k] = counts.get(k, 0) + i
            pairs.append((k, i))
        pairs.sort()
        return time.perf_counter() - t0
    return min(loop() for _ in range(3)) / REFERENCE_S


class Recorder:
    def __init__(self, spans: bool):
        self.spans: list[tuple] | None = [] if spans else None
        # (phase, job) -> host seconds, and the same scaled to the reference
        self.raw_s: dict[tuple[str, str], float] = {}
        self.job_s: dict[tuple[str, str], float] = {}
        self._job: str | None = None
        self._parent = -1
        self._slowness = slowness()
        self._probed = time.perf_counter()

    def _speed(self, fresh: bool) -> float:
        if fresh or time.perf_counter() - self._probed > PROBE_EVERY_S:
            self._slowness = slowness()
            self._probed = time.perf_counter()
        return self._slowness

    @contextmanager
    def job(self, phase: str, job_id: str):
        before = self._speed(False)
        self._job = job_id
        if self.spans is not None:
            self._parent = len(self.spans)
            self.spans.append(None)  # filled in when the job ends
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            if self.spans is not None:
                self.spans[self._parent] = (f"job.{phase}", job_id, -1, t0, t1)
            self._job, self._parent = None, -1
            after = self._speed(t1 - t0 > PROBE_EVERY_S)
            key = (phase, job_id)
            self.raw_s[key] = self.raw_s.get(key, 0.0) + (t1 - t0)
            self.job_s[key] = self.job_s.get(key, 0.0) + (
                (t1 - t0) * 2 / (before + after))

    def call(self, name: str, fn, *args, **kwargs):
        if self.spans is None:
            return fn(*args, **kwargs)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((name, self._job, self._parent, t0,
                               time.perf_counter()))


def _union(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarise(spans: list[tuple]) -> dict[str, float]:
    """Busy time, self time and calls of each layer, plus time and calls of
    each function.

    A layer's busy time is the union of its spans; its self time is each
    span's duration minus the part its child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, _, parent, t0, t1 in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((t0, t1))
    busy: dict[str, list] = {}
    out: dict[str, float] = {}
    for i, (name, _, _, t0, t1) in enumerate(spans):
        layer = name.split(".", 1)[0]
        busy.setdefault(layer, []).append((t0, t1))
        own = (t1 - t0) - _union(children.get(i, []))
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + own
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + 1
        out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + (t1 - t0)
        out[f"{name}_calls"] = out.get(f"{name}_calls", 0) + 1
    for layer, intervals in busy.items():
        out[f"{layer}.busy_s"] = _union(intervals)
    return out
