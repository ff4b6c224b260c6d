"""In-memory span recorder and the arithmetic the per-layer metrics use.

A span is one call into a weakham layer, made by the benchmark's own
rebuild of a trial: name, start, end, the span that caused it, and the id of
the trial it belongs to. A span flagged ``probe`` repeats work that another
traced call also does inside itself (for instance the connectivity check
that rotation_extension_search runs internally); probes give a layer its
own timing but are left out of every sum that is compared with the
untraced run. Spans are kept in a list and written once, when the run ends.

Standard library only.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# candidate tail percentiles in tenths of a percent, highest first
_TAIL_LADDER = (999, 990, 950, 900, 750)
TAIL_MIN_BEYOND = 10


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    trial: int | None
    start: float
    end: float
    probe: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``call`` wraps one call into the package, ``span``
    opens a parent (a table or a trial) for the calls made inside it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._trial: int | None = None
        self._next_trial = 0

    def _parent(self) -> int | None:
        return self._stack[-1].id if self._stack else None

    @contextmanager
    def span(self, name: str, trial: bool = False):
        if trial:
            self._trial = self._next_trial
            self._next_trial += 1
        sp = Span(len(self.spans), name, self._parent(), self._trial, self.clock(), 0.0)
        self.spans.append(sp)
        self._stack.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()
            if trial:
                self._trial = None

    def call(self, name: str, fn, *args, probe: bool = False, **kwargs):
        start = self.clock()
        result = fn(*args, **kwargs)
        end = self.clock()
        self.spans.append(
            Span(len(self.spans), name, self._parent(), self._trial, start, end, probe)
        )
        return result

    def note(self, **attrs) -> None:
        """Attach counts to the most recent span."""
        self.spans[-1].attrs.update(attrs)

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp), sort_keys=True) + "\n")


def self_time(span: Span, children: list[Span]) -> float:
    """The span's duration minus the part of its interval that the union of
    its children's intervals covers."""
    covered = 0.0
    run_start = run_end = None
    for s, e in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        else:
            run_end = max(run_end, e)
    if run_end is not None:
        covered += run_end - run_start
    return span.seconds - covered


def tail_percentile(values) -> tuple[float, float]:
    """(q, value): the highest percentile q of the ladder 99.9, 99, 95, 90,
    75 that leaves at least TAIL_MIN_BEYOND samples above its nearest-rank
    value. With fewer than 40 samples no rung qualifies and the median is
    returned with q = 50."""
    xs = sorted(values)
    n = len(xs)
    for q10 in _TAIL_LADDER:
        rank = max(1, (q10 * n + 999) // 1000)  # nearest rank, ceil(q n / 100)
        if n - rank >= TAIL_MIN_BEYOND:
            return q10 / 10, xs[rank - 1]
    return 50.0, statistics.median(xs) if xs else 0.0


def timing_metrics(name: str, seconds) -> dict[str, tuple[float, str]]:
    """The four metrics of one per-call timing: median and tail in ms, the
    tail's percentile, and the sample count. No samples reads as zeros."""
    ms = [s * 1e3 for s in seconds]
    q, tail = tail_percentile(ms) if ms else (0.0, 0.0)
    return {
        f"{name}.p50": (statistics.median(ms) if ms else 0.0, "ms"),
        f"{name}.tail": (tail, "ms"),
        f"{name}.tail_pct": (q, "%"),
        f"{name}.n": (len(ms), "count"),
    }


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def parallel_efficiency(trial_seconds: float, workers: int, wall_seconds: float) -> float:
    """Busy trial time over the capacity the pool had: traced trial time,
    probes excluded, / (workers x untraced wall time)."""
    return ratio(trial_seconds, workers * wall_seconds)
