"""In-memory span recorder and the statistics the harness reports.

A span has a name, a start and end time, the index of its parent span and a
run id.  The layer of a span is the part of its name before the first dot
(``wls.solve`` belongs to ``wls``).  Spans stay in memory and are written out
once, when the run ends.  With tracing off :meth:`Tracer.span` records
nothing, so untraced timings carry no tracing cost.
"""

from __future__ import annotations

import json
import math
import re
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
TAIL_CANDIDATES = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0, 99.9)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str


class Tracer:
    """Records nested spans of one single-threaded run."""

    def __init__(self, enabled: bool, run_id: str) -> None:
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), math.nan, parent, self.run_id))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: summed self time and call count."""
        return self_times(self.spans)

    def write(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        record = {**extra, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(record) + "\n", encoding="utf-8")


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """A span's self time is its duration minus its children's durations.

    Spans of one thread nest, so children never overlap each other and lie
    inside their parent.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    out: dict[str, tuple[float, int]] = {}
    for s, seconds in zip(spans, own):
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + seconds, calls + 1)
    return out


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct`` % at or below it."""
    ordered = sorted(values)
    # the small slack keeps 99.9 % of 10000 at rank 9990 despite rounding
    rank = max(1, math.ceil(pct * len(ordered) / 100.0 - 1e-9))
    return ordered[rank - 1]


def tail_percentile(values: list[float], beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least ``beyond`` samples above it.

    Returns ``None`` when even the median has fewer than ``beyond`` samples
    above it.
    """
    best = None
    for pct in TAIL_CANDIDATES:
        cut = percentile(values, pct)
        if sum(v > cut for v in values) >= beyond:
            best = pct
    return best
