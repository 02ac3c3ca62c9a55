"""In-memory span recording for the traced benchmark run.

A span is one timed call across a layer boundary: name, start, end,
the span that caused it (``parent``) and a request or batch id. Spans
are appended to a list while the workload runs and written out once,
when it ends, so recording costs one ``perf_counter`` pair and one
list append per call.

``time.perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, which every
process on the machine shares, so client and server spans land on one
time axis.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from typing import Any


@dataclass
class Span:
    """One timed call across a layer boundary."""

    name: str
    id: str
    start: float
    end: float
    parent: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans from any thread; ids are ``<prefix><n>``."""

    def __init__(self, prefix: str = "") -> None:
        self.prefix = prefix
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._lock = threading.Lock()

    def next_id(self) -> str:
        with self._lock:
            return f"{self.prefix}{next(self._ids)}"

    def add(
        self,
        name: str,
        start: float,
        end: float,
        *,
        parent: str | None = None,
        span_id: str | None = None,
        **attrs: Any,
    ) -> Span:
        span = Span(
            name, span_id or self.next_id(), start, end, parent, attrs
        )
        with self._lock:
            self.spans.append(span)
        return span

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]


def write_spans(path: str, spans: Iterable[Span]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump([asdict(span) for span in spans], handle)


def self_time(span: Span, children: Iterable[Span]) -> float:
    """*span*'s duration minus the part of it its children cover.

    Children may overlap one another (threads); the union of their
    intervals, clipped to the parent, is what gets subtracted.
    """
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
    )
    covered = 0.0
    run_start = run_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if run_end is None or start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        covered += run_end - run_start
    return span.duration - covered
