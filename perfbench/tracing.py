"""Spans around the public calls into each layer, kept in memory.

The wrappers are installed on the program's classes only while a
traced section runs and removed afterwards, so untraced timings run
the program's own code with nothing in between.  A span records its
name, start, end, parent and request id (the id of the root span it
descends from); the root's name says which phase (build, read, write)
the work belongs to.  A layer's self time is a span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    busy: float | None = None  # active time, when less than end - start

    @property
    def duration(self) -> float:
        return self.end - self.start if self.busy is None else self.busy

    def to_json(self) -> list:
        return [self.span_id, self.name, self.start, self.end,
                self.parent, self.request, self.busy]

    @classmethod
    def from_json(cls, row: list) -> "Span":
        return cls(*row)


class Tracer:
    """Collects spans and counters from any thread of one process."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._current: ContextVar[tuple[int, int] | None] = ContextVar(
            "perfbench_span", default=None
        )

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    @contextmanager
    def span(self, name: str):
        span_id = next(self._ids)
        outer = self._current.get()
        parent, request = (None, span_id) if outer is None else outer
        token = self._current.set((span_id, request))
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._current.reset(token)
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, request))

    def timed_iterator(self, name: str, iterator):
        """One span for a lazily consumed iterator: its busy time is
        the time spent inside ``next``, under the consumer's span."""
        outer = self._current.get()
        span_id = next(self._ids)
        parent, request = (None, span_id) if outer is None else outer
        busy = 0.0
        first = last = perf_counter()
        try:
            while True:
                t0 = perf_counter()
                try:
                    item = next(iterator)
                except StopIteration:
                    busy += perf_counter() - t0
                    return
                last = perf_counter()
                busy += last - t0
                yield item
        finally:
            with self._lock:
                self.spans.append(
                    Span(span_id, name, first, max(last, first), parent, request, busy)
                )


def _traced(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)

    return wrapper


def _journal_bytes(tracer: Tracer, name: str, fn):
    """Span plus the bytes the journal file grew by (or was rewritten to)."""

    @functools.wraps(fn)
    def wrapper(journal, *args, **kwargs):
        before = os.path.getsize(journal.path) if journal.path.exists() else 0
        with tracer.span(name):
            result = fn(journal, *args, **kwargs)
        after = os.path.getsize(journal.path)
        grown = after if name.endswith("snapshot") else after - before
        tracer.count("reliability.journal_bytes", max(grown, 0))
        return result

    return wrapper


def _saturate(tracer: Tracer, name: str, fn):
    """Span plus the DRed counters of the saturation it wrapped."""

    @functools.wraps(fn)
    def wrapper(engine, *args, **kwargs):
        with tracer.span(name):
            result = fn(engine, *args, **kwargs)
        for key in ("overdeleted", "rederived"):
            tracer.count(f"inference.{key}", engine.last_stats.get(key, 0))
        return result

    return wrapper


def _scan(tracer: Tracer, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.timed_iterator("kb.scan", iter(fn(*args, **kwargs)))

    return wrapper


def _targets():
    """(class, method, span name, wrapper factory) for every public call
    the benchmark times; span names are ``<src/repro module>.<call>``."""
    from repro.core.articulation import Articulation, ArticulationGenerator
    from repro.core.maintenance import ArticulationMaintainer
    from repro.inference.engine import OntologyInferenceEngine
    from repro.inference.horn import HornEngine
    from repro.kb.instances import InstanceStore
    from repro.lexicon.expert import ThresholdPolicy
    from repro.lexicon.skat import SkatEngine
    from repro.query.executor import StreamingExecutor
    from repro.query.planner import Planner
    from repro.reliability.journal import ChurnJournal
    from repro.serving.service import ArticulationService

    plain = [
        (SkatEngine, "propose", "lexicon.propose"),
        (ThresholdPolicy, "review", "lexicon.review"),
        (ArticulationGenerator, "generate", "core.generate"),
        (Articulation, "fingerprint", "core.fingerprint"),
        (ArticulationMaintainer, "apply_source_changes", "core.maintain"),
        (OntologyInferenceEngine, "refresh_from_articulation", "inference.extract"),
        (HornEngine, "query", "inference.query"),
        (Planner, "plan", "query.plan"),
        (StreamingExecutor, "run", "query.execute"),
        (ArticulationService, "query", "serving.query"),
        (ArticulationService, "infer", "serving.infer"),
        (ArticulationService, "churn", "serving.churn"),
    ]
    out = [(cls, attr, name, _traced) for cls, attr, name in plain]
    out.append((HornEngine, "saturate", "inference.saturate", _saturate))
    out += [
        (ChurnJournal, attr, f"reliability.journal_{attr}", _journal_bytes)
        for attr in ("begin", "commit", "snapshot")
    ]
    out.append((InstanceStore, "scan", "kb.scan", lambda t, _n, fn: _scan(t, fn)))
    return out


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every layer entry point for the duration of the block."""
    saved = []
    try:
        for cls, attr, name, factory in _targets():
            original = cls.__dict__[attr]
            saved.append((cls, attr, original))
            setattr(cls, attr, factory(tracer, name, original))
        yield tracer
    finally:
        for cls, attr, original in reversed(saved):
            setattr(cls, attr, original)


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------
def self_times(spans: list[Span]) -> dict[tuple[str, str], float]:
    """Seconds of self time per (root span name, span name)."""
    by_id = {span.span_id: span for span in spans}
    child_time: dict[int, float] = {}
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] = child_time.get(span.parent, 0.0) + span.duration
    totals: dict[tuple[str, str], float] = {}
    for span in spans:
        root = by_id.get(span.request)
        phase = root.name if root is not None else span.name
        own = max(span.duration - child_time.get(span.span_id, 0.0), 0.0)
        key = (phase, span.name)
        totals[key] = totals.get(key, 0.0) + own
    return totals


def span_counts(spans: list[Span]) -> dict[tuple[str, str], int]:
    """Number of spans per (root span name, span name)."""
    by_id = {span.span_id: span for span in spans}
    counts: dict[tuple[str, str], int] = {}
    for span in spans:
        root = by_id.get(span.request)
        key = (root.name if root is not None else span.name, span.name)
        counts[key] = counts.get(key, 0) + 1
    return counts
