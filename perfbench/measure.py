"""Shared measurement helpers: outcomes, percentiles, memory, machine."""

from __future__ import annotations

import os
import platform
import random
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter

#: end-to-end metrics (untraced runs), every workload: name -> unit
END_TO_END = {
    "setup_s": "s",
    "build_s": "s",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
    "read_rps": "1/s",
    "write_p50_ms": "ms",
    "write_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: per-layer metrics (traced runs).  A workload that does not reach a
#: layer reports 0 for it: its spans and counters are simply absent.
PER_LAYER = {
    "lexicon.propose_ms": "ms",
    "lexicon.review_ms": "ms",
    "lexicon.candidate_pairs": "count",
    "lexicon.proposals": "count",
    "lexicon.accept_ratio": "ratio",
    "core.generate_ms": "ms",
    "core.fingerprint_ms": "ms",
    "core.fingerprint_calls": "count",
    "core.maintain_ms": "ms",
    "inference.extract_ms": "ms",
    "inference.saturate_ms": "ms",
    "inference.write_extract_ms": "ms",
    "inference.write_saturate_ms": "ms",
    "inference.rounds": "count",
    "inference.join_candidates": "count",
    "inference.derived": "count",
    "inference.derive_ratio": "ratio",
    "inference.overdeleted": "count",
    "inference.rederived": "count",
    "inference.query_ms": "ms",
    "inference.closure_facts": "count",
    "kb.buffer_hit_rate": "ratio",
    "kb.buffer_evictions": "count",
    "kb.oversize_streams": "count",
    "kb.scan_ms": "ms",
    "query.plan_ms": "ms",
    "query.plan_cache_hit_rate": "ratio",
    "query.execute_ms": "ms",
    "query.rows_per_query": "count",
    "serving.service_read_ms": "ms",
    "serving.http_overhead_ms": "ms",
    "serving.result_cache_hit_rate": "ratio",
    "serving.service_write_ms": "ms",
    "serving.reads_overlapping_write": "ratio",
    "serving.write_lag_ms": "ms",
    "serving.write_interval_ms": "ms",
    "reliability.journal_ms": "ms",
    "reliability.journal_bytes_per_write": "bytes",
    "trace.coverage": "ratio",
    "machine.calibration_ms": "ms",
    "machine.nproc": "count",
    **{f"trace_overhead.{name}": unit
       for name, unit in END_TO_END.items() if name != "setup_s"},
}


@dataclass
class Outcome:
    """What one run reports: operations, failures, metrics."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    references: list[float] = field(default_factory=list)  # reference_s() times
    raw: dict[str, float] = field(default_factory=dict)  # unscaled end-to-end values

    def check(self, ok: bool, problem: str) -> None:
        """A correctness check: a mismatch counts as a failed operation."""
        if not ok:
            self.failed += 1
            self.problems.append(problem)

    def result(self, names: dict[str, str]) -> dict:
        metrics = {
            name: {"value": float(self.metrics.get(name, (0.0, unit))[0]), "unit": unit}
            for name, unit in names.items()
        }
        return {
            "correct": self.failed == 0,
            "attempted": max(self.attempted, 1),
            "failed": self.failed,
            "metrics": metrics,
        }


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) == 1:
        return samples[0]
    if pct == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux: KiB


#: the reference's time on the host all times are scaled to
REFERENCE_S = 0.05
#: the same for the light reference; the two agree on a typical host
#: state (0.04 s against 0.05 s)
LIGHT_REFERENCE_S = 0.04


def reference() -> int:
    """A fixed pure-Python workload shaped like the engine's own work:
    semi-naive transitive closure of a seeded graph, with string
    tuples in sets and a dict index (79,509 facts).  It shares
    no code with the program, so only the host moves its time."""
    rng = random.Random(12345)
    names = [f"node{i:04d}" for i in range(500)]
    edges = {
        (names[i], names[rng.randrange(i + 1, min(len(names), i + 41))])
        for i in range(len(names) - 1)
        for _ in range(2)
    }
    successors: dict[str, list[str]] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
    closure = set(edges)
    delta = edges
    while delta:
        delta = {(a, c) for a, b in delta for c in successors.get(b, ())} - closure
        closure |= delta
    return len(closure)


def light_reference() -> int:
    """A tight loop over a small dict: the shape of the short probes,
    which run on a small hot working set that ``reference`` does not
    track."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(150_000):
        key = (i & 1023, i % 7)
        acc = (acc + table.get(key, i) * 31) & 0xFFFFFFFF
        table[key] = acc
    return acc


def reference_s(workload=reference) -> float:
    """One timed run of ``reference`` (or ``workload``)."""
    t0 = perf_counter()
    workload()
    return perf_counter() - t0


def host_scale(*reference_times: float, nominal: float = REFERENCE_S) -> float:
    """The factor that turns a time measured among these reference
    runs into a time on the reference host (``nominal``).  A host
    running at half speed doubles both, so the product stays put."""
    return nominal / statistics.median(reference_times)


class Pacer:
    """Times the reference between phases of work.  The host's speed
    drifts within seconds, so each phase is scaled by the reference
    runs on either side of it (``host_scale``)."""

    def __init__(self) -> None:
        self.references = [reference_s()]

    def mark(self) -> float:
        """End a phase; returns its host scale."""
        self.references.append(reference_s())
        return host_scale(*self.references[-2:])


def unpaced() -> float:
    """A phase end without a reference run: host scale 1."""
    return 1.0


def scaled_value(sample: tuple[float, float], scaled: bool = True) -> float:
    """A ``(seconds, host scale)`` sample, scaled or as measured."""
    seconds, scale = sample
    return seconds * scale if scaled else seconds


def machine(reference_times: list[float]) -> dict:
    """The machine a result was measured on, and its speed in this run:
    the median of the run's reference times."""
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "calibration_ms": statistics.median(reference_times) * 1e3,
    }
