"""The ``serve`` workload: HTTP reads beside churn writes.

A child process (``serve_child.py``) serves the ``build`` articulation
plus seeded instance stores, journal on.  This process opens exactly
two connections:

* the reader, a closed loop (mediator callers wait for each reply):
  Zipf(s=1.1) over ``/infer`` generalizations/specializations and a
  range ``/query`` per source class;
* the writer, an open loop: ``/churn`` batches on a fixed seeded
  schedule, each write timed from the moment it was due.

The run is cut into windows.  Between windows both loops pause and this
process times the reference loop (``measure.reference_s``), so every
window's times are scaled by the host's speed around it, and the
writer's interval in the next window is a fixed multiple of the
reference time (``WRITE_EVERY``).

Afterwards a fixed sample of answers is read from the server, and the
same churn schedule is replayed into a fresh in-process
``ArticulationService``; every sampled answer must match.
"""

from __future__ import annotations

import dataclasses
import http.client
import itertools
import json
import os
import random
import select
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

from repro.workloads.loadgen import LoadClient

from perfbench import inputs as inp
from perfbench.measure import Outcome, Pacer, host_scale, percentile, scaled_value
from perfbench.tracing import Span, self_times, span_counts

ROOT = Path(__file__).resolve().parent.parent
_READY_TIMEOUT_S = 150.0
#: The writer's schedule: one write due every ``WRITE_EVERY`` reference
#: times (the median of the last three before the window).  A write
#: holds the write lock for about 0.8 reference times, so the writer
#: holds it about a fifth of the time whatever the host's speed: far
#: from saturation, where a small slowdown of the write path would move
#: ``read_rps``, ``read_p99_ms`` and ``write_p90_ms`` by far more than
#: itself (every 2.5 or 3 reference times, ``read_rps`` spread twice as
#: much).  A fixed interval in seconds would put a slow host near
#: saturation and leave a fast one nearly idle.  The interval follows
#: the host, not the code: a faster write path leaves it unchanged.
WRITE_EVERY = 4.0
#: measured windows per run: about this many seconds each
WINDOW_S = 2.5
_READ_PHASE = ("serving.query", "serving.infer")
_WRITE_PHASE = ("serving.churn",)


class Child:
    """One server process; started, read from, stopped, always reaped."""

    def __init__(self, sizes: inp.Sizes, seed: int, workdir: Path) -> None:
        workdir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        self.started = perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.serve_child",
             "--seed", str(seed),
             "--sizes", json.dumps(dataclasses.asdict(sizes)),
             "--workdir", str(workdir)],
            cwd=ROOT, env=env, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        try:
            self.info = self._line(_READY_TIMEOUT_S)
        except BaseException:
            self.kill()
            raise
        self.ready_s = perf_counter() - self.started

    def _line(self, timeout: float) -> dict:
        readable, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if readable else ""
        if not line:
            raise RuntimeError("serve child exited or timed out before answering")
        return json.loads(line)

    def send(self, command: str) -> dict:
        """One command; returns the child's answer line."""
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self._line(60.0)

    def stop(self) -> dict:
        try:
            return self.send("stop")
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass


@dataclass
class Load:
    # (window, start, end, ok, rows or None for /infer)
    reads: list[tuple[int, float, float, bool, int | None]] = field(default_factory=list)
    # (window, due, sent, done, ok)
    writes: list[tuple[int, float, float, float, bool]] = field(default_factory=list)
    applied: list[dict] = field(default_factory=list)  # acknowledged churn batches, in order
    spans: list[tuple[float, float]] = field(default_factory=list)  # (start, end) per window
    intervals: list[float] = field(default_factory=list)  # write interval per window
    scales: list[float] = field(default_factory=list)  # host scale per window


def _read_loop(client, stream, window, end, load: Load) -> None:
    for request in stream:
        t0 = perf_counter()
        try:
            answer = client.post(request["path"], request["body"])
            ok = bool(answer.get("ok"))
        except (OSError, http.client.HTTPException, ValueError):
            ok, answer = False, {}
            client.reconnect()
        rows = len(answer["row_data"]) if "row_data" in answer else None
        load.reads.append((window, t0, perf_counter(), ok, rows))
        if perf_counter() >= end:
            return


def _write_loop(client, batches, window, start, end, interval, load: Load) -> None:
    for j in itertools.count():
        due = start + (j + 0.5) * interval
        if due >= end or perf_counter() >= end:
            return  # a backlog left at the window's end is not sent
        wait = due - perf_counter()
        if wait > 0:
            sleep(wait)
        batch = inp.churn_batch(next(batches))
        sent = perf_counter()
        try:
            ok = bool(client.post("/churn", batch).get("ok"))
        except (OSError, http.client.HTTPException, ValueError):
            ok = False
            client.reconnect()
        load.writes.append((window, due, sent, perf_counter(), ok))
        if ok:
            load.applied.append(batch)


class _Client:
    """A ``LoadClient`` that can replace its connection after an error."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.client = LoadClient("127.0.0.1", port)

    def post(self, path, body):
        return self.client.post(path, body)

    def reconnect(self) -> None:
        self.client.close()
        self.client = LoadClient("127.0.0.1", self.port)

    def close(self) -> None:
        self.client.close()


def _strip(answer: dict) -> str:
    """The part of an answer that must not depend on caching or timing."""
    if "row_data" in answer:
        return json.dumps(answer["row_data"], sort_keys=True)
    return json.dumps({k: answer.get(k) for k in ("op", "term", "terms", "holds")},
                      sort_keys=True)


def replay_answers(sizes, seed, applied, sample) -> list[str]:
    """The sampled answers of a fresh in-process service that replayed
    the acknowledged churn batches in order."""
    from perfbench.serve_child import start_service

    service, _ = start_service(sizes, seed, journal=None)
    for batch in applied:
        args = dict(batch)
        service.churn(args.pop("source"), args.pop("mutations"), args.pop("seed"), **args)
    answers = []
    for request in sample:
        if request["path"] == "/query":
            rows, _ = service.query(request["body"]["query"])
            answers.append(_strip({"row_data": json.loads(json.dumps(rows))}))
        else:
            answers.append(_strip(service.infer(dict(request["body"]))))
    return answers


def run(seed: int, seconds: float, trace: bool, sizes: inp.Sizes, fault,
        workdir: Path) -> Outcome:
    # set-up is the server's start, its build included: done several
    # times, the last server stays up for the measurement
    setups: list[tuple[float, float]] = []  # (seconds, host scale)
    builds: list[tuple[float, float]] = []
    references: list[float] = []
    child = None
    # The reader and the server hand every request back and forth.  On
    # one CPU that is a local switch; across two it wakes an idle CPU,
    # and that delay follows the host's load, not its speed, which the
    # reference cannot scale.  The server child inherits the mask.
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        for i in range(sizes.serve_setups):
            if child is not None:
                child.stop()
            child = Child(sizes, seed, workdir / f"child{i}")
            # the child times the reference around its build: those runs
            # give its start-up the host's speed, and are not set-up time
            started = child.info["references"]
            scale = host_scale(*started)
            setups.append((child.ready_s - sum(started), scale))
            builds.append((child.info["build_s"], scale))
            references += started
        out = _measure(child, setups, builds, seed, seconds, trace, sizes, fault)
        out.references[:0] = references
        return out
    finally:
        if child is not None:
            child.kill()
        os.sched_setaffinity(0, cpus)


def _measure(child, setups, builds, seed, seconds, trace, sizes, fault) -> Outcome:
    port = child.info["port"]
    pool = inp.read_pool(inp.make_build_inputs(sizes, seed).terms)
    stream = iter(inp.zipf_stream(pool, int(seconds * 3000) + 100,
                                  random.Random(seed * 17 + 5)))
    sample = random.Random(seed * 13 + 7).sample(pool, min(sizes.answer_sample, len(pool)))
    n_windows = max(2, round(seconds / WINDOW_S))
    window_s = seconds / n_windows
    batches = itertools.count()
    load = Load()
    pacer = Pacer()  # the host's speed as the first window starts
    reader, writer, control = _Client(port), _Client(port), LoadClient("127.0.0.1", port)
    try:
        before = control.get("/stats")
        # a traced run alternates untraced and traced windows, so the
        # tracing overhead is measured under the same load
        for window in range(n_windows):
            if trace:
                child.send("trace on" if window % 2 else "trace off")
            interval = WRITE_EVERY * statistics.median(pacer.references[-3:])
            start = perf_counter()
            end = start + window_s
            threads = [
                threading.Thread(target=_read_loop, daemon=True,
                                 args=(reader, stream, window, end, load)),
                threading.Thread(target=_write_loop, daemon=True,
                                 args=(writer, batches, window, start, end,
                                       interval, load)),
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=window_s + 120)
            load.spans.append((start, max([end] + [e for w, _, e, _, _ in load.reads
                                                   if w == window])))
            load.intervals.append(interval)
            load.scales.append(pacer.mark())
        if trace:
            child.send("trace off")
        after = control.get("/stats")
        served = [_strip(control.post(r["path"], r["body"])) for r in sample]
    finally:
        for client in (reader, writer, control):
            client.close()
    final = child.stop()
    if fault is not None:
        served = fault(served)

    out = Outcome(references=pacer.references)
    out.attempted = len(load.reads) + len(load.writes) + len(sample)
    out.failed = (sum(not r[3] for r in load.reads)
                  + sum(not w[4] for w in load.writes))
    replayed = replay_answers(sizes, seed, load.applied, sample)
    for request, got, want in zip(sample, served, replayed):
        out.check(got == want, f"server answer differs from replay: {request}")

    def traced(window: int) -> bool:
        return trace and window % 2 == 1

    def end_to_end(on: bool, scaled: bool = True) -> dict:
        """Every time is scaled by its window's host scale, unless
        ``scaled`` is false; see ``measure.host_scale``."""
        scale = load.scales if scaled else [1.0] * n_windows
        windows = [i for i in range(n_windows) if traced(i) == on]
        reads = [(e - s) * scale[w] for w, s, e, _, _ in load.reads if traced(w) == on]
        writes = [(d - due) * scale[w] for w, due, _, d, _ in load.writes
                  if traced(w) == on]
        span_s = sum((load.spans[i][1] - load.spans[i][0]) * scale[i] for i in windows)
        return {
            "setup_s": (statistics.median(scaled_value(s, scaled) for s in setups), "s"),
            "build_s": (statistics.median(scaled_value(b, scaled) for b in builds), "s"),
            "read_p50_ms": (percentile(reads, 50) * 1e3, "ms"),
            "read_p99_ms": (percentile(reads, 99) * 1e3, "ms"),
            "read_rps": (len(reads) / span_s, "1/s"),
            "write_p50_ms": (percentile(writes, 50) * 1e3, "ms"),
            "write_p90_ms": (percentile(writes, 90) * 1e3, "ms"),
            "peak_rss_mb": (final["peak_rss_mb"], "MB"),
        }

    untraced = end_to_end(False)
    if not trace:
        out.metrics = untraced
        out.raw = {name: value for name, (value, _) in end_to_end(False, False).items()}
        return out
    out.metrics = _per_layer(child.info, final, load, before, after, traced)
    with_trace = end_to_end(True)
    for name, (value, unit) in untraced.items():
        if name not in ("setup_s", "build_s", "peak_rss_mb"):
            out.metrics[f"trace_overhead.{name}"] = (with_trace[name][0] - value, unit)
    return out


def _per_layer(info, final, load, before, after, traced) -> dict:
    spans = [Span.from_json(row) for row in final["spans"]]
    times = self_times(spans)
    counts = span_counts(spans)
    roots = [s for s in spans if s.parent is None]
    n_reads = sum(s.name in _READ_PHASE for s in roots)
    n_writes = sum(s.name in _WRITE_PHASE for s in roots)

    def per(phases, name, n) -> float:
        return sum(times.get((p, name), 0.0) for p in phases) * 1e3 / max(n, 1)

    def ms(phases, name, n) -> tuple[float, str]:
        return per(phases, name, n), "ms"

    service_read = sum(s.duration for s in roots if s.name in _READ_PHASE)
    service_read_ms = service_read * 1e3 / max(n_reads, 1)
    client_reads = [(s, e, rows) for w, s, e, _, rows in load.reads if traced(w)]
    client_read_ms = statistics.fmean(e - s for s, e, _ in client_reads) * 1e3
    client_writes = [(sent, done) for w, _, sent, done, _ in load.writes if traced(w)]
    queries = [rows for _, _, rows in client_reads if rows is not None]
    windows = [(sent, done) for _, _, sent, done, _ in load.writes]
    overlapping = sum(
        any(s < done and sent < e for sent, done in windows) for s, e, _ in client_reads)
    client_total = (sum(e - s for s, e, _ in client_reads)
                    + sum(done - sent for sent, done in client_writes))
    counters = final["counters"]
    sat = info["saturate_stats"]

    def delta(*path) -> float:
        a, b = before, after
        for key in path:
            a, b = a.get(key, {}), b.get(key, {})
        return (b or 0) - (a or 0)

    cache_total = delta("cache", "hits") + delta("cache", "misses")
    plan_total = delta("plan_cache", "hits") + delta("plan_cache", "misses")
    return {
        "lexicon.candidate_pairs": (info["candidate_pairs"], "count"),
        "lexicon.proposals": (info["proposals"], "count"),
        "lexicon.accept_ratio": (info["accepted"] / max(info["proposals"], 1), "ratio"),
        "core.fingerprint_ms": ms(_READ_PHASE, "core.fingerprint", n_reads),
        "core.fingerprint_calls": (
            sum(counts.get((p, "core.fingerprint"), 0) for p in _READ_PHASE)
            / max(n_reads, 1), "count"),
        "core.maintain_ms": ms(_WRITE_PHASE, "core.maintain", n_writes),
        "inference.write_extract_ms": ms(_WRITE_PHASE, "inference.extract", n_writes),
        "inference.write_saturate_ms": ms(_WRITE_PHASE, "inference.saturate", n_writes),
        "inference.rounds": (sat.get("rounds", 0), "count"),
        "inference.join_candidates": (sat.get("candidates", 0), "count"),
        "inference.derived": (sat.get("derived", 0), "count"),
        "inference.derive_ratio": (
            sat.get("derived", 0) / max(sat.get("candidates", 0), 1), "ratio"),
        "inference.overdeleted": (
            counters.get("inference.overdeleted", 0) / max(n_writes, 1), "count"),
        "inference.rederived": (
            counters.get("inference.rederived", 0) / max(n_writes, 1), "count"),
        "inference.query_ms": ms(_READ_PHASE, "inference.query", n_reads),
        "inference.closure_facts": (info["closure_facts"], "count"),
        "kb.scan_ms": ms(_READ_PHASE, "kb.scan", n_reads),
        "query.plan_ms": ms(_READ_PHASE, "query.plan", n_reads),
        "query.plan_cache_hit_rate": (delta("plan_cache", "hits") / max(plan_total, 1), "ratio"),
        "query.execute_ms": ms(_READ_PHASE, "query.execute", n_reads),
        "query.rows_per_query": (statistics.fmean(queries) if queries else 0.0, "count"),
        "serving.service_read_ms": (service_read_ms, "ms"),
        "serving.http_overhead_ms": (client_read_ms - service_read_ms, "ms"),
        "serving.result_cache_hit_rate": (delta("cache", "hits") / max(cache_total, 1), "ratio"),
        "serving.service_write_ms": (
            sum(s.duration for s in roots if s.name in _WRITE_PHASE) * 1e3
            / max(n_writes, 1), "ms"),
        "serving.reads_overlapping_write": (overlapping / max(len(client_reads), 1), "ratio"),
        "serving.write_lag_ms": (
            statistics.fmean(sent - due for _, due, sent, _, _ in load.writes) * 1e3, "ms"),
        "serving.write_interval_ms": (statistics.fmean(load.intervals) * 1e3, "ms"),
        "reliability.journal_ms": (
            sum(per(_WRITE_PHASE, f"reliability.journal_{op}", n_writes)
                for op in ("begin", "commit", "snapshot")), "ms"),
        "reliability.journal_bytes_per_write": (
            counters.get("reliability.journal_bytes", 0) / max(n_writes, 1), "bytes"),
        "trace.coverage": (sum(times.values()) / client_total, "ratio"),
    }
