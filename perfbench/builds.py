"""The ``build`` and ``build_paged`` workloads.

One iteration is the paper's pipeline, cold: SKAT proposes bridges, a
fixed expert accepts every proposal scoring at least the threshold,
the articulation generator builds the articulation, the inference
engine extracts the Horn program and saturates it.  The fixed probe
batch then reads the closure, and a fixed batch of churn writes
(source edit, articulation maintenance, incremental/DRed refresh)
updates it in process.  ``build`` holds the closure in memory;
``build_paged`` holds it in the paged SQLite store with a buffer well
below the closure.  Neither touches HTTP.
"""

from __future__ import annotations

import gc
import hashlib
import importlib.util
import statistics
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from repro.core.articulation import ArticulationGenerator
from repro.core.maintenance import ArticulationMaintainer
from repro.core.rules import ArticulationRuleSet
from repro.inference.engine import OntologyInferenceEngine
from repro.lexicon.expert import ThresholdPolicy
from repro.lexicon.skat import SkatEngine
from repro.workloads.churn import apply_churn

from perfbench import inputs as inp
from perfbench.measure import (LIGHT_REFERENCE_S, Outcome, Pacer, host_scale,
                               light_reference, peak_rss_mb, percentile, reference_s,
                               scaled_value, unpaced)
from perfbench.tracing import Tracer, instrumented, self_times, span_counts

#: builds per run, whatever ``--seconds`` allows (a slow host fits fewer)
MIN_ITERATIONS = 3
#: the churn writes after a build form phases of this many writes
WRITES_PER_PHASE = 15


def articulate(ontologies, lexicon):
    """SKAT proposes, the fixed expert accepts, the generator builds.

    Returns ``(articulation, proposals, accepted, candidate_pairs)``.
    """
    skat = SkatEngine.default(lexicon)
    proposals = skat.propose(ontologies[0], ontologies[1])
    rules = ArticulationRuleSet()
    for review in ThresholdPolicy(inp.ACCEPT_THRESHOLD).review(proposals):
        rule = review.accepted_rule()
        if rule is not None:
            rules.add(rule)
    articulation = ArticulationGenerator(ontologies, name="art").generate(rules)
    return (articulation, len(proposals), len(rules),
            int(skat.last_stats["candidate_pairs"]))


@dataclass
class BuildStats:
    """What an iteration keeps of its build once the engine is closed."""

    parts: list[tuple[float, float]]  # (seconds, host scale): articulation, inference
    proposals: int
    accepted: int
    candidate_pairs: int
    saturate_stats: dict
    buffer_stats: dict

    @property
    def build_s(self) -> float:
        return sum(seconds for seconds, _ in self.parts)


@dataclass
class Built:
    articulation: object
    engine: OntologyInferenceEngine
    stats: BuildStats


def build(source_inputs: inp.BuildInputs, sizes: inp.Sizes, storage: str,
          pacer: Pacer | None = None) -> Built:
    """One cold build.  Parsing the serialized inputs happens before
    the clock starts; the pipeline from SKAT to the fixpoint is timed in
    two phases, articulation and inference, each ended by ``pacer``."""
    mark = pacer.mark if pacer is not None else unpaced
    ontologies = source_inputs.ontologies()
    lexicon = source_inputs.wordnet()
    t0 = perf_counter()
    articulation, proposals, accepted, pairs = articulate(ontologies, lexicon)
    parts = [(perf_counter() - t0, mark())]
    t0 = perf_counter()
    engine = OntologyInferenceEngine(
        storage=storage,
        buffer_facts=sizes.buffer_facts if storage == "paged" else None,
    )
    engine.refresh_from_articulation(articulation)
    engine.engine.saturate()
    parts.append((perf_counter() - t0, mark()))
    store = engine.engine.store
    return Built(articulation, engine, BuildStats(
        parts=parts,
        proposals=proposals,
        accepted=accepted,
        candidate_pairs=pairs,
        saturate_stats=dict(engine.engine.last_stats),
        buffer_stats=store.buffer_stats() if storage == "paged" else {},
    ))


def close(built: Built) -> None:
    store = built.engine.engine.store
    if hasattr(store, "close"):
        store.close()


def closure_facts(engine: OntologyInferenceEngine) -> list:
    return sorted(engine.engine.iter_facts())


def digest(facts) -> str:
    h = hashlib.sha256()
    for fact in facts:
        h.update("\x1f".join(fact).encode())
        h.update(b"\n")
    return h.hexdigest()


def probe(engine: OntologyInferenceEngine, probes, tracer: Tracer | None):
    """Run the probe batch; returns (latencies in s, answer digest)."""
    latencies: list[float] = []
    h = hashlib.sha256()
    for op, term in probes:
        t0 = perf_counter()
        if tracer is None:
            answer = getattr(engine, op)(term)
        else:
            with tracer.span("read"):
                answer = getattr(engine, op)(term)
        latencies.append(perf_counter() - t0)
        h.update(repr((op, term, sorted(answer))).encode())
    return latencies, h.hexdigest()


def write(built: Built, maintainer: ArticulationMaintainer, batch: dict) -> dict:
    """One churn batch: the steps of ``ArticulationService.churn``
    without its lock, publication and journal."""
    args = dict(batch)
    source = args.pop("source")
    report = apply_churn(built.articulation.sources[source],
                         n_mutations=args.pop("mutations"), **args)
    maintainer.apply_source_changes(source, report.touched_terms())
    built.engine.refresh_from_articulation(built.articulation)
    built.engine.engine.saturate()
    return dict(built.engine.engine.last_stats)


def write_batch(built: Built, sizes: inp.Sizes, tracer: Tracer | None, mark=unpaced):
    """The fixed churn writes after a build, in phases of
    ``WRITES_PER_PHASE`` each ended by ``mark``; returns
    ((seconds, host scale) per write, stats)."""
    maintainer = ArticulationMaintainer(built.articulation)
    latencies: list[tuple[float, float]] = []
    phase: list[float] = []
    stats: list[dict] = []
    for k in range(sizes.build_writes):
        batch = inp.churn_batch(k)
        t0 = perf_counter()
        if tracer is None:
            stats.append(write(built, maintainer, batch))
        else:
            with tracer.span("write"):
                stats.append(write(built, maintainer, batch))
        phase.append(perf_counter() - t0)
        if len(phase) == WRITES_PER_PHASE or k == sizes.build_writes - 1:
            scale = mark()
            latencies += [(seconds, scale) for seconds in phase]
            phase = []
    return latencies, stats


@dataclass
class Iteration:
    stats: BuildStats
    closure_size: int
    build_digest: str
    probes: list[tuple[float, float]]  # (seconds, host scale)
    probe_digest: str
    writes: list[tuple[float, float]]
    write_stats: list[dict]
    final_digest: str
    rss_mb: float  # the process's peak RSS when the iteration ended

    def digests(self) -> tuple[str, str, str]:
        return self.build_digest, self.probe_digest, self.final_digest


def iterate(source_inputs, sizes, storage, probes, tracer=None,
            fault=None, pacer: Pacer | None = None) -> Iteration:
    """build -> probes -> writes; digests are taken outside every timing,
    the closure's after the probes, which leave it unchanged.

    ``pacer`` times the reference as the build starts and after every
    phase, which gives each phase the host's speed at the time it ran.
    The probes, short reads of a hot working set, are scaled by the
    light reference instead.
    ``fault`` (tests only) edits the closure before its digest.
    """
    mark = pacer.mark if pacer is not None else unpaced
    gc.collect()
    mark()
    if tracer is None:
        built = build(source_inputs, sizes, storage, pacer)
    else:
        with instrumented(tracer), tracer.span("build"):
            built = build(source_inputs, sizes, storage, pacer)
    try:
        light = [reference_s(light_reference)] if pacer is not None else []
        with instrumented(tracer) if tracer is not None else nullcontext():
            probe_s, probe_digest = probe(built.engine, probes, tracer)
        if pacer is not None:
            light.append(reference_s(light_reference))
        scale = host_scale(*light, nominal=LIGHT_REFERENCE_S) if light else unpaced()
        facts = closure_facts(built.engine)
        if fault is not None:
            facts = fault(facts)
        build_digest = digest(facts)
        mark()  # the host's speed as the writes start
        with instrumented(tracer) if tracer is not None else nullcontext():
            writes, write_stats = write_batch(built, sizes, tracer, mark)
        final_digest = digest(closure_facts(built.engine))
    finally:
        close(built)
    return Iteration(built.stats, len(facts), build_digest,
                     [(seconds, scale) for seconds in probe_s], probe_digest,
                     writes, write_stats, final_digest, peak_rss_mb())


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def _legacy_engine_class():
    """``benchmarks/legacy_horn.py``: a scan evaluator sharing no index,
    compiler or stratifier code with ``inference/horn.py``."""
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "legacy_horn.py"
    spec = importlib.util.spec_from_file_location("perfbench_legacy_horn", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LegacyHornEngine


def rebuilt(articulation) -> OntologyInferenceEngine:
    """A fresh in-memory engine, extracted and saturated from scratch."""
    engine = OntologyInferenceEngine()
    engine.refresh_from_articulation(articulation)
    engine.engine.saturate()
    return engine


def oracle_mismatches(sizes: inp.Sizes, seed: int, storage: str, fault=None) -> list[str]:
    """Build and churn a down-sized instance of the same pipeline.

    After the build and again after the writes, the engine's closure
    must equal the closure of an engine rebuilt from scratch from the
    current articulation, and the oracle's closure of that rebuilt
    engine's clauses and base facts.  The rebuild keeps the check
    independent of the incremental path (``apply_batch`` diffs,
    articulation maintenance) that produced the engine under test.
    """
    legacy = _legacy_engine_class()
    small = inp.make_build_inputs(sizes, seed, terms=sizes.oracle_terms)
    built = build(small, sizes, storage)
    problems: list[str] = []
    try:
        maintainer = ArticulationMaintainer(built.articulation)
        for stage in ("build", "writes"):
            if stage == "writes":
                for k in range(sizes.build_writes):
                    write(built, maintainer, inp.churn_batch(k))
            got = closure_facts(built.engine)
            if fault is not None:
                got = fault(got)
            fresh = rebuilt(built.articulation)
            if digest(got) != digest(closure_facts(fresh)):
                problems.append(f"closure differs from a rebuild after {stage}")
            oracle = legacy()
            for clause in fresh.engine.clauses():
                oracle.add_clause(clause)
            oracle.add_facts(fresh.engine.base_facts())
            if digest(got) != digest(sorted(oracle.facts())):
                problems.append(f"closure differs from the oracle's after {stage}")
    finally:
        close(built)
    return problems


def storage_mismatches(storage, sizes, seed, source_inputs, probes, first,
                       fault=None) -> list[str]:
    """Memory and paged stores must agree on closure, probe answers and
    the closure after the writes.  A full paged build costs seconds, so
    ``build`` compares against a down-sized paged instance, while
    ``build_paged`` compares its full-size run with a memory build."""
    other = "memory" if storage == "paged" else "paged"
    if other == "memory":
        mine = first
        ref = iterate(source_inputs, sizes, other, probes)
    else:
        small = inp.make_build_inputs(sizes, seed, terms=sizes.oracle_terms)
        small_probes = inp.probe_batch(sizes, seed, small)
        mine = iterate(small, sizes, storage, small_probes, fault=fault)
        ref = iterate(small, sizes, other, small_probes)
    return [
        f"{what}: {storage} and {other} stores disagree"
        for what, got, want in zip(
            ("closure", "probe answers", "closure after writes"),
            mine.digests(), ref.digests())
        if got != want
    ]


# ----------------------------------------------------------------------
# the workload
# ----------------------------------------------------------------------
def run(workload: str, seed: int, seconds: float, trace: bool,
        sizes: inp.Sizes = inp.SIZES, fault=None) -> Outcome:
    storage = "paged" if workload == "build_paged" else "memory"
    pacer = Pacer()
    setups: list[tuple[float, float]] = []  # (seconds, host scale)
    for _ in range(sizes.build_setups):
        t0 = perf_counter()
        source_inputs = inp.make_build_inputs(sizes, seed)
        probes = inp.probe_batch(sizes, seed, source_inputs)
        setups.append((perf_counter() - t0, pacer.mark()))

    tracer = Tracer()
    iterations: list[tuple[bool, Iteration]] = []
    deadline = perf_counter() + seconds
    last = 0.0
    # an iteration starts only if one as long as the last still fits,
    # but every run takes the median of at least MIN_ITERATIONS builds;
    # a traced run alternates untraced and traced iterations, so the
    # tracing overhead is measured on the same inputs in the same run
    while len(iterations) < MIN_ITERATIONS or perf_counter() + last <= deadline:
        traced = trace and len(iterations) % 2 == 1
        t0 = perf_counter()
        it = iterate(source_inputs, sizes, storage, probes,
                     tracer if traced else None, fault, pacer)
        last = perf_counter() - t0
        iterations.append((traced, it))

    out = Outcome(references=pacer.references)
    first = iterations[0][1]
    for _, it in iterations:
        out.attempted += 1 + len(it.probes) + len(it.writes)
        out.check(it.digests() == first.digests(),
                  "closure, probe answers or writes differ between builds of one seed")
    for problem in storage_mismatches(storage, sizes, seed, source_inputs,
                                      probes, first, fault):
        out.check(False, problem)
    for problem in oracle_mismatches(sizes, seed, storage, fault):
        out.check(False, problem)
    out.attempted += 2  # the storage and oracle comparisons

    plain = [it for traced, it in iterations if not traced]
    if not trace:
        out.metrics = _end_to_end(plain, setups, plain[-1].rss_mb)
        out.raw = {name: value for name, (value, _) in
                   _end_to_end(plain, setups, plain[-1].rss_mb, scaled=False).items()}
        return out
    traced_its = [it for traced, it in iterations if traced]
    out.metrics = _per_layer(traced_its, tracer)
    # peak RSS is a high-water mark: compare the first untraced and the
    # first traced iteration, which ran in that order
    untraced = _end_to_end(plain, setups, plain[0].rss_mb)
    with_trace = _end_to_end(traced_its, setups, traced_its[0].rss_mb)
    for name, (value, unit) in untraced.items():
        if name != "setup_s":
            out.metrics[f"trace_overhead.{name}"] = (with_trace[name][0] - value, unit)
    return out


def _end_to_end(its: list[Iteration], setups: list[tuple[float, float]], rss: float,
                scaled: bool = True) -> dict:
    """Every time is scaled to the reference host, unless ``scaled`` is
    false; see ``measure.host_scale``."""
    def value(sample: tuple[float, float]) -> float:
        return scaled_value(sample, scaled)

    builds = [sum(value(part) for part in it.stats.parts) for it in its]
    reads = [value(sample) for it in its for sample in it.probes]
    writes = [value(sample) for it in its for sample in it.writes]
    return {
        "setup_s": (statistics.median(value(setup) for setup in setups), "s"),
        "build_s": (statistics.median(builds), "s"),
        "read_p50_ms": (percentile(reads, 50) * 1e3, "ms"),
        "read_p99_ms": (percentile(reads, 99) * 1e3, "ms"),
        "read_rps": (len(reads) / sum(reads), "1/s"),
        "write_p50_ms": (percentile(writes, 50) * 1e3, "ms"),
        "write_p90_ms": (percentile(writes, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }


def _per_layer(its: list[Iteration], tracer: Tracer) -> dict:
    times = self_times(tracer.spans)
    counts = span_counts(tracer.spans)
    n = {
        "build": len(its),
        "read": sum(len(it.probes) for it in its),
        "write": sum(len(it.writes) for it in its),
    }

    def ms(phase: str, name: str) -> tuple[float, str]:
        return times.get((phase, name), 0.0) * 1e3 / max(n[phase], 1), "ms"

    writes = [s for it in its for s in it.write_stats]
    first = its[0]
    sat = first.stats.saturate_stats
    buf = first.stats.buffer_stats
    build_wall = sum(it.stats.build_s for it in its)
    attributed = sum(t for (phase, name), t in times.items()
                     if phase == "build" and name != "build")
    return {
        "lexicon.propose_ms": ms("build", "lexicon.propose"),
        "lexicon.review_ms": ms("build", "lexicon.review"),
        "lexicon.candidate_pairs": (first.stats.candidate_pairs, "count"),
        "lexicon.proposals": (first.stats.proposals, "count"),
        "lexicon.accept_ratio": (first.stats.accepted / max(first.stats.proposals, 1), "ratio"),
        "core.generate_ms": ms("build", "core.generate"),
        "core.fingerprint_ms": ms("read", "core.fingerprint"),
        "core.fingerprint_calls": (
            counts.get(("read", "core.fingerprint"), 0) / max(n["read"], 1), "count"),
        "core.maintain_ms": ms("write", "core.maintain"),
        "inference.extract_ms": ms("build", "inference.extract"),
        "inference.saturate_ms": ms("build", "inference.saturate"),
        "inference.write_extract_ms": ms("write", "inference.extract"),
        "inference.write_saturate_ms": ms("write", "inference.saturate"),
        "inference.rounds": (sat["rounds"], "count"),
        "inference.join_candidates": (sat["candidates"], "count"),
        "inference.derived": (sat["derived"], "count"),
        "inference.derive_ratio": (sat["derived"] / max(sat["candidates"], 1), "ratio"),
        "inference.overdeleted": (
            sum(s["overdeleted"] for s in writes) / max(n["write"], 1), "count"),
        "inference.rederived": (
            sum(s["rederived"] for s in writes) / max(n["write"], 1), "count"),
        "inference.query_ms": ms("read", "inference.query"),
        "inference.closure_facts": (first.closure_size, "count"),
        "kb.buffer_hit_rate": (buf.get("hit_rate", 0.0), "ratio"),
        "kb.buffer_evictions": (buf.get("evictions", 0), "count"),
        "kb.oversize_streams": (buf.get("oversize", 0), "count"),
        "trace.coverage": (attributed / build_wall, "ratio"),
    }
