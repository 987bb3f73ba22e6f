"""Round-batched saturation on a generated articulation program.

Saturation stores each round's new heads with one ``missing`` and one
``add_many`` call.  On every store the closure must equal the scan
evaluator's in ``benchmarks/legacy_horn.py`` (which shares no index,
compiler or store code with the engine), and every derived fact must
keep the proof a tuple-at-a-time round records: the first join, in
enumeration order, that produced it while it was not yet stored.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from repro.core.articulation import ArticulationGenerator
from repro.inference.engine import OntologyInferenceEngine
from repro.inference.horn import HornEngine
from repro.workloads.generator import WorkloadConfig, generate_workload

LEGACY = Path(__file__).resolve().parents[2] / "benchmarks" / "legacy_horn.py"


def _legacy_engine():
    spec = importlib.util.spec_from_file_location("legacy_horn", LEGACY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LegacyHornEngine()


class TupleAtATimeEngine(HornEngine):
    """Asks the store about each head as the join produces it and
    stores a round's heads one by one: the reference for which proof
    each fact records."""

    def _derive(self, runs):
        store = self._store
        new, seen = [], set()
        for cc, plan, delta in runs:
            for head, premises in self._run_plan(cc, plan, delta):
                if head in seen or head in store:
                    continue
                seen.add(head)
                new.append(head)
                self._record_new(cc, head, premises)
        for head in new:
            store.add(head)
        if new:
            self._derived_ever = True
        return new


@pytest.fixture(scope="module")
def program():
    """The clauses and base facts of a generated two-source articulation."""
    workload = generate_workload(
        WorkloadConfig(
            universe_size=80,
            terms_per_source=35,
            overlap=0.5,
            identical_fraction=0.3,
            seed=5,
        )
    )
    articulation = ArticulationGenerator(workload.sources, name="art").generate(
        workload.truth_rules(0, 1)
    )
    extracted = OntologyInferenceEngine()
    extracted.refresh_from_articulation(articulation)
    clauses = extracted.engine.clauses()
    facts = sorted(extracted.engine.base_facts())
    assert len(clauses) > 5 and len(facts) > 100
    return clauses, facts


def _engine(cls, storage: str, clauses, facts) -> HornEngine:
    engine = cls(storage=storage, buffer_facts=64 if storage == "paged" else None)
    engine.add_clauses(clauses)
    engine.add_facts(facts)
    return engine


def _proofs(engine: HornEngine) -> dict:
    return {
        fact: (d.clause, d.premises) for fact, d in engine._derivations.items()
    }


@pytest.mark.parametrize("storage", ["memory", "paged"])
def test_closure_matches_the_scan_evaluator(program, storage) -> None:
    clauses, facts = program
    engine = _engine(HornEngine, storage, clauses, facts)
    engine.saturate()
    legacy = _legacy_engine()
    for clause in clauses:
        legacy.add_clause(clause)
    legacy.add_facts(facts)
    closure = engine.facts()
    assert closure == legacy.facts()
    assert len(closure) > 2 * len(facts)


@pytest.mark.parametrize("storage", ["memory", "paged"])
def test_proofs_match_tuple_at_a_time_rounds(program, storage) -> None:
    clauses, facts = program
    batched = _engine(HornEngine, storage, clauses, facts)
    reference = _engine(TupleAtATimeEngine, storage, clauses, facts)
    batched.saturate()
    reference.saturate()
    assert batched.last_stats["candidates"] == reference.last_stats["candidates"]
    assert _proofs(batched) == _proofs(reference)
    for fact in list(reference._derivations)[::25]:
        assert batched.explain(fact) == reference.explain(fact)


@pytest.mark.parametrize("storage", ["memory", "paged"])
def test_incremental_rounds_keep_the_same_proofs(program, storage) -> None:
    """Delta propagation and a clause added after the fixpoint (its
    catch-up join) batch the same way."""
    clauses, facts = program
    held_back = clauses[0]
    engines = [
        _engine(HornEngine, storage, clauses[1:], facts[40:]),
        _engine(TupleAtATimeEngine, storage, clauses[1:], facts[40:]),
    ]
    for engine in engines:
        engine.saturate()
        engine.add_facts(facts[:40])
        engine.add_clause(held_back)
        engine.saturate()
    batched, reference = engines
    assert batched.last_stats["mode"] == "incremental"
    assert batched.facts() == reference.facts()
    assert _proofs(batched) == _proofs(reference)
