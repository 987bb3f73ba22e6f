"""The out-of-core fact store: FactStore-contract parity, the buffer
pool, bulk ETL ingest, and the storage={memory,paged} x workers={1,2}
churn-script parity matrix (DRed retraction and apply_batch crossover
included)."""

from __future__ import annotations

import sqlite3

import pytest
from hypothesis import given, settings

from repro.core.rules import HornClause
from repro.inference.horn import FactStore, HornEngine
from repro.kb.ingest import ingest_facts, iter_fact_file
from repro.kb.pagestore import PagedFactStore
from tests.support.churn_scripts import (
    CLAUSE_POOL,
    churn_scripts,
    oracle_states,
    replay_incremental,
)

TRANS = HornClause(
    ("S", "?x", "?z"), (("S", "?x", "?y"), ("S", "?y", "?z"))
)


@pytest.fixture
def store():
    paged = PagedFactStore(":memory:", buffer_facts=256)
    yield paged
    paged.close()


def _chain(n: int, pred: str = "S") -> list[tuple[str, str, str]]:
    return [(pred, f"n{i}", f"n{i + 1}") for i in range(n)]


class _SourceBroke(Exception):
    pass


def _breaks_after(atoms, n):
    for i, atom in enumerate(atoms):
        if i == n:
            raise _SourceBroke(f"source failed after {n} facts")
        yield atom


class _NoRollback:
    """A connection whose ROLLBACK fails, as on a wedged connection."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self._conn = conn
        self.rollbacks = 0

    def execute(self, sql, *args):
        if sql.strip().upper() == "ROLLBACK":
            self.rollbacks += 1
            raise sqlite3.OperationalError("cannot rollback")
        return self._conn.execute(sql, *args)

    def __getattr__(self, name):
        return getattr(self._conn, name)


def _assert_usable(paged: PagedFactStore, *, expect_pre: bool) -> None:
    """After a failed bulk load: nothing of it stored, the indexes in
    place, reads and writes working."""
    indexes = {
        row[0]
        for row in paged._conn.execute(
            "SELECT name FROM sqlite_master WHERE type = 'index'"
        )
    }
    assert {"idx_facts_pred", "idx_args_cover"} <= indexes
    assert (("S", "pre", "x") in paged) is expect_pre
    assert len(paged) == int(expect_pre)
    assert ("S", "n3", "n4") not in paged
    assert list(paged.probe("S", 1, "n3")) == []
    assert paged.add(("S", "n3", "n4"))
    assert list(paged.probe("S", 1, "n3")) == [("S", "n3", "n4")]
    assert ("S", "n3", "n4") in paged


class TestFactStoreContract:
    """Same observable behavior as the in-memory store, operation by
    operation — the duck-typing contract the engine relies on."""

    def test_add_contains_remove_roundtrip(self, store) -> None:
        atom = ("S", "a", "b")
        assert store.add(atom) is True
        assert store.add(atom) is False  # duplicate
        assert atom in store
        assert len(store) == 1
        assert store.remove(atom) is True
        assert store.remove(atom) is False
        assert atom not in store
        assert len(store) == 0

    def test_mirrors_in_memory_store_over_mixed_ops(self, store) -> None:
        memory = FactStore()
        ops = _chain(12) + [("T", "x", "y"), ("S", "n3", "n4")]
        for atom in ops:
            assert store.add(atom) == memory.add(atom)
        for atom in [("S", "n0", "n1"), ("T", "x", "y"), ("Z", "q", "r")]:
            assert store.remove(atom) == memory.remove(atom)
        assert set(store.iter_facts()) == set(memory.iter_facts())
        assert len(store) == len(memory)
        assert store.predicates() == memory.predicates()
        for pred in ("S", "T", "Z"):
            assert store.pool_size(pred) == memory.pool_size(pred)
            assert set(store.pool(pred)) == set(memory.pool(pred))
        for pos in (1, 2):
            for value in ("n3", "n4", "x", "nope"):
                assert set(store.probe("S", pos, value)) == set(
                    memory.probe("S", pos, value)
                )
                assert store.probe_size("S", pos, value) == memory.probe_size(
                    "S", pos, value
                )

    def test_probe_snapshot_survives_concurrent_add(self, store) -> None:
        for atom in _chain(10):
            store.add(atom)
        probe = store.probe("S", 1, "n3")
        store.add(("S", "n3", "zz"))  # patches the cached bucket
        assert list(probe) == [("S", "n3", "n4")]  # iterator unaffected
        assert set(store.probe("S", 1, "n3")) == {
            ("S", "n3", "n4"),
            ("S", "n3", "zz"),
        }

    def test_overlay_factstore_composes_over_paged_base(self, store) -> None:
        """The serving tier's copy-free overlay discipline must work
        with a paged base: tombstones shadow, local facts add."""
        for atom in _chain(5):
            store.add(atom)
        overlay = FactStore(base=store)
        assert ("S", "n0", "n1") in overlay
        overlay.remove(("S", "n0", "n1"))  # tombstone, not a base delete
        assert ("S", "n0", "n1") not in overlay
        assert ("S", "n0", "n1") in store
        overlay.add(("S", "zz", "ww"))
        assert ("S", "zz", "ww") in overlay
        assert ("S", "zz", "ww") not in store
        assert set(overlay.probe("S", 1, "zz")) == {("S", "zz", "ww")}

    def test_persistence_across_reopen(self, tmp_path) -> None:
        path = tmp_path / "facts.sqlite"
        first = PagedFactStore(path)
        for atom in _chain(8):
            first.add(atom)
        first.close()
        second = PagedFactStore(path)
        try:
            assert len(second) == 8
            assert ("S", "n2", "n3") in second
            assert second.pool_size("S") == 8
        finally:
            second.close()

    def test_stored_text_is_compact_unescaped_json(self, store) -> None:
        """The on-disk atom format files already written rely on."""
        atom = ("S", "café", 'a "b"', "c\\d")
        store.add(atom)
        store.add_many([("T", "ü", "x")])
        assert sorted(
            text for (text,) in store._conn.execute("SELECT atom FROM facts")
        ) == ['["S","café","a \\"b\\"","c\\\\d"]', '["T","ü","x"]']
        assert atom in store

    def test_close_removes_owned_temp_file(self) -> None:
        import os

        paged = PagedFactStore()  # temp-file flavor
        paged.add(("S", "a", "b"))
        path = paged.path
        assert os.path.exists(path)
        paged.close()
        assert not os.path.exists(path)
        with pytest.raises(sqlite3.ProgrammingError):
            paged._conn.execute("SELECT 1")


class TestBufferPool:
    def test_capacity_is_enforced_in_facts(self) -> None:
        paged = PagedFactStore(":memory:", buffer_facts=32)
        try:
            # 16 distinct buckets of 4 facts each = 64 cached facts max
            for b in range(16):
                for i in range(4):
                    paged.add(("P", f"k{b}", f"v{b}_{i}"))
            for b in range(16):
                list(paged.probe("P", 1, f"k{b}"))
            stats = paged.buffer_stats()
            assert stats["buffered_facts"] <= 32
            assert stats["evictions"] > 0
        finally:
            paged.close()

    def test_hot_bucket_hits_and_oversize_streams(self) -> None:
        paged = PagedFactStore(":memory:", buffer_facts=64)
        try:
            for i in range(100):
                paged.add(("P", "hot", f"v{i}"))  # one bucket of 100 > 32
            paged.add(("P", "cold", "w"))
            list(paged.probe("P", 1, "hot"))
            list(paged.probe("P", 1, "hot"))
            stats = paged.buffer_stats()
            assert stats["oversize"] >= 2  # too big to pin, streamed
            list(paged.probe("P", 1, "cold"))
            list(paged.probe("P", 1, "cold"))
            assert paged.buffer_stats()["hits"] >= 1
            assert 0.0 <= paged.buffer_stats()["hit_rate"] <= 1.0
        finally:
            paged.close()

    def test_cached_buckets_patched_by_add_and_remove(self) -> None:
        paged = PagedFactStore(":memory:", buffer_facts=256)
        try:
            paged.add(("S", "a", "b"))
            assert set(paged.probe("S", 1, "a")) == {("S", "a", "b")}
            paged.add(("S", "a", "c"))
            paged.remove(("S", "a", "b"))
            assert set(paged.probe("S", 1, "a")) == {("S", "a", "c")}
            assert paged.probe_size("S", 1, "a") == 1
        finally:
            paged.close()


class TestBulkLoad:
    def test_dedupes_within_batch_and_against_existing(self, store) -> None:
        store.add(("P", "pre", "existing"))
        report = store.bulk_load(
            [("P", "a", "b"), ("P", "a", "b"), ("P", "pre", "existing")],
            batch_size=2,
        )
        assert report["staged"] == 3
        assert report["added"] == 1
        assert report["deduplicated"] == 2
        assert len(store) == 2

    def test_cold_load_rebuilds_indexes_post_load(self, tmp_path) -> None:
        path = tmp_path / "facts.sqlite"
        paged = PagedFactStore(path)
        try:
            report = paged.bulk_load(_chain(1000), batch_size=128)
            assert report["reindexed"] == 1
            assert report["batches"] == 8
            # the covering index exists and answers probes
            assert set(paged.probe("S", 1, "n500")) == {("S", "n500", "n501")}
            names = {
                row[0]
                for row in paged._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'index'"
                )
            }
            assert "idx_args_cover" in names
        finally:
            paged.close()

    @pytest.mark.parametrize("warm", [False, True])
    def test_failing_source_surfaces_and_leaves_store_usable(
        self, tmp_path, warm
    ) -> None:
        paged = PagedFactStore(tmp_path / "facts.sqlite")
        try:
            if warm:
                paged.add(("S", "pre", "x"))
            with pytest.raises(_SourceBroke):
                paged.bulk_load(_breaks_after(_chain(50), 30), batch_size=8)
            _assert_usable(paged, expect_pre=warm)
        finally:
            paged.close()

    def test_failing_rollback_reconnects_without_masking(self, tmp_path) -> None:
        """A connection that cannot roll back is replaced; the load's
        own error still reaches the caller, and what was committed
        before the load survives."""
        paged = PagedFactStore(tmp_path / "facts.sqlite")
        try:
            paged.add(("S", "pre", "x"))
            paged.flush()
            broken = _NoRollback(paged._conn)
            paged._conn = broken
            with pytest.raises(_SourceBroke):
                paged.bulk_load(_breaks_after(_chain(50), 30), batch_size=8)
            assert broken.rollbacks == 1
            assert paged._conn is not broken
            _assert_usable(paged, expect_pre=True)
        finally:
            paged.close()

    def test_loaded_base_saturates_identically(self, tmp_path) -> None:
        """ingest-then-saturate equals add_facts-then-saturate."""
        path = tmp_path / "facts.sqlite"
        ingest_facts(path, _chain(40))
        paged_engine = HornEngine(storage="paged", storage_path=str(path))
        for atom in list(paged_engine.store.iter_facts()):
            paged_engine.add_fact(atom)  # register as base facts
        paged_engine.add_clause(TRANS)
        paged_engine.saturate()
        oracle = HornEngine()
        oracle.add_clause(TRANS)
        oracle.add_facts(_chain(40))
        oracle.saturate()
        assert paged_engine.facts() == oracle.facts()


class TestIngestFile:
    def test_jsonl_and_tsv_roundtrip(self, tmp_path) -> None:
        jsonl = tmp_path / "facts.jsonl"
        jsonl.write_text(
            '["S", "a", "b"]\n\n# comment\n["S", "b", "c"]\n',
            encoding="utf-8",
        )
        tsv = tmp_path / "facts.tsv"
        tsv.write_text("S\ta\tb\nS\tb\tc\n", encoding="utf-8")
        assert list(iter_fact_file(jsonl)) == list(iter_fact_file(tsv))

    def test_ingest_journal_snapshot_recovers(self, tmp_path) -> None:
        from repro.reliability.journal import ChurnJournal

        db = tmp_path / "facts.sqlite"
        journal_path = tmp_path / "journal.jsonl"
        report = ingest_facts(
            db, _chain(25), journal_path=journal_path
        )
        assert report["journaled"] == 25
        recovered, rec_report = ChurnJournal(journal_path).recover()
        assert rec_report["facts"] == 25
        assert recovered.base_facts() == set(_chain(25))

    def test_bad_jsonl_line_reports_location(self, tmp_path) -> None:
        from repro.errors import KnowledgeBaseError

        bad = tmp_path / "facts.jsonl"
        bad.write_text('["S", "a", "b"]\n["S", 42]\n', encoding="utf-8")
        with pytest.raises(KnowledgeBaseError, match="facts.jsonl:2"):
            list(iter_fact_file(bad))


class TestChurnParityMatrix:
    """The tentpole's equivalence claim: the paged store is
    observationally identical to the in-memory store under every
    churn path the engine has — delta additions, DRed retractions,
    clause churn — serial and parallel alike."""

    @pytest.mark.parametrize("workers", [1, 2])
    @settings(max_examples=30, deadline=None)
    @given(script=churn_scripts())
    def test_paged_matches_memory_and_oracle(self, workers, script) -> None:
        expected = oracle_states(script, saturate_every=3)
        _, memory_states = replay_incremental(
            script, saturate_every=3, storage="memory", workers=workers
        )
        engine, paged_states = replay_incremental(
            script, saturate_every=3, storage="paged", workers=workers
        )
        assert memory_states == expected
        assert paged_states == expected
        engine.store.close()

    @settings(max_examples=15, deadline=None)
    @given(script=churn_scripts(max_ops=10))
    def test_apply_batch_crossover_parity_on_paged(self, script) -> None:
        """Batch the script's fact diffs through apply_batch on a
        paged engine, forcing both sides of the rebuild crossover."""
        for crossover in (0, 10_000):  # always-rebuild / always-DRed
            oracle = oracle_states(script, saturate_every=len(script) or 1)
            engine = HornEngine(storage="paged", storage_path=":memory:")
            engine.rebuild_crossover = crossover
            adds: dict = {}
            for op in script:
                if op.kind in ("add_fact", "retract_fact"):
                    adds[op.fact] = op.kind
                elif op.kind == "add_clause":
                    engine.add_clause(CLAUSE_POOL[op.clause_index])
                else:
                    engine.retract_clause(CLAUSE_POOL[op.clause_index])
            engine.apply_batch(
                [f for f, k in adds.items() if k == "add_fact"],
                [f for f, k in adds.items() if k == "retract_fact"],
            )
            assert engine.facts() == oracle[-1]
            engine.store.close()

    def test_dred_retraction_parity_on_paged(self) -> None:
        """A deep retraction through a transitive closure exercises
        the DRed overdelete/rederive pass against the paged indexes."""
        engines = {}
        for storage in ("memory", "paged"):
            engine = HornEngine(
                storage=storage,
                storage_path=":memory:" if storage == "paged" else None,
            )
            engine.add_clause(TRANS)
            engine.add_facts(_chain(20))
            engine.saturate()
            engine.retract_fact(("S", "n10", "n11"))  # split the chain
            engines[storage] = engine.facts()
        assert engines["paged"] == engines["memory"]

    def test_detach_store_returns_frozen_paged_snapshot(self) -> None:
        engine = HornEngine(storage="paged", storage_path=":memory:")
        engine.add_clause(TRANS)
        engine.add_facts(_chain(6))
        engine.saturate()
        before = engine.facts()
        frozen = engine.detach_store()
        engine.add_fact(("S", "zz", "n0"))
        engine.saturate()
        assert set(frozen.iter_facts()) == before  # snapshot froze
        assert engine.facts() > before
        assert engine.store is not frozen
