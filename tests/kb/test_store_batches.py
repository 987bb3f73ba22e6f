"""The batched store contract saturation relies on: ``missing(atoms)``
and ``add_many(atoms)`` mean exactly what a loop of ``in`` / ``add``
would, on the in-memory store (plain and as a tombstoned overlay) and
on the paged store (buffered and unbuffered keys, batches spanning
several SQL chunks, group commits falling inside one call, streamed
input consumed and committed a slice at a time)."""

from __future__ import annotations

import sqlite3

import pytest

from repro.inference.horn import FactStore
from repro.kb.pagestore import _FETCH_CHUNK, _IN_CHUNK, PagedFactStore

PRESENT = [("S", f"n{i}", f"n{i + 1}") for i in range(40)] + [
    ("T", "x", "y"),
    ("U", "solo"),
]


def _memory() -> FactStore:
    return FactStore()


def _overlay() -> FactStore:
    """An overlay whose base holds half the facts, one of them
    tombstoned: it is missing until an add lifts the tombstone."""
    base = FactStore()
    for atom in PRESENT[::2]:
        base.add(atom)
    overlay = FactStore(base=base)
    overlay.remove(PRESENT[0])
    return overlay


def _paged() -> PagedFactStore:
    return PagedFactStore(":memory:", buffer_facts=64)


FACTORIES = {"memory": _memory, "overlay": _overlay, "paged": _paged}

BATCHES = [
    # already-present, absent, duplicated, a new predicate
    [PRESENT[0], ("S", "n0", "zz"), ("S", "n0", "zz"), PRESENT[5],
     ("V", "a", "b", "c"), ("U", "solo"), ("U", "other")],
    [],
    [("S", f"m{i}", f"n{i}") for i in range(30)] + PRESENT[10:20],
    [("S", "n0", "zz"), ("T", "x", "y"), ("T", "y", "x")],
]


def _filled(kind: str):
    store = FACTORIES[kind]()
    for atom in PRESENT[1:]:
        store.add(atom)
    return store


def _contents(store) -> set:
    return set(store.iter_facts())


@pytest.mark.parametrize("kind", sorted(FACTORIES))
def test_batches_match_a_loop_of_single_calls(kind) -> None:
    batched, looped = _filled(kind), _filled(kind)
    for batch in BATCHES:
        assert batched.missing(batch) == [a for a in batch if a not in looped]
        assert batched.add_many(batch) == sum(looped.add(a) for a in batch)
        assert _contents(batched) == _contents(looped)
        assert len(batched) == len(looped)
    for position, value in ((1, "n0"), (2, "n0"), (1, "m3"), (1, "x")):
        assert set(batched.probe("S", position, value)) == set(
            looped.probe("S", position, value)
        )
        assert batched.probe_size("S", position, value) == looped.probe_size(
            "S", position, value
        )
    assert batched.pool_size("V") == looped.pool_size("V") == 1


def test_every_store_gives_the_same_answers() -> None:
    answers = {}
    for kind in sorted(FACTORIES):
        store = _filled(kind)
        answers[kind] = [
            (store.missing(batch), store.add_many(batch), sorted(_contents(store)))
            for batch in BATCHES
        ]
    assert answers["memory"] == answers["overlay"] == answers["paged"]


def test_overlay_add_many_lifts_tombstones_and_leaves_base_alone() -> None:
    overlay = _overlay()
    base = overlay._base
    tombstoned = PRESENT[0]
    assert tombstoned in base and tombstoned not in overlay
    assert overlay.missing([tombstoned, PRESENT[2], ("S", "new", "x")]) == [
        tombstoned,
        ("S", "new", "x"),
    ]
    assert overlay.add_many([tombstoned, ("S", "new", "x"), PRESENT[2]]) == 2
    assert tombstoned in overlay
    assert ("S", "new", "x") in overlay and ("S", "new", "x") not in base
    assert overlay._facts == {("S", "new", "x")}  # the lift stored nothing


class TestPagedBatches:
    def test_buffered_and_unbuffered_keys(self) -> None:
        store = _filled("paged")
        try:
            list(store.probe("S", 1, "n3"))  # buffers the bucket of n3
            assert ("S", 1, "n3") in store._buffer
            assert ("S", 1, "n7") not in store._buffer
            batch = [
                ("S", "n3", "n4"),  # answered by the buffered bucket
                ("S", "n3", "q"),  # absent, answered by the bucket
                ("S", "n7", "n8"),  # looked up in SQLite
                ("S", "n7", "q"),  # absent, looked up in SQLite
            ]
            assert store.missing(batch) == [("S", "n3", "q"), ("S", "n7", "q")]
            store.probe_size("S", 1, "n7")  # a cached size, no bucket
            assert store.add_many(batch) == 2
            # the buffered bucket and the cached size were patched
            assert set(store._buffer[("S", 1, "n3")]) == {
                ("S", "n3", "n4"),
                ("S", "n3", "q"),
            }
            assert store.probe_size("S", 1, "n7") == 2
            assert set(store.probe("S", 1, "n7")) == {
                ("S", "n7", "n8"),
                ("S", "n7", "q"),
            }
        finally:
            store.close()

    def test_batch_larger_than_one_sql_chunk(self) -> None:
        n = 2 * _IN_CHUNK + 100
        atoms = [("P", f"a{i}", f"b{i}") for i in range(n)]
        store = PagedFactStore(":memory:", buffer_facts=16)
        memory = FactStore()
        try:
            assert store.add_many(atoms[::2]) == memory.add_many(atoms[::2])
            assert store.missing(atoms) == memory.missing(atoms) == atoms[1::2]
            assert store.add_many(atoms + atoms[:10]) == n - len(atoms[::2])
            assert store.missing(atoms) == []
            assert len(store) == n
        finally:
            store.close()

    def test_group_commit_boundary_inside_one_call(self, tmp_path) -> None:
        path = tmp_path / "facts.sqlite"
        store = PagedFactStore(path, commit_every=10)
        reader = sqlite3.connect(path)

        def committed() -> int:
            return reader.execute("SELECT COUNT(*) FROM facts").fetchone()[0]

        try:
            for i in range(7):
                store.add(("S", f"a{i}", "b"))
            assert committed() == 0  # 7 of 10: still one open transaction
            # 3 of these 6 reach the boundary; the call commits all of
            # them, and the duplicate and the present atom count nothing
            batch = [("S", f"c{i}", "d") for i in range(6)]
            assert store.add_many(batch + batch[:1] + [("S", "a0", "b")]) == 6
            assert committed() == 13
            assert store.add_many([("S", "e", "f")]) == 1
            assert committed() == 13  # a new transaction, 1 of 10
            store.flush()
            assert committed() == 14
        finally:
            reader.close()
            store.close()

    def test_streamed_input_commits_slice_by_slice(self, tmp_path) -> None:
        """A generator far longer than ``commit_every`` is consumed a
        slice at a time and committed between slices, never read whole."""
        path = tmp_path / "facts.sqlite"
        store = PagedFactStore(path, commit_every=100)
        reader = sqlite3.connect(path)
        n = 2 * _FETCH_CHUNK + 300
        seen: dict[int, int] = {}

        def stream():
            for i in range(n):
                if i % _FETCH_CHUNK == 0:
                    seen[i] = reader.execute(
                        "SELECT COUNT(*) FROM facts"
                    ).fetchone()[0]
                yield ("S", f"a{i}", "b")

        try:
            assert store.add_many(stream()) == n
            # each slice was inserted and committed before the next
            # one was read from the generator
            assert seen == {0: 0, _FETCH_CHUNK: _FETCH_CHUNK,
                            2 * _FETCH_CHUNK: 2 * _FETCH_CHUNK}
            assert reader.execute(
                "SELECT COUNT(*) FROM facts"
            ).fetchone()[0] == n
            assert len(store) == n
        finally:
            reader.close()
            store.close()
