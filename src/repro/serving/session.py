"""Client sessions: copy-free snapshot isolation over the closure.

A session pins the saturated :class:`~repro.inference.horn.FactStore`
the engine had published when the session was created (or last
refreshed) and answers every read from a **copy-free overlay** on top
of it — the PR 2 overlay machinery.  The pinned base is *frozen*: the
service's write path detaches the live engine onto a private copy
(:meth:`~repro.inference.horn.HornEngine.detach_store`) before any
churn mutates the closure, so a session keeps answering the old
fixpoint no matter how much the base engine moves, and observes new
state only on an explicit :meth:`SessionManager.refresh`.

The cost model is deliberately asymmetric: sessions (many, per
client) never copy anything; the writer (one, serialized) pays one
O(closure) copy per churn boundary that actually has live readers.

Snapshot reads never touch a :class:`HornEngine` — they probe the
frozen store's argument-position indexes directly
(:func:`~repro.inference.horn.query_store`), which is what makes them
safe under full request concurrency: a frozen store is never
mutated, so reads need no lock at all.
"""

from __future__ import annotations

import secrets
import threading
from dataclasses import dataclass, field

from repro.errors import ServingError
from repro.inference.horn import Atom, FactStore, query_store

__all__ = ["Session", "SessionManager", "snapshot_query", "snapshot_holds"]


#: Kept as a name of the public ``repro.serving`` API; the serving
#: code itself calls :func:`~repro.inference.horn.query_store`, the
#: engine's own probe choice, on the frozen store.
snapshot_query = query_store


def snapshot_holds(store: FactStore, atom: Atom) -> bool:
    """Is a ground atom in the frozen closure?"""
    return atom in store


@dataclass
class Session:
    """One client's pinned view of the closure."""

    session_id: str
    store: FactStore  # overlay; its base is the frozen snapshot
    engine_version: int
    queries: int = 0

    def query(self, pattern: Atom) -> list[dict[str, str]]:
        self.queries += 1
        return query_store(self.store, pattern)

    def holds(self, atom: Atom) -> bool:
        self.queries += 1
        return snapshot_holds(self.store, atom)


class SessionManager:
    """Creates, resolves, refreshes and retires sessions.

    ``limit`` bounds live sessions: at the cap, the least recently
    *created or refreshed* session is evicted (clients see a clean
    "unknown session" error and re-create).  The manager also answers
    the writer's one question — :meth:`pins` — does any live session
    pin this store object, i.e. must the writer detach before
    mutating?
    """

    def __init__(self, limit: int = 256) -> None:
        if limit < 1:
            raise ServingError(f"session limit must be >= 1, got {limit!r}")
        self.limit = limit
        self._lock = threading.Lock()
        # insertion-ordered: oldest created/refreshed first
        self._sessions: dict[str, Session] = {}
        self.created = 0
        self.evicted = 0

    def create(self, snapshot: FactStore, engine_version: int) -> Session:
        """A new session whose overlay pins ``snapshot``."""
        session = Session(
            session_id=secrets.token_hex(8),
            store=FactStore(base=snapshot),
            engine_version=engine_version,
        )
        with self._lock:
            self._sessions[session.session_id] = session
            self.created += 1
            while len(self._sessions) > self.limit:
                victim = next(iter(self._sessions))
                del self._sessions[victim]
                self.evicted += 1
        return session

    def get(self, session_id: str) -> Session:
        with self._lock:
            session = self._sessions.get(session_id)
        if session is None:
            raise ServingError(f"unknown session {session_id!r}")
        return session

    def refresh(
        self, session_id: str, snapshot: FactStore, engine_version: int
    ) -> Session:
        """Re-pin a session onto the current published snapshot."""
        with self._lock:
            if session_id not in self._sessions:
                raise ServingError(f"unknown session {session_id!r}")
            session = self._sessions.pop(session_id)
            session.store = FactStore(base=snapshot)
            session.engine_version = engine_version
            self._sessions[session_id] = session  # back of the LRU order
        return session

    def close(self, session_id: str) -> bool:
        with self._lock:
            return self._sessions.pop(session_id, None) is not None

    def pins(self, store: FactStore) -> bool:
        """Does any live session overlay exactly this store object?"""
        with self._lock:
            return any(
                session.store._base is store
                for session in self._sessions.values()
            )

    def count(self) -> int:
        with self._lock:
            return len(self._sessions)

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "active": len(self._sessions),
                "created": self.created,
                "evicted": self.evicted,
                "limit": self.limit,
            }
