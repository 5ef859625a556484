"""Pluggable score-cache backends for the evaluation service.

The evaluation layer memoizes downstream CV scores by candidate
fingerprint.  A per-process dict alone means every fresh process
(multi-seed benches, repeated runs) starts cold.  This module makes the
store pluggable:

* :class:`MemoryBackend` — the original bounded in-process dict; zero
  dependencies, zero I/O, dies with the process.
* :class:`SqliteBackend` — a durable stdlib-``sqlite3`` store in WAL
  mode, safe for concurrent readers and writers across OS processes.
  Two runs (or two pool workers) pointed at the same file observe each
  other's scores: a warm second run of an identical engine ``fit()``
  performs zero real downstream fits.
* :class:`WriteThroughBackend` — a memory front over a durable back.
  Lookups hit the dict first (no I/O on the hot path of a single run);
  misses fall through to the durable layer and are promoted; writes go
  to both.  This is the policy :func:`make_eval_backend` installs when
  a store path is configured.

Backends only need ``get``/``put``/``__len__``/``clear`` — the
:class:`CacheBackend` base documents the contract, and any duck-typed
object satisfying it plugs into
:class:`~repro.eval.service.EvaluationService`.
"""

from __future__ import annotations

import os
import sqlite3
import threading

from ..chaos import maybe_fault
from ..reliability import sqlite_retry_policy

__all__ = [
    "CacheBackend",
    "FIDELITY_KEY_MARKER",
    "MemoryBackend",
    "SqliteBackend",
    "SqliteConnectionOwner",
    "WriteThroughBackend",
    "fidelity_namespace",
    "make_eval_backend",
]

#: Suffix marker separating a cache key from its fidelity namespace.
#:
#: Full-CV scores live under unmarked keys — exactly the key format of
#: every PR before the fidelity ladder existed, so old stores stay
#: valid.  Low-fidelity (rung-0) scores append ``|fid=<rung-token>``,
#: e.g. ``...|fid=1x0.5`` for one fold at half the rows.  A full-CV
#: lookup can therefore never return an approximate score, no matter
#: which runs warmed the store.  ``|`` cannot appear in the hex digests
#: and tokens that make up a key, so the marker is unambiguous.
FIDELITY_KEY_MARKER = "|fid="


def fidelity_namespace(key: str) -> str:
    """Namespace of a cache key: ``"full"`` or the rung token."""
    position = key.find(FIDELITY_KEY_MARKER)
    if position < 0:
        return "full"
    return key[position + len(FIDELITY_KEY_MARKER):]


class CacheBackend:
    """Contract every score-cache backend implements.

    Keys are the evaluation service's flat fingerprint strings (they
    already encode evaluator parameters, target, base matrix, and
    candidate content); values are downstream CV scores.  A backend
    never invents scores: ``get`` returns exactly what some ``put``
    stored, or ``None``.
    """

    def get(self, key: str) -> float | None:
        """Stored score for ``key``, or ``None`` on a miss."""
        raise NotImplementedError

    def put(self, key: str, score: float) -> None:
        """Store ``score`` under ``key`` (last write wins)."""
        raise NotImplementedError

    def put_many(self, items: list[tuple[str, float]]) -> None:
        """Store many scores; durable backends batch the commit."""
        for key, score in items:
            self.put(key, score)

    def __len__(self) -> int:
        raise NotImplementedError

    def clear(self) -> None:
        """Drop every entry."""
        raise NotImplementedError

    def close(self) -> None:
        """Release external resources (no-op for in-memory backends)."""

    def fidelity_counts(self) -> dict[str, int]:
        """Entry counts per fidelity namespace (``"full"`` + rung tokens)."""
        raise NotImplementedError


class MemoryBackend(CacheBackend):
    """Bounded in-process score store (the default cache backend).

    FIFO eviction — a score is cheap to recompute and the bound only
    exists to keep unbounded sweeps from accumulating forever.
    """

    def __init__(self, max_entries: int = 65536) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._max_entries = max_entries
        self._scores: dict[str, float] = {}

    def __len__(self) -> int:
        return len(self._scores)

    def get(self, key: str) -> float | None:
        return self._scores.get(key)

    def put(self, key: str, score: float) -> None:
        if len(self._scores) >= self._max_entries and key not in self._scores:
            self._scores.pop(next(iter(self._scores)))
        self._scores[key] = score

    def clear(self) -> None:
        self._scores.clear()

    def fidelity_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for key in self._scores:
            namespace = fidelity_namespace(key)
            counts[namespace] = counts.get(namespace, 0) + 1
        return counts


class SqliteConnectionOwner:
    """Fork-safe, WAL-mode SQLite connection management.

    Shared by :class:`SqliteBackend` and
    :class:`~repro.store.runs.RunStore` (subclasses set ``_SCHEMA``).
    WAL journaling lets concurrent readers proceed while one writer
    commits, and a generous busy timeout serializes concurrent writers
    without erroring out — two processes hammering the same file never
    corrupt it, they only wait.  Connections are lazily re-opened after
    a ``fork`` (a connection must never cross a process boundary), so
    an owner captured by ``multiprocessing`` workers stays safe.
    """

    _SCHEMA = ""  # subclasses provide their CREATE TABLE statement

    def __init__(self, path: str, timeout: float = 30.0) -> None:
        self.path = os.fspath(path)
        self.timeout = timeout
        self._local = threading.local()
        self._pid = os.getpid()
        # Busy/locked contention and injected store faults retry with
        # deterministic backoff instead of surfacing to callers.
        self.retry = sqlite_retry_policy(name=type(self).__name__.lower())
        # Fail fast on an unusable path and create the schema eagerly.
        self._connection().execute("SELECT 1")

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(
            self.path, timeout=self.timeout, isolation_level=None
        )
        try:
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(
                f"PRAGMA busy_timeout={int(self.timeout * 1000)}"
            )
            # executescript, not execute: an owner's schema may hold
            # several CREATE TABLE statements (the run store adds queue
            # tables).
            connection.executescript(self._SCHEMA)
            self._migrate(connection)
        except BaseException:
            connection.close()
            raise
        return connection

    def _migrate(self, connection: sqlite3.Connection) -> None:
        """Upgrade pre-existing tables (``CREATE IF NOT EXISTS`` only
        covers new files); subclasses override."""

    def _connection(self) -> sqlite3.Connection:
        if os.getpid() != self._pid:
            # Forked child: the inherited connection belongs to the
            # parent.  Drop it (without closing the parent's handle)
            # and reconnect locally.
            self._local = threading.local()
            self._pid = os.getpid()
        connection = getattr(self._local, "connection", None)
        if connection is None:
            # Switching a fresh file to WAL needs an exclusive lock that
            # SQLite does not wait for: processes opening the same new
            # file at once get "database is locked" straight away, so
            # the whole open retries like any other contended statement.
            connection = self.retry.call(self._connect)
            self._local.connection = connection
        return connection

    def close(self) -> None:
        connection = getattr(self._local, "connection", None)
        if connection is not None and os.getpid() == self._pid:
            connection.close()
        self._local = threading.local()


class SqliteBackend(SqliteConnectionOwner, CacheBackend):
    """Durable score store over stdlib ``sqlite3``.

    See :class:`SqliteConnectionOwner` for the concurrency story.
    """

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS eval_scores (
        key   TEXT PRIMARY KEY,
        score REAL NOT NULL
    )
    """

    def get(self, key: str) -> float | None:
        return self.retry.call(self._get_once, key)

    def _get_once(self, key: str) -> float | None:
        maybe_fault("store.get")
        row = self._connection().execute(
            "SELECT score FROM eval_scores WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else float(row[0])

    def put(self, key: str, score: float) -> None:
        self.retry.call(self._put_once, key, score)

    def _put_once(self, key: str, score: float) -> None:
        maybe_fault("store.put")
        self._connection().execute(
            "INSERT INTO eval_scores (key, score) VALUES (?, ?) "
            "ON CONFLICT(key) DO UPDATE SET score = excluded.score",
            (key, float(score)),
        )

    def put_many(self, items: list[tuple[str, float]]) -> None:
        """Store many scores in one transaction (one fsync, not N)."""
        if not items:
            return
        self.retry.call(self._put_many_once, items)

    def _put_many_once(self, items: list[tuple[str, float]]) -> None:
        maybe_fault("store.put")
        connection = self._connection()
        with connection:  # BEGIN ... COMMIT around the batch
            connection.executemany(
                "INSERT INTO eval_scores (key, score) VALUES (?, ?) "
                "ON CONFLICT(key) DO UPDATE SET score = excluded.score",
                [(key, float(score)) for key, score in items],
            )

    def __len__(self) -> int:
        row = self._connection().execute(
            "SELECT COUNT(*) FROM eval_scores"
        ).fetchone()
        return int(row[0])

    def clear(self) -> None:
        self._connection().execute("DELETE FROM eval_scores")

    def items(self):
        """Iterate ``(key, score)`` pairs (export / debugging)."""
        yield from self._connection().execute(
            "SELECT key, score FROM eval_scores ORDER BY key"
        )

    def vacuum(self) -> None:
        """Reclaim space from deleted rows and compact the WAL."""
        connection = self._connection()
        connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        connection.execute("VACUUM")

    def integrity_ok(self) -> bool:
        """Run SQLite's integrity check (True = database is sound)."""
        row = self._connection().execute("PRAGMA integrity_check").fetchone()
        return row is not None and row[0] == "ok"

    def fidelity_counts(self) -> dict[str, int]:
        marker_length = len(FIDELITY_KEY_MARKER)
        rows = self._connection().execute(
            "SELECT CASE WHEN instr(key, ?) = 0 THEN 'full' "
            f"ELSE substr(key, instr(key, ?) + {marker_length}) END "
            "AS namespace, COUNT(*) FROM eval_scores GROUP BY namespace",
            (FIDELITY_KEY_MARKER, FIDELITY_KEY_MARKER),
        ).fetchall()
        return {str(namespace): int(count) for namespace, count in rows}


class WriteThroughBackend(CacheBackend):
    """Memory front + durable back: the shared-store lookup policy.

    ``get`` consults the in-process front first; a front miss falls
    through to the durable back and promotes the hit so repeated
    lookups in one run never touch the disk again.  ``put`` writes
    through to both layers, so every process pointed at the same back
    observes every other process's scores.
    """

    def __init__(self, front: CacheBackend, back: CacheBackend) -> None:
        self.front = front
        self.back = back

    def get(self, key: str) -> float | None:
        score = self.front.get(key)
        if score is not None:
            return score
        score = self.back.get(key)
        if score is not None:
            self.front.put(key, score)
        return score

    def put(self, key: str, score: float) -> None:
        self.front.put(key, score)
        self.back.put(key, score)

    def put_many(self, items: list[tuple[str, float]]) -> None:
        for key, score in items:
            self.front.put(key, score)
        self.back.put_many(items)

    def __len__(self) -> int:
        return len(self.back)

    def clear(self) -> None:
        self.front.clear()
        self.back.clear()

    def close(self) -> None:
        self.front.close()
        self.back.close()

    def fidelity_counts(self) -> dict[str, int]:
        # The durable back is the source of truth (the front only ever
        # holds a subset it wrote or promoted).
        return self.back.fidelity_counts()


def make_eval_backend(path: str | None = None) -> CacheBackend:
    """Build the score cache every engine and baseline should use.

    Without a store path, this is a plain :class:`MemoryBackend`.  With
    one, it is a :class:`WriteThroughBackend` over a
    :class:`SqliteBackend`, so hits are shared across processes and
    persist across runs.
    """
    if not path:
        return MemoryBackend()
    return WriteThroughBackend(MemoryBackend(), SqliteBackend(path))
