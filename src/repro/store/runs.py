"""Persistent experiment rows with resume semantics and a job queue.

The bench harness runs sweeps shaped like (dataset × method × seed);
a paper-profile sweep takes hours, and a killed process used to throw
every completed cell away.  :class:`RunStore` turns each cell into a
durable SQLite row: the harness marks a cell ``running`` before the
fit, stores the full :class:`~repro.core.engine.AFEResult` payload on
completion, and — when resuming — serves completed cells straight from
the store instead of re-running them.

A cell is keyed by ``(dataset, method, seed, config_hash)``.  The
config hash covers every :class:`~repro.core.engine.EngineConfig`
field *except* the seed (the seed is its own axis), so changing any
hyperparameter invalidates old rows instead of silently replaying
results produced under different settings.

On top of the result rows, the same store doubles as an **atomically
claimable cell queue** for the :mod:`repro.fleet` leader/worker bench:
:meth:`RunStore.enqueue_cells` inserts pending cells carrying a
self-describing work spec, N workers on N hosts :meth:`claim_cell`
them under a lease token with a TTL, :meth:`heartbeat` extends a live
lease, and a leader :meth:`reap_expired` re-queues the cells of dead
workers (dead-lettering after ``max_retries``).  Every queue
transition runs inside one ``BEGIN IMMEDIATE`` SQLite transaction —
the write lock is taken before the candidate row is read, so two
concurrent workers can never claim the same cell.  Every lease ends
through one transition (``RunStore._end_lease``) that also closes the
lease's row in the ``queue_claims`` audit log, which records every
claim and its outcome — how tests and CI prove no cell ever ran twice.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sqlite3
import time
import uuid
from contextlib import contextmanager
from dataclasses import dataclass

from ..chaos import maybe_fault
from ..reliability import is_transient_sqlite_error
from .backends import SqliteConnectionOwner

__all__ = [
    "ClaimedCell",
    "QueueCell",
    "RunRecord",
    "RunStore",
    "config_hash",
]

#: Fields that must not invalidate stored cells.  The seed is its own
#: run-store axis; the ``eval_*`` knobs only choose *how* scores are
#: computed or cached (serial/pool and cached/uncached scores are
#: bit-equal), so resuming a serial sweep under ``eval_backend="pool"``
#: — or against a moved store file — must replay its completed cells
#: instead of re-running everything.
_HASH_EXCLUDED_FIELDS = (
    "seed",
    "eval_backend",
    "eval_workers",
    "eval_cache",
    "eval_store_path",
    "eval_speculation",
    "eval_timeout",
)


def config_hash(config) -> str:
    """Stable content hash of an engine configuration.

    Accepts any dataclass (``EngineConfig`` in practice).  The seed and
    the execution-only ``eval_*`` knobs are excluded (see
    ``_HASH_EXCLUDED_FIELDS``); remaining fields are serialized in
    sorted order so the hash survives field reordering.

    ``eval_fidelity`` is the one ``eval_*`` knob that *does* hash when
    set: unlike the backend/cache/speculation knobs it changes reported
    scores, so a fidelity-on sweep must occupy its own cells.  At the
    default ``"off"`` the field is dropped entirely, which keeps the
    hash byte-identical to configs from before the field existed —
    old run stores resume cleanly.
    """
    fields = dataclasses.asdict(config)
    for name in _HASH_EXCLUDED_FIELDS:
        fields.pop(name, None)
    if fields.get("eval_fidelity") == "off":
        fields.pop("eval_fidelity")
    serialized = json.dumps(fields, sort_keys=True, default=repr)
    return hashlib.blake2b(serialized.encode(), digest_size=16).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """One experiment cell as stored (metrics duplicated for querying)."""

    dataset: str
    method: str
    seed: int
    config_hash: str
    status: str  # "running" | "completed"
    best_score: float | None = None
    n_evaluations: int | None = None
    n_cache_hits: int | None = None
    n_cache_misses: int | None = None
    wall_time: float | None = None
    updated_at: float | None = None


@dataclass(frozen=True)
class QueueCell:
    """One queue row (fleet bookkeeping view, no work spec)."""

    dataset: str
    method: str
    seed: int
    config_hash: str
    status: str  # pending | claimed | running | completed | dead
    worker_id: str | None
    lease_expires: float | None
    heartbeat_at: float | None
    retries: int
    max_retries: int
    claim_count: int
    last_error: str | None
    enqueued_at: float
    updated_at: float

    @property
    def key(self) -> tuple[str, str, int, str]:
        return (self.dataset, self.method, self.seed, self.config_hash)


def _columns(record_type) -> str:
    """SELECT list of a row dataclass, in field order."""
    return ", ".join(field.name for field in dataclasses.fields(record_type))


#: Primary-key match shared by the ``runs`` and ``queue_cells`` tables.
_KEY_MATCH = "dataset = ? AND method = ? AND seed = ? AND config_hash = ?"

#: Upsert filter on ``runs``: a row yields to a new owner unless a
#: *different* owner is actively running it (``updated_at`` fresher
#: than the stale cutoff bound to the trailing ``?``).
_OWNER_GUARD = (
    " WHERE runs.status != 'running' OR runs.owner IS NULL"
    " OR runs.owner = excluded.owner OR runs.updated_at < ?"
)

#: A queue row holding a live lease.
_LEASED = "status IN ('claimed', 'running')"

#: Every way a lease ends: claim-log outcome -> (next status, whether
#: the attempt is charged to the retry budget).  A charged attempt that
#: spends ``max_retries`` dead-letters the cell instead.
_LEASE_ENDINGS = {
    "completed": ("completed", False),
    "released": ("pending", False),
    "failed": ("pending", True),
    "expired": ("pending", True),
}


@dataclass(frozen=True)
class ClaimedCell:
    """A successfully claimed cell: the work spec plus the lease token.

    The ``token`` authenticates every follow-up call (``heartbeat``,
    ``complete_cell``, ``fail_cell``, ``release_cell``): once a lease
    is reaped, the stale token stops matching and the zombie worker's
    writes become no-ops.
    """

    dataset: str
    method: str
    seed: int
    config_hash: str
    spec: str  # JSON work spec (see repro.fleet.spec.CellSpec)
    token: str
    retries: int
    lease_expires: float

    @property
    def key(self) -> tuple[str, str, int, str]:
        return (self.dataset, self.method, self.seed, self.config_hash)


class RunStore(SqliteConnectionOwner):
    """Durable (dataset, method, seed, config) → result rows.

    Inherits the fork-safe WAL/busy-timeout connection management of
    :class:`~repro.store.backends.SqliteConnectionOwner` and may live
    in the same database file as the score cache — the two subsystems
    use disjoint tables.

    A queue lease ends through one transition in one of four
    claim-log outcomes: ``completed`` (:meth:`complete_cell`),
    ``released`` (:meth:`release_cell`: back to ``pending``, no retry
    charged), ``failed`` (:meth:`fail_cell`) or ``expired``
    (:meth:`reap_expired`).  The last two charge one retry and re-queue
    the cell, or dead-letter it once ``max_retries`` attempts are spent.
    """

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS runs (
        dataset       TEXT NOT NULL,
        method        TEXT NOT NULL,
        seed          INTEGER NOT NULL,
        config_hash   TEXT NOT NULL,
        status        TEXT NOT NULL,
        best_score    REAL,
        n_evaluations INTEGER,
        n_cache_hits  INTEGER,
        n_cache_misses INTEGER,
        wall_time     REAL,
        payload       TEXT,
        updated_at    REAL NOT NULL,
        owner         TEXT,
        PRIMARY KEY (dataset, method, seed, config_hash)
    );
    CREATE TABLE IF NOT EXISTS queue_cells (
        dataset       TEXT NOT NULL,
        method        TEXT NOT NULL,
        seed          INTEGER NOT NULL,
        config_hash   TEXT NOT NULL,
        status        TEXT NOT NULL DEFAULT 'pending',
        spec          TEXT NOT NULL,
        worker_id     TEXT,
        lease_token   TEXT,
        lease_expires REAL,
        heartbeat_at  REAL,
        retries       INTEGER NOT NULL DEFAULT 0,
        max_retries   INTEGER NOT NULL DEFAULT 3,
        claim_count   INTEGER NOT NULL DEFAULT 0,
        last_error    TEXT,
        enqueued_at   REAL NOT NULL,
        updated_at    REAL NOT NULL,
        PRIMARY KEY (dataset, method, seed, config_hash)
    );
    CREATE TABLE IF NOT EXISTS queue_claims (
        claim_id     INTEGER PRIMARY KEY AUTOINCREMENT,
        dataset      TEXT NOT NULL,
        method       TEXT NOT NULL,
        seed         INTEGER NOT NULL,
        config_hash  TEXT NOT NULL,
        worker_id    TEXT NOT NULL,
        lease_token  TEXT NOT NULL,
        claimed_at   REAL NOT NULL,
        outcome      TEXT,
        resolved_at  REAL
    );
    CREATE TABLE IF NOT EXISTS store_counters (
        name  TEXT PRIMARY KEY,
        value INTEGER NOT NULL DEFAULT 0
    );
    """

    #: A ``running`` runs-row older than this is presumed dead and may
    #: be taken over by a new starter (see :meth:`start`).
    DEFAULT_STALE_AFTER = 300.0

    def _migrate(self, connection) -> None:
        # Stores created before the fleet PR lack the owner column
        # (CREATE TABLE IF NOT EXISTS never alters existing tables).
        columns = {
            row[1] for row in connection.execute("PRAGMA table_info(runs)")
        }
        if "owner" not in columns:
            connection.execute("ALTER TABLE runs ADD COLUMN owner TEXT")

    @contextmanager
    def _txn(self):
        """One write transaction holding the lock from the first read.

        ``BEGIN IMMEDIATE`` acquires SQLite's write lock up front, so a
        read-then-update sequence (claiming, reaping, retry counting)
        is atomic against every other store connection — concurrent
        writers queue behind the busy timeout instead of interleaving.
        """
        connection = self._connection()
        # Lock acquisition is where WAL contention surfaces; retry it
        # with deterministic backoff instead of erroring the caller.
        self.retry.call(connection.execute, "BEGIN IMMEDIATE")
        try:
            yield connection
        except BaseException:
            connection.execute("ROLLBACK")
            raise
        else:
            connection.execute("COMMIT")

    # -- durable counters --------------------------------------------------
    @staticmethod
    def _bump_counter(connection, name: str, amount: int = 1) -> None:
        connection.execute(
            "INSERT INTO store_counters (name, value) VALUES (?, ?)"
            " ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
            (name, amount),
        )

    def counter(self, name: str) -> int:
        """A durable operational counter (0 when never bumped)."""
        row = self._connection().execute(
            "SELECT value FROM store_counters WHERE name = ?", (name,)
        ).fetchone()
        return 0 if row is None else int(row[0])

    # -- writing -----------------------------------------------------------
    def _stale_cutoff(self, stale_after: float | None) -> float:
        """Timestamp before which a ``running`` row counts as abandoned."""
        if stale_after is None:
            stale_after = self.DEFAULT_STALE_AFTER
        return time.time() - stale_after

    def start(
        self,
        dataset: str,
        method: str,
        seed: int,
        config_hash: str,
        owner: str | None = None,
        stale_after: float | None = None,
    ) -> bool:
        """Mark a cell ``running``; return True iff this caller owns it.

        Two processes starting the same cell concurrently resolve to
        one winner: the first transitions the row to ``running`` under
        its owner token, the second's upsert is filtered out by the
        ``ON CONFLICT ... WHERE`` clause and returns False.  A loser
        may still run (results are deterministic) but its
        :meth:`finish` will defer to a live winner.  Ownership is
        reclaimable: completed cells can be re-started (that is what
        a non-resume re-run does) — the caller takes ownership but the
        stored payload stays readable until :meth:`finish` overwrites
        it — and a ``running`` row whose ``updated_at`` is older than
        ``stale_after`` seconds is presumed abandoned by a killed
        process.
        """
        owner = owner or f"pid:{os.getpid()}"
        with self._txn() as connection:
            connection.execute(
                "INSERT INTO runs (dataset, method, seed, config_hash,"
                " status, owner, updated_at)"
                " VALUES (?, ?, ?, ?, 'running', ?, ?) "
                "ON CONFLICT(dataset, method, seed, config_hash) DO UPDATE"
                " SET status = CASE WHEN runs.status = 'completed'"
                "   THEN 'completed' ELSE 'running' END,"
                " owner = excluded.owner,"
                " updated_at = excluded.updated_at" + _OWNER_GUARD,
                (dataset, method, seed, config_hash, owner, time.time(),
                 self._stale_cutoff(stale_after)),
            )
            row = connection.execute(
                "SELECT owner FROM runs WHERE " + _KEY_MATCH,
                (dataset, method, seed, config_hash),
            ).fetchone()
        return row is not None and row[0] == owner

    def finish(
        self,
        dataset: str,
        method: str,
        seed: int,
        config_hash: str,
        payload: dict,
        owner: str | None = None,
        stale_after: float | None = None,
    ) -> bool:
        """Store a completed cell's full result payload plus metrics.

        Without ``owner`` the write is unconditional (legacy
        last-writer-wins).  With one, the write defers to a *different*
        owner actively running the cell (fresh ``updated_at``): the
        loser of a concurrent :meth:`start` race returns False here and
        the winner's payload is the one that lands.  Completed rows and
        stale running rows are always overwritable.
        """
        guard = ""
        parameters: list = [
            dataset, method, seed, config_hash,
            *(payload.get(name) for name in (
                "best_score", "n_downstream_evaluations", "n_cache_hits",
                "n_cache_misses", "wall_time",
            )),
            json.dumps(payload), time.time(), owner,
        ]
        if owner is not None:
            guard = _OWNER_GUARD
            parameters.append(self._stale_cutoff(stale_after))
        with self._txn() as connection:
            changed = connection.execute(
                "INSERT INTO runs (dataset, method, seed, config_hash,"
                " status, best_score, n_evaluations, n_cache_hits,"
                " n_cache_misses, wall_time, payload, updated_at, owner)"
                " VALUES (?, ?, ?, ?, 'completed', ?, ?, ?, ?, ?, ?, ?, ?) "
                "ON CONFLICT(dataset, method, seed, config_hash) DO UPDATE"
                " SET status = 'completed',"
                " best_score = excluded.best_score,"
                " n_evaluations = excluded.n_evaluations,"
                " n_cache_hits = excluded.n_cache_hits,"
                " n_cache_misses = excluded.n_cache_misses,"
                " wall_time = excluded.wall_time,"
                " payload = excluded.payload,"
                " updated_at = excluded.updated_at,"
                " owner = excluded.owner" + guard,
                parameters,
            ).rowcount
        return bool(changed)

    # -- reading -----------------------------------------------------------
    def completed_payload(
        self, dataset: str, method: str, seed: int, config_hash: str
    ) -> dict | None:
        """Stored result of a completed cell, or ``None``.

        Rows left in ``running`` state by a killed process return
        ``None`` — a resumed sweep re-runs them.
        """
        row = self._connection().execute(
            "SELECT payload FROM runs WHERE status = 'completed' AND "
            + _KEY_MATCH,
            (dataset, method, seed, config_hash),
        ).fetchone()
        if row is None or row[0] is None:
            return None
        return json.loads(row[0])

    def completed_plan(
        self, dataset: str, method: str, seed: int, config_hash: str
    ) -> dict | None:
        """Stored :class:`~repro.api.FeaturePlan` payload of a cell.

        The bench harness persists the deployable plan document inside
        each completed cell's payload (``feature_plan`` key), so a warm
        store yields artifacts, not just scores.  Returns ``None`` for
        incomplete cells and for methods without a portable plan (e.g.
        learned-representation baselines).  Rebuild with
        ``FeaturePlan.from_dict(payload)``.
        """
        payload = self.completed_payload(dataset, method, seed, config_hash)
        if payload is None:
            return None
        return payload.get("feature_plan")

    def plans(
        self,
        dataset: str | None = None,
        method: str | None = None,
        seed: int | None = None,
    ) -> list[tuple[RunRecord, dict]]:
        """Every completed cell that carries a feature-plan artifact.

        Optional dataset/method/seed filters narrow the cells — the
        same axes the store CLI and registry ingestion
        (:meth:`repro.serve.PlanRegistry.publish_runs`) select on.

        One pass with SQLite's ``json_extract`` pulls just the plan
        documents — payloads also carry the (much larger) serialized
        feature matrices, which never leave the database here.  Builds
        without the JSON1 extension fall back to parsing payloads in
        Python.
        """
        filters = ""
        parameters: list = []
        for column, value in (
            ("dataset", dataset), ("method", method), ("seed", seed),
        ):
            if value is not None:
                filters += f" AND {column} = ?"
                parameters.append(value)

        def query():
            return self._connection().execute(
                f"SELECT {_columns(RunRecord)},"
                " json_extract(payload, '$.feature_plan')"
                " FROM runs WHERE status = 'completed'"
                " AND json_extract(payload, '$.feature_plan') IS NOT NULL"
                + filters
                + " ORDER BY dataset, method, seed",
                parameters,
            ).fetchall()

        try:
            # Transient busy/locked contention retries with backoff
            # inside the policy; only persistent failures escape.
            rows = self.retry.call(query)
            return [
                (RunRecord(*row[:-1]), json.loads(row[-1])) for row in rows
            ]
        except sqlite3.OperationalError as error:
            if "no such function" in str(error).lower():
                # Build without the JSON1 extension — the one condition
                # the Python fallback exists for.
                return self._plans_fallback(dataset, method, seed)
            if is_transient_sqlite_error(error):
                # Retry budget exhausted on contention: propagate as-is
                # so callers see the true (retryable) condition.
                raise
            raise sqlite3.OperationalError(
                f"plans() query failed on run store {self.path!r}; the"
                f" database is unreadable, not merely busy: {error}"
            ) from error

    def _plans_fallback(
        self,
        dataset: str | None,
        method: str | None,
        seed: int | None,
    ) -> list[tuple[RunRecord, dict]]:
        """Parse payloads in Python (JSON1-less SQLite builds)."""
        out: list[tuple[RunRecord, dict]] = []
        for record in self.records(status="completed"):
            if (
                (dataset is not None and record.dataset != dataset)
                or (method is not None and record.method != method)
                or (seed is not None and record.seed != seed)
            ):
                continue
            plan = self.completed_plan(
                record.dataset, record.method, record.seed,
                record.config_hash,
            )
            if plan is not None:
                out.append((record, plan))
        return out

    def _select(self, record_type, table: str, status: str | None,
                order: str) -> list:
        """Every row of ``table`` as ``record_type`` (optional status)."""
        query = f"SELECT {_columns(record_type)} FROM {table}"
        parameters: tuple = ()
        if status is not None:
            query += " WHERE status = ?"
            parameters = (status,)
        return [
            record_type(*row)
            for row in self._connection().execute(
                f"{query} ORDER BY {order}", parameters
            )
        ]

    def records(self, status: str | None = None) -> list[RunRecord]:
        """Every stored cell (optionally filtered by status)."""
        return self._select(
            RunRecord, "runs", status, "dataset, method, seed"
        )

    def counts(self) -> dict[str, int]:
        """Row counts by status, e.g. ``{"completed": 12, "running": 1}``."""
        return {
            status: int(count)
            for status, count in self._connection().execute(
                "SELECT status, COUNT(*) FROM runs GROUP BY status"
            )
        }

    def __len__(self) -> int:
        row = self._connection().execute("SELECT COUNT(*) FROM runs").fetchone()
        return int(row[0])

    def clear(self) -> None:
        """Drop every run row."""
        self._connection().execute("DELETE FROM runs")

    # -- fleet queue: enqueue ---------------------------------------------
    def enqueue_cells(
        self,
        cells: list[tuple[str, str, int, str, str]],
        max_retries: int = 3,
        requeue_dead: bool = False,
    ) -> int:
        """Insert pending queue cells; returns how many are new.

        Each cell is ``(dataset, method, seed, config_hash, spec)``
        where ``spec`` is the self-describing JSON work document a
        worker materializes (see :mod:`repro.fleet.spec`).  Enqueueing
        is idempotent: cells already pending, claimed, running, or
        completed are left untouched, so a leader may re-enqueue the
        same sweep at any time.  ``requeue_dead`` additionally revives
        dead-lettered cells with a fresh retry budget; revived cells
        count toward the return value (they are newly pending).
        """
        if max_retries < 1:
            raise ValueError("max_retries must be positive")
        now = time.time()
        inserted = 0
        with self._txn() as connection:
            for dataset, method, seed, cell_hash, spec in cells:
                inserted += connection.execute(
                    "INSERT INTO queue_cells (dataset, method, seed,"
                    " config_hash, status, spec, max_retries, enqueued_at,"
                    " updated_at) VALUES (?, ?, ?, ?, 'pending', ?, ?, ?, ?)"
                    " ON CONFLICT(dataset, method, seed, config_hash)"
                    " DO NOTHING",
                    (dataset, method, seed, cell_hash, spec, max_retries,
                     now, now),
                ).rowcount
                if requeue_dead:
                    # Dead rows hold no lease: _end_lease cleared it.
                    inserted += connection.execute(
                        "UPDATE queue_cells SET status = 'pending',"
                        " retries = 0, last_error = NULL, max_retries = ?,"
                        " updated_at = ? WHERE status = 'dead' AND "
                        + _KEY_MATCH,
                        (max_retries, now, dataset, method, seed, cell_hash),
                    ).rowcount
        return inserted

    # -- fleet queue: worker protocol -------------------------------------
    def claim_cell(
        self, worker_id: str, lease_ttl: float = 60.0
    ) -> ClaimedCell | None:
        """Atomically claim the oldest pending cell, or ``None``.

        The claim runs in one immediate transaction: the write lock is
        held before the candidate row is read, so concurrent workers
        serialize and never double-claim.  The returned lease expires
        ``lease_ttl`` seconds from now unless extended by
        :meth:`heartbeat`; an expired lease is re-queued by
        :meth:`reap_expired` (the leader's watchdog).
        """
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        maybe_fault("runs.claim")
        now = time.time()
        token = uuid.uuid4().hex
        expires = now + lease_ttl
        with self._txn() as connection:
            row = connection.execute(
                "SELECT dataset, method, seed, config_hash, spec, retries"
                " FROM queue_cells WHERE status = 'pending'"
                " ORDER BY enqueued_at, dataset, method, seed LIMIT 1"
            ).fetchone()
            if row is None:
                # Durable idle-poll tally: how often workers found the
                # queue drained (surfaced by `python -m repro.store
                # stats` as n_claim_retries).
                self._bump_counter(connection, "claim_retries")
                return None
            dataset, method, seed, cell_hash, spec, retries = row
            connection.execute(
                "UPDATE queue_cells SET status = 'claimed', worker_id = ?,"
                " lease_token = ?, lease_expires = ?, heartbeat_at = ?,"
                " claim_count = claim_count + 1, updated_at = ? WHERE "
                + _KEY_MATCH,
                (worker_id, token, expires, now, now, dataset, method, seed,
                 cell_hash),
            )
            connection.execute(
                "INSERT INTO queue_claims (dataset, method, seed,"
                " config_hash, worker_id, lease_token, claimed_at)"
                " VALUES (?, ?, ?, ?, ?, ?, ?)",
                (dataset, method, seed, cell_hash, worker_id, token, now),
            )
        return ClaimedCell(
            *row[:5], token=token, retries=retries, lease_expires=expires
        )

    def mark_running(self, token: str) -> bool:
        """Transition a claimed cell to ``running`` (work has begun)."""
        return bool(self._connection().execute(
            "UPDATE queue_cells SET status = 'running', updated_at = ?"
            " WHERE lease_token = ? AND status = 'claimed'",
            (time.time(), token),
        ).rowcount)

    def heartbeat(self, token: str, lease_ttl: float = 60.0) -> bool:
        """Extend a live lease; False means the lease was reaped.

        A worker whose heartbeat returns False has lost the cell (the
        leader presumed it dead and re-queued the work); it should
        abandon the cell — its completion token no longer matches, so
        any late write is a no-op.
        """
        now = time.time()
        return bool(self._connection().execute(
            "UPDATE queue_cells SET heartbeat_at = ?, lease_expires = ?"
            f" WHERE lease_token = ? AND {_LEASED}",
            (now, now + lease_ttl, token),
        ).rowcount)

    @staticmethod
    def _end_lease(
        connection,
        token: str,
        outcome: str,
        now: float | None = None,
        error: str | None = None,
    ) -> bool:
        """End the live lease ``token`` as ``outcome``; False if stale.

        The one lease-ending transition, run inside the caller's
        :meth:`_txn`: it picks the next status from ``_LEASE_ENDINGS``,
        charges a retry where the outcome requires one (dead-lettering
        once ``max_retries`` attempts are spent), clears the lease
        columns and closes the lease's ``queue_claims`` row.  A
        ``failed`` outcome records ``error``; an ``expired`` one keeps
        an earlier error or records ``"lease expired"``.
        """
        now = time.time() if now is None else now
        row = connection.execute(
            "SELECT retries, max_retries, last_error FROM queue_cells"
            f" WHERE lease_token = ? AND {_LEASED}",
            (token,),
        ).fetchone()
        if row is None:
            return False
        retries, max_retries, last_error = row
        status, charged = _LEASE_ENDINGS[outcome]
        if charged:
            retries += 1
            if retries >= max_retries:
                status = "dead"
        if outcome == "failed":
            last_error = error
        elif outcome == "expired" and last_error is None:
            last_error = "lease expired"
        connection.execute(
            "UPDATE queue_cells SET status = ?, retries = ?, last_error = ?,"
            " worker_id = NULL, lease_token = NULL, lease_expires = NULL,"
            " heartbeat_at = NULL, updated_at = ? WHERE lease_token = ?",
            (status, retries, last_error, now, token),
        )
        connection.execute(
            "UPDATE queue_claims SET outcome = ?, resolved_at = ?"
            " WHERE lease_token = ? AND outcome IS NULL",
            (outcome, now, token),
        )
        return True

    def complete_cell(self, token: str) -> bool:
        """Mark a leased cell completed; False on a stale token."""
        with self._txn() as connection:
            return self._end_lease(connection, token, "completed")

    def release_cell(self, token: str) -> bool:
        """Return a leased cell to pending without charging a retry."""
        with self._txn() as connection:
            return self._end_lease(connection, token, "released")

    def fail_cell(self, token: str, error: str | None = None) -> bool:
        """Charge a failed attempt: re-queue, or dead-letter when the
        retry budget (``max_retries`` attempts in total) is spent."""
        with self._txn() as connection:
            return self._end_lease(connection, token, "failed", error=error)

    # -- fleet queue: leader protocol -------------------------------------
    def reap_expired(self, now: float | None = None) -> list[QueueCell]:
        """Re-queue (or dead-letter) every cell with an expired lease.

        The leader's watchdog calls this periodically: cells whose
        worker stopped heartbeating past the lease TTL are presumed
        dead and their leases end as ``expired`` — one retry charged,
        then claimable again or dead-lettered once ``max_retries``
        attempts are spent.  Returns the reaped cells (post-transition
        state) so callers can log exactly what was re-queued.  Safe to
        call concurrently: the whole sweep is one immediate
        transaction, so each expired lease is reaped exactly once.
        """
        now = time.time() if now is None else now
        reaped: list[QueueCell] = []
        with self._txn() as connection:
            rows = connection.execute(
                "SELECT lease_token, dataset, method, seed, config_hash"
                f" FROM queue_cells WHERE {_LEASED} AND lease_expires < ?",
                (now,),
            ).fetchall()
            for token, *key in rows:
                self._end_lease(connection, token, "expired", now)
                reaped.append(QueueCell(*connection.execute(
                    f"SELECT {_columns(QueueCell)} FROM queue_cells"
                    " WHERE " + _KEY_MATCH,
                    key,
                ).fetchone()))
        return reaped

    def prune_queue_debris(self, now: float | None = None) -> dict[str, int]:
        """Maintenance sweep: reap expired leases, close orphan claims.

        Called by ``python -m repro.store vacuum``.  Returns counts of
        what was cleaned: ``reaped`` expired leases (re-queued or
        dead-lettered) and ``orphan_claims`` — open audit rows whose
        lease token no longer matches any live cell (debris left by
        processes killed between claiming and resolving).
        """
        now = time.time() if now is None else now
        reaped = len(self.reap_expired(now))
        with self._txn() as connection:
            orphans = connection.execute(
                "UPDATE queue_claims SET outcome = 'expired',"
                " resolved_at = ? WHERE outcome IS NULL AND lease_token"
                " NOT IN (SELECT lease_token FROM queue_cells"
                "         WHERE lease_token IS NOT NULL)",
                (now,),
            ).rowcount
        return {"reaped": reaped, "orphan_claims": int(orphans)}

    # -- fleet queue: introspection ---------------------------------------
    def queue_cells(self, status: str | None = None) -> list[QueueCell]:
        """Every queue row (optionally filtered by status)."""
        return self._select(
            QueueCell, "queue_cells", status,
            "enqueued_at, dataset, method, seed",
        )

    def queue_counts(self) -> dict[str, int]:
        """Queue rows by status, e.g. ``{"pending": 3, "claimed": 2}``."""
        return {
            status: int(count)
            for status, count in self._connection().execute(
                "SELECT status, COUNT(*) FROM queue_cells GROUP BY status"
            )
        }

    def queue_depth(self) -> int:
        """Cells still owed work: pending + claimed + running."""
        row = self._connection().execute(
            "SELECT COUNT(*) FROM queue_cells"
            " WHERE status IN ('pending', 'claimed', 'running')"
        ).fetchone()
        return int(row[0])

    def lease_ages(self, now: float | None = None) -> list[float]:
        """Seconds since the last heartbeat of every active lease."""
        now = time.time() if now is None else now
        return [
            now - heartbeat
            for (heartbeat,) in self._connection().execute(
                "SELECT heartbeat_at FROM queue_cells"
                " WHERE status IN ('claimed', 'running')"
                " AND heartbeat_at IS NOT NULL"
            )
        ]

    def claim_log(self) -> list[dict]:
        """The full claim audit trail, oldest first.

        One row per successful :meth:`claim_cell`; ``outcome`` is
        ``None`` while the lease is live, else one of ``completed``,
        ``failed``, ``released``, ``expired``.  CI's multi-worker smoke
        asserts every completed cell appears here exactly once with
        outcome ``completed``.
        """
        columns = (
            "dataset", "method", "seed", "config_hash", "worker_id",
            "claimed_at", "outcome", "resolved_at",
        )
        return [
            dict(zip(columns, row))
            for row in self._connection().execute(
                f"SELECT {', '.join(columns)} FROM queue_claims"
                " ORDER BY claim_id"
            )
        ]

    def clear_queue(self) -> None:
        """Drop every queue cell and claim-log row."""
        with self._txn() as connection:
            connection.execute("DELETE FROM queue_cells")
            connection.execute("DELETE FROM queue_claims")
