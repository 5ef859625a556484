"""The fleet worker: claim → heartbeat → run → complete, repeat.

One worker process drains cells from a shared store::

    python -m repro.fleet worker sweep.db --worker-id w0

Each claimed cell runs through the existing
:func:`repro.bench.harness.run_single` choke point, so everything the
single-machine bench provides comes for free: the shared SQLite score
cache (all workers write through to the same file), feature-plan
persistence, and resume semantics — a re-queued cell whose previous
owner actually finished is replayed from the store instead of re-fit,
and either way the stored payload is bit-identical to a serial
``--resume`` run.

While the fit runs, a daemon thread heartbeats the lease from the
side; if a heartbeat reports the lease lost (the leader presumed this
worker dead and re-queued the cell), the worker abandons the cell at
the next boundary — its stale token makes any late completion a
no-op, so a zombie can never corrupt the queue.
"""

from __future__ import annotations

import os
import random
import socket
import threading
import time
import traceback
import uuid
from dataclasses import dataclass, field

from ..chaos import maybe_fault
from ..reliability import sqlite_retry_policy
from ..store import ClaimedCell, RunStore
from .spec import CellSpec

__all__ = ["FleetWorker", "WorkerStats"]


@dataclass
class WorkerStats:
    """What one worker process did with its claims."""

    worker_id: str = ""
    claimed: int = 0
    completed: int = 0
    replayed: int = 0  # completed via store replay (no fit)
    failed: int = 0
    lost: int = 0  # lease reaped mid-cell; completion was a no-op
    heartbeats: int = 0
    claim_retries: int = 0  # idle polls that found the queue drained
    heartbeat_faults: int = 0  # beats dropped by errors / chaos faults
    errors: list[str] = field(default_factory=list)


class FleetWorker:
    """Claims and runs queue cells until the sweep is drained.

    Parameters
    ----------
    store:
        Path to the shared store file, or an open :class:`RunStore`.
    worker_id:
        Stable identity in the claim log; defaults to ``host:pid``.
    lease_ttl:
        Seconds a claim stays valid without a heartbeat.  Heartbeats
        fire every ``lease_ttl / 3`` seconds, so a live worker keeps
        its lease indefinitely while a SIGKILLed one loses it within
        one TTL.
    poll_interval:
        Base idle sleep between claim attempts when the queue is
        empty.  Consecutive empty polls back off exponentially (with
        deterministic per-worker jitter) up to ``max_poll_interval``,
        so a drained queue with many workers stops hammering the WAL
        file; any successful claim resets the backoff.
    max_poll_interval:
        Cap on the idle backoff (clamped to at least
        ``poll_interval``).
    max_cells:
        Stop after this many claim resolutions (None: unbounded).
    follow:
        Keep polling after the queue drains (a long-lived fleet
        member); the default exits once no cell is pending, claimed,
        or running — the right shape for sweep-scoped workers and CI.
    """

    def __init__(
        self,
        store: RunStore | str,
        worker_id: str | None = None,
        lease_ttl: float = 60.0,
        poll_interval: float = 0.5,
        max_poll_interval: float = 5.0,
        max_cells: int | None = None,
        follow: bool = False,
    ) -> None:
        if lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if poll_interval <= 0:
            raise ValueError("poll_interval must be positive")
        self.store = store if isinstance(store, RunStore) else RunStore(store)
        self.worker_id = worker_id or (
            f"{socket.gethostname()}:{os.getpid()}"
        )
        self.lease_ttl = lease_ttl
        self.poll_interval = poll_interval
        self.max_poll_interval = max(max_poll_interval, poll_interval)
        self.max_cells = max_cells
        self.follow = follow
        self._stop = threading.Event()
        # Claim/heartbeat traffic shares one retry policy; the jitter
        # RNG is seeded from the worker identity so each worker's idle
        # schedule is deterministic yet decorrelated from its peers.
        self._retry = sqlite_retry_policy(name="fleet-worker")
        self._jitter = random.Random(f"fleet-idle:{self.worker_id}")

    def stop(self) -> None:
        """Ask the loop to exit at the next cell boundary."""
        self._stop.set()

    def _idle_delay(self, streak: int) -> float:
        """Backoff before the next claim poll after ``streak`` misses.

        Exponential from ``poll_interval`` capped at
        ``max_poll_interval``, spread by ±25% deterministic jitter so a
        fleet of workers that drained the queue together doesn't wake
        in lockstep forever.
        """
        backoff = min(
            self.poll_interval * 2.0 ** max(streak - 1, 0),
            self.max_poll_interval,
        )
        return backoff * (1.0 + 0.25 * (2.0 * self._jitter.random() - 1.0))

    # -- the loop ----------------------------------------------------------
    def run(self) -> WorkerStats:
        """Drain the queue; returns what happened."""
        stats = WorkerStats(worker_id=self.worker_id)
        idle_streak = 0
        while not self._stop.is_set():
            if (
                self.max_cells is not None
                and stats.claimed >= self.max_cells
            ):
                break
            claim = self._retry.call(
                self.store.claim_cell, self.worker_id,
                lease_ttl=self.lease_ttl,
            )
            if claim is None:
                if not self.follow and self.store.queue_depth() == 0:
                    break
                idle_streak += 1
                stats.claim_retries += 1
                if self._stop.wait(self._idle_delay(idle_streak)):
                    break
                continue
            idle_streak = 0
            stats.claimed += 1
            self._run_cell(claim, stats)
        return stats

    def _run_cell(self, claim: ClaimedCell, stats: WorkerStats) -> None:
        heartbeat_stop = threading.Event()
        lease_lost = threading.Event()

        def beat() -> None:
            interval = max(self.lease_ttl / 3.0, 0.05)
            while not heartbeat_stop.wait(interval):
                try:
                    # An injected heartbeat fault (or exhausted store
                    # retry) drops this beat on the floor — exactly a
                    # lost packet.  The lease shortens but stays valid
                    # until the TTL truly lapses; if the leader reaps
                    # it, the next successful beat reports lease-lost.
                    maybe_fault("fleet.heartbeat")
                    alive = self._retry.call(
                        self.store.heartbeat, claim.token, self.lease_ttl
                    )
                except Exception:  # noqa: BLE001 — incl. FaultInjected
                    stats.heartbeat_faults += 1
                    continue
                if alive:
                    stats.heartbeats += 1
                else:
                    lease_lost.set()
                    return

        thread = threading.Thread(
            target=beat, name=f"fleet-heartbeat-{self.worker_id}", daemon=True
        )
        self.store.mark_running(claim.token)
        thread.start()
        try:
            replayed = self._execute(claim)
        except Exception as error:  # noqa: BLE001 — any cell failure requeues
            heartbeat_stop.set()
            thread.join()
            detail = f"{type(error).__name__}: {error}"
            stats.errors.append(
                f"{claim.dataset}/{claim.method}@seed={claim.seed}: {detail}"
            )
            traceback.print_exc()
            if self.store.fail_cell(claim.token, error=detail):
                stats.failed += 1
            else:
                stats.lost += 1
            return
        heartbeat_stop.set()
        thread.join()
        if self.store.complete_cell(claim.token):
            stats.completed += 1
            if replayed:
                stats.replayed += 1
        else:
            # The lease was reaped mid-run; the cell belongs to someone
            # else now.  Our run_single already persisted the (bit-
            # identical, deterministic) payload, so nothing is wasted —
            # but the queue outcome is theirs to write.
            stats.lost += 1
            if lease_lost.is_set():
                return

    def _execute(self, claim: ClaimedCell) -> bool:
        """Run one claimed cell through ``run_single``.

        Returns True when the cell was replayed from an already-stored
        payload (a reaped worker had in fact finished) — zero fits.
        """
        from ..bench.harness import run_single

        spec = CellSpec.from_json(claim.spec)
        task, config, fpe = spec.materialize(
            eval_store_path=self.store.path
        )
        before = self.store.completed_payload(
            spec.dataset, spec.method, spec.seed, spec.config_hash
        )
        owner = f"{self.worker_id}:{uuid.uuid4().hex[:8]}"
        if before is None:
            # A re-queued cell can leave a zombie ``running`` row from
            # its SIGKILLed previous owner, fresh enough that the
            # ordinary stale window would reject this worker's writes
            # for minutes.  The queue lease makes this worker the
            # cell's authoritative runner, so take the row over
            # immediately; a not-actually-dead previous owner's late
            # finish() is rejected by its now-stale ownership.
            self.store.start(
                spec.dataset,
                spec.method,
                spec.seed,
                spec.config_hash,
                owner=owner,
                stale_after=0.0,
            )
        run_single(
            task,
            spec.method,
            config,
            fpe=fpe,
            run_store=self.store,
            resume=True,
            owner=owner,
        )
        return before is not None

    # -- convenience -------------------------------------------------------
    def run_until_drained(self, timeout: float | None = None) -> WorkerStats:
        """``run()`` with a wall-clock bound (tests, embedded use)."""
        if timeout is None:
            return self.run()
        timer = threading.Timer(timeout, self.stop)
        timer.daemon = True
        timer.start()
        try:
            return self.run()
        finally:
            timer.cancel()
