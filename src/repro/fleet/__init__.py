"""Distributed leader/worker experiment fleet over the RunStore.

One SQLite store file is the whole coordination plane: the leader
(:class:`FleetLeader`) discovers a sweep's cells by running the
unchanged experiment function under the harness cell sink and enqueues
them as self-describing :class:`CellSpec` documents; N workers
(:class:`FleetWorker`, started by ``python -m repro.fleet worker
s.db``) atomically claim cells under heartbeated leases and run
them through the existing ``run_single`` choke point; the leader's
watchdog reaps expired leases (re-queue, then dead-letter) and renders
the final tables bit-identically to a serial ``--resume`` run.

No broker, no sockets, no new dependencies — SQLite WAL transactions
are the only concurrency primitive, which is exactly what lets the
fleet span processes and (over a shared filesystem) hosts.
"""

from .leader import FleetLeader, LeaderReport, render_queue_status
from .spec import CellSpec, SPEC_VERSION
from .worker import FleetWorker, WorkerStats

__all__ = [
    "CellSpec",
    "FleetLeader",
    "FleetWorker",
    "LeaderReport",
    "SPEC_VERSION",
    "WorkerStats",
    "render_queue_status",
]
