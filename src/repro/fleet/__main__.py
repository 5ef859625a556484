"""Fleet command line: lead, join, or inspect a distributed sweep.

    # 1. leader: enqueue the sweep, watchdog workers, render the table
    python -m repro.fleet leader sweep.db --exp table3 --seed 0

    # 2. workers (any number, any host sharing the file):
    python -m repro.fleet worker sweep.db --worker-id w0

    # 3. anyone, any time:
    python -m repro.fleet status sweep.db --watch 2

The leader blocks until the queue drains (or ``--timeout``), then
re-runs the experiment against the completed store — every cell
replays from its payload, so the printed table is bit-identical to a
serial run.  ``--enqueue-only`` exits right after the enqueue pass
(fire-and-forget sweeps); ``--no-render`` supervises but skips the
final table.  ``worker`` is the one command that starts a worker.
"""

from __future__ import annotations

import argparse
import sys
import time

from ..bench.experiments import add_subset_flags
from ..store import RunStore
from .leader import FleetLeader, render_queue_status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Distributed leader/worker experiment fleet.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    leader = sub.add_parser(
        "leader",
        help="enqueue a sweep, supervise its drain, render the result",
    )
    leader.add_argument("store", help="shared SQLite store file")
    leader.add_argument(
        "--exp",
        required=True,
        help="experiment id (see `python -m repro.bench list`)",
    )
    add_subset_flags(leader)
    leader.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="attempts per cell before dead-lettering",
    )
    leader.add_argument(
        "--enqueue-only",
        action="store_true",
        help="exit after the enqueue pass (workers drain unsupervised)",
    )
    leader.add_argument(
        "--no-render",
        action="store_true",
        help="supervise the drain but skip the final render pass",
    )
    leader.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="give up supervising after this many seconds",
    )
    leader.add_argument(
        "--render-interval",
        type=float,
        default=5.0,
        help="seconds between live progress renders",
    )

    worker = sub.add_parser(
        "worker",
        help="join a sweep as a worker: claim cells under a heartbeated "
        "lease and run them until the queue drains",
    )
    worker.add_argument("store", help="shared SQLite store file")
    worker.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity in the claim log (default host:pid)",
    )
    worker.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help="lease TTL in seconds (heartbeats fire at ttl/3)",
    )
    worker.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="stop after claiming this many cells",
    )
    worker.add_argument(
        "--follow",
        action="store_true",
        help="keep polling after the queue drains",
    )

    status = sub.add_parser("status", help="queue progress at a glance")
    status.add_argument("store", help="shared SQLite store file")
    status.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="re-render every SECONDS until the queue drains",
    )

    args = parser.parse_args(argv)

    if args.command == "leader":
        fleet = FleetLeader(args.store, max_retries=args.max_retries)
        try:
            fleet.enqueue_experiment(
                args.exp,
                seed=args.seed,
                datasets=args.datasets,
                methods=args.methods,
            )
        except ValueError as error:
            leader.error(str(error))
        if args.enqueue_only:
            print(fleet.render_status())
            return 0
        report = fleet.supervise(
            render_interval=args.render_interval, timeout=args.timeout
        )
        if not report["drained"]:
            print(
                f"timed out after {report['elapsed']:.1f}s with "
                f"{fleet.store.queue_depth()} cells unfinished",
                file=sys.stderr,
            )
            print(fleet.render_status(), file=sys.stderr)
            return 1
        if report["dead"]:
            print(
                f"{len(report['dead'])} cells dead-lettered "
                "(inspect `python -m repro.fleet status`); not rendering",
                file=sys.stderr,
            )
            return 1
        print(
            f"drained in {report['elapsed']:.1f}s "
            f"({len(report['reaped'])} leases reaped)",
            file=sys.stderr,
        )
        if not args.no_render:
            print(
                fleet.render_experiment(
                    args.exp,
                    seed=args.seed,
                    datasets=args.datasets,
                    methods=args.methods,
                )
            )
        return 0

    if args.command == "worker":
        from .worker import FleetWorker

        runner = FleetWorker(
            args.store,
            worker_id=args.worker_id,
            lease_ttl=args.lease_ttl,
            max_cells=args.max_cells,
            follow=args.follow,
        )
        print(
            f"worker {runner.worker_id} draining {args.store} "
            f"(lease ttl {args.lease_ttl:g}s)",
            file=sys.stderr,
        )
        stats = runner.run()
        print(
            f"worker {stats.worker_id}: claimed={stats.claimed} "
            f"completed={stats.completed} (replayed={stats.replayed}) "
            f"failed={stats.failed} lost={stats.lost}",
            file=sys.stderr,
        )
        return 0 if not stats.errors else 1

    if args.command == "status":
        store = RunStore(args.store)
        if args.watch is None:
            print(render_queue_status(store))
            return 0
        while True:
            print(render_queue_status(store))
            if store.queue_depth() == 0:
                return 0
            print("---")
            time.sleep(args.watch)

    return 2  # unreachable: argparse enforces the subcommand set


if __name__ == "__main__":
    raise SystemExit(main())
