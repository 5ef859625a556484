"""``python -m repro.serve`` — answer transform/predict traffic.

Serve every plan in a registry directory (including one published out
of a bench run store with ``python -m repro.store plans <db> --publish
<registry>``)::

    python -m repro.serve --registry plans/ --port 8765

Serve a single plan file without a registry::

    python -m repro.serve --plan features.plan.json --port 8765

Add a ``/predict`` endpoint backed by a saved pipeline::

    python -m repro.serve --plan features.plan.json \
        --pipeline model.pipeline.pkl --port 8765

Then::

    curl localhost:8765/healthz
    curl localhost:8765/plans
    curl -X POST localhost:8765/transform \
        -d '{"rows": [[1.0, 2.0, 3.0, 4.0]]}'

``--port 0`` binds a free port; the chosen address is printed as a
``serving on http://...`` line before requests are accepted.  SIGINT
and SIGTERM (docker stop, kubernetes, CI) both shut down cleanly and
*gracefully*: the server first drains — new requests get 503 while
in-flight ones finish (bounded by ``--drain-timeout``) — then exits
with a ``shutdown complete`` line.  Handlers are installed
explicitly, so shutdown works even when the process was started with
SIGINT ignored (non-interactive shells background ``&`` jobs that
way).  A watchdog thread (``--selftest-interval``, 0 to disable)
round-trips a canary transform and flips ``/healthz`` to ``degraded``
if the compute path stops reproducing its baseline.
"""

from __future__ import annotations

import argparse
import signal
import sys
import threading

from ..api.plan import FeaturePlan
from .pipeline import FeaturePipeline
from .registry import PlanRegistry, plan_name_of_path
from .server import make_server
from .service import TransformService
from .watchdog import Watchdog


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve feature plans (and optionally predictions) "
        "over a JSON HTTP endpoint.",
    )
    parser.add_argument(
        "--registry",
        default=None,
        help="plan registry directory (created when missing)",
    )
    parser.add_argument(
        "--plan",
        action="append",
        default=[],
        metavar="FILE",
        help="plan JSON file to pin (repeatable); served under its stem",
    )
    parser.add_argument(
        "--pipeline",
        default=None,
        metavar="FILE",
        help="saved FeaturePipeline pickle enabling POST /predict",
    )
    parser.add_argument(
        "--default-plan",
        default=None,
        metavar="REF",
        help="plan used when a request names none "
        "(defaults to the only available plan)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=8765, help="0 binds a free port"
    )
    parser.add_argument(
        "--capacity",
        type=int,
        default=8,
        help="compiled-plan LRU size for registry-served plans",
    )
    parser.add_argument(
        "--verbose", action="store_true", help="log every request"
    )
    parser.add_argument(
        "--drain-timeout",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="max seconds to wait for in-flight requests on shutdown "
        "before closing anyway",
    )
    parser.add_argument(
        "--selftest-interval",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="watchdog canary-transform period; 0 disables the watchdog",
    )
    args = parser.parse_args(argv)

    if args.registry is None and not args.plan and args.pipeline is None:
        parser.error("nothing to serve: pass --registry, --plan, or --pipeline")

    registry = None
    if args.registry:
        try:
            registry = PlanRegistry(args.registry)
        except ValueError as error:  # a path that is not a directory
            parser.error(str(error))
    service = TransformService(registry=registry, capacity=args.capacity)

    for path in args.plan:
        service.add_plan(FeaturePlan.load(path), ref=plan_name_of_path(path))

    pipeline = FeaturePipeline.load(args.pipeline) if args.pipeline else None

    default_plan = args.default_plan
    if default_plan is None:
        available = service.available()
        if len(available) == 1:
            default_plan = available[0]["ref"]

    server = make_server(
        service,
        host=args.host,
        port=args.port,
        default_plan=default_plan,
        pipeline=pipeline,
        verbose=args.verbose,
    )
    watchdog = None
    if args.selftest_interval > 0:
        # Eager construction round-trips the canary once, so a compute
        # path broken at startup fails loudly here instead of serving.
        watchdog = Watchdog(server.app, interval=args.selftest_interval)
        watchdog.start()

    def _request_shutdown(signum, frame):
        # Drain, then stop: new requests 503 immediately while
        # in-flight ones finish (bounded by --drain-timeout).
        # shutdown() blocks until serve_forever exits, so the whole
        # sequence runs off the main thread; as a daemon it also never
        # blocks exit.  Even a signal delivered before serve_forever
        # starts is safe: the shutdown flag is already set when the
        # loop first checks.
        def _drain_then_stop() -> None:
            app = server.app
            app.begin_drain()
            print(
                f"draining: {app.inflight} request(s) in flight",
                file=sys.stderr,
                flush=True,
            )
            if app.wait_drained(timeout=args.drain_timeout):
                print("drained", file=sys.stderr, flush=True)
            else:
                print(
                    f"drain timeout after {args.drain_timeout}s; "
                    "closing with requests in flight",
                    file=sys.stderr,
                    flush=True,
                )
            server.shutdown()

        threading.Thread(target=_drain_then_stop, daemon=True).start()

    # Explicit handlers: a process backgrounded by a non-interactive
    # shell inherits SIGINT=SIG_IGN (and Python then never installs
    # its KeyboardInterrupt handler), and SIGTERM's default would kill
    # us without server_close().  Registering both makes `kill -INT`,
    # `kill -TERM`, docker stop, and Ctrl-C all take the clean path.
    # Installed before the address is announced, so a client that saw
    # the announcement can always shut the server down.
    signal.signal(signal.SIGINT, _request_shutdown)
    signal.signal(signal.SIGTERM, _request_shutdown)

    host, port = server.server_address[:2]
    print(f"serving on http://{host}:{port}", file=sys.stderr, flush=True)
    if default_plan:
        print(f"default plan: {default_plan}", file=sys.stderr, flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        if watchdog is not None:
            watchdog.stop(timeout=1.0)
        server.server_close()
        print("shutdown complete", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
