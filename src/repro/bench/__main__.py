"""Command-line experiment runner.

Regenerate any paper table or figure from the shell:

    python -m repro.bench table1
    python -m repro.bench table4 --datasets PimaIndian diabetes
    python -m repro.bench figure9
    REPRO_BENCH_PROFILE=paper python -m repro.bench table3

``--store sweep.db`` persists every (dataset, method, seed) cell and
every downstream score to one SQLite file; adding ``--resume`` replays
completed cells, so a killed sweep re-run with the same command
continues where it left off.  ``list`` shows every available
experiment; ``methods`` shows every method in the searcher registry
(including third-party searchers imported via
``REPRO_SEARCHER_PLUGINS``).  ``--datasets`` and ``--methods`` run a
subset where the experiment's runner has that parameter and are a
usage error elsewhere, as are unknown dataset or method names.

Workers of a distributed sweep are started with ``python -m repro.fleet
worker <store>``, the one worker command (see :mod:`repro.fleet`).
"""

from __future__ import annotations

import argparse
import sys

from ..api.registry import searcher_registry
from .experiments import _EXPERIMENTS, add_subset_flags, build_experiment_call
from .harness import bench_profile, set_run_store


def run_report(seed: int, out_path: str | None) -> int:
    """Run every experiment and emit one consolidated report."""
    sections = []
    for name in sorted(_EXPERIMENTS):
        print(f"running {name} ...", file=sys.stderr)
        runner, formatter, kwargs = build_experiment_call(name, seed=seed)
        result = runner(**kwargs)
        sections.append(f"## {name}\n\n```\n{formatter(result)}\n```\n")
    report = (
        "# E-AFE reproduction report\n\n"
        f"profile: {bench_profile()}\n\n" + "\n".join(sections)
    )
    if out_path:
        from pathlib import Path

        Path(out_path).write_text(report, encoding="utf-8")
        print(f"wrote {out_path}", file=sys.stderr)
    else:
        print(report)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate a paper table or figure.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(_EXPERIMENTS) + ["list", "methods", "report"],
        help="experiment id (paper table/figure), 'list', 'methods', "
        "or 'report'",
    )
    add_subset_flags(parser)
    parser.add_argument(
        "--out", default=None, help="report output path (report mode only)"
    )
    parser.add_argument(
        "--store",
        default=None,
        help="SQLite file persisting run rows and downstream scores "
        "(shared across processes and repeated invocations)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay (dataset, method, seed) cells already completed "
        "in --store instead of re-running them",
    )
    args = parser.parse_args(argv)

    if args.resume and not args.store:
        parser.error("--resume requires --store")
    if args.out and args.experiment != "report":
        parser.error("--out is only valid with report")
    if args.experiment not in _EXPERIMENTS and (args.datasets or args.methods):
        parser.error(f"--datasets/--methods do not apply to {args.experiment}")
    # One file backs both the run rows and the score cache (see
    # bench_config); the previous store is restored on exit so
    # back-to-back main() calls never inherit this invocation's store.
    previous_store = set_run_store(args.store, args.resume)
    try:
        if args.experiment == "list":
            for name in sorted(_EXPERIMENTS):
                print(name)
            return 0
        if args.experiment == "methods":
            # Everything constructible by the harness — built-ins plus
            # any searcher registered at runtime (REPRO_SEARCHER_PLUGINS).
            registry = searcher_registry()
            for name in registry.names():
                spec = registry.spec(name)
                marker = " [fpe]" if spec.needs_fpe else ""
                description = f"  {spec.description}" if spec.description else ""
                print(f"{name}{marker}{description}")
            return 0
        if args.experiment == "report":
            return run_report(args.seed, args.out)

        try:
            runner, formatter, kwargs = build_experiment_call(
                args.experiment,
                seed=args.seed,
                datasets=args.datasets,
                methods=args.methods,
            )
        except ValueError as error:
            parser.error(str(error))
        print(f"profile: {bench_profile()}", file=sys.stderr)
        print(formatter(runner(**kwargs)))
        return 0
    finally:
        set_run_store(*previous_store)


if __name__ == "__main__":
    raise SystemExit(main())
