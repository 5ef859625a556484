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
``REPRO_SEARCHER_PLUGINS``), and ``--methods`` runs a method subset
where the experiment takes one (table3, table5, figure7,
related_work).

``--worker`` turns the process into a fleet worker: instead of running
the experiment it claims cells enqueued in ``--store`` by ``python -m
repro.fleet leader`` under a heartbeated lease, runs each through the
same harness choke point, and exits when the sweep drains — N workers
on N hosts pointed at one store drain one sweep concurrently.
"""

from __future__ import annotations

import argparse
import sys

from ..api.registry import searcher_registry
from ..core.pretrain import default_fpe
from . import experiments
from .harness import bench_profile, set_run_store

#: experiment name -> (runner kwargs builder, formatter, needs_fpe)
_EXPERIMENTS = {
    "table1": (experiments.table1_nfs_time, experiments.format_table1, False),
    "figure1": (experiments.figure1_sample_size, experiments.format_figure1, False),
    "figure6": (experiments.figure6_threshold, experiments.format_figure6, False),
    "table3": (experiments.table3_main, experiments.format_table3, True),
    "table4": (experiments.table4_eval_counts, experiments.format_table4, True),
    "figure7": (
        experiments.figure7_learning_curves,
        experiments.format_figure7,
        True,
    ),
    "figure8": (
        experiments.figure8_sensitivity,
        experiments.format_figure8,
        False,
    ),
    "table5": (
        experiments.table5_downstream_swap,
        experiments.format_table5,
        True,
    ),
    "table6": (experiments.table6_pvalues, experiments.format_table6, True),
    "figure9": (
        experiments.figure9_scalability,
        experiments.format_figure9,
        True,
    ),
    "ablation_q6": (
        experiments.ablation_q6_signatures,
        experiments.format_ablation_q6,
        False,
    ),
    "related_work": (
        experiments.related_work_spectrum,
        experiments.format_related_work,
        True,
    ),
}


#: Experiments accepting a ``datasets`` subset / a ``methods`` subset.
_DATASET_EXPERIMENTS = ("table1", "figure1", "table3", "table4", "table5")
_METHOD_EXPERIMENTS = ("table3", "table5", "figure7", "related_work")


def build_experiment_call(
    experiment: str,
    seed: int = 0,
    datasets: list[str] | None = None,
    methods: list[str] | None = None,
):
    """Resolve an experiment id into ``(runner, formatter, kwargs, needs_fpe)``.

    Shared by this CLI and the :mod:`repro.fleet` leader (which runs
    the same runner twice: once with the enqueue sink installed, once
    as the final store-backed render pass).  ``kwargs`` carries the
    seed plus any dataset/method subsets the experiment supports;
    unsupported overrides raise ``ValueError``.  The FPE model is NOT
    built here — callers that need one add ``kwargs["fpe"]`` (it is
    expensive to pre-train).
    """
    if experiment not in _EXPERIMENTS:
        raise ValueError(f"unknown experiment {experiment!r}")
    runner, formatter, needs_fpe = _EXPERIMENTS[experiment]
    kwargs: dict = {"seed": seed}
    if datasets:
        if experiment not in _DATASET_EXPERIMENTS:
            raise ValueError(f"--datasets is not supported by {experiment}")
        kwargs["datasets"] = list(datasets)
    if methods:
        registry = searcher_registry()
        unknown = [m for m in methods if m not in registry]
        if unknown:
            raise ValueError(
                f"unknown methods {unknown}; see `python -m repro.bench"
                " methods`"
            )
        if experiment not in _METHOD_EXPERIMENTS:
            raise ValueError(f"--methods is not supported by {experiment}")
        kwargs["methods"] = list(methods)
    return runner, formatter, kwargs, needs_fpe


def run_report(seed: int, out_path: str | None) -> int:
    """Run every experiment and emit one consolidated report."""
    fpe = default_fpe(seed=seed)
    sections = []
    for name in sorted(_EXPERIMENTS):
        runner, formatter, needs_fpe = _EXPERIMENTS[name]
        print(f"running {name} ...", file=sys.stderr)
        kwargs: dict = {"seed": seed}
        if needs_fpe:
            kwargs["fpe"] = fpe
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
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=None,
        help="override the dataset subset (where the experiment takes one)",
    )
    parser.add_argument(
        "--methods",
        nargs="+",
        default=None,
        help="override the method subset (where the experiment takes one); "
        "any name in the searcher registry works, including third-party "
        "searchers registered via REPRO_SEARCHER_PLUGINS",
    )
    parser.add_argument(
        "--out", default=None, help="report output path (report mode only)"
    )
    parser.add_argument("--seed", type=int, default=0)
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
    parser.add_argument(
        "--worker",
        action="store_true",
        help="run as a fleet worker: claim enqueued cells from --store "
        "under a heartbeated lease and run them (see python -m "
        "repro.fleet leader, which enqueues and supervises the sweep)",
    )
    parser.add_argument(
        "--worker-id",
        default=None,
        help="stable worker identity in the claim log (default host:pid)",
    )
    parser.add_argument(
        "--lease-ttl",
        type=float,
        default=60.0,
        help="worker lease TTL in seconds (heartbeats fire at ttl/3)",
    )
    parser.add_argument(
        "--max-cells",
        type=int,
        default=None,
        help="worker mode: stop after claiming this many cells",
    )
    parser.add_argument(
        "--follow",
        action="store_true",
        help="worker mode: keep polling after the queue drains instead "
        "of exiting",
    )
    args = parser.parse_args(argv)

    if args.resume and not args.store:
        parser.error("--resume requires --store")
    if args.worker and not args.store:
        parser.error("--worker requires --store")
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

        if args.worker:
            # Fleet worker mode: the experiment id is advisory (any
            # pending cell in the store is claimable — cells are
            # self-describing); what matters is the shared store.
            from ..fleet.worker import FleetWorker

            worker = FleetWorker(
                args.store,
                worker_id=args.worker_id,
                lease_ttl=args.lease_ttl,
                max_cells=args.max_cells,
                follow=args.follow,
            )
            print(
                f"worker {worker.worker_id} draining {args.store} "
                f"(lease ttl {args.lease_ttl:g}s)",
                file=sys.stderr,
            )
            stats = worker.run()
            print(
                f"worker {stats.worker_id}: claimed={stats.claimed} "
                f"completed={stats.completed} (replayed={stats.replayed}) "
                f"failed={stats.failed} lost={stats.lost}",
                file=sys.stderr,
            )
            return 0 if not stats.errors else 1

        try:
            runner, formatter, kwargs, needs_fpe = build_experiment_call(
                args.experiment,
                seed=args.seed,
                # Preserve the historical CLI contract: a dataset
                # subset on an experiment without one is ignored, a
                # method subset errors out.
                datasets=(
                    args.datasets
                    if args.experiment in _DATASET_EXPERIMENTS
                    else None
                ),
                methods=args.methods,
            )
        except ValueError as error:
            parser.error(str(error))
        print(f"profile: {bench_profile()}", file=sys.stderr)
        if needs_fpe:
            print("pre-training FPE model ...", file=sys.stderr)
            kwargs["fpe"] = default_fpe(seed=args.seed)
        result = runner(**kwargs)
        print(formatter(result))
        return 0
    finally:
        set_run_store(*previous_store)


if __name__ == "__main__":
    raise SystemExit(main())
