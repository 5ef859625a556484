"""Store maintenance CLI.

Inspect or maintain a store file (score cache and/or run rows — both
subsystems can share one database):

    python -m repro.store stats  runs.db
    python -m repro.store vacuum runs.db
    python -m repro.store export runs.db --out dump.json
    python -m repro.store plans  runs.db
    python -m repro.store plans  runs.db --dataset PimaIndian \
        --method E-AFE --out plan.json
    python -m repro.store plans  runs.db --publish plans/
    python -m repro.store plans  runs.db --method E-AFE --diff
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .backends import SqliteBackend
from .runs import RunStore


def _stats(path: str) -> dict:
    scores = SqliteBackend(path)
    runs = RunStore(path)
    by_status = runs.counts()
    stats = {
        "path": path,
        "file_bytes": os.path.getsize(path),
        "n_scores": len(scores),
        # "full" = genuine full-CV scores; any other key is a fidelity
        # rung token (e.g. "1x0.5"), counting low-fidelity entries that
        # live in their own namespace and can never serve a full-CV
        # lookup.
        "scores_by_fidelity": scores.fidelity_counts(),
        "n_runs": len(runs),
        "runs_by_status": by_status,
    }
    queue_counts = runs.queue_counts()
    if queue_counts:
        # Fleet queue columns only appear once something was enqueued;
        # a plain single-process store keeps its historical stats shape.
        ages = runs.lease_ages()
        stats["queue"] = {
            status: queue_counts.get(status, 0)
            for status in ("pending", "claimed", "running", "completed",
                           "dead")
        }
        stats["queue_depth"] = runs.queue_depth()
        stats["active_leases"] = {
            "count": len(ages),
            "heartbeat_age_seconds": {
                "min": round(min(ages), 3),
                "max": round(max(ages), 3),
            } if ages else None,
        }
        # Cumulative empty-queue polls across every worker that ever
        # claimed against this store (durable in store_counters).
        stats["n_claim_retries"] = runs.counter("claim_retries")
    return stats


def _export(path: str) -> dict:
    scores = SqliteBackend(path)
    runs = RunStore(path)
    return {
        "scores": [
            {"key": key, "score": score} for key, score in scores.items()
        ],
        "runs": [
            {
                "dataset": record.dataset,
                "method": record.method,
                "seed": record.seed,
                "config_hash": record.config_hash,
                "status": record.status,
                "best_score": record.best_score,
                "n_evaluations": record.n_evaluations,
                "n_cache_hits": record.n_cache_hits,
                "n_cache_misses": record.n_cache_misses,
                "wall_time": record.wall_time,
            }
            for record in runs.records()
        ],
    }


def _diff_plans(matches) -> int:
    """Expression-level diff of exactly two stored plans."""
    from ..api.plan import FeaturePlan

    if len(matches) != 2:
        print(
            f"--diff needs exactly two matching cells, found {len(matches)};"
            " narrow with --dataset/--method/--seed",
            file=sys.stderr,
        )
        return 1
    (left_record, left_doc), (right_record, right_doc) = matches
    left = FeaturePlan.from_dict(left_doc)
    right = FeaturePlan.from_dict(right_doc)
    diff = left.diff(right)
    label_left = f"{left_record.dataset}/{left_record.method}@seed={left_record.seed}"
    label_right = (
        f"{right_record.dataset}/{right_record.method}@seed={right_record.seed}"
    )
    print(f"left:  {label_left}  ({len(left.feature_names)} features)")
    print(f"right: {label_right}  ({len(right.feature_names)} features)")
    for key, header in (
        ("shared", "shared"),
        ("only_left", "only left"),
        ("only_right", "only right"),
    ):
        print(f"{header} ({len(diff[key])}):")
        for name in diff[key]:
            print(f"  {name}")
    if not diff["same_schema"]:
        print("note: input schemas differ", file=sys.stderr)
    return 0


def _publish_plans(matches, registry_path: str) -> int:
    """Publish matching stored plans into a serving PlanRegistry."""
    from ..serve.registry import PlanRegistry

    if not matches:
        # An empty publish is a deploy mistake (typo'd filter, wrong
        # store); fail loudly instead of materializing a registry that
        # serves nothing.
        print("no stored plans match; nothing published", file=sys.stderr)
        return 1
    try:
        registry = PlanRegistry(registry_path)
    except ValueError as error:  # a path that is not a directory
        print(f"python -m repro.store: error: {error}", file=sys.stderr)
        return 2
    for record, document in matches:
        published = registry.publish(
            document, f"{record.dataset}/{record.method}"
        )
        print(
            f"{published.ref}  {published.fingerprint}  "
            f"(seed={record.seed})"
        )
    print(
        f"registry {registry_path}: {len(registry)} plans", file=sys.stderr
    )
    return 0


def _plans(
    path: str,
    dataset: str | None,
    method: str | None,
    seed: int | None,
    out: str | None,
    publish: str | None = None,
    diff: bool = False,
) -> int:
    """List stored feature-plan artifacts, extract, publish, or diff."""
    matches = RunStore(path).plans(dataset=dataset, method=method, seed=seed)
    if diff:
        return _diff_plans(matches)
    if publish is not None:
        return _publish_plans(matches, publish)
    if out is not None:
        if len(matches) != 1:
            print(
                f"--out needs exactly one matching cell, found {len(matches)};"
                " narrow with --dataset/--method/--seed",
                file=sys.stderr,
            )
            return 1
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(matches[0][1], handle, indent=2)
        print(f"wrote {out}", file=sys.stderr)
        return 0
    for record, plan in matches:
        names = plan.get("feature_names", [])
        label = "identity" if not names else f"{len(names)} features"
        print(
            f"{record.dataset}  {record.method}  seed={record.seed}  "
            f"{label}  best={record.best_score:.4f}"
        )
    if not matches:
        print("no stored plans match", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect or maintain an evaluation/run store file.",
    )
    parser.add_argument("command", choices=("stats", "vacuum", "export", "plans"))
    parser.add_argument("path", help="store database file")
    parser.add_argument(
        "--out",
        default=None,
        help="output file (export/plans modes; default stdout)",
    )
    parser.add_argument(
        "--dataset", default=None, help="filter plans by dataset"
    )
    parser.add_argument("--method", default=None, help="filter plans by method")
    parser.add_argument(
        "--seed", type=int, default=None, help="filter plans by seed"
    )
    parser.add_argument(
        "--publish",
        default=None,
        metavar="REGISTRY",
        help="publish matching plans into a serving PlanRegistry "
        "directory (plans mode)",
    )
    parser.add_argument(
        "--diff",
        action="store_true",
        help="expression-level diff of exactly two matching plans "
        "(plans mode)",
    )
    parser.add_argument(
        "--watch",
        type=float,
        default=None,
        metavar="SECONDS",
        help="stats mode: re-print every SECONDS (Ctrl-C to stop; exits "
        "on its own once the fleet queue drains)",
    )
    args = parser.parse_args(argv)

    # Inspection must never create state: a typo'd path errors out
    # instead of silently materializing an empty database.
    if not os.path.exists(args.path):
        print(f"no store at {args.path}", file=sys.stderr)
        return 1

    if args.command == "stats":
        if args.watch is None:
            print(json.dumps(_stats(args.path), indent=2))
            return 0
        runs = RunStore(args.path)
        while True:
            print(json.dumps(_stats(args.path), indent=2), flush=True)
            if not runs.queue_counts() or runs.queue_depth() == 0:
                return 0
            time.sleep(args.watch)
    if args.command == "plans":
        return _plans(
            args.path,
            args.dataset,
            args.method,
            args.seed,
            args.out,
            publish=args.publish,
            diff=args.diff,
        )
    if args.command == "vacuum":
        before = os.path.getsize(args.path)
        # Resolve expired-lease debris (zombie claims from dead
        # workers) before compacting, so a crashed fleet leaves no
        # permanently "claimed" cells behind.
        debris = RunStore(args.path).prune_queue_debris()
        SqliteBackend(args.path).vacuum()
        after = os.path.getsize(args.path)
        if debris["reaped"] or debris["orphan_claims"]:
            print(
                f"queue debris: {debris['reaped']} expired leases reaped, "
                f"{debris['orphan_claims']} orphan claims resolved"
            )
        print(f"vacuumed {args.path}: {before} -> {after} bytes")
        return 0
    document = json.dumps(_export(args.path), indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(document)
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(document)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
