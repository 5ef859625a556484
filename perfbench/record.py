#!/usr/bin/env python3
"""Record the reference answer of every workload's engine-seed pool.

Fits each pool seed of each workload once on the *serial* backend and
writes its best score and selected features to ``references.json``;
``run.py`` then requires every fit of that seed, on any backend, to
reproduce them exactly.  Run from the repository root after a change
that deliberately moves scores::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import WORKLOADS, engine_config, fit_once, set_up  # noqa: E402


def main() -> int:
    recorded: dict[str, dict[str, dict]] = {}
    scratch = HERE.parent / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for name, workload in WORKLOADS.items():
            task, fpe, _ = set_up(
                workload, workload.pool[0], str(Path(tmp) / f"{name}-warm.db")
            )
            recorded[name] = {}
            for seed in workload.pool:
                store = None
                if workload.durable_store:
                    store = str(Path(tmp) / f"{name}-{seed}.db")
                result = fit_once(
                    fpe, task,
                    engine_config(workload, seed, store, backend="serial"),
                )
                recorded[name][str(seed)] = {
                    "best_score": result.best_score,
                    "selected_features": list(result.selected_features),
                }
                print(f"{name} seed={seed} best={result.best_score!r}", flush=True)
    (HERE / "references.json").write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
