"""Self-describing cell specs: everything a worker needs to run a cell.

A fleet worker on another host has nothing but the store file — no
experiment function, no in-process dataset, no fitted FPE model.  The
leader therefore serializes each (dataset, method, seed, config) cell
into a JSON *work spec* at enqueue time, and the worker materializes
it back into the exact arguments
:func:`repro.bench.harness.run_single` expects:

* **task** — the full :class:`~repro.datasets.generators.TabularTask`
  (column names, float64 feature columns, target).  Shipping the data
  itself, rather than a loader name, makes synthetic sweep tasks
  (Figure 9's ``make_classification`` grids) and profile-scaled
  registry datasets equally distributable, and guarantees the worker
  scores the same bytes the leader enqueued: Python's JSON float
  round-trip is exact, so the rebuilt arrays are bit-identical.
* **config** — the :class:`~repro.core.engine.EngineConfig` as a field
  dict.  Workers override the execution-only ``eval_store_path`` knob
  (hash-excluded, see :mod:`repro.store.runs`) to share the sweep's
  score cache without perturbing cell identity.
* **fpe** — the FPE model's constructor identity
  (:func:`repro.api.plan.fpe_identity`: method, d, seed, thre), rebuilt
  worker-side through the deterministic
  :func:`~repro.core.pretrain.default_fpe`/``pretrain_fpe`` flow.
  This pins the model exactly for the default pre-training corpus —
  the same contract run-store resume already relies on (see
  ``repro.bench.harness._fpe_token``); models trained on custom
  corpora must bypass the fleet just as they bypass the store.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ..api.plan import fpe_identity
from ..core.engine import EngineConfig
from ..core.fpe import FPEModel
from ..datasets.generators import TabularTask
from ..frame import Frame

__all__ = [
    "CellSpec",
    "SPEC_VERSION",
    "task_to_doc",
    "task_from_doc",
    "fpe_from_doc",
]

#: Bumped whenever the spec layout changes; a worker refuses specs it
#: cannot faithfully materialize instead of guessing.
SPEC_VERSION = 1


def task_to_doc(task: TabularTask) -> dict:
    """Serialize a task (schema + data) into a JSON-safe document."""
    return {
        "name": task.name,
        "task": task.task,
        "columns": list(task.X.columns),
        "X": [np.asarray(task.X[column]).tolist() for column in task.X.columns],
        "y": task.y.tolist(),
    }


def task_from_doc(doc: dict) -> TabularTask:
    """Rebuild a task bit-identically from :func:`task_to_doc` output."""
    frame = Frame(
        {
            column: np.asarray(values, dtype=np.float64)
            for column, values in zip(doc["columns"], doc["X"])
        }
    )
    return TabularTask(
        name=doc["name"],
        task=doc["task"],
        X=frame,
        y=np.asarray(doc["y"], dtype=np.float64),
    )


def fpe_from_doc(doc: dict | None) -> FPEModel | None:
    """Rebuild the FPE through the deterministic default pretrain flow.

    ``default_fpe`` is process-cached, so a worker draining many cells
    that share one FPE identity pre-trains at most once per identity.
    Non-default labelling thresholds fall through to ``pretrain_fpe``
    (same corpus, same determinism, no cache).
    """
    if doc is None:
        return None
    from ..core.pretrain import default_fpe, pretrain_fpe

    if doc["thre"] == FPEModel.thre:
        return default_fpe(method=doc["method"], d=doc["d"], seed=doc["seed"])
    return pretrain_fpe(
        method=doc["method"], d=doc["d"], thre=doc["thre"], seed=doc["seed"]
    )


@dataclass(frozen=True)
class CellSpec:
    """One distributable cell: identity plus materializable work."""

    dataset: str
    method: str
    seed: int
    config_hash: str  # the full run-store cell hash (config + FPE token)
    task_doc: dict
    config_doc: dict
    fpe_doc: dict | None

    @classmethod
    def build(
        cls,
        task: TabularTask,
        method: str,
        config: EngineConfig,
        fpe: FPEModel | None,
        config_hash: str,
    ) -> "CellSpec":
        import dataclasses

        return cls(
            dataset=task.name,
            method=method,
            seed=config.seed,
            config_hash=config_hash,
            task_doc=task_to_doc(task),
            config_doc=dataclasses.asdict(config),
            fpe_doc=fpe_identity(fpe),
        )

    # -- wire format -------------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "version": SPEC_VERSION,
                "dataset": self.dataset,
                "method": self.method,
                "seed": self.seed,
                "config_hash": self.config_hash,
                "task": self.task_doc,
                "config": self.config_doc,
                "fpe": self.fpe_doc,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, document: str) -> "CellSpec":
        doc = json.loads(document)
        version = doc.get("version")
        if version != SPEC_VERSION:
            raise ValueError(
                f"unsupported cell-spec version {version!r} "
                f"(this worker speaks version {SPEC_VERSION}); "
                "upgrade the worker or re-enqueue the sweep"
            )
        return cls(
            dataset=doc["dataset"],
            method=doc["method"],
            seed=doc["seed"],
            config_hash=doc["config_hash"],
            task_doc=doc["task"],
            config_doc=doc["config"],
            fpe_doc=doc["fpe"],
        )

    # -- materialization ---------------------------------------------------
    def materialize(
        self, eval_store_path: str | None = None
    ) -> tuple[TabularTask, EngineConfig, FPEModel | None]:
        """Rebuild the ``run_single`` arguments on the worker.

        ``eval_store_path`` (usually the fleet store itself) replaces
        the spec's value so every worker writes through to the sweep's
        shared score cache; the knob is hash-excluded, so the cell
        identity is untouched.
        """
        config_fields = dict(self.config_doc)
        if eval_store_path is not None:
            config_fields["eval_store_path"] = eval_store_path
        return (
            task_from_doc(self.task_doc),
            EngineConfig(**config_fields),
            fpe_from_doc(self.fpe_doc),
        )
