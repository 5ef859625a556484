"""FE|DL and DL|FE hybrid baselines (Table III).

* **FE|DL** — "put the features selected by feature engineering into
  the deep learning process": run a lightweight AFE pass to build an
  engineered feature set, then score it with the tabular ResNet on a
  held-out split.
* **DL|FE** — "put the original features into deep learning training,
  then put the output features into the feature engineering method for
  feature selection": train the ResNet on raw features, take its
  penultimate representation as candidate features, greedily select
  the ones that help a Random Forest, and report that forest's score.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from ..core.engine import (
    AFEEngine,
    AFEResult,
    EngineConfig,
    EpochRecord,
    SearchRun,
)
from ..core.filters import KeepAllFilter
from ..datasets.generators import TabularTask
from ..ml.metrics import f1_score, one_minus_rae
from ..ml.model_selection import train_test_split
from ..ml.resnet import TabularResNet
from .nfs import NFS

__all__ = ["FeThenDl", "DlThenFe"]


class FeThenDl:
    """FE|DL: engineer features first, learn a deep model on them."""

    method_name = "FE|DL"

    def __init__(self, config: EngineConfig | None = None) -> None:
        self.config = copy.deepcopy(config) if config is not None else EngineConfig()

    def fit(self, task: TabularTask) -> AFEResult:
        started = time.perf_counter()
        # Stage A: quick NFS pass produces the engineered feature set.
        fe_config = copy.deepcopy(self.config)
        fe_config.n_epochs = max(1, self.config.n_epochs // 2)
        fe_engine = NFS(fe_config)
        fe_result = fe_engine.fit(task)
        working = fe_engine._select_agent_features(task)
        # Rebuild the selected columns: original working features plus
        # whatever the FE pass reports as its best selection.
        from ..rl.environment import FeatureSpace

        space = FeatureSpace(
            working, max_order=fe_config.max_order, seed=fe_config.seed
        )
        name_to_column = {}
        for group in space.subgroups:
            for feature in group.members:
                name_to_column[feature.name] = feature.values
        columns = [
            name_to_column.get(name)
            for name in fe_result.selected_features
            if name in name_to_column
        ]
        if not columns:
            columns = [working.X[name] for name in working.X.columns]
        matrix = np.column_stack(columns)
        # Stage B: deep model on the engineered features, fixed split.
        metric = f1_score if task.task == "C" else one_minus_rae
        try:
            X_train, X_test, y_train, y_test = train_test_split(
                matrix, task.y, test_size=0.25, seed=self.config.seed,
                stratify=task.task == "C",
            )
            model = TabularResNet(
                task=task.task, width=32, n_blocks=2,
                n_epochs=max(10, self.config.n_epochs * 2),
                seed=self.config.seed,
            ).fit(X_train, y_train)
            score = max(float(metric(y_test, model.predict(X_test))), 0.0)
        except (ValueError, FloatingPointError):
            score = 0.0
        elapsed = time.perf_counter() - started
        return AFEResult(
            dataset=task.name,
            method=self.method_name,
            task=task.task,
            base_score=score,
            best_score=score,
            selected_features=fe_result.selected_features,
            history=[EpochRecord(0, elapsed, fe_result.n_downstream_evaluations + 1, score)],
            n_downstream_evaluations=fe_result.n_downstream_evaluations + 1,
            stats=fe_result.stats,
            evaluation_time=fe_result.evaluation_time,
            wall_time=elapsed,
        )


class DlThenFe(AFEEngine):
    """DL|FE: deep representation first, then feature selection."""

    method_name = "DL|FE"
    #: Selected "features" are learned ResNet representation columns
    #: (``repr_*``), not operator expressions — no portable
    #: :class:`~repro.api.FeaturePlan` can re-compute them on new data.
    portable_plan = False

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(KeepAllFilter(), copy.deepcopy(config))

    def _select_agent_features(self, task: TabularTask) -> TabularTask:
        # The ResNet learns its representation over every raw column.
        return task

    def _search(self, run: SearchRun) -> AFEResult:
        task = run.working
        try:
            body = TabularResNet(
                task=task.task, width=16, n_blocks=2,
                n_epochs=max(10, self.config.n_epochs * 2),
                seed=self.config.seed,
            ).fit(task.X.to_array(), task.y)
            representation = body.transform(task.X.to_array())
        except (ValueError, FloatingPointError):
            representation = task.X.to_array()
        # Greedy forward selection of representation columns by RF CV.
        selected: list[int] = []
        best_score = 0.0
        order = np.argsort(-representation.std(axis=0))
        budget = min(8, representation.shape[1])
        for j in order[:budget]:
            candidate = selected + [int(j)]
            score = run.service.evaluate(representation[:, candidate], task.y)
            if score > best_score:
                best_score = score
                selected = candidate
        result = run.open_result(
            self.method_name,
            base_score=best_score,
            selected_features=[f"repr_{j}" for j in selected],
        )
        result.best_score = max(best_score, 0.0)
        run.record_epoch(result, 0, best_score)
        return result
