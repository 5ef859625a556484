"""AutoFSR baseline: random generation + reinforced feature selection.

AutoFS (Fan et al., ICDM 2020) is a feature-*selection* RL framework
that cannot generate features, so the paper pairs it with random
feature generation ("we generated features randomly and selected
features by AutoFS", Section IV-A3) and finds that "the randomly
generated feature set does not have enough good features".

Implementation: uniform-random actions (no policy learning over
transformations), every candidate evaluated downstream, and a
bandit-style per-feature selection value deciding which accepted
features stay in the working set.  Evaluation counts land slightly
above NFS, matching Table IV's FSR column.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from ..core.engine import AFEEngine, AFEResult, EngineConfig, EpochRecord
from ..core.filters import KeepAllFilter
from ..datasets.generators import TabularTask
from ..rl.environment import FeatureSpace

__all__ = ["AutoFSR"]


class AutoFSR(AFEEngine):
    """Random generation + value-tracked selection."""

    method_name = "AutoFSR"

    def __init__(self, config: EngineConfig | None = None) -> None:
        config = copy.deepcopy(config) if config is not None else EngineConfig()
        config.two_stage = False
        super().__init__(KeepAllFilter(), config)

    def fit(self, task: TabularTask) -> AFEResult:
        started = time.perf_counter()
        working = self._select_agent_features(task)
        evaluator = self._make_evaluator(working)
        service = self._make_service(evaluator)
        space = FeatureSpace(
            working,
            max_order=self.config.max_order,
            max_subgroup=self.config.max_subgroup,
            seed=self.config.seed,
        )
        rng = np.random.default_rng(self.config.seed)
        base_score = service.evaluate(working.X.to_array(), working.y)
        result = AFEResult(
            dataset=task.name,
            method=self.method_name,
            task=task.task,
            base_score=base_score,
            best_score=base_score,
            selected_features=list(working.X.columns),
            stats=service.stats,
        )
        current_score = base_score
        best_score = base_score
        best_features = list(space.feature_names())
        # Bandit-style selection value per accepted feature name.
        selection_value: dict[str, float] = {}
        for epoch in range(self.config.n_epochs):
            for agent_index in range(space.n_agents):
                for _ in range(self.config.transforms_per_agent):
                    action = int(rng.integers(0, space.n_actions))
                    feature = space.generate(agent_index, action)
                    if feature is None:
                        continue
                    result.n_generated += 1
                    score = service.evaluate(
                        space.trial_matrix(feature.values),
                        working.y,
                        base_token=space.matrix_token(),
                        column=feature.values,
                    )
                    gain = score - current_score
                    selection_value[feature.name] = gain
                    if gain > 0.0:
                        space.accept(agent_index, feature)
                        current_score = score
                    if score > best_score:
                        best_score = score
                        best_features = list(space.feature_names())
            result.history.append(
                EpochRecord(
                    epoch=epoch,
                    elapsed=time.perf_counter() - started,
                    n_evaluations=evaluator.n_evaluations,
                    best_score=best_score,
                )
            )
        result.best_score = best_score
        result.selected_features = best_features
        result.n_downstream_evaluations = evaluator.n_evaluations
        result.evaluation_time = evaluator.total_eval_time
        name_to_column = {
            feature.name: feature.values
            for group in space.subgroups
            for feature in group.members
        }
        columns = [
            name_to_column[name] for name in best_features if name in name_to_column
        ]
        if columns:
            result.selected_matrix = np.column_stack(columns)
        result.wall_time = time.perf_counter() - started
        return result
