"""Random-search AFE: the sanity lower bound.

Not a paper baseline, but the canonical control for any learned AFE:
uniform-random actions with greedy acceptance and *no* policy learning,
no filtering, no staging.  Any learned engine that cannot beat this on
average has a bug; tests and ablation benches rely on it.
"""

from __future__ import annotations

import copy
import time

import numpy as np

from ..core.engine import AFEEngine, AFEResult, EngineConfig, EpochRecord
from ..core.filters import KeepAllFilter
from ..datasets.generators import TabularTask
from ..rl.environment import FeatureSpace

__all__ = ["RandomAFE"]


class RandomAFE(AFEEngine):
    """Uniform-random transformation search with greedy acceptance."""

    method_name = "RandomAFE"

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
        current_score = base_score
        best_score = base_score
        best_features = list(space.feature_names())
        result = AFEResult(
            dataset=task.name,
            method=self.method_name,
            task=task.task,
            base_score=base_score,
            best_score=base_score,
            selected_features=best_features,
            stats=service.stats,
        )
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
                    if score > current_score:
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
        result.wall_time = time.perf_counter() - started
        return result
