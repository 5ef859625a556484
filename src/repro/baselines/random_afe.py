"""Random-search AFE: the sanity lower bound.

Not a paper baseline, but the canonical control for any learned AFE:
uniform-random actions with greedy acceptance and *no* policy learning,
no filtering, no staging.  Any learned engine that cannot beat this on
average has a bug; tests and ablation benches rely on it.
"""

from __future__ import annotations

import copy

import numpy as np

from ..core.engine import AFEEngine, AFEResult, EngineConfig, SearchRun
from ..core.filters import KeepAllFilter

__all__ = ["RandomAFE"]


class RandomAFE(AFEEngine):
    """Uniform-random transformation search with greedy acceptance."""

    method_name = "RandomAFE"

    def __init__(self, config: EngineConfig | None = None) -> None:
        config = copy.deepcopy(config) if config is not None else EngineConfig()
        config.two_stage = False
        super().__init__(KeepAllFilter(), config)

    def _search(self, run: SearchRun) -> AFEResult:
        space = self._make_space(run.working)
        rng = np.random.default_rng(self.config.seed)
        result = run.open_result(self.method_name)
        current_score = best_score = result.base_score
        best_features = list(space.feature_names())
        for epoch in range(self.config.n_epochs):
            for agent_index in range(space.n_agents):
                for _ in range(self.config.transforms_per_agent):
                    action = int(rng.integers(0, space.n_actions))
                    feature = space.generate(agent_index, action)
                    if feature is None:
                        continue
                    result.n_generated += 1
                    score = run.service.evaluate(
                        space.trial_matrix(feature.values),
                        run.working.y,
                        base_token=space.matrix_token(),
                        column=feature.values,
                    )
                    if score > current_score:
                        space.accept(agent_index, feature)
                        current_score = score
                    if score > best_score:
                        best_score = score
                        best_features = list(space.feature_names())
            run.record_epoch(result, epoch, best_score)
        result.best_score = best_score
        result.selected_features = best_features
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
        return result
