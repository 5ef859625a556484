"""Group-wise feature generation (GRFG-inspired extension).

Group-wise Reinforcement Feature Generation (Wang et al., 2022 — the
paper's reference [20]) observes that per-feature agents can only
combine a feature with its own descendants, never with *other* raw
features.  Grouping correlated features into shared subgroups lets
binary operators cross feature boundaries where it is most likely to
pay off, while keeping the number of agents (and hence policy
parameters) small.

This module extends E-AFE with that idea:

* :func:`cluster_features` — hierarchical clustering of features by
  absolute-correlation distance (scipy linkage);
* :class:`GroupwiseFeatureSpace` — a FeatureSpace whose subgroups are
  the clusters, so each agent owns a *group* of raw features;
* :class:`GroupwiseEAFE` — E-AFE over the grouped environment.

It is an extension bench target (DESIGN.md §5), not a paper method.
"""

from __future__ import annotations

import copy

import numpy as np
from scipy.cluster.hierarchy import fcluster, linkage
from scipy.spatial.distance import squareform

from ..datasets.generators import TabularTask
from ..operators.composer import FeatureSubgroup, GeneratedFeature
from ..operators.registry import OperatorRegistry
from ..rl.environment import FeatureSpace
from .engine import AFEEngine, EngineConfig
from .filters import FPEFilter
from .fpe import FPEModel

__all__ = ["cluster_features", "GroupwiseFeatureSpace", "GroupwiseEAFE"]


def cluster_features(X: np.ndarray, n_groups: int) -> list[list[int]]:
    """Partition feature indices into ``n_groups`` correlation clusters.

    Distance between features i and j is ``1 - |corr(i, j)|``; average
    linkage keeps clusters balanced.  Constant columns (undefined
    correlation) are treated as uncorrelated with everything.
    """
    matrix = np.asarray(X, dtype=np.float64)
    if matrix.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n_features = matrix.shape[1]
    if n_groups < 1:
        raise ValueError("n_groups must be positive")
    if n_groups >= n_features:
        return [[j] for j in range(n_features)]
    with np.errstate(invalid="ignore"):
        correlation = np.corrcoef(matrix, rowvar=False)
    correlation = np.nan_to_num(correlation)
    distance = 1.0 - np.abs(correlation)
    np.fill_diagonal(distance, 0.0)
    # Guard tiny negative values from floating error.
    condensed = squareform(np.maximum(distance, 0.0), checks=False)
    tree = linkage(condensed, method="average")
    labels = fcluster(tree, t=n_groups, criterion="maxclust")
    groups: dict[int, list[int]] = {}
    for j, label in enumerate(labels):
        groups.setdefault(int(label), []).append(j)
    return [sorted(members) for _, members in sorted(groups.items())]


class GroupwiseFeatureSpace(FeatureSpace):
    """FeatureSpace whose subgroups are correlation clusters of features."""

    def __init__(
        self,
        task: TabularTask,
        n_groups: int = 4,
        registry: OperatorRegistry | None = None,
        max_order: int = 5,
        max_subgroup: int = 64,
        seed: int = 0,
    ) -> None:
        super().__init__(
            task,
            registry=registry,
            max_order=max_order,
            max_subgroup=max_subgroup,
            seed=seed,
        )
        groups = cluster_features(task.X.to_array(), n_groups)
        columns = task.X.columns
        subgroups: list[FeatureSubgroup] = []
        for members in groups:
            roots = [
                GeneratedFeature(
                    columns[j], task.X[columns[j]], order=1, origin=columns[j]
                )
                for j in members
            ]
            pooled = FeatureSubgroup(roots[0], max_members=max_subgroup)
            for root in roots[1:]:
                pooled.add(root)
            subgroups.append(pooled)
        self.subgroups = subgroups
        self.groups_ = groups
        self._last_rewards = np.zeros(len(subgroups))
        self.invalidate_matrix()  # subgroup layout changed


class GroupwiseEAFE(AFEEngine):
    """E-AFE with cluster-pooled subgroups (one agent per group)."""

    method_name = "E-AFE_G"

    def __init__(
        self,
        fpe: FPEModel,
        config: EngineConfig | None = None,
        n_groups: int = 4,
    ) -> None:
        config = copy.deepcopy(config) if config is not None else EngineConfig()
        config.two_stage = True
        config.per_step_rewards = True
        super().__init__(FPEFilter(fpe), config)
        self.fpe = fpe
        self.n_groups = n_groups

    def _make_space(self, working: TabularTask) -> FeatureSpace:
        return GroupwiseFeatureSpace(
            working,
            n_groups=self.n_groups,
            max_order=self.config.max_order,
            max_subgroup=self.config.max_subgroup,
            seed=self.config.seed,
        )
