"""The feature-space environment (Section II, Figure 3).

The environment is the generated-feature subspace: one
:class:`FeatureSubgroup` per original feature.  A step is

    1. agent j samples two operand features from subgroup j
       (with replacement; unary actions reuse the first operand),
    2. the chosen OPERATOR produces a new feature,
    3. a discriminator decides qualified/unqualified,
    4. qualified features join subgroup j — the state expands.

The environment itself is model-free: who plays the discriminator (FPE
model, downstream task, random dropout) is injected by the engines.
"""

from __future__ import annotations

import numpy as np

from ..datasets.generators import TabularTask
from ..eval.fingerprint import content_digest
from ..operators.composer import FeatureSubgroup, GeneratedFeature, compose
from ..operators.registry import OperatorRegistry, default_registry

__all__ = ["FeatureSpace"]

#: Length of the per-agent state summary fed to the policy network.
STATE_DIM = 6


class FeatureSpace:
    """Multi-subgroup feature environment for one target dataset.

    Parameters
    ----------
    task:
        The target dataset (original features + label).
    registry:
        Action space; defaults to the paper's nine operators.
    max_order:
        Maximum expression depth (paper default 5, swept in Fig. 8(3)).
    max_subgroup:
        Cap on features a single subgroup can accumulate.
    """

    def __init__(
        self,
        task: TabularTask,
        registry: OperatorRegistry | None = None,
        max_order: int = 5,
        max_subgroup: int = 64,
        seed: int = 0,
    ) -> None:
        if max_order < 2:
            raise ValueError("max_order must be at least 2")
        self.task = task
        self.registry = registry or default_registry()
        self.max_order = max_order
        self.rng = np.random.default_rng(seed)
        self.subgroups: list[FeatureSubgroup] = []
        for name in task.X.columns:
            root = GeneratedFeature(name, task.X[name], order=1, origin=name)
            self.subgroups.append(
                FeatureSubgroup(root, max_members=max_subgroup)
            )
        self._last_rewards = np.zeros(len(self.subgroups))
        # The group-ordered design matrix of the current state, built
        # on first use and dropped whenever the state changes.
        self._matrix: np.ndarray | None = None
        self._token: str | None = None

    @property
    def n_agents(self) -> int:
        return len(self.subgroups)

    @property
    def n_actions(self) -> int:
        return len(self.registry)

    @property
    def state_dim(self) -> int:
        return STATE_DIM

    # -- state ---------------------------------------------------------------
    def state_vector(self, agent_index: int) -> np.ndarray:
        """Fixed-size summary of subgroup ``agent_index``.

        Components: subgroup fill fraction, mean and max expression order
        (normalized by max_order), last reward seen by this agent, the
        fraction of degenerate members, and a bias constant.
        """
        group = self._group(agent_index)
        orders = np.array([f.order for f in group.members], dtype=np.float64)
        degenerate = np.mean([f.is_degenerate() for f in group.members])
        return np.array(
            [
                len(group) / group.max_members,
                orders.mean() / self.max_order,
                orders.max() / self.max_order,
                float(self._last_rewards[agent_index]),
                float(degenerate),
                1.0,
            ]
        )

    def record_reward(self, agent_index: int, reward: float) -> None:
        """Expose the most recent reward through the next state vector."""
        self._group(agent_index)  # validates the index
        self._last_rewards[agent_index] = reward

    def rng_snapshot(self) -> dict:
        """State of the shared operand-sampling RNG.

        Generation is the only environment transition that draws from
        the RNG (acceptance and reward recording do not), so
        :meth:`rng_restore` to a snapshot makes a re-run draw the
        identical operand sequence.  No search path calls it: agents
        draw from this RNG in agent order, and the engine's speculation
        keeps the sweep it generated instead of rewinding.
        """
        return self.rng.bit_generator.state

    def rng_restore(self, state: dict) -> None:
        """Rewind the operand-sampling RNG to a :meth:`rng_snapshot`."""
        self.rng.bit_generator.state = state

    # -- transitions -----------------------------------------------------------
    def generate(
        self, agent_index: int, action_index: int
    ) -> GeneratedFeature | None:
        """Apply one action; returns the new feature or None if blocked.

        None means the transformation was structurally impossible
        (operand order would exceed ``max_order``) or produced a
        duplicate/degenerate column — the cases Figure 3 discards
        before evaluation.
        """
        group = self._group(agent_index)
        operator = self.registry.by_index(action_index)
        first, second = group.sample_operands(self.rng, operator.arity)
        produced = compose(operator, first, second)
        if produced.order > self.max_order:
            return None
        if produced.name in group.names:
            return None
        if produced.is_degenerate():
            return None
        return produced

    def accept(self, agent_index: int, feature: GeneratedFeature) -> bool:
        """Add a qualified feature to its subgroup (state expansion)."""
        added = self._group(agent_index).add(feature)
        if added:
            self.invalidate_matrix()
        return added

    def invalidate_matrix(self) -> None:
        """Drop the materialized design matrix (state changed)."""
        self._matrix = None
        self._token = None

    # -- views ------------------------------------------------------------------
    def generated_features(self) -> list[GeneratedFeature]:
        """Every non-root feature currently in the state."""
        produced = []
        for group in self.subgroups:
            produced.extend(group.members[1:])
        return produced

    def feature_matrix(self) -> np.ndarray:
        """Original + generated features as one read-only design matrix.

        Built once per state version; an :meth:`accept` builds a new
        matrix and never touches one already handed out, so callers
        may keep it.  Column order is group by group, members in
        acceptance order — downstream CV scores are sensitive to
        column permutation, so the order is part of the contract.
        """
        if self._matrix is None:
            matrix = np.column_stack(
                [
                    feature.values
                    for group in self.subgroups
                    for feature in group.members
                ]
            )
            matrix.flags.writeable = False
            self._matrix = matrix
        return self._matrix

    def trial_matrix(self, values: np.ndarray) -> np.ndarray:
        """Design matrix extended by one candidate column (read-only)."""
        matrix = np.column_stack([self.feature_matrix(), values])
        matrix.flags.writeable = False
        return matrix

    def matrix_token(self) -> str:
        """Content token of the current design matrix (cached per version)."""
        if self._token is None:
            self._token = content_digest(self.feature_matrix())
        return self._token

    def feature_names(self) -> list[str]:
        """Names of every feature currently in the state, in matrix order."""
        return [
            feature.name
            for group in self.subgroups
            for feature in group.members
        ]

    def _group(self, agent_index: int) -> FeatureSubgroup:
        if not 0 <= agent_index < len(self.subgroups):
            raise IndexError(
                f"agent index {agent_index} out of range for {len(self.subgroups)}"
            )
        return self.subgroups[agent_index]
