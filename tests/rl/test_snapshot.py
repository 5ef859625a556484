"""Snapshot/restore of the controller and the operand-sampling RNG."""

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.rl.environment import FeatureSpace
from repro.rl.policy import MultiAgentController, TrajectoryStep


def _controller(seed=0):
    return MultiAgentController(
        n_agents=3, n_actions=5, state_dim=6, seed=seed
    )


def _states(n, seed=1):
    rng = np.random.default_rng(seed)
    return [rng.normal(size=6) for _ in range(n)]


class TestControllerSnapshot:
    def test_restore_replays_identical_actions(self):
        controller = _controller()
        states = _states(12)
        snapshot = controller.snapshot()
        first = [
            controller.act(i % 3, state) for i, state in enumerate(states)
        ]
        controller.restore(snapshot)
        second = [
            controller.act(i % 3, state) for i, state in enumerate(states)
        ]
        assert first == second

    def test_restore_rewinds_learning_updates(self):
        controller = _controller()
        states = _states(6)
        snapshot = controller.snapshot()
        reference = [controller.act(0, state) for state in states]
        controller.restore(snapshot)
        # A pass that acted *and* learned before the restore.
        steps = [
            TrajectoryStep(0, states[0], controller.act(0, states[0]), 0.5),
            TrajectoryStep(1, states[1], controller.act(1, states[1]), -0.2),
        ]
        controller.update_from_trajectories(steps)
        controller.restore(snapshot)
        assert [controller.act(0, state) for state in states] == reference

    def test_snapshot_is_a_deep_copy(self):
        controller = _controller()
        snapshot = controller.snapshot()
        controller.update_from_trajectories(
            [TrajectoryStep(0, np.ones(6), 1, 1.0)]
        )
        # Mutating the controller after the fact must not corrupt the
        # snapshot that a pending restore still depends on.
        fresh = _controller()
        fresh.restore(snapshot)
        states = _states(6, seed=2)
        expected = [fresh.act(0, state) for state in states]
        controller.restore(snapshot)
        assert [controller.act(0, state) for state in states] == expected

    def test_restore_rejects_mismatched_agent_count(self):
        snapshot = _controller().snapshot()
        other = MultiAgentController(
            n_agents=2, n_actions=5, state_dim=6, seed=0
        )
        with pytest.raises(ValueError, match="agents"):
            other.restore(snapshot)


class TestSpaceRngSnapshot:
    def test_restore_replays_identical_generation(self):
        task = make_classification(n_samples=40, n_features=3, seed=4)
        space = FeatureSpace(task, seed=9)
        snapshot = space.rng_snapshot()
        first = [
            feature.name if feature is not None else None
            for feature in (
                space.generate(i % 3, a % space.n_actions)
                for i, a in enumerate(range(8))
            )
        ]
        space.rng_restore(snapshot)
        second = [
            feature.name if feature is not None else None
            for feature in (
                space.generate(i % 3, a % space.n_actions)
                for i, a in enumerate(range(8))
            )
        ]
        assert first == second
