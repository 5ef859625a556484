"""One agent's acceptance cannot change another agent's sweep.

``AFEEngine._stage2`` generates agent k+1's sweep while agent k's batch
is in flight and keeps it when agent k accepts a feature.  That is
bit-identical to generating the sweep at agent k+1's own turn only if
nothing agent k's turn does after its sweep (accepting into its own
subgroup, recording its own reward) reaches agent k+1's sweep or the
RNGs it draws from.  These tests check exactly that, per filter kind.
"""

import numpy as np
import pytest

from repro.core import (
    AFEEngine,
    AFEResult,
    EngineConfig,
    FPEFilter,
    FPEModel,
    KeepAllFilter,
    RandomFilter,
)
from repro.datasets import make_classification
from repro.operators.composer import compose
from repro.rl.environment import FeatureSpace
from repro.rl.policy import MultiAgentController

AGENT = 1  # agent k; the sweep under test is agent k+1's


def _fpe_filter():
    model = FPEModel(d=8, seed=0)
    H = np.random.default_rng(0).normal(size=(20, 8))
    model.fit_signatures(H, (H[:, 4] > 0).astype(int))
    return FPEFilter(model)


FILTERS = {
    "keep_all": KeepAllFilter,
    "random": lambda: RandomFilter(keep_rate=0.5, seed=2),
    "fpe": _fpe_filter,
}


def _new_feature(space, agent_index):
    """A valid feature for ``agent_index`` built without drawing an RNG."""
    group = space.subgroups[agent_index]
    root = group.members[0]
    for index in range(space.n_actions):
        feature = compose(space.registry.by_index(index), root, root)
        if feature.name not in group.names and not feature.is_degenerate():
            return feature
    raise AssertionError("no operator yields a new feature")


def _next_sweep(make_filter, intervene):
    """Generate agent k's then agent k+1's sweep, optionally accepting
    a feature and recording a reward for agent k in between."""
    task = make_classification(n_samples=60, n_features=4, seed=2)
    space = FeatureSpace(task, seed=7)
    controller = MultiAgentController(
        n_agents=space.n_agents,
        n_actions=space.n_actions,
        state_dim=space.state_dim,
        seed=3,
    )
    candidate_filter = make_filter()
    engine = AFEEngine(
        candidate_filter, EngineConfig(transforms_per_agent=8, seed=0)
    )
    result = AFEResult(
        dataset=task.name, method="test", task=task.task,
        base_score=0.0, best_score=0.0, selected_features=[],
    )
    generated = []
    generate = space.generate

    def recording_generate(agent_index, action):
        feature = generate(agent_index, action)
        generated.append(
            None if feature is None else (feature.name, feature.values.copy())
        )
        return feature

    space.generate = recording_generate
    engine._generate_sweep(space, controller, AGENT, result)
    if intervene:
        matrix = space.feature_matrix()
        assert space.accept(AGENT, _new_feature(space, AGENT))
        space.record_reward(AGENT, 0.25)
        assert space.feature_matrix().shape[1] == matrix.shape[1] + 1
    del generated[:]
    plan = engine._generate_sweep(space, controller, AGENT + 1, result)
    filter_rng = getattr(candidate_filter, "_rng", None)
    return {
        "steps": plan.steps,
        "kept": [slot for slot, _, _, _ in plan.pending],
        "generated": generated,
        "space_rng": space.rng.bit_generator.state,
        "agents": [
            (agent._rng.bit_generator.state, agent.h.copy())
            for agent in controller.agents
        ],
        "filter_rng": (
            None if filter_rng is None else filter_rng.bit_generator.state
        ),
        "counts": (result.n_generated, result.n_filtered_out),
    }


@pytest.mark.parametrize("kind", sorted(FILTERS))
def test_acceptance_leaves_next_agents_sweep_unchanged(kind):
    plain = _next_sweep(FILTERS[kind], intervene=False)
    moved = _next_sweep(FILTERS[kind], intervene=True)
    assert len(plain["steps"]) == len(moved["steps"]) == 8
    for left, right in zip(plain["steps"], moved["steps"]):
        assert left.agent_index == right.agent_index == AGENT + 1
        assert np.array_equal(left.state, right.state)
        assert left.action == right.action
        assert left.reward == right.reward
    assert plain["kept"] == moved["kept"]
    if kind != "keep_all":
        # The filter rejects some of the sweep, so keep decisions count.
        assert 0 < len(plain["kept"]) < 6
    assert len(plain["generated"]) == len(moved["generated"]) == 8
    for left, right in zip(plain["generated"], moved["generated"]):
        assert (left is None) == (right is None)
        if left is not None:
            assert left[0] == right[0]
            assert np.array_equal(left[1], right[1])
    assert plain["space_rng"] == moved["space_rng"]
    for (left_rng, left_h), (right_rng, right_h) in zip(
        plain["agents"], moved["agents"]
    ):
        assert left_rng == right_rng
        assert np.array_equal(left_h, right_h)
    assert plain["filter_rng"] == moved["filter_rng"]
    assert plain["counts"] == moved["counts"]
