"""Unit tests for the FeatureSpace environment (Fig. 3 transitions)."""

import numpy as np
import pytest

from repro.datasets import make_classification
from repro.operators import GeneratedFeature
from repro.rl import FeatureSpace


def _space(**kwargs):
    task = make_classification(n_samples=60, n_features=4, seed=0)
    defaults = {"seed": 0}
    defaults.update(kwargs)
    return FeatureSpace(task, **defaults)


class TestConstruction:
    def test_one_agent_per_original_feature(self):
        space = _space()
        assert space.n_agents == 4

    def test_action_space_is_registry_size(self):
        assert _space().n_actions == 9

    def test_subgroups_start_with_roots(self):
        space = _space()
        assert all(len(group) == 1 for group in space.subgroups)

    def test_invalid_max_order(self):
        with pytest.raises(ValueError):
            _space(max_order=1)


class TestStateVector:
    def test_shape_and_bias(self):
        state = _space().state_vector(0)
        assert state.shape == (6,)
        assert state[-1] == 1.0

    def test_invalid_index(self):
        with pytest.raises(IndexError):
            _space().state_vector(9)

    def test_reward_appears_in_state(self):
        space = _space()
        space.record_reward(1, 0.75)
        assert space.state_vector(1)[3] == 0.75

    def test_state_grows_with_subgroup(self):
        space = _space()
        before = space.state_vector(0)[0]
        feature = space.generate(0, 6)  # mul
        assert feature is not None
        space.accept(0, feature)
        after = space.state_vector(0)[0]
        assert after > before


class TestGenerate:
    def test_generates_feature_with_provenance(self):
        space = _space()
        feature = space.generate(0, 6)  # mul(f0,f0)
        assert feature is not None
        assert feature.origin == "f0"
        assert feature.order == 2
        assert feature.n_samples == 60

    def test_duplicate_rejected(self):
        space = _space(seed=1)
        first = space.generate(0, 6)
        space.accept(0, first)
        # Only one member existed when first was created, so repeating
        # the same action on the same operands collides by name.
        attempts = [space.generate(0, 6) for _ in range(10)]
        names = {f.name for f in attempts if f is not None}
        assert first.name not in names

    def test_max_order_enforced(self):
        space = _space(max_order=2)
        first = space.generate(0, 6)
        space.accept(0, first)
        # Keep generating; any produced feature must respect the cap.
        for _ in range(20):
            feature = space.generate(0, 6)
            if feature is not None:
                assert feature.order <= 2

    def test_degenerate_rejected(self):
        space = _space()
        # sub(f0,f0) = 0 everywhere -> degenerate -> None.
        # Force operands deterministic: single member subgroup.
        feature = space.generate(0, 5)  # sub
        assert feature is None

    def test_bad_action_index(self):
        with pytest.raises(IndexError):
            _space().generate(0, 42)


class TestAcceptAndViews:
    def test_accept_expands_state(self):
        space = _space()
        feature = space.generate(0, 6)
        assert space.accept(0, feature)
        assert len(space.subgroups[0]) == 2

    def test_generated_features_lists_non_roots(self):
        space = _space()
        assert space.generated_features() == []
        space.accept(0, space.generate(0, 6))
        assert len(space.generated_features()) == 1

    def test_feature_matrix_shape(self):
        space = _space()
        space.accept(0, space.generate(0, 6))
        matrix = space.feature_matrix()
        assert matrix.shape == (60, 5)

    def test_feature_names_align_with_matrix(self):
        space = _space()
        space.accept(0, space.generate(0, 6))
        assert len(space.feature_names()) == space.feature_matrix().shape[1]

    def test_accept_rejects_duplicate_name(self):
        space = _space()
        feature = space.generate(0, 6)
        space.accept(0, feature)
        clone = GeneratedFeature(feature.name, feature.values, order=2)
        assert not space.accept(0, clone)


def _first_feature(space, agent_index, start=0):
    """The first generable feature of ``agent_index`` from ``start`` on."""
    for action in range(start, space.n_actions):
        feature = space.generate(agent_index, action)
        if feature is not None:
            return action, feature
    raise AssertionError("no generable feature")


def _legacy_matrix(space):
    return np.column_stack(
        [f.values for g in space.subgroups for f in g.members]
    )


class TestDesignMatrix:
    def test_feature_matrix_matches_legacy_column_stack(self):
        space = _space()
        np.testing.assert_array_equal(
            space.feature_matrix(), _legacy_matrix(space)
        )

    def test_trial_matrix_matches_legacy_column_stack(self):
        space = _space()
        _, feature = _first_feature(space, 0)
        expected = np.column_stack([space.feature_matrix(), feature.values])
        np.testing.assert_array_equal(
            space.trial_matrix(feature.values), expected
        )

    def test_accept_invalidates_and_rebuilds(self):
        task = make_classification(n_samples=60, n_features=4, seed=1)
        space = FeatureSpace(task, seed=1)
        before = space.feature_matrix().shape[1]
        token_before = space.matrix_token()
        _, feature = _first_feature(space, 1)
        assert space.accept(1, feature)
        after = space.feature_matrix()
        assert after.shape[1] == before + 1
        assert space.matrix_token() != token_before
        np.testing.assert_array_equal(after, _legacy_matrix(space))

    def test_token_stable_per_version(self):
        space = _space()
        assert space.matrix_token() == space.matrix_token()

    def test_handed_out_matrices_are_read_only(self):
        space = _space()
        _, feature = _first_feature(space, 0)
        with pytest.raises(ValueError):
            space.feature_matrix()[0, 0] = 1.0
        with pytest.raises(ValueError):
            space.trial_matrix(feature.values)[0, 0] = 1.0

    def test_held_feature_matrix_survives_accept_and_rebuild(self):
        space = _space()
        action, first = _first_feature(space, 0)
        assert space.accept(0, first)
        held = space.feature_matrix()
        copy = held.copy()
        # A second member of group 0 shifts every later group's columns.
        _, second = _first_feature(space, 0, start=action + 1)
        assert space.accept(0, second)
        space.feature_matrix()
        np.testing.assert_array_equal(held, copy)

    def test_held_trial_matrix_survives_next_trial(self):
        space = _space()
        action, first = _first_feature(space, 0)
        _, second = _first_feature(space, 0, start=action + 1)
        held = space.trial_matrix(first.values)
        copy = held.copy()
        space.trial_matrix(second.values)
        np.testing.assert_array_equal(held, copy)
