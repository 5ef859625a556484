"""Fold plans must reproduce the splitters' splits exactly."""

import numpy as np

from repro.ml.model_selection import KFold, StratifiedKFold, plan_folds


def _assert_plans_equal(a, b):
    assert len(a) == len(b)
    for (train_a, test_a), (train_b, test_b) in zip(a, b):
        np.testing.assert_array_equal(train_a, train_b)
        np.testing.assert_array_equal(test_a, test_b)


class TestPlanFolds:
    def test_plain_matches_kfold(self):
        y = np.arange(30, dtype=np.float64)
        plan = plan_folds(y, n_splits=4, seed=3, stratified=False)
        expected = tuple(KFold(4, seed=3).split(30))
        _assert_plans_equal(plan, expected)

    def test_stratified_matches_stratified_kfold(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, size=40).astype(np.float64)
        plan = plan_folds(y, n_splits=4, seed=1, stratified=True)
        expected = tuple(StratifiedKFold(4, seed=1).split(y))
        _assert_plans_equal(plan, expected)

    def test_rare_class_falls_back_to_plain_kfold(self):
        # One singleton class: stratification is impossible, so the plan
        # must match the plain KFold fallback the inline path uses.
        y = np.array([0.0] * 29 + [1.0])
        plan = plan_folds(y, n_splits=3, seed=0, stratified=True)
        expected = tuple(KFold(3, seed=0).split(30))
        _assert_plans_equal(plan, expected)

    def test_splits_capped_by_samples(self):
        y = np.arange(3, dtype=np.float64)
        plan = plan_folds(y, n_splits=5, seed=0)
        assert len(plan) == 3

