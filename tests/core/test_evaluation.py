"""Unit tests for the downstream evaluator and model factory."""

import numpy as np
import pytest

from repro.core import DownstreamEvaluator, make_downstream_model
from repro.core.evaluation import MODEL_KINDS
from repro.datasets import make_classification, make_regression
from repro.ml import (
    GaussianNB,
    GaussianProcessRegressor,
    LinearSVC,
    MLPClassifier,
    MLPRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)


class TestMakeDownstreamModel:
    def test_rf_classification(self):
        assert isinstance(make_downstream_model("rf", "C"), RandomForestClassifier)

    def test_rf_regression(self):
        assert isinstance(make_downstream_model("rf", "R"), RandomForestRegressor)

    def test_svm(self):
        assert isinstance(make_downstream_model("svm", "C"), LinearSVC)
        assert isinstance(
            make_downstream_model("svm", "R"), GaussianProcessRegressor
        )

    def test_nb_gp(self):
        assert isinstance(make_downstream_model("nb_gp", "C"), GaussianNB)
        assert isinstance(
            make_downstream_model("nb_gp", "R"), GaussianProcessRegressor
        )

    def test_mlp(self):
        assert isinstance(make_downstream_model("mlp", "C"), MLPClassifier)
        assert isinstance(make_downstream_model("mlp", "R"), MLPRegressor)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_downstream_model("xgboost", "C")

    def test_every_listed_kind_builds(self):
        for kind in MODEL_KINDS:
            for task in ("C", "R"):
                assert make_downstream_model(kind, task) is not None

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            make_downstream_model("rf", "X")


class TestDownstreamEvaluator:
    def test_invalid_task(self):
        with pytest.raises(ValueError):
            DownstreamEvaluator(task="Z")

    def test_classification_score_in_unit_interval(self):
        task = make_classification(n_samples=120, n_features=5, seed=0)
        evaluator = DownstreamEvaluator(task="C", n_splits=3, n_estimators=5)
        score = evaluator.evaluate(task.X.to_array(), task.y)
        assert 0.0 <= score <= 1.0

    def test_regression_score_at_most_one(self):
        task = make_regression(n_samples=120, n_features=5, seed=0)
        evaluator = DownstreamEvaluator(task="R", n_splits=3, n_estimators=5)
        assert evaluator.evaluate(task.X.to_array(), task.y) <= 1.0

    def test_counts_every_evaluation(self):
        task = make_classification(n_samples=90, n_features=4, seed=1)
        evaluator = DownstreamEvaluator(task="C", n_splits=3, n_estimators=3)
        for _ in range(3):
            evaluator.evaluate(task.X.to_array(), task.y)
        assert evaluator.n_evaluations == 3
        assert evaluator.total_eval_time > 0.0

    def test_reset_counters(self):
        task = make_classification(n_samples=90, n_features=4, seed=1)
        evaluator = DownstreamEvaluator(task="C", n_splits=3, n_estimators=3)
        evaluator.evaluate(task.X.to_array(), task.y)
        evaluator.reset_counters()
        assert evaluator.n_evaluations == 0
        assert evaluator.total_eval_time == 0.0

    def test_sanitizes_nonfinite_candidates(self):
        task = make_classification(n_samples=90, n_features=4, seed=2)
        matrix = task.X.to_array().copy()
        matrix[0, 0] = np.nan
        matrix[1, 1] = np.inf
        evaluator = DownstreamEvaluator(task="C", n_splits=3, n_estimators=3)
        score = evaluator.evaluate(matrix, task.y)
        assert np.isfinite(score)

    def test_informative_features_score_higher(self):
        task = make_classification(n_samples=200, n_features=6, seed=3)
        evaluator = DownstreamEvaluator(task="C", n_splits=3, n_estimators=5)
        informative = evaluator.evaluate(task.X.to_array(), task.y)
        noise = np.random.default_rng(0).normal(size=(200, 6))
        random_score = evaluator.evaluate(noise, task.y)
        assert informative > random_score

    def test_deterministic(self):
        task = make_classification(n_samples=100, n_features=4, seed=4)
        evaluator = DownstreamEvaluator(task="C", n_splits=3, n_estimators=3, seed=7)
        a = evaluator.evaluate(task.X.to_array(), task.y)
        b = evaluator.evaluate(task.X.to_array(), task.y)
        assert a == b
