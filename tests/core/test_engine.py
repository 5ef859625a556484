"""Integration tests for the AFE engine, E-AFE, and its variants."""

import numpy as np
import pytest

from repro.core import (
    AFEEngine,
    EAFE,
    EngineConfig,
    FPEModel,
    KeepAllFilter,
    make_evaluator_factory,
)
from repro.core.evaluation import MODEL_KINDS
from repro.core.variants import VARIANT_NAMES, make_variant
from repro.datasets import make_classification, make_regression


def _tiny_config(**overrides):
    params = {
        "n_epochs": 2,
        "stage1_epochs": 1,
        "transforms_per_agent": 2,
        "n_splits": 3,
        "n_estimators": 3,
        "max_agents": 5,
        "seed": 0,
    }
    params.update(overrides)
    return EngineConfig(**params)


def _tiny_fpe():
    corpus = [make_classification(n_samples=60, n_features=4, seed=s) for s in range(2)]
    model = FPEModel(d=16, seed=0)
    model.fit(corpus, make_evaluator_factory(), generated_per_dataset=4)
    return model


FPE = _tiny_fpe()


class TestEngineConfig:
    def test_invalid_epochs(self):
        with pytest.raises(ValueError):
            EngineConfig(n_epochs=0)

    def test_invalid_transforms(self):
        with pytest.raises(ValueError):
            EngineConfig(transforms_per_agent=0)

    def test_invalid_lambda(self):
        with pytest.raises(ValueError):
            EngineConfig(lam=1.0)

    def test_unknown_model_kind_refused_at_configuration(self):
        # A typo must fail here, not at the first downstream fit after
        # the RF pre-filter has already run.
        with pytest.raises(ValueError, match="model_kind"):
            EngineConfig(model_kind="randomforest")

    def test_every_buildable_model_kind_accepted(self):
        for kind in MODEL_KINDS + ("RF",):
            assert EngineConfig(model_kind=kind).model_kind == kind


class TestAFEEngineBasics:
    def test_runs_end_to_end_classification(self):
        task = make_classification(n_samples=80, n_features=4, seed=0)
        result = AFEEngine(KeepAllFilter(), _tiny_config()).fit(task)
        assert result.best_score >= result.base_score
        assert result.n_downstream_evaluations > 0
        assert len(result.history) == 2

    def test_runs_end_to_end_regression(self):
        task = make_regression(n_samples=80, n_features=4, seed=0)
        result = AFEEngine(KeepAllFilter(), _tiny_config()).fit(task)
        assert result.task == "R"
        assert result.best_score >= result.base_score

    def test_history_monotone_in_evals_and_score(self):
        task = make_classification(n_samples=80, n_features=4, seed=1)
        result = AFEEngine(KeepAllFilter(), _tiny_config(n_epochs=3)).fit(task)
        evals = [record.n_evaluations for record in result.history]
        scores = [record.best_score for record in result.history]
        assert evals == sorted(evals)
        assert scores == sorted(scores)

    def test_selected_features_include_improvements_only_when_found(self):
        task = make_classification(n_samples=80, n_features=4, seed=2)
        result = AFEEngine(KeepAllFilter(), _tiny_config()).fit(task)
        assert len(result.selected_features) >= 4

    def test_improvement_property(self):
        task = make_classification(n_samples=80, n_features=4, seed=3)
        result = AFEEngine(KeepAllFilter(), _tiny_config()).fit(task)
        assert result.improvement == pytest.approx(
            result.best_score - result.base_score
        )

    def test_agent_prefilter_caps_feature_count(self):
        task = make_classification(n_samples=80, n_features=12, seed=4)
        engine = AFEEngine(KeepAllFilter(), _tiny_config(max_agents=4))
        working = engine._select_agent_features(task)
        assert working.n_features == 4

    def test_prefilter_keeps_small_datasets_intact(self):
        task = make_classification(n_samples=80, n_features=3, seed=5)
        engine = AFEEngine(KeepAllFilter(), _tiny_config(max_agents=8))
        assert engine._select_agent_features(task) is task

    def test_deterministic_given_seed(self):
        task = make_classification(n_samples=80, n_features=4, seed=6)
        a = AFEEngine(KeepAllFilter(), _tiny_config()).fit(task)
        b = AFEEngine(KeepAllFilter(), _tiny_config()).fit(task)
        assert a.best_score == b.best_score
        assert a.n_downstream_evaluations == b.n_downstream_evaluations


class TestEAFE:
    def test_two_stage_forced_on(self):
        engine = EAFE(FPE, _tiny_config(two_stage=False))
        assert engine.config.two_stage is True

    def test_filters_some_candidates(self):
        task = make_classification(n_samples=100, n_features=5, seed=7)
        result = EAFE(FPE, _tiny_config(n_epochs=3)).fit(task)
        assert result.n_generated >= result.n_filtered_out
        # Every generated candidate either got filtered or evaluated —
        # where "evaluated" means a real downstream fit *or* a cache hit
        # (duplicate candidates never pay a second CV).
        evaluated = result.n_generated - result.n_filtered_out
        # +1 for the base-score evaluation.
        assert (
            result.n_downstream_evaluations + result.n_cache_hits
            == evaluated + 1
        )

    def test_fpe_reduces_evaluations_vs_keep_all(self):
        task = make_classification(n_samples=100, n_features=5, seed=8)
        config = _tiny_config(n_epochs=3)
        eafe = EAFE(FPE, config).fit(task)
        keep_all = AFEEngine(KeepAllFilter(), config).fit(task)
        assert eafe.n_downstream_evaluations <= keep_all.n_downstream_evaluations

    def test_method_name(self):
        assert EAFE(FPE, _tiny_config()).method_name == "E-AFE"

    def test_does_not_mutate_caller_config(self):
        # Regression: EAFE used to set two_stage/per_step_rewards on the
        # caller's EngineConfig object, leaking the overrides into every
        # other engine sharing that config.
        shared = _tiny_config(two_stage=False, per_step_rewards=False)
        engine = EAFE(FPE, shared)
        assert engine.config.two_stage is True
        assert engine.config.per_step_rewards is True
        assert shared.two_stage is False
        assert shared.per_step_rewards is False

    def test_repeat_fit_hits_cache(self):
        # Same engine, same task: the persistent cache replays every
        # candidate score instead of refitting, and scores are identical.
        task = make_classification(n_samples=80, n_features=4, seed=10)
        engine = EAFE(FPE, _tiny_config())
        first = engine.fit(task)
        second = engine.fit(task)
        assert second.best_score == first.best_score
        assert second.n_cache_hits > 0
        assert second.n_downstream_evaluations < first.n_downstream_evaluations


class TestVariants:
    def test_all_variants_construct_and_run(self):
        task = make_classification(n_samples=70, n_features=4, seed=9)
        for name in VARIANT_NAMES:
            engine = make_variant(name, _tiny_config(n_epochs=1), fpe=FPE)
            result = engine.fit(task)
            assert result.method == name
            assert result.best_score >= result.base_score

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            make_variant("E-AFE_X")

    def test_hash_variant_uses_right_method(self):
        engine = make_variant("E-AFE_I", _tiny_config())
        assert engine.fpe.method == "icws"

    def test_variant_d_has_no_fpe(self):
        engine = make_variant("E-AFE_D", _tiny_config())
        assert not hasattr(engine, "fpe")

    def test_variant_r_single_stage(self):
        engine = make_variant("E-AFE_R", _tiny_config(), fpe=FPE)
        assert engine.config.two_stage is False
        assert engine.config.per_step_rewards is False

    def test_shared_fpe_not_mutated(self):
        config = _tiny_config()
        make_variant("E-AFE", config, fpe=FPE)
        assert FPE.method == "ccws"
