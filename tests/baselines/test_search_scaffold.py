"""Every searcher runs on AFEEngine.fit's one scaffold.

``AFEEngine.fit`` builds the evaluator and scoring service, closes the
service even when the search raises, and reads the fit count and fit
seconds off the evaluator.  These tests pin what that buys every
searcher: the configured downstream model, no leaked pool resources,
and ``evaluation_time`` that means evaluator fit-seconds.
"""

import glob

import pytest

from repro.api import searcher_registry
from repro.baselines import (
    LFE,
    NFS,
    AutoFSR,
    DlThenFe,
    ExploreKit,
    RandomAFE,
    TransformationGraph,
)
from repro.core import EngineConfig, FPEModel, make_evaluator_factory
from repro.core import evaluation
from repro.core.variants import _HASH_OF_VARIANT
from repro.datasets import load, make_classification
from repro.eval.service import EvaluationService
from repro.eval.shm import segment_prefix


def _config(**overrides):
    params = {
        "n_epochs": 2,
        "stage1_epochs": 1,
        "transforms_per_agent": 2,
        "n_splits": 3,
        "n_estimators": 3,
        "max_agents": 4,
        "seed": 0,
    }
    params.update(overrides)
    return EngineConfig(**params)


CLS_TASK = make_classification(n_samples=90, n_features=4, seed=0)
CORPUS = [make_classification(n_samples=60, n_features=3, seed=s) for s in (1, 2)]


def _own_segments():
    return glob.glob(f"/dev/shm/{segment_prefix()}*")


class TestModelKindHonoured:
    def test_every_searcher_builds_the_configured_model(self, monkeypatch):
        kinds = []
        real = evaluation.make_downstream_model

        def spy(kind, *args, **kwargs):
            kinds.append(kind)
            return real(kind, *args, **kwargs)

        monkeypatch.setattr(evaluation, "make_downstream_model", spy)
        config = _config(model_kind="nb_gp")
        searchers = [
            AutoFSR(config),
            RandomAFE(config),
            NFS(config),
            ExploreKit(config, evaluation_budget=3),
            TransformationGraph(config),
            DlThenFe(config),
            LFE(config).pretrain(CORPUS),
        ]
        for searcher in searchers:
            before = len(kinds)
            result = searcher.fit(CLS_TASK)
            assert result.n_downstream_evaluations > 0, searcher.method_name
            assert len(kinds) > before, searcher.method_name
        assert set(kinds) == {"nb_gp"}


class TestServiceClosedOnError:
    def test_pool_released_when_search_raises(self, monkeypatch):
        real = EvaluationService.score_batch
        live_at_raise = []

        def score_then_fail(self, *args, **kwargs):
            real(self, *args, **kwargs)
            live_at_raise.append(len(_own_segments()))
            raise RuntimeError("injected search failure")

        monkeypatch.setattr(EvaluationService, "score_batch", score_then_fail)
        engine = ExploreKit(
            _config(eval_backend="pool", eval_workers=2), evaluation_budget=3
        )
        with pytest.raises(RuntimeError, match="injected") as info:
            engine.fit(CLS_TASK)
        # The pool fit really ran on a shared-memory base ...
        assert live_at_raise and live_at_raise[0] > 0
        # ... and the scaffold released it while the traceback (and the
        # frames holding the service) is still alive.
        assert info.value is not None
        assert _own_segments() == []


def _tiny_fpe(method):
    corpus = [
        make_classification(n_samples=50, n_features=4, seed=s) for s in range(2)
    ]
    model = FPEModel(method=method, d=8, seed=0)
    model.fit(corpus, make_evaluator_factory(), generated_per_dataset=2)
    return model


class TestEvaluationTime:
    def test_fit_seconds_reported_by_every_fitting_searcher(self):
        registry = searcher_registry()
        checked = []
        for name in registry.names():
            if name == "RTDLN":
                # RTDLN's single "evaluation" is its own ResNet fit on a
                # fixed split, not a DownstreamEvaluator call.
                continue
            # A hash variant given a model of another hash re-trains
            # the default one; hand each its own tiny model instead.
            fpe = _tiny_fpe(_HASH_OF_VARIANT.get(name, "ccws"))
            result = registry.create(name, _config(), fpe=fpe).fit(CLS_TASK)
            if result.n_downstream_evaluations > 0:
                assert result.evaluation_time > 0.0, name
                checked.append(name)
        assert {"AutoFSR", "DL|FE", "FE|DL", "LFE", "ExploreKit"} <= set(checked)


class TestAutoFSRIsRandomAFE:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_search_on_pima(self, seed):
        task = load("PimaIndian", max_samples=250, max_features=8)
        config = _config(n_epochs=3, transforms_per_agent=3, max_agents=6, seed=seed)
        random_result = RandomAFE(config).fit(task)
        autofsr_result = AutoFSR(config).fit(task)
        assert autofsr_result.method == "AutoFSR"
        assert autofsr_result.best_score == random_result.best_score
        assert autofsr_result.selected_features == random_result.selected_features
        assert (
            autofsr_result.n_downstream_evaluations
            == random_result.n_downstream_evaluations
        )
        assert random_result.selected_matrix is not None
        assert random_result.selected_matrix.shape[0] == task.n_samples
