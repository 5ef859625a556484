"""Unit tests for the bench harness: factories, profiles, tables."""

import numpy as np
import pytest

from repro.baselines import NFS, AutoFSR, RTDLNBaseline
from repro.bench import (
    ALL_METHODS,
    bench_config,
    bench_dataset,
    bench_profile,
    format_table,
    make_method,
    run_methods,
    set_run_store,
)
from repro.core import EngineConfig, FPEModel, make_evaluator_factory
from repro.datasets import make_classification


def _tiny_fpe():
    corpus = [make_classification(n_samples=50, n_features=4, seed=s) for s in range(2)]
    model = FPEModel(d=8, seed=0)
    model.fit(corpus, make_evaluator_factory(), generated_per_dataset=2)
    return model


FPE = _tiny_fpe()


class TestProfiles:
    def test_default_profile_quick(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        assert bench_profile() == "quick"

    def test_paper_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "paper")
        assert bench_profile() == "paper"
        config = bench_config()
        assert config.n_epochs == 200

    def test_invalid_profile(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_PROFILE", "mega")
        with pytest.raises(ValueError):
            bench_profile()

    def test_quick_config_overridable(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        config = bench_config(n_epochs=7)
        assert config.n_epochs == 7

    def test_quick_dataset_capped(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_PROFILE", raising=False)
        task = bench_dataset("Higgs Boson")
        assert task.n_samples <= 250
        assert task.n_features <= 8


class TestEvalEnvMapping:
    """bench_config is the one reader of the ``REPRO_EVAL_*`` knobs."""

    def test_each_knob_lands_on_its_field(self, tmp_path, monkeypatch):
        path = str(tmp_path / "scores.db")
        for variable, value in (
            ("REPRO_EVAL_BACKEND", "pool"),
            ("REPRO_EVAL_WORKERS", "2"),
            ("REPRO_EVAL_TIMEOUT", "2.5"),
            ("REPRO_EVAL_CACHE", "0"),
            ("REPRO_EVAL_SPECULATION", "0"),
            ("REPRO_EVAL_STORE", path),
            ("REPRO_EVAL_FIDELITY", "ladder"),
        ):
            monkeypatch.setenv(variable, value)
        config = bench_config()
        assert config.eval_backend == "pool"
        assert config.eval_workers == 2
        assert config.eval_timeout == 2.5
        assert config.eval_cache is False
        assert config.eval_speculation is False
        assert config.eval_store_path == path
        assert config.eval_fidelity == "ladder"

    def test_pool_knobs_rejected_on_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_BACKEND", raising=False)
        for variable, value in (
            ("REPRO_EVAL_TIMEOUT", "2.5"), ("REPRO_EVAL_WORKERS", "2"),
        ):
            with monkeypatch.context() as env:
                env.setenv(variable, value)
                with pytest.raises(ValueError, match="is only read"):
                    bench_config()

    def test_store_falls_back_to_active_run_store(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_STORE", raising=False)
        assert bench_config().eval_store_path is None
        previous = set_run_store("runs.db", resume=False)
        try:
            assert bench_config().eval_store_path == "runs.db"
            monkeypatch.setenv("REPRO_EVAL_STORE", "scores.db")
            assert bench_config().eval_store_path == "scores.db"
        finally:
            set_run_store(*previous)


class TestMakeMethod:
    def test_all_table3_methods_construct(self):
        config = EngineConfig(n_epochs=1, seed=0)
        for name in ALL_METHODS:
            engine = make_method(name, config, fpe=FPE)
            assert engine.method_name == name

    def test_specific_types(self):
        config = EngineConfig(n_epochs=1)
        assert isinstance(make_method("NFS", config), NFS)
        assert isinstance(make_method("AutoFSR", config), AutoFSR)
        assert isinstance(make_method("RTDLN", config), RTDLNBaseline)

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            make_method("AutoML-Zero", EngineConfig())

    def test_config_not_shared_between_methods(self):
        config = EngineConfig(n_epochs=5)
        engine = make_method("NFS", config)
        engine.config.n_epochs = 1
        assert config.n_epochs == 5


class TestRunMethods:
    def test_runs_requested_methods(self):
        task = make_classification(n_samples=60, n_features=4, seed=0)
        config = EngineConfig(
            n_epochs=1, stage1_epochs=1, transforms_per_agent=2,
            n_splits=3, n_estimators=3, seed=0,
        )
        results = run_methods(task, ("NFS", "E-AFE"), config, fpe=FPE)
        assert set(results) == {"NFS", "E-AFE"}
        assert results["NFS"].method == "NFS"


class TestFormatTable:
    def test_alignment_and_floats(self):
        text = format_table(
            ["name", "value"], [["a", 0.123456], ["bbbb", 2.0]]
        )
        lines = text.splitlines()
        assert len(lines) == 4
        assert "0.123" in text
        assert lines[0].startswith("name")

    def test_empty_rows(self):
        text = format_table(["col"], [])
        assert "col" in text

    def test_custom_float_format(self):
        text = format_table(["p"], [[0.000012]], float_format="{:.1e}")
        assert "1.2e-05" in text
