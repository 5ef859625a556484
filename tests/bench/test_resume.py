"""Bench harness resume: completed cells replay bit-identically."""

import pytest

from repro.bench import harness
from repro.bench.harness import (
    active_run_store,
    bench_config,
    run_methods,
    run_single,
    set_run_store,
)
from repro.bench.multi_seed import run_multi_seed
from repro.datasets import make_classification
from repro.store import RunStore


@pytest.fixture
def task():
    return make_classification(
        name="resume-task", n_samples=70, n_features=3, seed=0
    )


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "runs.db"))


def _counting_make_method(monkeypatch):
    calls = []
    original = harness.make_method

    def counted(name, config, fpe=None):
        calls.append((name, config.seed))
        return original(name, config, fpe=fpe)

    monkeypatch.setattr(harness, "make_method", counted)
    return calls


class TestStoredPlans:
    def test_completed_cell_carries_deployable_plan(self, task, store):
        from repro.api import FeaturePlan
        from repro.store import config_hash

        config = bench_config(seed=0)
        result = run_single(task, "NFS", config, run_store=store, resume=False)
        cell_hash = f"{config_hash(config)}|fpe:none"
        payload = store.completed_plan(task.name, "NFS", 0, cell_hash)
        assert payload is not None
        plan = FeaturePlan.from_dict(payload)
        assert plan.provenance["method"] == "NFS"
        assert plan.provenance["best_score"] == result.best_score
        transformed = plan.transform(task.X.to_array())
        assert transformed.shape[0] == task.n_samples
        assert [record.method for record, _ in store.plans()] == ["NFS"]


class TestRunSingleResume:
    def test_completed_cell_is_replayed_bit_identically(
        self, task, store, monkeypatch
    ):
        calls = _counting_make_method(monkeypatch)
        config = bench_config(seed=0)
        first = run_single(task, "NFS", config, run_store=store, resume=True)
        second = run_single(task, "NFS", config, run_store=store, resume=True)
        assert calls == [("NFS", 0)]  # the second call never built a method
        assert second.to_dict(include_matrix=True) == first.to_dict(
            include_matrix=True
        )
        assert second.best_score == first.best_score
        assert second.wall_time == first.wall_time

    def test_resume_off_reruns_and_overwrites(self, task, store, monkeypatch):
        calls = _counting_make_method(monkeypatch)
        config = bench_config(seed=0)
        run_single(task, "NFS", config, run_store=store, resume=False)
        run_single(task, "NFS", config, run_store=store, resume=False)
        assert len(calls) == 2
        assert store.counts() == {"completed": 1}  # one cell, overwritten

    def test_fpe_identity_part_of_cell_key(self, task, store, monkeypatch):
        # Same config, different FPE constructor identity → distinct
        # cells (the Figure 8 dimension-sweep hazard).
        from repro.bench.harness import _fpe_token
        from repro.core.fpe import FPEModel

        assert _fpe_token(None) == "none"
        assert _fpe_token(FPEModel(method="ccws", d=16, seed=0)) != _fpe_token(
            FPEModel(method="ccws", d=48, seed=0)
        )
        calls = _counting_make_method(monkeypatch)
        config = bench_config(seed=0)
        import numpy as np

        def fitted_fpe(d):
            model = FPEModel(d=d, seed=0)
            H = np.random.default_rng(0).normal(size=(20, d))
            model.fit_signatures(H, (H[:, 0] > 0).astype(int))
            return model

        run_single(
            task, "NFS", config, fpe=fitted_fpe(8), run_store=store,
            resume=True,
        )
        run_single(
            task, "NFS", config, fpe=fitted_fpe(16), run_store=store,
            resume=True,
        )
        assert len(calls) == 2  # no spurious replay across FPE variants

    def test_config_change_invalidates_cell(self, task, store, monkeypatch):
        calls = _counting_make_method(monkeypatch)
        run_single(
            task, "NFS", bench_config(seed=0), run_store=store, resume=True
        )
        changed = bench_config(seed=0, n_epochs=2)
        run_single(task, "NFS", changed, run_store=store, resume=True)
        assert len(calls) == 2  # different hash, different cell

    def test_no_store_runs_directly(self, task, monkeypatch):
        calls = _counting_make_method(monkeypatch)
        run_single(task, "NFS", bench_config(seed=0))
        run_single(task, "NFS", bench_config(seed=0))
        assert len(calls) == 2

    def test_set_run_store_activates_store(self, task, tmp_path, monkeypatch):
        path = str(tmp_path / "installed-runs.db")
        # The store registry caches by path; a tmp path is always fresh.
        calls = _counting_make_method(monkeypatch)
        previous = set_run_store(path, resume=True)
        try:
            run_single(task, "NFS", bench_config(seed=0))
            run_single(task, "NFS", bench_config(seed=0))
        finally:
            set_run_store(*previous)
        assert len(calls) == 1
        assert RunStore(path).counts() == {"completed": 1}
        assert active_run_store() is None


class TestSweepResume:
    def test_interrupted_multi_seed_skips_completed_seeds(
        self, task, store, monkeypatch
    ):
        calls = _counting_make_method(monkeypatch)
        config = bench_config()
        # "Killed" sweep: only seeds 0 and 1 completed.
        partial = run_multi_seed(
            "NFS", task, config, seeds=(0, 1), run_store=store, resume=True
        )
        # Resumed sweep over all three seeds re-runs only seed 2.
        full = run_multi_seed(
            "NFS", task, config, seeds=(0, 1, 2), run_store=store, resume=True
        )
        assert [seed for _, seed in calls] == [0, 1, 2]
        assert full.best_scores[:2] == partial.best_scores
        assert full.evaluations[:2] == partial.evaluations

    def test_run_methods_resumes_per_method(self, task, store, monkeypatch):
        calls = _counting_make_method(monkeypatch)
        config = bench_config(seed=0)
        first = run_methods(
            task, ("NFS", "AutoFSR"), config, run_store=store, resume=True
        )
        second = run_methods(
            task, ("NFS", "AutoFSR"), config, run_store=store, resume=True
        )
        assert [name for name, _ in calls] == ["NFS", "AutoFSR"]
        for method in ("NFS", "AutoFSR"):
            assert (
                second[method].to_dict() == first[method].to_dict()
            )
