"""Run store: cell lifecycle, resume payloads, and config hashing."""

from dataclasses import replace

from repro import EngineConfig
from repro.store import RunStore, config_hash


def _store(tmp_path):
    return RunStore(str(tmp_path / "runs.db"))


class TestConfigHash:
    def test_stable_across_instances(self):
        assert config_hash(EngineConfig()) == config_hash(EngineConfig())

    def test_seed_excluded(self):
        # The seed is its own run-store axis; same config, different
        # seed must share a hash.
        base = EngineConfig()
        assert config_hash(base) == config_hash(replace(base, seed=7))

    def test_hyperparameters_included(self):
        base = EngineConfig()
        assert config_hash(base) != config_hash(replace(base, n_epochs=99))
        assert config_hash(base) != config_hash(replace(base, thre=0.5))

    def test_execution_only_knobs_excluded(self):
        # Backend/cache/store knobs cannot change scores (PR 1 bit-
        # equality), so they must not invalidate completed cells.
        base = EngineConfig()
        assert config_hash(base) == config_hash(
            replace(base, eval_backend="pool", eval_workers=4)
        )
        assert config_hash(base) == config_hash(replace(base, eval_cache=False))
        assert config_hash(base) == config_hash(
            replace(base, eval_store_path="/tmp/moved.db")
        )


class TestRunStoreLifecycle:
    def test_running_cell_is_not_resumable(self, tmp_path):
        store = _store(tmp_path)
        store.start("ds", "NFS", 0, "h")
        assert store.completed_payload("ds", "NFS", 0, "h") is None
        assert store.counts() == {"running": 1}

    def test_finish_stores_payload_and_metrics(self, tmp_path):
        store = _store(tmp_path)
        store.start("ds", "NFS", 0, "h")
        payload = {
            "best_score": 0.875,
            "n_downstream_evaluations": 12,
            "n_cache_hits": 3,
            "n_cache_misses": 9,
            "wall_time": 1.5,
        }
        store.finish("ds", "NFS", 0, "h", payload)
        assert store.completed_payload("ds", "NFS", 0, "h") == payload
        record = store.records(status="completed")[0]
        assert record.best_score == 0.875
        assert record.n_evaluations == 12
        assert record.n_cache_hits == 3

    def test_completion_survives_reopen(self, tmp_path):
        path = str(tmp_path / "runs.db")
        RunStore(path).finish("ds", "NFS", 1, "h", {"best_score": 0.5})
        fresh = RunStore(path)
        assert fresh.completed_payload("ds", "NFS", 1, "h") == {
            "best_score": 0.5
        }

    def test_start_never_demotes_completed_cell(self, tmp_path):
        store = _store(tmp_path)
        store.finish("ds", "NFS", 0, "h", {"best_score": 0.5})
        store.start("ds", "NFS", 0, "h")  # a resumed sweep re-announces
        assert store.completed_payload("ds", "NFS", 0, "h") is not None
        assert store.counts() == {"completed": 1}

    def test_cells_keyed_by_all_four_axes(self, tmp_path):
        store = _store(tmp_path)
        store.finish("ds", "NFS", 0, "h", {"best_score": 0.5})
        assert store.completed_payload("other", "NFS", 0, "h") is None
        assert store.completed_payload("ds", "E-AFE", 0, "h") is None
        assert store.completed_payload("ds", "NFS", 1, "h") is None
        assert store.completed_payload("ds", "NFS", 0, "other") is None

    def test_records_ordering_and_clear(self, tmp_path):
        store = _store(tmp_path)
        store.finish("b", "NFS", 0, "h", {"best_score": 0.1})
        store.finish("a", "NFS", 1, "h", {"best_score": 0.2})
        records = store.records()
        assert [r.dataset for r in records] == ["a", "b"]
        assert len(store) == 2
        store.clear()
        assert len(store) == 0

    def test_shares_file_with_score_backend(self, tmp_path):
        # Both subsystems may live in one database: disjoint tables.
        from repro.store import SqliteBackend

        path = str(tmp_path / "both.db")
        backend = SqliteBackend(path)
        store = RunStore(path)
        backend.put("score-key", 0.5)
        store.finish("ds", "NFS", 0, "h", {"best_score": 0.9})
        assert SqliteBackend(path).get("score-key") == 0.5
        assert RunStore(path).completed_payload("ds", "NFS", 0, "h") is not None
