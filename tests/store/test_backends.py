"""Cache backends: memory, SQLite, write-through, and factory wiring."""

import pytest

from repro.store import (
    MemoryBackend,
    SqliteBackend,
    WriteThroughBackend,
    make_eval_backend,
)


class TestMemoryBackend:
    def test_roundtrip(self):
        backend = MemoryBackend()
        assert backend.get("k") is None
        backend.put("k", 0.5)
        assert backend.get("k") == 0.5
        assert len(backend) == 1

    def test_eviction_bound(self):
        backend = MemoryBackend(max_entries=3)
        for i in range(10):
            backend.put(f"key{i}", float(i))
        assert len(backend) == 3
        assert backend.get("key9") == 9.0

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            MemoryBackend(max_entries=0)


class TestSqliteBackend:
    def test_roundtrip_and_upsert(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "scores.db"))
        assert backend.get("k") is None
        backend.put("k", 0.25)
        backend.put("k", 0.75)  # last write wins
        assert backend.get("k") == 0.75
        assert len(backend) == 1

    def test_persistence_across_instances(self, tmp_path):
        path = str(tmp_path / "scores.db")
        SqliteBackend(path).put("k", 1.25)
        fresh = SqliteBackend(path)
        assert fresh.get("k") == 1.25

    def test_put_many_batches(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "scores.db"))
        backend.put_many([("a", 1.0), ("b", 2.0), ("a", 3.0)])
        assert backend.get("a") == 3.0
        assert backend.get("b") == 2.0
        assert len(backend) == 2

    def test_clear_items_vacuum_integrity(self, tmp_path):
        backend = SqliteBackend(str(tmp_path / "scores.db"))
        backend.put_many([("a", 1.0), ("b", 2.0)])
        assert list(backend.items()) == [("a", 1.0), ("b", 2.0)]
        assert backend.integrity_ok()
        backend.clear()
        backend.vacuum()
        assert len(backend) == 0

    def test_scores_survive_exactly(self, tmp_path):
        # Bit-exact float round-trip through SQLite REAL storage.
        backend = SqliteBackend(str(tmp_path / "scores.db"))
        value = 0.1 + 0.2  # not representable prettily
        backend.put("k", value)
        assert SqliteBackend(backend.path).get("k") == value


class TestWriteThroughBackend:
    def test_write_goes_to_both_layers(self, tmp_path):
        front = MemoryBackend()
        back = SqliteBackend(str(tmp_path / "scores.db"))
        cache = WriteThroughBackend(front, back)
        cache.put("k", 0.5)
        assert front.get("k") == 0.5
        assert back.get("k") == 0.5

    def test_back_hit_promoted_to_front(self, tmp_path):
        path = str(tmp_path / "scores.db")
        SqliteBackend(path).put("k", 0.5)
        front = MemoryBackend()
        cache = WriteThroughBackend(front, SqliteBackend(path))
        assert front.get("k") is None
        assert cache.get("k") == 0.5
        assert front.get("k") == 0.5  # promoted

    def test_put_many_batches_to_back(self, tmp_path):
        back = SqliteBackend(str(tmp_path / "scores.db"))
        cache = WriteThroughBackend(MemoryBackend(), back)
        cache.put_many([("a", 1.0), ("b", 2.0)])
        assert cache.get("a") == 1.0
        assert back.get("b") == 2.0

    def test_len_reflects_durable_layer(self, tmp_path):
        path = str(tmp_path / "scores.db")
        SqliteBackend(path).put("old", 1.0)
        cache = WriteThroughBackend(MemoryBackend(), SqliteBackend(path))
        cache.put("new", 2.0)
        assert len(cache) == 2


class TestFactory:
    def test_default_is_memory(self):
        assert isinstance(make_eval_backend(), MemoryBackend)

    def test_explicit_path_builds_write_through(self, tmp_path):
        backend = make_eval_backend(str(tmp_path / "scores.db"))
        assert isinstance(backend, WriteThroughBackend)
        assert isinstance(backend.back, SqliteBackend)

    def test_env_var_fallback(self, tmp_path, monkeypatch):
        # REPRO_EVAL_STORE reaches the factory through bench_config's
        # eval_store_path, the path the engine hands make_eval_backend.
        from repro.bench.harness import bench_config

        path = str(tmp_path / "scores.db")
        monkeypatch.setenv("REPRO_EVAL_STORE", path)
        config = bench_config()
        assert config.eval_store_path == path
        backend = make_eval_backend(config.eval_store_path)
        assert isinstance(backend, WriteThroughBackend)
        assert backend.back.path == path

    def test_explicit_path_wins_over_env(self, tmp_path, monkeypatch):
        # The library never reads REPRO_EVAL_STORE (bench_config does).
        monkeypatch.setenv("REPRO_EVAL_STORE", str(tmp_path / "env.db"))
        explicit = str(tmp_path / "explicit.db")
        assert make_eval_backend(explicit).back.path == explicit
        assert not (tmp_path / "env.db").exists()
