"""python -m repro.store maintenance CLI."""

import json

import pytest

from repro.store import RunStore, SqliteBackend
from repro.store.__main__ import main


@pytest.fixture
def populated(tmp_path):
    path = str(tmp_path / "store.db")
    backend = SqliteBackend(path)
    backend.put_many([("a", 1.0), ("b", 2.0)])
    store = RunStore(path)
    store.finish("ds", "NFS", 0, "hash", {"best_score": 0.9, "wall_time": 1.0})
    store.start("ds", "NFS", 1, "hash")
    return path


class TestStoreCLI:
    def test_stats(self, populated, capsys):
        assert main(["stats", populated]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["n_scores"] == 2
        assert stats["n_runs"] == 2
        assert stats["runs_by_status"] == {"completed": 1, "running": 1}

    def test_export_stdout(self, populated, capsys):
        assert main(["export", populated]) == 0
        document = json.loads(capsys.readouterr().out)
        assert {entry["key"] for entry in document["scores"]} == {"a", "b"}
        statuses = {run["status"] for run in document["runs"]}
        assert statuses == {"completed", "running"}

    def test_export_to_file(self, populated, tmp_path, capsys):
        out = str(tmp_path / "dump.json")
        assert main(["export", populated, "--out", out]) == 0
        with open(out, encoding="utf-8") as handle:
            document = json.load(handle)
        assert len(document["scores"]) == 2

    def test_vacuum(self, populated, capsys):
        assert main(["vacuum", populated]) == 0
        assert "vacuumed" in capsys.readouterr().out
        assert SqliteBackend(populated).integrity_ok()

    def test_stats_without_queue_keeps_historical_shape(
        self, populated, capsys
    ):
        assert main(["stats", populated]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert "queue" not in stats  # single-process stores stay clean

    def test_stats_reports_fleet_queue(self, populated, capsys):
        store = RunStore(populated)
        store.enqueue_cells(
            [("ds", "NFS", seed, "h", "{}") for seed in range(3)]
        )
        store.claim_cell("w0")
        assert main(["stats", populated]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["queue"] == {
            "pending": 2, "claimed": 1, "running": 0, "completed": 0,
            "dead": 0,
        }
        assert stats["queue_depth"] == 3
        assert stats["active_leases"]["count"] == 1
        ages = stats["active_leases"]["heartbeat_age_seconds"]
        assert ages["min"] >= 0

    def test_stats_watch_exits_once_queue_drains(self, populated, capsys):
        store = RunStore(populated)
        store.enqueue_cells([("ds", "NFS", 0, "h", "{}")])
        store.complete_cell(store.claim_cell("w0").token)
        assert main(["stats", populated, "--watch", "0.01"]) == 0
        assert json.loads(capsys.readouterr().out)  # printed at least once

    def test_vacuum_prunes_expired_lease_debris(self, populated, capsys):
        import time

        store = RunStore(populated)
        store.enqueue_cells([("ds", "NFS", 0, "h", "{}")])
        store.claim_cell("crashed-worker", lease_ttl=0.01)
        time.sleep(0.05)
        assert main(["vacuum", populated]) == 0
        out = capsys.readouterr().out
        assert "1 expired leases reaped" in out
        assert store.queue_counts() == {"pending": 1}

    def test_missing_file_rejected(self, tmp_path, capsys):
        assert main(["export", str(tmp_path / "absent.db")]) == 1

    def test_stats_never_creates_a_store(self, tmp_path, capsys):
        # Inspection must not materialize an empty database on a typo.
        path = tmp_path / "typo.db"
        assert main(["stats", str(path)]) == 1
        assert not path.exists()

    def test_unknown_command_rejected(self, populated):
        with pytest.raises(SystemExit):
            main(["defrag", populated])


@pytest.fixture
def plan_store(tmp_path):
    """A run store holding two seeds' plans of one (dataset, method)."""
    from repro.api import FeaturePlan

    path = str(tmp_path / "runs.db")
    store = RunStore(path)
    for seed, names in ((0, ["f0", "mul(f0,f1)"]), (1, ["f0", "log(f2)"])):
        plan = FeaturePlan(names, ["f0", "f1", "f2"])
        store.finish(
            "ds", "E-AFE", seed, "hash",
            {"best_score": 0.9, "feature_plan": plan.to_dict()},
        )
    return path


class TestPlansPublish:
    def test_publish_into_registry(self, plan_store, tmp_path, capsys):
        from repro.serve import PlanRegistry

        registry_path = str(tmp_path / "registry")
        assert main(["plans", plan_store, "--publish", registry_path]) == 0
        out = capsys.readouterr().out
        assert "ds/E-AFE@1" in out and "ds/E-AFE@2" in out
        registry = PlanRegistry(registry_path)
        assert registry.latest_version("ds/E-AFE") == 2

    def test_publish_respects_filters(self, plan_store, tmp_path):
        from repro.serve import PlanRegistry

        registry_path = str(tmp_path / "registry")
        assert main(
            ["plans", plan_store, "--seed", "0", "--publish", registry_path]
        ) == 0
        assert PlanRegistry(registry_path).latest_version("ds/E-AFE") == 1

    def test_publish_zero_matches_fails(self, plan_store, tmp_path, capsys):
        registry_path = str(tmp_path / "registry")
        assert main(
            ["plans", plan_store, "--dataset", "Typo", "--publish",
             registry_path]
        ) == 1
        assert "nothing published" in capsys.readouterr().err

    def test_publish_is_idempotent(self, plan_store, tmp_path):
        from repro.serve import PlanRegistry

        registry_path = str(tmp_path / "registry")
        assert main(["plans", plan_store, "--publish", registry_path]) == 0
        assert main(["plans", plan_store, "--publish", registry_path]) == 0
        assert len(PlanRegistry(registry_path)) == 2

    def test_publish_into_a_file_is_a_usage_error(
        self, plan_store, capsys
    ):
        # The run store itself is a file, not a registry directory.
        assert main(["plans", plan_store, "--publish", plan_store]) == 2
        err = capsys.readouterr().err
        assert "not a directory" in err and plan_store in err
        assert RunStore(plan_store).plans()


class TestPlansDiff:
    def test_diff_two_seeds(self, plan_store, capsys):
        assert main(["plans", plan_store, "--diff"]) == 0
        out = capsys.readouterr().out
        assert "shared (1):" in out
        assert "mul(f0,f1)" in out
        assert "log(f2)" in out

    def test_diff_requires_exactly_two(self, plan_store, capsys):
        assert main(["plans", plan_store, "--seed", "0", "--diff"]) == 1
        assert "exactly two" in capsys.readouterr().err
