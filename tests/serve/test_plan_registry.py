"""PlanRegistry: versioning, fingerprint addressing, refusal paths."""

import json
import multiprocessing
import os

import pytest

from repro.api import FeaturePlan, plan_fingerprint
from repro.operators import Operator, OperatorRegistry, default_registry
from repro.serve import PlanNotFound, PlanRegistry
from repro.serve import registry as registry_module
from repro.store import RunStore


def _plan(names=("f0", "mul(f0,f1)"), columns=("f0", "f1", "f2")):
    return FeaturePlan(list(names), list(columns))


def _competitor_links_first(monkeypatch, root, plan):
    """Let another registry publish ``plan`` as demo@1 just before our link.

    Returns the list the competitor's record lands in.  The patched
    ``os.link`` is one-shot: it restores the real one, runs the
    competing publish to completion, then performs the original link.
    """
    real_link = os.link
    competitor = PlanRegistry(root)
    winner = []

    def link(source, target):
        monkeypatch.setattr(registry_module.os, "link", real_link)
        winner.append(competitor.publish(plan, "demo", version=1))
        real_link(source, target)

    monkeypatch.setattr(registry_module.os, "link", link)
    return winner


def _publish_after_barrier(root, name, index, barrier, results):
    """Forked publisher: wait for the others, then race on ``name``."""
    registry = PlanRegistry(root)
    barrier.wait(timeout=30)
    try:
        record = registry.publish(_plan([f"f{index}"]), name)
        results.put((index, record.version))
    except ValueError as error:
        results.put((index, "refused" if "concurrently" in str(error) else
                     repr(error)))
    except Exception as error:  # noqa: BLE001 — reported to the test
        results.put((index, repr(error)))


@pytest.fixture(params=["dir", "sqlite"])
def registry(request, tmp_path):
    if request.param == "dir":
        return PlanRegistry(tmp_path / "plans")
    # A SQLite-suffixed path is just a directory name: it must open a
    # registry that behaves exactly like any other.
    return PlanRegistry(tmp_path / "plans.db")


class TestRegistryPath:
    def test_existing_file_refused_untouched(self, tmp_path):
        path = tmp_path / "runs.db"
        path.write_bytes(b"not a registry")
        with pytest.raises(ValueError, match="not a directory") as caught:
            PlanRegistry(path)
        assert str(path) in str(caught.value)
        assert path.read_bytes() == b"not a registry"


class TestPublish:
    def test_round_trip(self, registry):
        plan = _plan()
        record = registry.publish(plan, "demo/E-AFE")
        assert record.version == 1
        assert record.ref == "demo/E-AFE@1"
        assert record.fingerprint == plan.fingerprint
        assert registry.get("demo/E-AFE") == plan

    def test_versions_auto_increment(self, registry):
        registry.publish(_plan(["f0"]), "demo")
        record = registry.publish(_plan(["f1"]), "demo")
        assert record.version == 2
        assert registry.latest_version("demo") == 2
        # Latest wins for unversioned gets.
        assert registry.get("demo").feature_names == ["f1"]
        assert registry.get("demo", 1).feature_names == ["f0"]

    def test_identical_content_dedups(self, registry):
        first = registry.publish(_plan(), "demo")
        again = registry.publish(_plan(), "demo")
        assert again == first
        assert len(registry) == 1

    def test_fingerprint_mismatched_version_refused(self, registry):
        registry.publish(_plan(["f0"]), "demo")
        with pytest.raises(ValueError, match="fingerprint-mismatched"):
            registry.publish(_plan(["f1"]), "demo", version=1)

    def test_same_content_same_version_is_noop(self, registry):
        first = registry.publish(_plan(), "demo")
        assert registry.publish(_plan(), "demo", version=1) == first

    def test_bad_names_rejected(self, registry):
        for name in ("", "../escape", "a//b", ".hidden", "sp ace"):
            with pytest.raises(ValueError, match="invalid plan name"):
                registry.publish(_plan(), name)

    def test_foreign_operator_registry_refused(self, registry):
        custom = OperatorRegistry(
            list(default_registry())
            + [Operator("cube", 1, lambda x: x**3)]
        )
        plan = FeaturePlan(["cube(f0)"], ["f0"], registry=custom)
        with pytest.raises(ValueError, match="operator-registry mismatch"):
            registry.publish(plan, "demo")

    def test_publish_file(self, registry, tmp_path):
        plan = _plan()
        path = tmp_path / "credit.plan.json"
        plan.save(path)
        record = registry.publish_file(path)
        assert record.name == "credit"
        assert registry.get("credit") == plan


class TestLoadRefusals:
    def test_tampered_directory_document_refused(self, tmp_path):
        # The directory backend records the published fingerprint in a
        # sidecar; editing the (pure, FeaturePlan.load-able) plan file
        # afterwards refuses to serve.
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish(_plan(), "demo")
        path = tmp_path / "plans" / "demo" / "1.plan.json"
        document = json.loads(path.read_text())
        document["feature_names"] = ["f1"]
        path.write_text(json.dumps(document))
        with pytest.raises(ValueError, match="fingerprint mismatch"):
            registry.get("demo")

    def test_hand_dropped_file_with_foreign_registry_refused(self, tmp_path):
        # A plan file dropped into the tree without publish (no
        # sidecar) still goes through the FeaturePlan.from_dict
        # operator-registry check.
        registry = PlanRegistry(tmp_path / "plans")
        document = _plan().to_dict()
        document["registry_id"] = "ops-v1:0000000000000000"
        target = tmp_path / "plans" / "demo"
        target.mkdir(parents=True)
        (target / "1.plan.json").write_text(json.dumps(document))
        with pytest.raises(ValueError, match="operator-registry mismatch"):
            registry.get("demo")

    def test_traversal_shaped_refs_refused(self, tmp_path):
        # Read-path guard: refs must never walk out of the registry
        # root, even though they were never publishable.
        outside = tmp_path / "outside" / "secret"
        outside.mkdir(parents=True)
        _plan().save(outside / "1.plan.json")
        registry = PlanRegistry(tmp_path / "plans")
        for ref in ("../outside/secret", "../outside/secret@1"):
            with pytest.raises(KeyError, match="no plan"):
                registry.resolve(ref)
        with pytest.raises(PlanNotFound):
            registry.get("../outside/secret")
        assert registry.latest_version("../outside/secret") is None

    def test_missing_plan_raises_keyerror(self, registry):
        with pytest.raises(KeyError, match="no plan"):
            registry.get("ghost")
        registry.publish(_plan(), "demo")
        with pytest.raises(KeyError, match="no plan"):
            registry.record("demo", 42)


class TestAtomicPublish:
    def test_same_version_double_put_refused(self, registry):
        # Simulates two processes racing on one version number: the
        # loser errors (exclusive link) instead of silently overwriting
        # the winner's document.
        registry._put("demo", 1, _plan(["f0"]).to_dict(), 0.0)
        with pytest.raises(FileExistsError):
            registry._put("demo", 1, _plan(["f1"]).to_dict(), 0.0)
        assert registry.get("demo", 1).feature_names == ["f0"]
        assert list((registry.root / "demo").glob("*.tmp")) == []

    def test_lost_race_to_different_content_refused(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "plans"
        registry = PlanRegistry(root)
        winner = _competitor_links_first(monkeypatch, root, _plan(["f1"]))
        with pytest.raises(ValueError, match="published concurrently"):
            registry.publish(_plan(["f0"]), "demo", version=1)
        assert registry.record("demo", 1) == winner[0]
        assert registry.get("demo", 1) == _plan(["f1"])
        assert list(root.rglob("*.tmp")) == []

    def test_lost_race_to_identical_content_returns_winner(
        self, tmp_path, monkeypatch
    ):
        root = tmp_path / "plans"
        registry = PlanRegistry(root)
        winner = _competitor_links_first(monkeypatch, root, _plan())
        assert registry.publish(_plan(), "demo", version=1) == winner[0]
        assert registry.get("demo", 1) == _plan()
        assert list(root.rglob("*.tmp")) == []

    def test_forked_publishers_racing_on_one_name(self, tmp_path):
        context = multiprocessing.get_context("fork")
        root = tmp_path / "plans"
        registry = PlanRegistry(root)
        for round_index in range(20):
            name = f"round{round_index}"
            barrier = context.Barrier(3)
            results = context.Queue()
            processes = [
                context.Process(
                    target=_publish_after_barrier,
                    args=(root, name, index, barrier, results),
                )
                for index in range(3)
            ]
            for process in processes:
                process.start()
            outcomes = dict(results.get(timeout=60) for _ in processes)
            for process in processes:
                process.join(timeout=60)
                assert process.exitcode == 0
            published = {
                index: version
                for index, version in outcomes.items()
                if version != "refused"
            }
            # Each publish returned a record or the documented refusal.
            assert all(
                isinstance(version, int) for version in published.values()
            ), outcomes
            assert published, outcomes
            # Every stored version loads (sidecar agrees with document)
            # and holds the plan of the process that got its record.
            stored = registry._versions(name)
            assert sorted(published.values()) == stored, outcomes
            for index, version in published.items():
                assert registry.get(name, version) == _plan([f"f{index}"])
        assert list(root.rglob("*.tmp")) == []

    def test_directory_publish_leaves_no_temp_files(self, tmp_path):
        registry = PlanRegistry(tmp_path / "plans")
        registry.publish(_plan(), "demo")
        assert list((tmp_path / "plans").rglob("*.tmp")) == []
        assert (tmp_path / "plans" / "demo" / "1.plan.json").is_file()
        assert (tmp_path / "plans" / "demo" / "1.plan.meta").is_file()

    def test_records_read_metadata_not_documents(self, tmp_path):
        # /plans-style listing must not parse plan documents; breaking
        # the document while keeping the sidecar proves records() never
        # opens it (get() still validates, of course).
        registry = PlanRegistry(tmp_path / "plans")
        record = registry.publish(_plan(), "demo")
        path = tmp_path / "plans" / "demo" / "1.plan.json"
        path.write_text("{ this is not json")
        assert registry.records() == [record]
        with pytest.raises(json.JSONDecodeError):
            registry.get("demo")


class TestResolve:
    def test_name_and_versioned_refs(self, registry):
        registry.publish(_plan(["f0"]), "demo")
        registry.publish(_plan(["f1"]), "demo")
        assert registry.resolve("demo").version == 2
        assert registry.resolve("demo@1").version == 1

    def test_fingerprint_ref(self, registry):
        plan = _plan()
        registry.publish(plan, "demo")
        for ref in (plan.fingerprint, f"fp:{plan.fingerprint}"):
            record = registry.resolve(ref)
            assert (record.name, record.version) == ("demo", 1)

    def test_unknown_fingerprint(self, registry):
        with pytest.raises(KeyError, match="fingerprint"):
            registry.resolve("plan-v1:deadbeefdeadbeefdeadbeefdeadbeef")

    def test_malformed_version(self, registry):
        registry.publish(_plan(), "demo")
        with pytest.raises(ValueError, match="invalid plan reference"):
            registry.resolve("demo@one")

    def test_load_returns_record_and_plan(self, registry):
        plan = _plan()
        registry.publish(plan, "demo")
        record, loaded = registry.load("demo")
        assert record.ref == "demo@1"
        assert loaded == plan


class TestRunStoreIngestion:
    def _runs(self, tmp_path):
        store = RunStore(str(tmp_path / "runs.db"))
        for seed, names in ((0, ["f0", "mul(f0,f1)"]), (1, ["f0", "log(f2)"])):
            store.finish(
                "PimaIndian", "E-AFE", seed, "h",
                {"best_score": 0.9, "feature_plan": _plan(names).to_dict()},
            )
        store.finish(
            "PimaIndian", "NFS", 0, "h",
            {"best_score": 0.8, "feature_plan": _plan(["f1"]).to_dict()},
        )
        store.finish("PimaIndian", "DL|FE", 0, "h", {"best_score": 0.7})
        return store

    def test_publish_runs_names_and_versions(self, registry, tmp_path):
        records = registry.publish_runs(self._runs(tmp_path))
        assert len(records) == 3
        assert registry.names() == ["PimaIndian/E-AFE", "PimaIndian/NFS"]
        # Two seeds of one method land as successive versions.
        assert registry.latest_version("PimaIndian/E-AFE") == 2
        # Re-ingesting is an idempotent no-op.
        assert registry.publish_runs(self._runs(tmp_path)) == records

    def test_publish_runs_filters(self, registry, tmp_path):
        records = registry.publish_runs(self._runs(tmp_path), method="NFS")
        assert [record.name for record in records] == ["PimaIndian/NFS"]

    def test_publish_runs_accepts_path(self, registry, tmp_path):
        self._runs(tmp_path)
        records = registry.publish_runs(str(tmp_path / "runs.db"), seed=0)
        assert len(records) == 2

    def test_publish_runs_prefix(self, registry, tmp_path):
        records = registry.publish_runs(
            self._runs(tmp_path), method="NFS", prefix="prod"
        )
        assert records[0].name == "prod/PimaIndian/NFS"


class TestRecords:
    def test_records_and_len(self, registry):
        registry.publish(_plan(["f0"]), "a")
        registry.publish(_plan(["f1"]), "a")
        registry.publish(_plan(["f2"]), "b/nested")
        records = registry.records()
        assert len(records) == len(registry) == 3
        assert {record.ref for record in records} == {"a@1", "a@2", "b/nested@1"}
        for record in records:
            assert record.fingerprint == plan_fingerprint(
                registry.get(record.name, record.version).to_dict()
            )
