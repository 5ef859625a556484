"""Fleet leader: zero-fit enqueue pass, supervision, render gating."""

import threading

import pytest

from repro.bench import harness
from repro.fleet import FleetLeader, FleetWorker
from repro.store import RunStore

from fleet_helpers import canonical, make_cell


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "leader.db"))


@pytest.fixture
def quiet():
    lines = []
    return lines


def _counting_make_method(monkeypatch):
    calls = []
    original = harness.make_method

    def counted(name, config, fpe=None):
        calls.append(name)
        return original(name, config, fpe=fpe)

    monkeypatch.setattr(harness, "make_method", counted)
    return calls


class TestEnqueuePass:
    def test_enqueue_discovers_cells_without_fitting(
        self, store, quiet, monkeypatch
    ):
        calls = _counting_make_method(monkeypatch)
        leader = FleetLeader(store, log=quiet.append)
        enqueued = leader.enqueue_experiment(
            "table1", seed=0, datasets=["PimaIndian", "SpectF"]
        )
        assert enqueued == 2
        assert calls == []  # the discovery pass built zero engines
        cells = store.queue_cells(status="pending")
        assert sorted(cell.dataset for cell in cells) == [
            "PimaIndian", "SpectF",
        ]
        assert all(cell.method == "NFS" for cell in cells)
        # Re-enqueueing an already-enqueued sweep is a no-op.
        assert leader.enqueue_experiment(
            "table1", seed=0, datasets=["PimaIndian", "SpectF"]
        ) == 0

    def test_enqueue_skips_cells_already_completed(
        self, store, quiet, monkeypatch
    ):
        task, config, cell_hash = make_cell(store, seed=0)
        store.clear_queue()  # keep only the completed run row
        harness.run_single(
            task, "NFS", config, run_store=store, resume=False
        )
        previous = harness.set_cell_sink(None)
        try:
            sunk = []
            harness.set_cell_sink(
                lambda *args: sunk.append(args)
            )
            result = harness.run_single(
                task, "NFS", config, run_store=store, resume=True
            )
        finally:
            harness.set_cell_sink(previous)
        assert sunk == []  # completed cells replay instead of enqueue
        assert result.best_score > 0  # the real stored result, not a stub

    def test_runner_error_before_any_cell_propagates(
        self, store, quiet, monkeypatch
    ):
        from repro.bench.experiments import _EXPERIMENTS

        def broken(datasets=(), seed=0):
            raise KeyError("no cell was reached")

        monkeypatch.setitem(
            _EXPERIMENTS, "table1", (broken, _EXPERIMENTS["table1"][1])
        )
        leader = FleetLeader(store, log=quiet.append)
        with pytest.raises(KeyError, match="no cell was reached"):
            leader.enqueue_experiment("table1", datasets=["PimaIndian"])
        assert store.queue_counts() == {}

    def test_sink_without_store_is_an_error(self):
        from repro.datasets import make_classification

        task = make_classification(n_samples=40, n_features=3, seed=0)
        previous = harness.set_cell_sink(lambda *args: None)
        try:
            with pytest.raises(RuntimeError, match="enqueue pass"):
                harness.run_single(task, "NFS", harness.bench_config())
        finally:
            harness.set_cell_sink(previous)


class TestSuperviseAndRender:
    def test_fleet_run_matches_serial_run_bit_identically(
        self, store, tmp_path, quiet
    ):
        """The tentpole acceptance criterion: leader enqueues, a worker
        drains, and the completed store carries payloads (scores and
        plans) bit-identical to a serial run of the same sweep."""
        leader = FleetLeader(store, tick=0.05, log=quiet.append)
        leader.enqueue_experiment("table1", seed=0, datasets=["PimaIndian"])
        worker = FleetWorker(store, worker_id="w0", lease_ttl=30.0)
        thread = threading.Thread(target=worker.run)
        thread.start()
        report = leader.supervise(render_interval=60.0, timeout=300.0)
        thread.join()
        assert report["drained"] is True
        assert report["reaped"] == []
        assert report["dead"] == []
        rendered = leader.render_experiment(
            "table1", seed=0, datasets=["PimaIndian"]
        )
        assert "PimaIndian" in rendered

        serial = RunStore(str(tmp_path / "serial.db"))
        from repro.bench.experiments import build_experiment_call

        runner, _, kwargs = build_experiment_call(
            "table1", seed=0, datasets=["PimaIndian"]
        )
        previous = harness.set_run_store(serial.path, resume=False)
        try:
            runner(**kwargs)
        finally:
            harness.set_run_store(*previous)

        fleet_rows = {
            (r.dataset, r.method, r.seed): r for r in store.records()
        }
        serial_rows = {
            (r.dataset, r.method, r.seed): r for r in serial.records()
        }
        assert set(fleet_rows) == set(serial_rows)
        for key, row in fleet_rows.items():
            left = store.completed_payload(
                row.dataset, row.method, row.seed, row.config_hash
            )
            right = serial.completed_payload(
                row.dataset, row.method, row.seed,
                serial_rows[key].config_hash,
            )
            assert canonical(left) == canonical(right)
            assert left.get("feature_plan") == right.get("feature_plan")

    def test_supervise_times_out_on_a_stuck_queue(self, store, quiet):
        store.enqueue_cells([("ds", "NFS", 0, "h", "{}")])
        leader = FleetLeader(store, tick=0.02, log=quiet.append)
        report = leader.supervise(timeout=0.1)
        assert report["drained"] is False
        assert report["elapsed"] >= 0.1

    def test_supervise_reaps_expired_leases(self, store, quiet):
        import time

        store.enqueue_cells([("ds", "NFS", 0, "h", "{}")], max_retries=1)
        store.claim_cell("dead-worker", lease_ttl=0.01)
        time.sleep(0.05)
        leader = FleetLeader(store, tick=0.02, log=quiet.append)
        report = leader.supervise(timeout=5.0)
        assert report["drained"] is True  # dead cells do not wedge
        assert len(report["reaped"]) == 1
        assert [cell.status for cell in report["dead"]] == ["dead"]
        assert any("watchdog" in line for line in quiet)

    def test_render_refuses_unfinished_or_dead_cells(self, store, quiet):
        leader = FleetLeader(store, log=quiet.append)
        store.enqueue_cells([("ds", "NFS", 0, "h", "{}")])
        with pytest.raises(RuntimeError, match="cannot render"):
            leader.render_experiment("table1", datasets=["PimaIndian"])

    def test_status_renders_progress(self, store, quiet):
        from repro.fleet import render_queue_status

        assert "queue empty" in render_queue_status(store)
        store.enqueue_cells(
            [("ds0", "NFS", 0, "h", "{}"), ("ds1", "NFS", 0, "h", "{}")]
        )
        store.complete_cell(store.claim_cell("w0").token)
        status = render_queue_status(store)
        assert "progress: 1/2 cells completed" in status
        assert "eta:" in status
