"""python -m repro.fleet CLI: leader, worker, and status subcommands.

``worker`` is the one command that starts a fleet worker.
"""

import pytest
from fleet_helpers import make_cell

from repro.fleet.__main__ import main
from repro.store import RunStore


@pytest.fixture
def store(tmp_path):
    return RunStore(str(tmp_path / "cli.db"))


class TestLeaderCommand:
    def test_enqueue_only_exits_after_the_pass(self, store, capsys):
        assert main(
            ["leader", store.path, "--exp", "table1",
             "--datasets", "PimaIndian", "--enqueue-only"]
        ) == 0
        assert "Pending" in capsys.readouterr().out
        assert store.queue_counts() == {"pending": 1}

    def test_unknown_experiment_rejected(self, store):
        with pytest.raises(SystemExit):
            main(["leader", store.path, "--exp", "table99"])

    def test_timeout_returns_nonzero(self, store, capsys):
        store.enqueue_cells([("ds", "NFS", 0, "h", "{}")])
        assert main(
            ["leader", store.path, "--exp", "table1",
             "--datasets", "PimaIndian", "--timeout", "0.1",
             "--no-render"]
        ) == 1
        assert "timed out" in capsys.readouterr().err

    def test_leader_renders_after_worker_drain(self, store, capsys):
        """Full CLI loop in one process: enqueue-only leader, worker
        subcommand drains, supervising leader renders the table."""
        assert main(
            ["leader", store.path, "--exp", "table1",
             "--datasets", "PimaIndian", "--enqueue-only"]
        ) == 0
        assert main(["worker", store.path, "--worker-id", "w0"]) == 0
        assert main(
            ["leader", store.path, "--exp", "table1",
             "--datasets", "PimaIndian"]
        ) == 0
        captured = capsys.readouterr()
        assert "PimaIndian" in captured.out
        assert "drained" in captured.err

    def test_dead_cells_block_the_render(self, store, capsys):
        import time

        # One dead-lettered cell alongside an otherwise-drained sweep:
        # the leader must refuse to render rather than silently re-fit.
        store.enqueue_cells([("ds", "NFS", 0, "h", "{}")], max_retries=1)
        store.claim_cell("w0", lease_ttl=0.01)
        time.sleep(0.05)
        store.reap_expired()
        assert main(
            ["leader", store.path, "--exp", "table1",
             "--datasets", "PimaIndian", "--enqueue-only"]
        ) == 0
        assert main(["worker", store.path]) == 0
        assert main(
            ["leader", store.path, "--exp", "table1",
             "--datasets", "PimaIndian", "--timeout", "10"]
        ) == 1
        assert "dead-lettered" in capsys.readouterr().err


class TestWorkerCommand:
    def test_worker_reports_stats(self, store, capsys):
        make_cell(store, seed=0)
        assert main(["worker", store.path, "--worker-id", "w0"]) == 0
        assert "claimed=1 completed=1" in capsys.readouterr().err

    def test_worker_drains_enqueued_cells(self, store, capsys):
        task, _, cell_hash = make_cell(store, seed=0)
        assert main(["worker", store.path, "--worker-id", "cli-w0"]) == 0
        assert "claimed=1 completed=1" in capsys.readouterr().err
        assert store.queue_counts() == {"completed": 1}
        assert store.completed_payload(task.name, "NFS", 0, cell_hash)

    def test_worker_on_empty_queue_exits_cleanly(self, store, capsys):
        assert main(["worker", store.path]) == 0
        assert "claimed=0" in capsys.readouterr().err

    def test_worker_requires_store(self):
        with pytest.raises(SystemExit):
            main(["worker"])


class TestStatusCommand:
    def test_status_snapshot(self, store, capsys):
        assert main(["status", store.path]) == 0
        assert "queue empty" in capsys.readouterr().out
        store.enqueue_cells([("ds", "NFS", 0, "h", "{}")])
        assert main(["status", store.path]) == 0
        assert "progress: 0/1" in capsys.readouterr().out

    def test_status_watch_exits_on_drain(self, store, capsys):
        store.enqueue_cells([("ds", "NFS", 0, "h", "{}")])
        store.complete_cell(store.claim_cell("w0").token)
        assert main(["status", store.path, "--watch", "0.01"]) == 0
        assert "progress: 1/1" in capsys.readouterr().out
