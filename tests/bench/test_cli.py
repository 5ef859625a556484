"""Unit tests for the python -m repro.bench CLI."""

import pytest

from repro.bench.__main__ import _EXPERIMENTS, main


class TestCLI:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert set(out) == set(_EXPERIMENTS)

    def test_every_paper_artifact_is_covered(self):
        # One CLI entry per evaluation-section table and figure, plus
        # the Q6 signature ablation.
        assert set(_EXPERIMENTS) == {
            "table1", "table3", "table4", "table5", "table6",
            "figure1", "figure6", "figure7", "figure8", "figure9",
            "ablation_q6", "related_work",
        }

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["table99"])

    def test_figure6_runs_end_to_end(self, capsys):
        # figure6 is the cheapest experiment with no FPE dependency.
        assert main(["figure6"]) == 0
        out = capsys.readouterr().out
        assert "thre" in out

    def test_table1_with_dataset_override(self, capsys):
        assert main(["table1", "--datasets", "labor"]) == 0
        out = capsys.readouterr().out
        assert "labor" in out

    def test_resume_requires_store(self):
        with pytest.raises(SystemExit):
            main(["table1", "--resume"])

    def test_store_and_resume_end_to_end(self, tmp_path, monkeypatch, capsys):
        # Cold run populates the store; warm --resume run replays it
        # (identical rendered table, one completed run-store cell).
        from repro.bench.harness import active_run_store, resume_enabled
        from repro.store import RunStore, SqliteBackend

        path = str(tmp_path / "cli-store.db")
        monkeypatch.delenv("REPRO_EVAL_STORE", raising=False)
        arguments = [
            "table1", "--datasets", "labor", "--store", path, "--resume",
        ]
        assert main(list(arguments)) == 0
        cold = capsys.readouterr().out
        assert main(list(arguments)) == 0
        warm = capsys.readouterr().out
        assert warm == cold
        assert RunStore(path).counts() == {"completed": 1}
        # --store also backs the engines' score cache.
        scores = SqliteBackend(path)
        assert len(scores) > 0
        scores.close()
        # main() restores the previous run store: a later in-process
        # invocation must not inherit this one.
        assert active_run_store() is None
        assert not resume_enabled()


class TestWorkerMode:
    def test_worker_requires_store(self):
        with pytest.raises(SystemExit):
            main(["table1", "--worker"])

    def test_worker_drains_enqueued_cells(self, tmp_path, capsys):
        from repro.bench.harness import bench_config
        from repro.fleet.spec import CellSpec
        from repro.datasets import make_classification
        from repro.store import RunStore, config_hash

        path = str(tmp_path / "fleet.db")
        store = RunStore(path)
        task = make_classification(
            name="cli-cell", n_samples=60, n_features=3, seed=0
        )
        config = bench_config(seed=0)
        cell_hash = f"{config_hash(config)}|fpe:none"
        spec = CellSpec.build(task, "NFS", config, None, cell_hash)
        store.enqueue_cells([(task.name, "NFS", 0, cell_hash, spec.to_json())])
        assert main(
            ["table1", "--store", path, "--worker", "--worker-id", "cli-w0"]
        ) == 0
        err = capsys.readouterr().err
        assert "claimed=1 completed=1" in err
        assert store.queue_counts() == {"completed": 1}
        assert store.completed_payload(task.name, "NFS", 0, cell_hash)

    def test_worker_on_empty_queue_exits_cleanly(self, tmp_path, capsys):
        path = str(tmp_path / "empty.db")
        from repro.store import RunStore

        RunStore(path)  # materialize the schema
        assert main(["table1", "--store", path, "--worker"]) == 0
        assert "claimed=0" in capsys.readouterr().err
