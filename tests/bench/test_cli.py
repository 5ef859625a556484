"""Unit tests for the python -m repro.bench CLI."""

import inspect

import pytest

from repro.bench.__main__ import _EXPERIMENTS, main
from repro.fleet import FleetLeader
from repro.fleet.__main__ import main as fleet_main
from repro.store import RunStore


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

    def test_out_outside_report_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exit:
            main(["table1", "--out", str(tmp_path / "report.md")])
        assert exit.value.code == 2

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


#: Known values per subset flag; every stubbed runner accepts them
#: (two datasets, since a table6 subset needs a pair).
_SUBSETS = {"datasets": ["PimaIndian", "labor"], "methods": ["NFS"]}


@pytest.fixture
def stubbed(monkeypatch):
    """Every experiment runner replaced by a recorder carrying the real
    runner's signature, and the default FPE by a sentinel, so each
    call through either CLI is instant and observable."""
    calls = []
    signatures = {}
    for name, (runner, _) in list(_EXPERIMENTS.items()):
        def record(**kwargs):
            calls.append(kwargs)

        record.__signature__ = signatures[name] = inspect.signature(runner)
        monkeypatch.setitem(
            _EXPERIMENTS, name, (record, lambda result: "stub")
        )
    default_model = object()
    monkeypatch.setattr(
        "repro.bench.experiments.default_fpe", lambda seed=0: default_model
    )
    return calls, signatures, default_model


def _exit_code(cli, argv):
    try:
        return cli(argv)
    except SystemExit as exit:
        return exit.code


@pytest.mark.parametrize("option", ["datasets", "methods", "fpe"])
@pytest.mark.parametrize("experiment", sorted(_EXPERIMENTS))
def test_options_follow_the_runner_signature(
    experiment, option, stubbed, tmp_path
):
    """A subset or an FPE is accepted exactly when the runner has the
    parameter, with one outcome through the bench and the fleet."""
    calls, signatures, default_model = stubbed
    accepted = option in signatures[experiment].parameters
    flags = [f"--{option}", *_SUBSETS[option]] if option in _SUBSETS else []
    outcomes = []
    for cli, argv in (
        (main, [experiment, *flags]),
        (fleet_main, ["leader", str(tmp_path / "s.db"), "--exp",
                      experiment, *flags, "--enqueue-only"]),
    ):
        calls.clear()
        code = _exit_code(cli, argv)
        outcomes.append((code, [kwargs.get(option) for kwargs in calls]))
    if option in _SUBSETS:
        expected = (0, [_SUBSETS[option]]) if accepted else (2, [])
    else:
        expected = (0, [default_model if accepted else None])
    assert outcomes == [expected, expected]

    if option == "fpe":
        injected = object()
        leader = FleetLeader(str(tmp_path / "s.db"), log=lambda line: None)
        calls.clear()
        if accepted:
            leader.enqueue_experiment(experiment, fpe=injected)
            assert calls[0]["fpe"] is injected
        else:
            with pytest.raises(ValueError, match="takes no FPE"):
                leader.enqueue_experiment(experiment, fpe=injected)
            assert calls == []


def test_unknown_dataset_is_a_usage_error_on_both_clis(
    tmp_path, monkeypatch
):
    def no_pretraining(*args, **kwargs):
        raise AssertionError("an FPE model was pre-trained")

    # A seed no other test pre-trains, so default_fpe's cache is cold.
    monkeypatch.setattr("repro.core.pretrain.pretrain_fpe", no_pretraining)
    path = str(tmp_path / "s.db")
    for cli, argv in (
        (main, ["table3", "--datasets", "Nope", "--seed", "97"]),
        (fleet_main, ["leader", path, "--exp", "table3", "--datasets",
                      "Nope", "--seed", "97", "--enqueue-only"]),
    ):
        with pytest.raises(SystemExit) as exit:
            cli(argv)
        assert exit.value.code == 2
    assert RunStore(path).queue_counts() == {}


@pytest.mark.parametrize("cli_name", ["bench", "fleet"])
@pytest.mark.parametrize("subset", [["labor"], ["labor", "labor"]])
def test_table6_needs_two_datasets(cli_name, subset, tmp_path, monkeypatch):
    """A one-dataset table6 has no pair to test: the CLI exits 2 before
    any FPE is pre-trained or any cell is enqueued."""

    def no_pretraining(*args, **kwargs):
        raise AssertionError("an FPE model was pre-trained")

    # A seed no other test pre-trains, so default_fpe's cache is cold.
    monkeypatch.setattr("repro.core.pretrain.pretrain_fpe", no_pretraining)
    path = str(tmp_path / "s.db")
    flags = ["--exp", "table6", "--datasets", *subset, "--seed", "96"]
    if cli_name == "bench":
        cli, argv = main, ["table6", *flags[2:]]
    else:
        cli, argv = fleet_main, ["leader", path, *flags, "--enqueue-only"]
    with pytest.raises(SystemExit) as exit:
        cli(argv)
    assert exit.value.code == 2
    assert RunStore(path).queue_counts() == {}
