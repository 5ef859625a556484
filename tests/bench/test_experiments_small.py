"""Small-scale unit tests of the experiment functions.

The benchmarks exercise these at bench scale; here each experiment runs
with minimal arguments so its data contract is covered by the regular
test suite too (structure, keys, value ranges — not performance).
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.bench import experiments
from repro.core import FPEModel, make_evaluator_factory
from repro.datasets import make_classification


@pytest.fixture(scope="module")
def fpe():
    corpus = [make_classification(n_samples=50, n_features=4, seed=s) for s in (0, 1)]
    model = FPEModel(d=8, seed=0)
    model.fit(corpus, make_evaluator_factory(), generated_per_dataset=2)
    return model


class TestTable1:
    def test_row_contract(self):
        rows = experiments.table1_nfs_time(datasets=("labor",))
        assert len(rows) == 1
        row = rows[0]
        assert row["dataset"] == "labor"
        assert row["generation_time_s"] >= 0.0
        assert row["evaluation_time_s"] > 0.0
        assert row["total_time_s"] >= row["evaluation_time_s"]
        assert 0.0 <= row["eval_fraction"] <= 1.0
        assert "labor" in experiments.format_table1(rows)


class TestFigure1:
    def test_series_contract(self):
        series = experiments.figure1_sample_size(
            datasets=("labor",), fractions=(0.5, 1.0), n_repeats=1
        )
        points = series["labor"]
        assert [p["fraction"] for p in points] == [0.5, 1.0]
        for point in points:
            assert point["time_mean"] > 0.0
        assert "labor" in experiments.format_figure1(series)


class TestFigure6:
    def test_contract(self):
        data = experiments.figure6_threshold(n_datasets=2, scale=0.25)
        assert data["n_features"] == len(data["gains"])
        assert 0.0 <= data["positive_rate"] <= 1.0
        assert "thre" in experiments.format_figure6(data)


class TestTable4:
    def test_contract(self, fpe):
        rows = experiments.table4_eval_counts(datasets=("labor",), fpe=fpe)
        row = rows[0]
        for method in ("AutoFSR", "NFS", "E-AFE_D", "E-AFE"):
            assert row[method] >= 0
        assert "TOTAL" in experiments.format_table4(rows)


def _partition(result):
    stats = result.stats
    return stats.n_cache_hits + stats.n_cache_misses + stats.n_surrogate_served


class TestSubmissionCounts:
    """Table IV and Figure 9 count each candidate once, ladder or not.

    Under a fidelity ladder one miss may pay a rung-0 fit and then a
    full fit, so ``fits + hits`` over-counts; the hit/miss/served
    partition does not.  With fidelity off the two counts agree.
    """

    @pytest.mark.parametrize("fidelity", ["off", "ladder"])
    def test_table4_counts_the_partition(self, fpe, monkeypatch, fidelity):
        monkeypatch.setenv("REPRO_EVAL_FIDELITY", fidelity)
        results = {}
        run_methods = experiments.run_methods

        def recording(*args, **kwargs):
            results.update(run_methods(*args, **kwargs))
            return results

        monkeypatch.setattr(experiments, "run_methods", recording)
        row = experiments.table4_eval_counts(datasets=("labor",), fpe=fpe)[0]
        for method, result in results.items():
            assert row[method] == _partition(result) - 1
            if fidelity == "off":
                assert row[method] == (
                    result.n_downstream_evaluations + result.n_cache_hits - 1
                )
        if fidelity == "ladder":
            assert any(r.stats.n_promoted for r in results.values())

    def test_figure9_counts_the_partition(self, fpe, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_FIDELITY", "ladder")
        results = []
        run_single = experiments.run_single

        def recording(*args, **kwargs):
            results.append(run_single(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(experiments, "run_single", recording)
        sweeps = experiments.figure9_scalability(
            feature_counts=(4,), sample_counts=(80,), fpe=fpe
        )
        points = sweeps["features"] + sweeps["samples"]
        for point, (ours, baseline) in zip(points, zip(*[iter(results)] * 2)):
            assert point["eval_ratio"] == (
                _partition(baseline) / max(_partition(ours), 1)
            )
        assert any(r.stats.n_promoted for r in results)


class TestAutoFSRNote:
    """The AutoFSR column is labelled as the random search it is."""

    def test_table3_notes_autofsr_column(self):
        result = SimpleNamespace(best_score=0.5, task="C")
        with_fsr = {"labor": {"AutoFSR": result, "E-AFE": result}}
        without = {"labor": {"NFS": result, "E-AFE": result}}
        assert experiments.AUTOFSR_NOTE in experiments.format_table3(with_fsr)
        assert experiments.AUTOFSR_NOTE not in experiments.format_table3(without)

    def test_table4_notes_autofsr_column(self):
        row = {
            "dataset": "labor", "AutoFSR": 3, "NFS": 3, "E-AFE_D": 2,
            "E-AFE": 1,
        }
        rendered = experiments.format_table4([row])
        assert rendered.endswith(experiments.AUTOFSR_NOTE)
        assert "selection agents are not implemented" in rendered


class TestFigure7:
    def test_contract(self, fpe):
        data = experiments.figure7_learning_curves(
            dataset="labor", methods=("NFS", "E-AFE"), n_epochs=1, fpe=fpe
        )
        assert set(data["curves"]) == {"NFS", "E-AFE"}
        assert set(data["evaluations"]) == {"NFS", "E-AFE"}
        assert "evaluations:" in experiments.format_figure7(data)


class TestTable3AndTable6:
    def test_contract(self, fpe):
        table = experiments.table3_main(
            datasets=("labor",), methods=("NFS", "E-AFE"), fpe=fpe
        )
        assert set(table["labor"]) == {"NFS", "E-AFE"}
        rendered = experiments.format_table3(table)
        assert "MEAN" in rendered

    def test_table6_from_table(self, fpe):
        table = experiments.table3_main(
            datasets=("labor", "fertility"),
            methods=("NFS", "AutoFSR", "E-AFE"),
            fpe=fpe,
        )
        pvalues = experiments.table6_pvalues(table=table)
        assert set(pvalues) == {"NFS", "AutoFSR"}
        for values in pvalues.values():
            assert 0.0 <= values["performance"] <= 1.0
            assert 0.0 <= values["time"] <= 1.0
        assert "p(performance)" in experiments.format_table6(pvalues)


class TestTable5:
    def test_contract(self, fpe):
        table = experiments.table5_downstream_swap(
            datasets=("labor",),
            methods=("E-AFE",),
            model_kinds=("nb_gp",),
            fpe=fpe,
        )
        assert np.isfinite(table["labor"]["E-AFE"]["nb_gp"])
        assert "E-AFE:nb_gp" in experiments.format_table5(table)


class TestFigure9:
    def test_contract(self, fpe):
        sweeps = experiments.figure9_scalability(
            feature_counts=(4,), sample_counts=(80,), fpe=fpe
        )
        assert len(sweeps["features"]) == 1
        assert sweeps["features"][0]["eval_ratio"] > 0
        assert "EvalRatio" in experiments.format_figure9(sweeps)


class TestAblationQ6:
    def test_contract(self):
        rows = experiments.ablation_q6_signatures(
            backends=("ccws", "meta"), n_train=2, n_validation=1, scale=0.25
        )
        assert {r["backend"] for r in rows} == {"ccws", "meta"}
        assert "Backend" in experiments.format_ablation_q6(rows)


class TestRelatedWork:
    def test_contract(self, fpe):
        table = experiments.related_work_spectrum(
            datasets=("labor",), methods=("NFS", "E-AFE"), fpe=fpe
        )
        assert set(table["labor"]) == {"NFS", "E-AFE"}
        assert "BestScore" in experiments.format_related_work(table)

    def test_evals_do_not_depend_on_cell_order(self, fpe, tmp_path):
        """Two method orders sharing one score store render equal Evals,
        though whichever cell runs first pays the fits the other hits."""
        from repro.bench.harness import set_run_store

        def evals(table):
            rendered = experiments.format_related_work(table)
            return {
                tuple(line.split()[:2]): line.split()[3]
                for line in rendered.splitlines()
                if line.startswith("labor")
            }

        tables = []
        for order in (("LFE", "E-AFE"), ("E-AFE", "LFE")):
            previous = set_run_store(str(tmp_path / f"{order[0]}.db"))
            try:
                tables.append(experiments.related_work_spectrum(
                    datasets=("labor",), methods=order, fpe=fpe
                ))
            finally:
                set_run_store(*previous)
        fits = [
            {m: table["labor"][m].n_downstream_evaluations for m in table["labor"]}
            for table in tables
        ]
        assert fits[0] != fits[1]
        assert evals(tables[0]) == evals(tables[1])
