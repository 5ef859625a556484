"""Cell specs: the worker materializes exactly what the leader saw."""

import json

import numpy as np
import pytest

from repro.api.plan import fpe_identity
from repro.bench.harness import bench_config
from repro.core.fpe import FPEModel
from repro.datasets import make_classification
from repro.fleet.spec import (
    SPEC_VERSION,
    CellSpec,
    fpe_from_doc,
    task_from_doc,
    task_to_doc,
)


@pytest.fixture
def task():
    return make_classification(
        name="spec-task", n_samples=60, n_features=4, seed=3
    )


class TestTaskRoundTrip:
    def test_arrays_survive_bit_identically(self, task):
        rebuilt = task_from_doc(json.loads(json.dumps(task_to_doc(task))))
        assert rebuilt.name == task.name
        assert rebuilt.task == task.task
        assert list(rebuilt.X.columns) == list(task.X.columns)
        for column in task.X.columns:
            original = np.asarray(task.X[column])
            restored = np.asarray(rebuilt.X[column])
            assert restored.dtype == original.dtype
            # Bitwise equality, not approximate: JSON's float round
            # trip is exact, which is what makes fleet results
            # bit-identical to serial ones.
            np.testing.assert_array_equal(restored, original)
        np.testing.assert_array_equal(rebuilt.y, task.y)


class TestFpeRoundTrip:
    def test_none_stays_none(self):
        assert fpe_identity(None) is None
        assert fpe_from_doc(None) is None

    def test_default_identity_rebuilds_same_model(self):
        from repro.core.pretrain import default_fpe

        model = default_fpe(seed=0)
        rebuilt = fpe_from_doc(fpe_identity(model))
        assert (rebuilt.method, rebuilt.d, rebuilt.seed, rebuilt.thre) == (
            model.method, model.d, model.seed, model.thre,
        )
        # default_fpe is process-cached, so a worker draining many
        # cells sharing one FPE identity pre-trains at most once.
        assert fpe_from_doc(fpe_identity(model)) is rebuilt

    def test_custom_threshold_goes_through_pretrain(self):
        doc = {"method": "ccws", "d": 8, "seed": 1, "thre": 0.05}
        rebuilt = fpe_from_doc(doc)
        assert rebuilt.thre == 0.05
        assert rebuilt.d == 8
        assert rebuilt is not fpe_from_doc(doc)  # uncached path


class TestCellSpec:
    def test_json_round_trip(self, task):
        config = bench_config(seed=2)
        spec = CellSpec.build(task, "NFS", config, None, "hash|fpe:none")
        restored = CellSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.seed == 2

    def test_materialize_rebuilds_run_single_arguments(self, task, tmp_path):
        config = bench_config(seed=1)
        spec = CellSpec.build(task, "NFS", config, None, "h")
        rebuilt_task, rebuilt_config, rebuilt_fpe = spec.materialize(
            eval_store_path=str(tmp_path / "sweep.db")
        )
        assert rebuilt_task.name == task.name
        assert rebuilt_fpe is None
        assert rebuilt_config.eval_store_path == str(tmp_path / "sweep.db")
        # Everything except the execution-only store override matches.
        import dataclasses

        left = dataclasses.asdict(rebuilt_config)
        right = dataclasses.asdict(config)
        left.pop("eval_store_path"), right.pop("eval_store_path")
        assert left == right

    def test_fpe_identity_ships_in_the_spec(self, task):
        model = FPEModel(method="ccws", d=8, seed=0)
        spec = CellSpec.build(task, "E-AFE", bench_config(), model, "h")
        assert spec.fpe_doc == {
            "method": "ccws", "d": 8, "seed": 0, "thre": model.thre,
        }

    def test_version_mismatch_refused(self, task):
        spec = CellSpec.build(task, "NFS", bench_config(), None, "h")
        doc = json.loads(spec.to_json())
        doc["version"] = SPEC_VERSION + 1
        with pytest.raises(ValueError, match="cell-spec version"):
            CellSpec.from_json(json.dumps(doc))
