"""FeaturePlan: artifact round-trips, identity plans, schema guards."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.api import PLAN_FORMAT_VERSION, FeaturePlan
from repro.core import EAFE, FPEModel, make_evaluator_factory
from repro.core.engine import AFEResult, EngineConfig
from repro.datasets import make_classification
from repro.frame import Frame
from repro.operators import Operator, default_registry

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _plan(**overrides):
    kwargs = dict(
        feature_names=["f0", "mul(f0,f1)", "log(f2)"],
        input_columns=["f0", "f1", "f2"],
        fpe={"method": "ccws", "d": 8, "seed": 0, "thre": 0.01},
        provenance={"dataset": "unit", "method": "E-AFE"},
    )
    kwargs.update(overrides)
    return FeaturePlan(**kwargs)


class TestTransform:
    def test_frame_and_array_inputs_agree(self):
        plan = _plan()
        frame = Frame(
            {"f0": [1.0, 2.0], "f1": [3.0, 4.0], "f2": [5.0, 6.0]}
        )
        from_frame = plan.transform(frame)
        from_array = plan.transform(frame.to_array())
        assert from_frame.dtype == np.float64
        np.testing.assert_array_equal(from_frame, from_array)
        assert from_frame.shape == (2, 3)

    def test_expressions_vectorize_correctly(self):
        plan = _plan(feature_names=["mul(f0,f1)"])
        out = plan.transform(np.array([[2.0, 3.0, 0.0], [4.0, 5.0, 0.0]]))
        np.testing.assert_allclose(out[:, 0], [6.0, 20.0])

    def test_transform_frame_labels_outputs(self):
        plan = _plan()
        out = plan.transform_frame(np.ones((2, 3)))
        assert out.columns == ["f0", "mul(f0,f1)", "log(f2)"]

    def test_identity_plan_returns_input_unchanged(self):
        plan = _plan(feature_names=[])
        assert plan.is_identity
        X = np.arange(12, dtype=np.float64).reshape(4, 3)
        out = plan.transform(X)
        np.testing.assert_array_equal(out, X)
        assert plan.output_columns == ["f0", "f1", "f2"]
        assert plan.n_features == 3

    def test_wrong_array_width_rejected(self):
        with pytest.raises(ValueError, match="columns"):
            _plan().transform(np.ones((2, 2)))

    def test_missing_frame_column_rejected(self):
        with pytest.raises(KeyError, match="missing columns"):
            _plan().transform(Frame({"f0": [1.0]}))

    def test_expressions_must_fit_input_schema(self):
        with pytest.raises(ValueError, match="absent from input_columns"):
            FeaturePlan(["mul(f0,f9)"], ["f0", "f1"])

    def test_required_columns(self):
        plan = FeaturePlan(
            ["f1", "mul(f1,f2)", "log(f3)"], ["f0", "f1", "f2", "f3"]
        )
        assert plan.required_columns == {"f1", "f2", "f3"}

    def test_applies_to_unseen_rows(self):
        plan = FeaturePlan(
            ["f0", "mul(f0,f1)", "log(f2)", "div(f3,f0)"],
            ["f0", "f1", "f2", "f3"],
        )
        unseen = make_classification(n_samples=37, n_features=4, seed=99).X
        out = plan.transform(unseen)
        assert out.shape == (37, 4)
        assert np.isfinite(out).all()


class TestEngineReplay:
    def test_replays_engine_selection_on_training_data(self):
        # The plan applied to training data must reproduce the engine's
        # cached best matrix column by column.
        corpus = [
            make_classification(n_samples=50, n_features=4, seed=s)
            for s in range(2)
        ]
        fpe = FPEModel(d=8, seed=0)
        fpe.fit(corpus, make_evaluator_factory(), generated_per_dataset=2)
        task = make_classification(n_samples=120, n_features=5, seed=21)
        config = EngineConfig(
            n_epochs=3, stage1_epochs=1, transforms_per_agent=3,
            n_splits=3, n_estimators=3, max_agents=5, seed=0,
        )
        result = EAFE(fpe, config).fit(task)
        plan = FeaturePlan.from_result(result, input_columns=task.X.columns)
        replayed = plan.transform(task.X)
        assert replayed.shape == result.selected_matrix.shape
        for j, name in enumerate(result.selected_features):
            np.testing.assert_allclose(
                replayed[:, j],
                result.selected_matrix[:, j],
                rtol=1e-9,
                atol=1e-9,
                err_msg=name,
            )


class TestSerialization:
    def test_round_trip_equality(self, tmp_path):
        plan = _plan()
        path = tmp_path / "features.plan.json"
        plan.save(path)
        restored = FeaturePlan.load(path)
        assert restored == plan
        assert restored.to_dict() == plan.to_dict()
        assert restored.fpe == plan.fpe
        assert restored.provenance == plan.provenance

    def test_document_is_versioned_json(self, tmp_path):
        path = tmp_path / "p.json"
        _plan().save(path)
        document = json.loads(path.read_text())
        assert document["format_version"] == PLAN_FORMAT_VERSION
        assert document["registry_id"].startswith("ops-v1:")

    def test_unknown_version_rejected(self):
        payload = _plan().to_dict()
        payload["format_version"] = 99
        with pytest.raises(ValueError, match="format version"):
            FeaturePlan.from_dict(payload)

    def test_registry_mismatch_rejected(self):
        custom = default_registry()
        custom.register(Operator("twice", 1, lambda a: 2 * a))
        plan = FeaturePlan(["twice(f0)"], ["f0"], registry=custom)
        with pytest.raises(ValueError, match="operator-registry mismatch"):
            FeaturePlan.from_dict(plan.to_dict())
        # Loading against the registry it was built with works.
        restored = FeaturePlan.from_dict(plan.to_dict(), registry=custom)
        np.testing.assert_allclose(
            restored.transform(np.array([[3.0]])), [[6.0]]
        )

    def test_from_result_records_provenance(self):
        result = AFEResult(
            dataset="unit", method="E-AFE", task="C",
            base_score=0.6, best_score=0.7,
            selected_features=["f0", "sqrt(f1)"],
        )
        plan = FeaturePlan.from_result(
            result, input_columns=["f0", "f1"], config=EngineConfig()
        )
        provenance = plan.provenance
        assert provenance["dataset"] == "unit"
        assert provenance["method"] == "E-AFE"
        assert provenance["base_score"] == 0.6
        assert provenance["best_score"] == 0.7
        assert provenance["created_by"].startswith("repro ")
        assert len(provenance["config_hash"]) == 32


class TestFreshProcessBitIdentity:
    def test_subprocess_transform_bit_identical(self, tmp_path):
        """The acceptance bar: load+transform in a fresh OS process is
        bit-identical to the producing process's transform."""
        rng = np.random.default_rng(7)
        X = rng.normal(size=(64, 3))
        plan = _plan()
        expected = plan.transform(X)

        plan_path = tmp_path / "features.plan.json"
        x_path = tmp_path / "x.npy"
        out_path = tmp_path / "out.npy"
        plan.save(plan_path)
        np.save(x_path, X)

        environment = dict(os.environ)
        environment["PYTHONPATH"] = _SRC + os.pathsep + environment.get(
            "PYTHONPATH", ""
        )
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.api import FeaturePlan\n"
            "plan = FeaturePlan.load(sys.argv[1])\n"
            "np.save(sys.argv[3], plan.transform(np.load(sys.argv[2])))\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script,
             str(plan_path), str(x_path), str(out_path)],
            env=environment, capture_output=True, text=True,
        )
        assert completed.returncode == 0, completed.stderr
        fresh = np.load(out_path)
        assert fresh.dtype == expected.dtype
        assert fresh.tobytes() == expected.tobytes()


class TestFingerprintAndCompiled:
    def test_fingerprint_covers_transform_content_only(self):
        # Same expressions + schema from different runs (provenance,
        # FPE identity) share one fingerprint — the DIFER-style reuse
        # key serving artifacts are addressed by.
        base = _plan()
        same_content = _plan(provenance={"dataset": "other"}, fpe=None)
        assert base.fingerprint == same_content.fingerprint
        assert base.fingerprint.startswith("plan-v1:")

    def test_fingerprint_changes_with_content(self):
        assert _plan().fingerprint != _plan(feature_names=["f0"]).fingerprint
        assert (
            _plan().fingerprint
            != _plan(input_columns=["f0", "f1", "f2", "f3"]).fingerprint
        )

    def test_compiled_handle_matches_transform(self):
        from repro.frame import Frame

        plan = _plan()
        X = np.random.default_rng(0).normal(size=(8, 3)) + 2.0
        frame = Frame(X, columns=plan.input_columns)
        assert plan.compiled(frame).tobytes() == plan.transform(X).tobytes()

    def test_identity_compiled_handle(self):
        from repro.frame import Frame

        plan = _plan(feature_names=[])
        X = np.random.default_rng(1).normal(size=(5, 3))
        frame = Frame(X, columns=plan.input_columns)
        assert plan.compiled.is_identity
        assert plan.compiled(frame).tobytes() == X.tobytes()


class TestDiff:
    def test_shared_and_exclusive_expressions(self):
        left = _plan(feature_names=["f0", "mul(f0,f1)", "log(f2)"])
        right = _plan(feature_names=["log(f2)", "div(f0,f1)"])
        diff = left.diff(right)
        assert diff["shared"] == ["log(f2)"]
        assert diff["only_left"] == ["f0", "mul(f0,f1)"]
        assert diff["only_right"] == ["div(f0,f1)"]
        assert diff["same_schema"] is True
        assert diff["same_registry"] is True

    def test_diff_is_order_preserving_and_symmetric(self):
        left = _plan(feature_names=["f0", "f1", "f2"])
        right = _plan(feature_names=["f2", "f0"])
        diff = left.diff(right)
        mirrored = right.diff(left)
        assert diff["shared"] == ["f0", "f2"]  # left order
        assert mirrored["shared"] == ["f2", "f0"]  # right order
        assert diff["only_left"] == mirrored["only_right"] == ["f1"]

    def test_schema_mismatch_flagged(self):
        left = _plan()
        right = _plan(input_columns=["f0", "f1", "f2", "extra"])
        assert left.diff(right)["same_schema"] is False

    def test_identity_plans_diff_empty(self):
        diff = _plan(feature_names=[]).diff(_plan(feature_names=[]))
        assert diff["shared"] == []
        assert diff["only_left"] == diff["only_right"] == []
