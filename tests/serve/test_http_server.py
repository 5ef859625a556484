"""HTTP endpoint: wire protocol, bit-identity, error paths."""

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.api import FeaturePlan
from repro.ml import RandomForestClassifier
from repro.serve import (
    FeaturePipeline,
    PlanRegistry,
    ServeApp,
    TransformService,
    make_server,
)


def _plan():
    return FeaturePlan(["f0", "mul(f0,f1)", "log(f2)"], ["f0", "f1", "f2"])


@pytest.fixture
def X():
    return np.random.default_rng(7).normal(size=(12, 3)) + 2.0


@pytest.fixture
def served(tmp_path, X):
    """A live threaded server over one published plan + pipeline."""
    registry = PlanRegistry(tmp_path / "plans")
    registry.publish(_plan(), "demo")
    service = TransformService(registry=registry)
    y = (X[:, 0] > 2.0).astype(float)
    pipeline = FeaturePipeline(
        _plan(), RandomForestClassifier(n_estimators=5, seed=0)
    ).fit(X, y)
    server = make_server(
        service, default_plan="demo", pipeline=pipeline
    )
    server.serve_background()
    host, port = server.server_address[:2]
    yield f"http://{host}:{port}", pipeline
    server.shutdown()
    server.server_close()


def _get(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, json.loads(response.read())


def _post(url, body):
    request = urllib.request.Request(
        url, data=json.dumps(body).encode("utf-8"), method="POST"
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


class TestEndpoints:
    def test_healthz(self, served):
        base, _ = served
        status, document = _get(f"{base}/healthz")
        assert status == 200
        assert document["status"] == "ready"
        assert document["degraded"] is False
        assert document["draining"] is False
        assert document["default_plan"] == "demo"
        assert document["has_pipeline"] is True
        assert document["reliability"]["watchdog_ok"] is True

    def test_plans_listing(self, served):
        base, _ = served
        status, document = _get(f"{base}/plans")
        assert status == 200
        refs = {entry["ref"] for entry in document["plans"]}
        assert "demo@1" in refs

    def test_transform_bit_identical(self, served, X):
        # The acceptance criterion: HTTP responses decode to exactly
        # the bytes in-process FeaturePlan.transform produces (floats
        # serialize via repr — shortest exact round-trip).
        base, _ = served
        status, document = _post(f"{base}/transform", {"rows": X.tolist()})
        assert status == 200
        served_matrix = np.asarray(document["rows"], dtype=np.float64)
        expected = _plan().transform(X)
        assert served_matrix.tobytes() == expected.tobytes()
        assert document["columns"] == _plan().output_columns
        # The response names the *resolved* version, so a client always
        # knows exactly which plan produced its rows.
        assert document["plan"] == "demo@1"

    def test_transform_mapping_rows(self, served):
        base, _ = served
        status, document = _post(
            f"{base}/transform",
            {"rows": {"f0": 1.0, "f1": 2.0, "f2": 3.0}},
        )
        assert status == 200
        expected = _plan().transform(np.array([[1.0, 2.0, 3.0]]))
        assert document["rows"] == expected.tolist()

    def test_predict(self, served, X):
        base, pipeline = served
        status, document = _post(
            f"{base}/predict", {"rows": X.tolist(), "proba": True}
        )
        assert status == 200
        assert document["predictions"] == pipeline.predict(X).tolist()
        assert document["probabilities"] == pipeline.predict_proba(X).tolist()

    def test_stats_reports_serving(self, served, X):
        base, _ = served
        _post(f"{base}/transform", {"rows": X.tolist()})
        status, document = _get(f"{base}/stats")
        assert status == 200
        stats = document["plans"]["demo@1"]
        assert stats["n_rows"] >= X.shape[0]
        assert stats["n_compiles"] == 1


class TestErrorPaths:
    def test_unknown_endpoint(self, served):
        base, _ = served
        status, document = _post(f"{base}/nope", {})
        assert status == 404
        assert "no such endpoint" in document["error"]

    def test_unknown_plan_is_404(self, served):
        base, _ = served
        status, document = _post(
            f"{base}/transform", {"plan": "ghost", "rows": [[1, 2, 3]]}
        )
        assert status == 404
        assert "ghost" in document["error"]

    def test_missing_rows_is_400(self, served):
        base, _ = served
        status, document = _post(f"{base}/transform", {})
        assert status == 400
        assert "rows" in document["error"]

    def test_invalid_json_is_400(self, served):
        base, _ = served
        request = urllib.request.Request(
            f"{base}/transform", data=b"not json{", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400
        excinfo.value.close()

    def test_traversal_plan_ref_is_404(self, served, tmp_path):
        # A ref shaped like a path must not escape the registry root.
        outside = tmp_path / "outside" / "evil"
        outside.mkdir(parents=True)
        _plan().save(outside / "1.plan.json")
        base, _ = served
        status, document = _post(
            f"{base}/transform",
            {"plan": "../outside/evil", "rows": [[1.0, 2.0, 3.0]]},
        )
        assert status == 404
        assert "no plan" in document["error"]

    def test_missing_column_named_plan_is_400(self, served, tmp_path):
        # Client errors whose message mentions "plan" must still be
        # 400, not mistaken for an unknown plan (typed errors, not
        # message sniffing).
        from repro.api import FeaturePlan
        from repro.serve import PlanRegistry

        registry = PlanRegistry(tmp_path / "p2")
        registry.publish(
            FeaturePlan(["plan_amount"], ["plan_amount", "f1"]), "loans"
        )
        from repro.serve import ServeApp, TransformService

        app = ServeApp(TransformService(registry=registry))
        status, document = app.handle(
            "POST", "/transform", {"plan": "loans", "rows": {"f1": 1.0}}
        )
        assert status == 400
        assert "plan_amount" in document["error"]

    def test_missing_column_is_400(self, served):
        base, _ = served
        status, document = _post(
            f"{base}/transform", {"rows": {"f0": 1.0}}
        )
        assert status == 400
        assert "missing input columns" in document["error"]


class TestServeApp:
    """Transport-free checks against the routing layer directly."""

    def test_no_default_plan(self):
        app = ServeApp(TransformService())
        status, document = app.handle(
            "POST", "/transform", {"rows": [[1.0]]}
        )
        assert status == 400
        assert "no default" in document["error"]

    def test_predict_without_pipeline_is_404(self):
        app = ServeApp(TransformService())
        status, document = app.handle("POST", "/predict", {"rows": [[1.0]]})
        assert status == 404
        assert "pipeline" in document["error"]

    def test_healthz_without_registry(self):
        app = ServeApp(TransformService())
        status, document = app.handle("GET", "/healthz", None)
        assert status == 200
        assert document["n_plans"] == 0

    def test_tampered_plan_is_500(self, tmp_path):
        # Server-side data corruption is a 5xx, not the client's fault.
        registry = PlanRegistry(tmp_path / "reg")
        registry.publish(_plan(), "demo")
        path = tmp_path / "reg" / "demo" / "1.plan.json"
        document = json.loads(path.read_text())
        document["feature_names"] = ["f1"]
        path.write_text(json.dumps(document))
        app = ServeApp(TransformService(registry=registry))
        status, document = app.handle(
            "POST", "/transform", {"plan": "demo", "rows": [[1.0, 2.0, 3.0]]}
        )
        assert status == 500
        assert "fingerprint mismatch" in document["error"]


def _get_text(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return (
            response.status,
            response.headers.get("Content-Type"),
            response.read().decode("utf-8"),
        )


class TestPrometheusMetrics:
    def test_metrics_endpoint_exposes_served_counters(self, served, X):
        base, _ = served
        _post(f"{base}/transform", {"plan": "demo", "rows": X.tolist()})
        _post(f"{base}/transform", {"plan": "demo", "rows": X.tolist()})
        status, content_type, text = _get_text(f"{base}/metrics")
        assert status == 200
        assert content_type.startswith("text/plain")
        assert "version=0.0.4" in content_type
        assert "# TYPE repro_serve_requests_total counter" in text
        assert 'repro_serve_requests_total{plan="demo@1"} 2' in text
        assert f'repro_serve_rows_total{{plan="demo@1"}} {2 * len(X)}' in text
        assert 'repro_serve_compiles_total{plan="demo@1"} 1' in text
        assert "repro_serve_plans 1" in text
        assert text.endswith("\n")

    def test_stats_format_prometheus_matches_metrics(self, served, X):
        base, _ = served
        _post(f"{base}/transform", {"plan": "demo", "rows": X.tolist()})
        _, _, via_metrics = _get_text(f"{base}/metrics")
        _, content_type, via_stats = _get_text(
            f"{base}/stats?format=prometheus"
        )
        assert content_type.startswith("text/plain")
        assert via_stats == via_metrics

    def test_stats_json_still_default(self, served, X):
        base, _ = served
        _post(f"{base}/transform", {"plan": "demo", "rows": X.tolist()})
        for url in (f"{base}/stats", f"{base}/stats?format=json"):
            status, document = _get(url)
            assert status == 200
            assert document["plans"]["demo@1"]["n_requests"] >= 1

    def test_unknown_stats_format_is_400(self, served):
        base, _ = served
        request = urllib.request.Request(f"{base}/stats?format=xml")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        with excinfo.value:
            assert excinfo.value.code == 400

    def test_seconds_total_round_trips_exactly(self):
        app = ServeApp(TransformService())
        service = app.service
        plan = _plan()
        ref = service.add_plan(plan, "pinned")
        service.transform(ref, np.abs(np.random.default_rng(0).normal(size=(4, 3))) + 1.0)
        text = app.metrics_text()
        line = next(
            l for l in text.splitlines()
            if l.startswith('repro_serve_seconds_total{plan="pinned"}')
        )
        reported = float(line.rsplit(" ", 1)[1])
        assert reported == service.stats("pinned").total_seconds

    def test_label_escaping(self):
        from repro.reliability import RetryPolicy

        app = ServeApp(TransformService())
        app.service.add_plan(_plan(), 'we"ird\\name')
        # Held in a local: the policy registry is weak.
        policy = RetryPolicy(name='we"ird\\name', budget=None)  # noqa: F841
        text = app.metrics_text()
        assert 'plan="we\\"ird\\\\name"' in text
        assert (
            'repro_reliability_retries_total{policy="we\\"ird\\\\name"} 0'
            in text
        )
