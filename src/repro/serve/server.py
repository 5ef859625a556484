"""Zero-dependency JSON HTTP endpoint over a TransformService.

The repo can search features and persist plans; this module makes it
*answer traffic*: a stdlib-only (``http.server``) threaded JSON API —
no framework, no sockets library beyond the standard one — suitable
for smoke deployments and as the reference wire protocol.

Endpoints
---------
``GET /healthz``
    Liveness and readiness: ``{"status": "ready"|"degraded"|"live",
    ...}`` with a ``reliability`` block (registry errors, degraded
    serves, watchdog verdict, retry/fault counters).  ``degraded``
    means traffic is still answered — from the compiled-plan cache —
    while the registry backend is failing; ``live`` means the server
    is draining and refuses new work.
``GET /plans``
    Every serveable reference with fingerprint and width.
``GET /stats``
    Per-plan serving counters (requests, rows, compiles, latency).
``GET /metrics`` (alias: ``GET /stats?format=prometheus``)
    The same counters in Prometheus text exposition format, one
    ``repro_serve_*`` series per plan — point a scraper here and
    serving performance is tracked alongside the evaluation-layer
    counters the bench emits.
``POST /transform``
    ``{"rows": <row|rows>, "plan": <ref?>}`` →
    ``{"plan": ref, "columns": [...], "rows": [[...]]}``.  Rows are
    flat value lists (positional) or ``{column: value}`` mappings.
``POST /predict``
    Same request shape against the loaded pipeline →
    ``{"predictions": [...]}`` (404 when no pipeline is configured).

Bit-identity over the wire: responses serialize floats with Python's
``repr`` (the shortest string that round-trips exactly), so a client
parsing the JSON back into float64 recovers bit-identical values to
an in-process ``FeaturePlan.transform`` — asserted by the test suite
and the CI smoke step.

Requests are handled by :class:`~http.server.ThreadingHTTPServer`
(one thread per connection); the underlying
:class:`~repro.serve.service.TransformService` is thread-safe, so
concurrent clients share one compiled-plan cache.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlsplit

from ..chaos import FaultInjected, fault_counts, maybe_fault
from ..obs import render
from ..reliability import registered_policies, reliability_metrics_text
from .pipeline import FeaturePipeline
from .registry import PlanIntegrityError, PlanNotFound
from .service import _DEGRADABLE_ERRORS, TransformService

__all__ = ["ServeApp", "PlanHTTPServer", "make_server"]

_MAX_BODY_BYTES = 64 * 1024 * 1024

_JSON_TYPE = "application/json"
#: Prometheus text exposition format, as scrapers expect it.
_PROMETHEUS_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class ServeApp:
    """Transport-independent request handling (easy to unit-test).

    Parameters
    ----------
    service:
        The :class:`TransformService` answering ``/transform``.
    default_plan:
        Serving reference used when a request names no plan.
    pipeline:
        Optional :class:`FeaturePipeline` behind ``/predict``.
    """

    def __init__(
        self,
        service: TransformService,
        default_plan: str | None = None,
        pipeline: FeaturePipeline | None = None,
    ) -> None:
        self.service = service
        self.default_plan = default_plan
        self.pipeline = pipeline
        # Lifecycle state: draining (SIGTERM received — 503 new work,
        # finish in-flight requests), in-flight request tracking, and
        # the watchdog self-test verdict (flips /healthz to degraded).
        self._draining = threading.Event()
        self._inflight_lock = threading.Condition()
        self._inflight = 0
        self.watchdog_ok = True
        self.last_watchdog_error: str | None = None
        self.n_watchdog_failures = 0
        self.n_handle_faults = 0
        self.n_drained_requests = 0

    # -- lifecycle ---------------------------------------------------------
    @property
    def draining(self) -> bool:
        return self._draining.is_set()

    @property
    def inflight(self) -> int:
        """Requests currently being handled."""
        with self._inflight_lock:
            return self._inflight

    def begin_drain(self) -> None:
        """Stop accepting work: new requests (except probes) get 503."""
        self._draining.set()

    def wait_drained(self, timeout: float | None = None) -> bool:
        """Block until every in-flight request finished (True on empty)."""
        with self._inflight_lock:
            return self._inflight_lock.wait_for(
                lambda: self._inflight == 0, timeout=timeout
            )

    @contextmanager
    def _track_inflight(self):
        with self._inflight_lock:
            self._inflight += 1
        try:
            yield
        finally:
            with self._inflight_lock:
                self._inflight -= 1
                self.n_drained_requests += 1 if self._draining.is_set() else 0
                self._inflight_lock.notify_all()

    def record_selftest(self, ok: bool, error: str | None = None) -> None:
        """Watchdog verdict sink: flips readiness on canary failure."""
        self.watchdog_ok = ok
        self.last_watchdog_error = error
        if not ok:
            self.n_watchdog_failures += 1

    # -- dispatch ----------------------------------------------------------
    def handle_raw(
        self, method: str, raw_path: str, body: dict | None
    ) -> tuple[int, bytes, str]:
        """Route one request with query parsing and content negotiation.

        Returns ``(status, payload bytes, content type)``.  The
        Prometheus surface (``/metrics``, ``/stats?format=prometheus``)
        answers in text exposition format; everything else delegates
        to :meth:`handle` and serializes JSON.  While draining, every
        endpoint except the probes (``/healthz``, ``/metrics``)
        answers 503 without touching the service.
        """
        parts = urlsplit(raw_path)
        path = parts.path
        if self._draining.is_set() and path not in ("/healthz", "/metrics"):
            document = {"error": "server is draining; no new work accepted"}
            return 503, json.dumps(document).encode("utf-8"), _JSON_TYPE
        with self._track_inflight():
            return self._dispatch_raw(method, parts, path, body)

    def _dispatch_raw(
        self, method: str, parts, path: str, body: dict | None
    ) -> tuple[int, bytes, str]:
        try:
            # Chaos site: a fault here models the handler itself
            # failing (worst-case 500), independent of the registry.
            maybe_fault("serve.handle")
        except FaultInjected as error:
            self.n_handle_faults += 1
            document = {"error": str(error)}
            return 500, json.dumps(document).encode("utf-8"), _JSON_TYPE
        if method == "GET" and path == "/metrics":
            return 200, self.metrics_text().encode("utf-8"), _PROMETHEUS_TYPE
        if method == "GET" and path == "/stats":
            wanted = parse_qs(parts.query).get("format", [""])[-1].lower()
            if wanted == "prometheus":
                return (
                    200,
                    self.metrics_text().encode("utf-8"),
                    _PROMETHEUS_TYPE,
                )
            if wanted not in ("", "json"):
                document = {"error": f"unknown stats format {wanted!r}"}
                return 400, json.dumps(document).encode("utf-8"), _JSON_TYPE
        status, document = self.handle(method, path, body)
        return status, json.dumps(document).encode("utf-8"), _JSON_TYPE

    def metrics_text(self) -> str:
        """Serving, evaluation and reliability counters, Prometheus text.

        ``repro_serve_*`` series cover the serving layer (per-plan
        labels).  Appended are :func:`repro.eval.metrics.eval_metrics_text`
        — ``repro_eval_*`` aggregated over evaluation services live in
        this process (all zeros in a pure serving process) — and
        :func:`repro.reliability.reliability_metrics_text`.  All three
        render through :func:`repro.obs.render`.
        """
        stats = self.service.stats()

        def per_plan(value) -> list:
            return [({"plan": r}, value(stats[r])) for r in sorted(stats)]

        degraded = bool(
            getattr(self.service, "degraded", False) or not self.watchdog_ok
        )
        families = (
            ("repro_serve_plans", "gauge", "Number of serveable plans.",
             [({}, self.service.n_plans())]),
            ("repro_serve_requests_total", "counter",
             "Transform requests served.", per_plan(lambda s: s.n_requests)),
            ("repro_serve_rows_total", "counter", "Rows transformed.",
             per_plan(lambda s: s.n_rows)),
            ("repro_serve_compiles_total", "counter",
             "Plan compilations performed.",
             per_plan(lambda s: s.n_compiles)),
            ("repro_serve_cache_hits_total", "counter",
             "Requests served from the compiled-plan cache.",
             per_plan(lambda s: s.n_cache_hits)),
            ("repro_serve_seconds_total", "counter",
             "Seconds spent inside plan transforms.",
             per_plan(lambda s: s.total_seconds)),
            ("repro_serve_degraded", "gauge",
             "1 when serving stale plans (registry errors or failed "
             "watchdog canary), 0 when healthy.", [({}, int(degraded))]),
            ("repro_serve_draining", "gauge",
             "1 while the server refuses new work pending shutdown.",
             [({}, int(self._draining.is_set()))]),
            ("repro_serve_degraded_serves_total", "counter",
             "Requests answered from the compiled-plan cache while the "
             "registry backend was failing.",
             [({}, getattr(self.service, "n_degraded_serves", 0))]),
            ("repro_serve_registry_errors_total", "counter",
             "Registry backend errors absorbed by degraded serving.",
             [({}, getattr(self.service, "n_registry_errors", 0))]),
            ("repro_serve_handle_faults_total", "counter",
             "Injected serve.handle faults surfaced as HTTP 500.",
             [({}, self.n_handle_faults)]),
            ("repro_serve_watchdog_failures_total", "counter",
             "Watchdog canary round-trips that failed.",
             [({}, self.n_watchdog_failures)]),
        )
        from ..eval.metrics import eval_metrics_text

        return (
            render(families) + eval_metrics_text() + reliability_metrics_text()
        )

    def handle(self, method: str, path: str, body: dict | None) -> tuple[int, dict]:
        """Route one request; returns ``(status_code, json_document)``."""
        try:
            if method == "GET" and path == "/healthz":
                return 200, self._healthz()
            if method == "GET" and path == "/plans":
                return 200, {"plans": self.service.available()}
            if method == "GET" and path == "/stats":
                return 200, self._stats()
            if method == "POST" and path == "/transform":
                return 200, self._transform(body or {})
            if method == "POST" and path == "/predict":
                return self._predict(body or {})
            return 404, {"error": f"no such endpoint: {method} {path}"}
        except PlanNotFound as error:
            return 404, {"error": str(error)}
        except PlanIntegrityError as error:
            # Server-side data corruption (tampered document, foreign
            # operator registry) — the client's request was fine.
            return 500, {"error": str(error)}
        except KeyError as error:
            # Malformed request (e.g. a mapping row missing columns).
            message = error.args[0] if error.args else str(error)
            return 400, {"error": str(message)}
        except (TypeError, ValueError) as error:
            return 400, {"error": str(error)}
        except _DEGRADABLE_ERRORS as error:
            # Registry backend down AND the plan is not in the LRU —
            # degradation had nothing to serve.  503 tells the client
            # (and its load balancer) to retry elsewhere.
            return 503, {"error": f"registry backend unavailable: {error}"}

    def _healthz(self) -> dict:
        # Liveness must stay cheap: n_plans counts version metadata,
        # never loading plan documents.  Status ladder:
        #   ready    — accepting traffic, registry + watchdog healthy
        #   degraded — alive and answering, but the registry backend is
        #              failing (stale/LRU serves) or the watchdog canary
        #              round-trip failed
        #   live     — draining: process is up but refuses new work
        degraded = bool(
            getattr(self.service, "degraded", False) or not self.watchdog_ok
        )
        if self._draining.is_set():
            status = "live"
        elif degraded:
            status = "degraded"
        else:
            status = "ready"
        return {
            "status": status,
            "degraded": degraded,
            "draining": self._draining.is_set(),
            "n_plans": self.service.n_plans(),
            "default_plan": self.default_plan,
            "has_pipeline": self.pipeline is not None,
            "reliability": {
                "registry_errors": getattr(
                    self.service, "n_registry_errors", 0
                ),
                "registry_error": getattr(
                    self.service, "degraded_error", None
                ),
                "degraded_serves": getattr(
                    self.service, "n_degraded_serves", 0
                ),
                "handle_faults": self.n_handle_faults,
                "watchdog_ok": self.watchdog_ok,
                "watchdog_failures": self.n_watchdog_failures,
                "watchdog_error": self.last_watchdog_error,
                "retries": sum(
                    policy.n_retries for policy in registered_policies()
                ),
                "faults_injected": sum(fault_counts().values()),
            },
        }

    def _stats(self) -> dict:
        return {
            "plans": {
                key: stats.as_dict()
                for key, stats in self.service.stats().items()
            }
        }

    def _plan_ref(self, body: dict) -> str:
        ref = body.get("plan") or self.default_plan
        if ref is None:
            raise ValueError(
                "request names no plan and the server has no default; "
                "pass {\"plan\": \"name[@version]\"}"
            )
        return str(ref)

    def _transform(self, body: dict) -> dict:
        if "rows" not in body:
            raise ValueError('request body must carry "rows"')
        # serve_rows resolves the plan exactly once, so rows and column
        # labels are always from the same version even when a
        # concurrent publish moves the latest pointer mid-request.
        return self.service.serve_rows(self._plan_ref(body), body["rows"])

    def _predict(self, body: dict) -> tuple[int, dict]:
        if self.pipeline is None:
            return 404, {"error": "no pipeline loaded (start with --pipeline)"}
        if "rows" not in body:
            raise ValueError('request body must carry "rows"')
        # predict_rows accepts every request shape /transform does —
        # single mapping, flat row, or batches (shared rows_to_matrix).
        rows = body["rows"]
        document: dict = {"predictions": self.pipeline.predict_rows(rows)}
        if body.get("proba"):
            if not hasattr(self.pipeline.model, "predict_proba"):
                raise ValueError(
                    "pipeline model does not support predict_proba"
                )
            document["probabilities"] = self.pipeline.predict_proba_rows(rows)
        return 200, document


class _Handler(BaseHTTPRequestHandler):
    """Thin socket layer: JSON in, JSON out, errors as JSON."""

    server_version = "repro-serve/1.0"

    @property
    def app(self) -> ServeApp:
        return self.server.app  # type: ignore[attr-defined]

    def _respond(
        self, status: int, payload: bytes, content_type: str = _JSON_TYPE
    ) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _respond_json(self, status: int, document: dict) -> None:
        self._respond(status, json.dumps(document).encode("utf-8"))

    def do_GET(self) -> None:  # noqa: N802 (http.server contract)
        self._respond(*self.app.handle_raw("GET", self.path, None))

    def do_POST(self) -> None:  # noqa: N802
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            self._respond_json(413, {"error": "request body too large"})
            return
        raw = self.rfile.read(length) if length else b""
        try:
            body = json.loads(raw.decode("utf-8")) if raw else {}
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            self._respond_json(400, {"error": f"invalid JSON body: {error}"})
            return
        if not isinstance(body, dict):
            self._respond_json(400, {"error": "JSON body must be an object"})
            return
        self._respond(*self.app.handle_raw("POST", self.path, body))

    def log_message(self, format: str, *args) -> None:
        """Per-request logging, gated on the server's verbose flag."""
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


class PlanHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the :class:`ServeApp` for handlers."""

    daemon_threads = True

    def __init__(self, address, app: ServeApp, verbose: bool = False) -> None:
        super().__init__(address, _Handler)
        self.app = app
        self.verbose = verbose

    def serve_background(self) -> threading.Thread:
        """Run ``serve_forever`` on a daemon thread (tests, examples)."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        thread.start()
        return thread


def make_server(
    service: TransformService,
    host: str = "127.0.0.1",
    port: int = 0,
    default_plan: str | None = None,
    pipeline: FeaturePipeline | None = None,
    verbose: bool = False,
) -> PlanHTTPServer:
    """Build a ready-to-run server; ``port=0`` picks a free port.

    The bound address is available as ``server.server_address``.
    """
    app = ServeApp(service, default_plan=default_plan, pipeline=pipeline)
    return PlanHTTPServer((host, port), app, verbose=verbose)
