"""Serving layer: the production counterpart to :mod:`repro.api`.

``repro.api`` ends at a portable :class:`~repro.api.FeaturePlan`;
this package turns plans into *served* artifacts:

* :class:`PlanRegistry` — versioned, fingerprint-addressed plan store
  (one directory tree) that ingests plans from files or
  straight out of a bench :class:`~repro.store.runs.RunStore`, and
  refuses fingerprint-mismatched publishes and loads;
* :class:`TransformService` — a thread-safe serving session with an
  LRU of compiled plans (expressions parsed once, reused across
  requests) and per-plan hit/latency/row counters
  (:class:`PlanServeStats`);
* :class:`FeaturePipeline` — plan + :mod:`repro.ml` downstream model
  as one fit/predict/save/load deployable;
* ``python -m repro.serve`` — a stdlib-only threaded JSON HTTP
  endpoint (``/plans``, ``/transform``, ``/predict``, ``/healthz``,
  ``/stats``, Prometheus-format ``/metrics``) over a
  :class:`TransformService`.

The extended dataflow::

    search (repro.api) ─▶ FeaturePlan ─▶ PlanRegistry ─▶ TransformService
                                             │                  │
                              python -m repro.store plans       ▼
                                  <db> --publish <registry>   HTTP / in-process
"""

from .pipeline import FeaturePipeline
from .registry import (
    PlanIntegrityError,
    PlanNotFound,
    PlanRecord,
    PlanRegistry,
    plan_name_of_path,
)
from .server import PlanHTTPServer, ServeApp, make_server
from .service import PlanServeStats, TransformService
from .watchdog import Watchdog

__all__ = [
    "FeaturePipeline",
    "PlanHTTPServer",
    "PlanIntegrityError",
    "PlanNotFound",
    "PlanRecord",
    "PlanRegistry",
    "PlanServeStats",
    "ServeApp",
    "TransformService",
    "Watchdog",
    "make_server",
    "plan_name_of_path",
]
