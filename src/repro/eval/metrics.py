"""Process-wide ``repro_eval_*`` metric aggregation.

Every :class:`~repro.eval.service.EvaluationService` registers itself
here at construction (weakly — registration never extends a service's
lifetime), and :func:`eval_metrics_text` renders the *live* services'
summed :class:`~repro.eval.service.EvalStats` in Prometheus text
format; ``repro.serve`` appends it to ``GET /metrics``.  Each
``EvalStats`` field with a ``help`` string in its metadata is one
``repro_eval_<name>_total`` counter, so this module holds no copy of
the counter list.

Counters aggregate over currently-alive services only: a collected
service's history is already persisted on its ``AFEResult``/bench
JSON — the scrape reflects what is live now.
"""

from __future__ import annotations

import threading
import weakref
from dataclasses import fields

from ..obs import render
from .service import EvalStats, EvaluationService

__all__ = ["register_service", "aggregate_eval_stats", "eval_metrics_text"]

_lock = threading.Lock()
_services: "weakref.WeakSet[EvaluationService]" = weakref.WeakSet()

#: (aggregate key, EvalStats attribute, help text) per exported counter.
_COUNTERS = tuple(
    (f"{f.name.removeprefix('n_')}_total", f.name, f.metadata["help"])
    for f in fields(EvalStats)
    if "help" in f.metadata
)


def register_service(service: EvaluationService) -> None:
    """Track a live service for aggregation (weak; never blocks GC)."""
    with _lock:
        _services.add(service)


def aggregate_eval_stats() -> dict[str, float]:
    """Summed counters over currently-live services.

    Includes the derived ``fidelity_regret`` (mean absolute
    approximate-vs-full delta over all audited results) and the number
    of live ``services`` contributing.
    """
    with _lock:
        live = list(_services)
    totals = {key: 0 for key, _, _ in _COUNTERS}
    regret_total = 0.0
    n_audited = 0
    for service in live:
        stats = service.stats
        for key, attribute, _ in _COUNTERS:
            totals[key] += getattr(stats, attribute)
        regret_total += stats.fidelity_regret_total
        n_audited += stats.n_audited
    totals["fidelity_regret"] = regret_total / n_audited if n_audited else 0.0
    totals["services"] = len(live)
    return totals


def eval_metrics_text() -> str:
    """Live ``repro_eval_*`` series in Prometheus text format."""
    totals = aggregate_eval_stats()
    return render((
        ("repro_eval_services", "gauge",
         "Live evaluation services in this process.",
         [({}, totals["services"])]),
        *(
            (f"repro_eval_{key}", "counter", help_text, [({}, totals[key])])
            for key, _, help_text in _COUNTERS
        ),
        ("repro_eval_fidelity_regret", "gauge",
         "Mean |full-CV - reported| over audited approximate results.",
         [({}, totals["fidelity_regret"])]),
    ))
