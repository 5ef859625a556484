"""Process-wide ``repro_eval_*`` metric aggregation.

The README's metric-naming convention reserves ``repro_serve_*`` for
serving-layer counters and ``repro_eval_*`` for search-side evaluation
counters.  The serving half has existed since the HTTP front-door
landed; this module supplies the evaluation half: every
:class:`~repro.eval.service.EvaluationService` registers itself here
at construction (weakly — registration never extends a service's
lifetime), and :func:`eval_metrics_text` renders the *live* services'
aggregated :class:`~repro.eval.service.EvalStats` in Prometheus text
exposition format.  ``repro.serve`` appends this to ``GET /metrics``,
so a scraper pointed at a serving process that also runs searches (or
at a future dedicated exporter) sees cache behaviour, backend
fallbacks, and the multi-fidelity counters next to serving load.

Counters aggregate over currently-alive services only: a laptop-scale
process typically holds one service per running ``fit()``, and a
collected service's history is already persisted on its
``AFEResult``/bench JSON — the scrape reflects what is live now.
"""

from __future__ import annotations

import threading
import weakref
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .service import EvaluationService

__all__ = ["register_service", "aggregate_eval_stats", "eval_metrics_text"]

_lock = threading.Lock()
_services: "weakref.WeakSet[EvaluationService]" = weakref.WeakSet()

#: (metric suffix, EvalStats attribute, metric type, help text)
_SERIES = (
    ("cache_hits_total", "n_cache_hits", "counter",
     "Candidate score lookups served from the cache."),
    ("cache_misses_total", "n_cache_misses", "counter",
     "Candidate score lookups that required evaluation."),
    ("batches_total", "n_batches", "counter",
     "Candidate batches scored."),
    ("near_duplicates_total", "n_near_duplicates", "counter",
     "Cache misses whose quantile-sketch bucket was already seen."),
    ("backend_fallbacks_total", "n_backend_fallbacks", "counter",
     "Parallel-backend failures recovered by serial re-scoring."),
    ("timeouts_total", "n_timeouts", "counter",
     "Pool fits cancelled at their eval_timeout deadline."),
    ("speculative_submitted_total", "n_speculative_submitted", "counter",
     "Cross-sweep speculative submissions."),
    ("speculative_used_total", "n_speculative_used", "counter",
     "Speculative submissions committed as real work."),
    ("speculative_discarded_total", "n_speculative_discarded", "counter",
     "Speculative submissions invalidated by an acceptance."),
    ("lowfi_scored_total", "n_lowfi_scored", "counter",
     "Candidates scored at rung 0 of the fidelity ladder."),
    ("promoted_total", "n_promoted", "counter",
     "Rung-0 candidates promoted to full cross-validation."),
    ("surrogate_served_total", "n_surrogate_served", "counter",
     "Candidates served from the fitted surrogate (no fit paid)."),
    ("surrogate_fallbacks_total", "n_surrogate_fallbacks", "counter",
     "Known-but-uncertain surrogate buckets that fell back to real CV."),
    ("audited_total", "n_audited", "counter",
     "Approximate results audited against a full-CV fit."),
)


def register_service(service: "EvaluationService") -> None:
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
    totals = {suffix: 0 for suffix, _, _, _ in _SERIES}
    regret_total = 0.0
    n_audited = 0
    for service in live:
        stats = service.stats
        for suffix, attribute, _, _ in _SERIES:
            totals[suffix] += getattr(stats, attribute)
        regret_total += stats.fidelity_regret_total
        n_audited += stats.n_audited
    totals["fidelity_regret"] = regret_total / n_audited if n_audited else 0.0
    totals["services"] = len(live)
    return totals


def eval_metrics_text() -> str:
    """Live ``repro_eval_*`` series in Prometheus text format."""
    totals = aggregate_eval_stats()
    lines = [
        "# HELP repro_eval_services Live evaluation services in this "
        "process.",
        "# TYPE repro_eval_services gauge",
        f"repro_eval_services {int(totals['services'])}",
    ]
    for suffix, _, kind, help_text in _SERIES:
        name = f"repro_eval_{suffix}"
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(f"{name} {int(totals[suffix])}")
    regret = totals["fidelity_regret"]
    lines.append(
        "# HELP repro_eval_fidelity_regret Mean |full-CV - reported| "
        "over audited approximate results."
    )
    lines.append("# TYPE repro_eval_fidelity_regret gauge")
    lines.append(f"repro_eval_fidelity_regret {regret!r}")
    return "\n".join(lines) + "\n"
