"""Prometheus text exposition for the ``repro_reliability_*`` family.

Aggregates live :class:`~repro.reliability.RetryPolicy` counters (per
policy name) and the installed chaos plan's fired-fault counts (per
site).  Rendered by the serve layer's ``/metrics`` endpoint alongside
``repro_serve_*`` and ``repro_eval_*``.
"""

from __future__ import annotations

from ..chaos import active, fault_counts
from ..obs import render
from .retry import registered_policies

__all__ = ["reliability_metrics_text"]


def reliability_metrics_text() -> str:
    """Render retry + chaos counters in Prometheus text format."""
    retries: dict[str, int] = {}
    giveups: dict[str, int] = {}
    slept: dict[str, float] = {}
    for policy in registered_policies():
        retries[policy.name] = retries.get(policy.name, 0) + policy.n_retries
        giveups[policy.name] = giveups.get(policy.name, 0) + policy.n_giveups
        slept[policy.name] = (
            slept.get(policy.name, 0.0) + policy.slept_seconds
        )

    def by(label: str, values: dict) -> list:
        return [({label: key}, values[key]) for key in sorted(values)]

    return render((
        ("repro_reliability_retries_total", "counter",
         "Retries performed, by policy name.", by("policy", retries)),
        ("repro_reliability_giveups_total", "counter",
         "Retry-budget exhaustions, by policy name.", by("policy", giveups)),
        ("repro_reliability_retry_sleep_seconds_total", "counter",
         "Total backoff sleep, by policy name.", by("policy", slept)),
        ("repro_reliability_chaos_active", "gauge",
         "1 when a REPRO_FAULTS plan is installed.", [({}, int(active()))]),
        ("repro_reliability_faults_injected_total", "counter",
         "Chaos faults fired, by site.", by("site", fault_counts())),
    ))
