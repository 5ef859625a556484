"""repro_eval_* Prometheus series: aggregation and /metrics exposure."""

import re
from dataclasses import fields

import numpy as np

from repro.core.evaluation import DownstreamEvaluator
from repro.eval import (
    EvalStats,
    EvaluationService,
    aggregate_eval_stats,
    eval_metrics_text,
)
from repro.fidelity import make_fidelity
from repro.store import MemoryBackend


#: Every family ``GET /metrics`` renders, pinned: a rename is a
#: breaking change for scrapers and dashboards.
SERVE_FAMILIES = [
    "repro_serve_plans",
    "repro_serve_requests_total",
    "repro_serve_rows_total",
    "repro_serve_compiles_total",
    "repro_serve_cache_hits_total",
    "repro_serve_seconds_total",
    "repro_serve_degraded",
    "repro_serve_draining",
    "repro_serve_degraded_serves_total",
    "repro_serve_registry_errors_total",
    "repro_serve_handle_faults_total",
    "repro_serve_watchdog_failures_total",
]
EVAL_FAMILIES = [
    "repro_eval_services",
    "repro_eval_cache_hits_total",
    "repro_eval_cache_misses_total",
    "repro_eval_batches_total",
    "repro_eval_near_duplicates_total",
    "repro_eval_backend_fallbacks_total",
    "repro_eval_timeouts_total",
    "repro_eval_speculative_submitted_total",
    "repro_eval_speculative_used_total",
    "repro_eval_speculative_discarded_total",
    "repro_eval_lowfi_scored_total",
    "repro_eval_promoted_total",
    "repro_eval_surrogate_served_total",
    "repro_eval_surrogate_fallbacks_total",
    "repro_eval_audited_total",
    "repro_eval_fidelity_regret",
]
RELIABILITY_FAMILIES = [
    "repro_reliability_retries_total",
    "repro_reliability_giveups_total",
    "repro_reliability_retry_sleep_seconds_total",
    "repro_reliability_chaos_active",
    "repro_reliability_faults_injected_total",
]


def _service(fidelity=None):
    return EvaluationService(
        DownstreamEvaluator(task="C", n_splits=2, n_estimators=3, seed=0),
        cache=MemoryBackend(),
        fidelity=make_fidelity(fidelity) if fidelity else None,
    )


def _workload(n_candidates=8, n_samples=60):
    rng = np.random.default_rng(0)
    base = rng.normal(size=(n_samples, 3))
    y = (base[:, 0] > 0).astype(np.float64)
    columns = [rng.normal(size=n_samples) for _ in range(n_candidates)]
    return base, columns, y


class TestAggregation:
    def test_sums_across_live_services(self):
        base, columns, y = _workload()
        a = _service()
        b = _service("ladder:promote=0.25,rows=0.5,audit=0")
        before = aggregate_eval_stats()
        a.score_batch(base, columns, y)
        b.score_batch(base, columns, y)
        after = aggregate_eval_stats()
        assert after["cache_misses_total"] - before["cache_misses_total"] == 16
        assert after["lowfi_scored_total"] - before["lowfi_scored_total"] == 8
        assert after["promoted_total"] - before["promoted_total"] == 2
        a.close()
        b.close()

    def test_dead_services_drop_out_of_the_aggregate(self):
        base, columns, y = _workload(n_candidates=2)
        service = _service()
        service.score_batch(base, columns, y)
        service.close()
        seen = aggregate_eval_stats()["services"]
        del service
        assert aggregate_eval_stats()["services"] <= seen


class TestExposition:
    def test_renders_every_promised_series(self):
        text = eval_metrics_text()
        for suffix in (
            "cache_hits_total",
            "cache_misses_total",
            "lowfi_scored_total",
            "promoted_total",
            "surrogate_served_total",
            "surrogate_fallbacks_total",
            "audited_total",
            "fidelity_regret",
        ):
            assert f"# HELP repro_eval_{suffix}" in text
        assert "# TYPE repro_eval_cache_hits_total counter" in text
        assert "# TYPE repro_eval_fidelity_regret gauge" in text
        assert text.endswith("\n")

    def test_serve_metrics_include_eval_series(self):
        # Satellite 1: the /metrics endpoint promised in the README
        # carries the evaluation counters alongside the serve ones.
        from repro.serve import ServeApp, TransformService

        text = ServeApp(TransformService()).metrics_text()
        assert "repro_eval_cache_hits_total" in text
        assert "repro_eval_lowfi_scored_total" in text
        assert "repro_eval_surrogate_served_total" in text
        assert "repro_eval_fidelity_regret" in text
        assert text.endswith("\n")

    def test_metrics_exposition_contract(self):
        from repro.serve import ServeApp, TransformService

        text = ServeApp(TransformService()).metrics_text()
        lines = text.splitlines()
        helps = [l.split()[2] for l in lines if l.startswith("# HELP ")]
        types = [l.split()[2:4] for l in lines if l.startswith("# TYPE ")]
        assert len(helps) == len(set(helps))
        assert helps == [name for name, _ in types]
        assert helps == SERVE_FAMILIES + EVAL_FAMILIES + RELIABILITY_FAMILIES
        for name, kind in types:
            assert re.fullmatch(
                r"repro_(serve|eval|reliability)_[a-z0-9_]+", name
            ), name
            assert kind in ("counter", "gauge"), (name, kind)
            if kind == "counter":
                assert name.endswith("_total"), name
        for sample in (l for l in lines if not l.startswith("#")):
            assert re.split(r"[{ ]", sample, maxsplit=1)[0] in helps, sample
        derived = {
            f"repro_eval_{f.name.removeprefix('n_')}_total"
            for f in fields(EvalStats)
            if "help" in f.metadata
        }
        derived |= {"repro_eval_services", "repro_eval_fidelity_regret"}
        assert set(EVAL_FAMILIES) == derived
