"""Unit tests for AFEResult serialization."""

import json
from dataclasses import fields

import numpy as np
import pytest

from repro.core.engine import AFEResult, EpochRecord
from repro.eval import EvalStats


def _result():
    return AFEResult(
        dataset="d",
        method="E-AFE",
        task="C",
        base_score=0.7,
        best_score=0.8,
        selected_features=["f1", "mul(f1,f1)"],
        history=[EpochRecord(0, 1.5, 3, 0.75), EpochRecord(1, 3.0, 6, 0.8)],
        n_downstream_evaluations=6,
        n_generated=10,
        n_filtered_out=4,
        wall_time=3.2,
        generation_time=0.01,
        evaluation_time=2.9,
        selected_matrix=np.ones((4, 2)),
    )


class TestToDict:
    def test_core_fields(self):
        payload = _result().to_dict()
        assert payload["dataset"] == "d"
        assert payload["method"] == "E-AFE"
        assert payload["best_score"] == 0.8
        assert payload["improvement"] == 0.8 - 0.7

    def test_history_serialized(self):
        payload = _result().to_dict()
        assert len(payload["history"]) == 2
        assert payload["history"][1]["best_score"] == 0.8

    def test_matrix_excluded_by_default(self):
        assert "selected_matrix" not in _result().to_dict()

    def test_matrix_included_on_request(self):
        payload = _result().to_dict(include_matrix=True)
        assert payload["selected_matrix"] == [[1.0, 1.0]] * 4

    def test_json_round_trip(self):
        payload = _result().to_dict(include_matrix=True)
        restored = json.loads(json.dumps(payload))
        assert restored["selected_features"] == ["f1", "mul(f1,f1)"]

    def test_no_matrix_result_serializes(self):
        result = AFEResult(
            dataset="d", method="m", task="R", base_score=0.1,
            best_score=0.1, selected_features=[],
        )
        payload = result.to_dict(include_matrix=True)
        assert "selected_matrix" not in payload


def _distinct_stats() -> EvalStats:
    """Every counter set to its own non-zero value."""
    values = {}
    for index, f in enumerate(fields(EvalStats), start=1):
        values[f.name] = index + 0.25 if isinstance(f.default, float) else index
    return EvalStats(**values)


class TestEvalStatsRecord:
    def test_result_has_no_per_counter_field(self):
        result_fields = {f.name for f in fields(AFEResult)}
        assert "stats" in result_fields
        assert result_fields.isdisjoint(f.name for f in fields(EvalStats))

    def test_every_counter_round_trips_through_json(self):
        result = _result()
        result.stats = _distinct_stats()
        payload = json.loads(json.dumps(result.to_dict()))
        restored = AFEResult.from_dict(payload)
        assert restored.stats == result.stats
        for f in fields(EvalStats):
            assert payload[f.name] == getattr(result.stats, f.name), f.name
            assert getattr(restored, f.name) == getattr(result.stats, f.name)
        for derived in ("fidelity_regret", "pool_occupancy", "cache_hit_rate"):
            assert payload[derived] == getattr(result, derived), derived
            assert getattr(restored, derived) == getattr(result, derived)

    def test_flat_attributes_read_and_write_the_record(self):
        stats = _distinct_stats()
        result = _result()
        result.stats = stats
        result.n_timeouts = 99
        assert stats.n_timeouts == 99
        assert result.pool_peak_inflight == stats.pool_peak_inflight
        assert result.fidelity_regret == stats.fidelity_regret
        assert result.pool_occupancy == stats.pool_occupancy
        assert result.cache_hit_rate == stats.hit_rate

    def test_derived_rates_are_read_only(self):
        result = _result()
        for name in ("fidelity_regret", "pool_occupancy", "cache_hit_rate"):
            with pytest.raises(AttributeError):
                setattr(result, name, 0.5)


#: A payload exactly as ``to_dict`` wrote it before the counters moved
#: into ``AFEResult.stats``: flat counters, no ``n_batches``,
#: ``n_near_duplicates`` or ``fidelity_regret_total``.
_LEGACY_PAYLOAD = {
    "dataset": "d",
    "method": "E-AFE",
    "task": "C",
    "base_score": 0.7,
    "best_score": 0.8,
    "improvement": 0.10000000000000009,
    "selected_features": ["f1", "mul(f1,f1)"],
    "n_downstream_evaluations": 6,
    "n_generated": 10,
    "n_filtered_out": 4,
    "n_cache_hits": 5,
    "n_cache_misses": 7,
    "n_backend_fallbacks": 1,
    "n_timeouts": 2,
    "n_speculative_submitted": 9,
    "n_speculative_used": 6,
    "n_speculative_discarded": 3,
    "n_drained_evictions": 4,
    "pool_workers": 2,
    "pool_peak_inflight": 5,
    "n_lowfi_scored": 8,
    "n_promoted": 2,
    "n_surrogate_served": 11,
    "n_surrogate_fallbacks": 12,
    "n_audited": 3,
    "fidelity_regret": 0.1,
    "pool_occupancy": 2.5,
    "cache_hit_rate": 0.4166666666666667,
    "wall_time": 3.2,
    "generation_time": 0.01,
    "evaluation_time": 2.9,
    "history": [
        {"epoch": 0, "elapsed": 1.5, "n_evaluations": 3, "best_score": 0.75},
    ],
}


class TestLegacyFlatPayload:
    def test_every_counter_restores(self):
        restored = AFEResult.from_dict(_LEGACY_PAYLOAD)
        for f in fields(EvalStats):
            expected = _LEGACY_PAYLOAD.get(f.name)
            if expected is None:
                continue  # n_batches, n_near_duplicates, the regret total
            assert getattr(restored, f.name) == expected, f.name
        assert restored.n_batches == 0
        assert restored.n_near_duplicates == 0
        assert restored.pool_occupancy == 2.5
        assert restored.cache_hit_rate == 5 / 12

    def test_mean_regret_restores_bit_exactly(self):
        # 0.1 * 3 / 3 == 0.10000000000000002: the mean cannot be
        # rebuilt from a reconstructed total.
        restored = AFEResult.from_dict(_LEGACY_PAYLOAD)
        assert restored.n_audited == 3
        assert restored.fidelity_regret == 0.1
        again = AFEResult.from_dict(json.loads(json.dumps(restored.to_dict())))
        assert again.fidelity_regret == 0.1
        assert again == restored
