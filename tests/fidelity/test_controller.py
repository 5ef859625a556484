"""FidelityController: gating order, accounting invariant, audits."""

import numpy as np
import pytest

from repro.core.evaluation import DownstreamEvaluator
from repro.eval import EvaluationService
from repro.fidelity import FidelitySpec, make_fidelity
from repro.store import FIDELITY_KEY_MARKER, MemoryBackend, fidelity_namespace


def _evaluator(seed=0):
    return DownstreamEvaluator(
        task="C", n_splits=3, n_estimators=3, seed=seed
    )


def _workload(n_candidates=12, n_samples=80, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(n_samples, 4))
    y = (base[:, 0] + 0.5 * base[:, 1] > 0).astype(np.float64)
    columns = [rng.normal(size=n_samples) for _ in range(n_candidates)]
    return base, columns, y


def _service(spec_text, backend="serial", cache=None, seed=0):
    fidelity = make_fidelity(spec_text, seed=seed)
    return EvaluationService(
        _evaluator(seed=seed),
        cache=MemoryBackend() if cache is None else cache,
        backend=backend,
        fidelity=fidelity,
    )


def _submissions(service):
    stats = service.stats
    return (
        stats.n_cache_hits + stats.n_cache_misses + stats.n_surrogate_served
    )


class TestMakeFidelity:
    def test_off_yields_none(self):
        assert make_fidelity(None) is None
        assert make_fidelity("off") is None
        assert make_fidelity(FidelitySpec()) is None

    def test_enabled_yields_controller(self):
        controller = make_fidelity("ladder")
        assert controller is not None and controller.ladder is not None
        assert controller.surrogate is None


class TestAccountingInvariant:
    def test_every_submission_is_hit_miss_or_served(self):
        """The satellite-2 invariant, end to end.

        A surrogate-served candidate must never also count as a cache
        miss, and hits/misses/serves must partition submissions exactly
        — the throughput benchmark asserts the same equation on its
        real workload.
        """
        service = _service("ladder+surrogate:promote=0.25,rows=0.5,audit=3")
        base, columns, y = _workload()
        submitted = 0
        for _ in range(3):
            service.score_batch(base, columns, y)
            submitted += len(columns)
            assert _submissions(service) == submitted
        service.close()

    def test_in_batch_duplicates_are_hits(self):
        service = _service("ladder")
        base, columns, y = _workload(n_candidates=4)
        doubled = columns + [columns[0].copy(), columns[2].copy()]
        scores = service.score_batch(base, doubled, y)
        assert scores[4] == scores[0]
        assert scores[5] == scores[2]
        assert service.stats.n_cache_hits == 2
        assert _submissions(service) == len(doubled)
        service.close()


class TestLadderPath:
    def test_only_promoted_fraction_pays_full_cv(self):
        service = _service("ladder:promote=0.25,rows=0.5")
        base, columns, y = _workload(n_candidates=8)
        service.score_batch(base, columns, y)
        stats = service.stats
        assert stats.n_lowfi_scored == 8
        assert stats.n_promoted == 2  # ceil(8 * 0.25)
        # Real fits: 8 rung-0 + 2 full.
        assert service.evaluator.n_evaluations == 10
        service.close()

    def test_rejected_scores_live_in_fidelity_namespace(self):
        cache = MemoryBackend()
        service = _service("ladder:promote=0.25,rows=0.5", cache=cache)
        base, columns, y = _workload(n_candidates=8)
        service.score_batch(base, columns, y)
        counts = cache.fidelity_counts()
        assert counts == {"full": 2, "1x0.5": 6}
        for key in cache._scores:
            if FIDELITY_KEY_MARKER in key:
                assert fidelity_namespace(key) == "1x0.5"
        service.close()

    def test_promoted_scores_match_exact_service(self):
        """A promoted candidate's reported score is the true full-CV one."""
        base, columns, y = _workload(n_candidates=8)
        exact = EvaluationService(_evaluator(), cache=MemoryBackend())
        truth = exact.score_batch(base, columns, y)
        service = _service("ladder:promote=0.5,rows=0.5")
        laddered = service.score_batch(base, columns, y)
        promoted_positions = [
            i for i, (a, b) in enumerate(zip(laddered, truth)) if a == b
        ]
        assert len(promoted_positions) >= service.stats.n_promoted
        exact.close()
        service.close()

    def test_warm_batch_pays_no_new_fits(self):
        service = _service("ladder:promote=0.25,rows=0.5,audit=0")
        base, columns, y = _workload()
        first = service.score_batch(base, columns, y)
        fits = service.evaluator.n_evaluations
        second = service.score_batch(base, columns, y)
        assert second == first
        assert service.evaluator.n_evaluations == fits
        service.close()


class TestSurrogatePath:
    def _near_duplicates(self, column, n, jitter=1e-9):
        rng = np.random.default_rng(1)
        # Tiny jitter: same quantile-sketch bucket, different digest.
        return [column + rng.normal(0.0, jitter, size=column.shape)
                for _ in range(n)]

    def test_tight_bucket_serves_without_fit(self):
        service = _service("surrogate:min_obs=3,bound=0.5")
        base, columns, y = _workload(n_candidates=1)
        family = [columns[0]] + self._near_duplicates(columns[0], 5)
        service.score_batch(base, family[:4], y)  # fills the bucket
        fits = service.evaluator.n_evaluations
        service.score_batch(base, family[4:], y)
        stats = service.stats
        assert stats.n_surrogate_served == 2
        assert service.evaluator.n_evaluations == fits  # no new fits
        assert stats.n_cache_misses == 4
        assert _submissions(service) == 6
        service.close()

    def test_uncertain_bucket_falls_back_and_counts(self):
        # min_obs is unreachably high: buckets become *known* after the
        # first batch observes them, but may never serve — every later
        # near-duplicate is a counted fallback, not a silent one.
        service = _service("surrogate:min_obs=50,bound=0.5")
        base, columns, y = _workload(n_candidates=1)
        family = [columns[0]] + self._near_duplicates(columns[0], 3)
        service.score_batch(base, family[:2], y)  # bucket becomes known
        assert service.stats.n_surrogate_fallbacks == 0
        service.score_batch(base, family[2:], y)
        stats = service.stats
        assert stats.n_surrogate_served == 0
        assert stats.n_surrogate_fallbacks == 2
        assert stats.n_cache_misses == 4
        service.close()


class TestAudit:
    def test_audit_measures_but_does_not_change_reported_scores(self):
        base, columns, y = _workload(n_candidates=8)
        audited = _service("ladder:promote=0.25,rows=0.5,audit=2", seed=0)
        silent = _service("ladder:promote=0.25,rows=0.5,audit=0", seed=0)
        scores_audited = audited.score_batch(base, columns, y)
        scores_silent = silent.score_batch(base, columns, y)
        assert scores_audited == scores_silent
        assert audited.stats.n_audited == 3  # 6 rejected, every 2nd
        assert silent.stats.n_audited == 0
        assert audited.stats.fidelity_regret >= 0.0
        # The audit pays real extra fits.
        assert (
            audited.evaluator.n_evaluations
            == silent.evaluator.n_evaluations + 3
        )
        audited.close()
        silent.close()

    def test_audited_full_scores_cached_under_full_keys(self):
        cache = MemoryBackend()
        service = _service(
            "ladder:promote=0.25,rows=0.5,audit=2", cache=cache
        )
        base, columns, y = _workload(n_candidates=8)
        service.score_batch(base, columns, y)
        counts = cache.fidelity_counts()
        # 2 promoted + 3 audited land under full keys; 6 rejected keep
        # their rung-0 namespace entries.
        assert counts["full"] == 5
        assert counts["1x0.5"] == 6
        service.close()


class TestEntryPointsRouteThroughLadder:
    def test_iter_scores_uses_batch_semantics(self):
        service = _service("ladder:promote=0.25,rows=0.5")
        base, columns, y = _workload(n_candidates=8)
        streamed = list(service.iter_scores(base, columns, y))
        assert service.stats.n_lowfi_scored == 8
        batch = _service("ladder:promote=0.25,rows=0.5")
        assert streamed == batch.score_batch(base, columns, y)
        service.close()
        batch.close()

    def test_submit_batch_resolves_eagerly(self):
        service = _service("ladder:promote=0.25,rows=0.5")
        base, columns, y = _workload(n_candidates=8)
        futures = service.submit_batch(base, columns, y)
        assert all(future.done() for future in futures)
        assert service.stats.n_lowfi_scored == 8
        service.close()


class TestBackendEquality:
    @pytest.mark.parametrize("backend", ["pool"])
    def test_fidelity_scores_identical_across_backends(self, backend):
        base, columns, y = _workload(n_candidates=8)
        serial = _service("ladder:promote=0.5,rows=0.5,audit=0")
        expected = serial.score_batch(base, columns, y)
        serial.close()
        parallel = _service(
            "ladder:promote=0.5,rows=0.5,audit=0", backend=backend
        )
        try:
            assert parallel.score_batch(base, columns, y) == expected
            assert parallel.stats.n_promoted == serial.stats.n_promoted
        finally:
            parallel.close()
