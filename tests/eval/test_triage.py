"""One triage step: the hit/miss/served partition on every scoring path.

Every combination of entry point × backend × cache × fidelity scores
the same batch — four distinct candidates plus one in-batch duplicate,
one of them pre-warmed in the cache — and must partition its
submissions exactly: ``hits + misses + surrogate_served ==
submissions``.  With memoization on, the duplicate and the warmed key
are the two hits; with ``cache=None`` every submission is a miss that
pays its own fit.  With fidelity off the scores must equal the serial
``cache=None`` reference bit for bit.
"""

import numpy as np
import pytest

from repro.core.evaluation import DownstreamEvaluator
from repro.datasets import make_classification
from repro.eval import EvaluationService
from repro.fidelity import make_fidelity
from repro.store import MemoryBackend

ENTRY_POINTS = ("evaluate", "score_batch", "submit_batch", "iter_scores_async")
FIDELITIES = ("off", "ladder", "ladder+surrogate")
#: Position of the pre-warmed candidate; the last position repeats 0.
WARMED = 1


def _evaluator():
    return DownstreamEvaluator(task="C", n_splits=3, n_estimators=3, seed=0)


@pytest.fixture(scope="module")
def workload():
    task = make_classification(n_samples=90, n_features=4, seed=5)
    base = task.X.to_array()
    d = base.shape[1]
    distinct = [
        base[:, i % d] * base[:, (i + 1) % d] + float(i) for i in range(4)
    ]
    batch = distinct + [distinct[0].copy()]
    reference = EvaluationService(_evaluator(), cache=None)
    expected = [
        reference.score_batch(base, [column], task.y)[0] for column in batch
    ]
    return base, batch, task.y, expected


def _score(service, entry, base, columns, y):
    if entry == "evaluate":
        token = service.token(base)
        return [
            service.evaluate(
                np.column_stack([base, column]), y,
                base_token=token, column=column,
            )
            for column in columns
        ]
    if entry == "score_batch":
        return service.score_batch(base, columns, y)
    if entry == "submit_batch":
        return [f.result() for f in service.submit_batch(base, columns, y)]
    return list(service.iter_scores_async(base, columns, y))


@pytest.mark.parametrize("fidelity", FIDELITIES)
@pytest.mark.parametrize("cached", [True, False], ids=["memory", "nocache"])
@pytest.mark.parametrize("backend", ["serial", "pool"])
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_partition(workload, entry, backend, cached, fidelity):
    base, batch, y, expected = workload
    cache = MemoryBackend() if cached else None
    if cache is not None:
        warm = EvaluationService(_evaluator(), cache=cache)
        warm.score_batch(base, [batch[WARMED]], y)
    service = EvaluationService(
        _evaluator(),
        cache=cache,
        backend=backend,
        n_workers=2 if backend == "pool" else None,
        fidelity=make_fidelity(fidelity),
    )
    with service:
        scores = _score(service, entry, base, batch, y)
    stats = service.stats
    assert (
        stats.n_cache_hits + stats.n_cache_misses + stats.n_surrogate_served
        == len(batch)
    )
    assert stats.n_surrogate_served == 0  # a fresh gate has no buckets
    hits = 2 if cached else 0
    assert stats.n_cache_hits == hits
    assert scores[-1] == scores[0]
    if fidelity == "off" or entry == "evaluate":
        # evaluate never routes through the fidelity ladder.
        assert scores == expected
        assert service.evaluator.n_evaluations == len(batch) - hits
    if backend == "pool" and entry != "evaluate":
        assert stats.pool_workers == 2
        assert stats.pool_peak_inflight >= 1
        assert stats.n_backend_fallbacks == 0


class TestNoCacheRule:
    """``cache=None``: an in-batch duplicate is a miss and pays a fit."""

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    @pytest.mark.parametrize("entry", ["score_batch", "submit_batch"])
    def test_duplicate_pays_its_own_fit(self, workload, entry, backend):
        base, batch, y, _ = workload
        columns = [batch[0], batch[1], batch[0]]
        service = EvaluationService(
            _evaluator(), cache=None, backend=backend,
            n_workers=2 if backend == "pool" else None,
        )
        with service:
            scores = _score(service, entry, base, columns, y)
        assert scores[0] == scores[2]
        assert service.stats.n_cache_hits == 0
        assert service.stats.n_cache_misses == 3
        assert service.evaluator.n_evaluations == 3

    def test_fidelity_duplicate_pays_its_own_rung0_fit(self, workload):
        base, batch, y, _ = workload
        service = EvaluationService(
            _evaluator(), cache=None, fidelity=make_fidelity("ladder")
        )
        service.score_batch(base, [batch[0], batch[1], batch[0]], y)
        assert service.stats.n_cache_hits == 0
        assert service.stats.n_cache_misses == 3
        assert service.stats.n_lowfi_scored == 3


class TestPoolOccupancy:
    """Every pool fit counts toward occupancy, not only submit_batch."""

    def test_score_batch_reports_pool_occupancy(self, workload):
        base, batch, y, _ = workload
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
        )
        with service:
            service.score_batch(base, batch[:4], y)
        assert service.stats.pool_workers == 2
        assert service.stats.pool_peak_inflight >= 1
        assert service.stats.pool_occupancy > 0.0

    def test_promoted_fidelity_fits_report_pool_occupancy(self, workload):
        base, batch, y, _ = workload
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2,
            fidelity=make_fidelity("ladder"),
        )
        with service:
            service.score_batch(base, batch[:4], y)
        assert service.stats.n_promoted > 0
        assert service.stats.pool_workers == 2
        assert service.stats.pool_occupancy > 0.0


def test_pool_duplicate_shares_its_first_future(workload):
    base, batch, y, _ = workload
    service = EvaluationService(
        _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
    )
    with service:
        futures = service.submit_batch(base, batch, y)
        assert futures[-1] is futures[0]
        assert futures[-1].result() == futures[0].result()
    assert service.evaluator.n_evaluations == len(batch) - 1
