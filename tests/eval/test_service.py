"""EvaluationService: memoization, batching, and backend equality."""

import numpy as np
import pytest

from repro.core.evaluation import DownstreamEvaluator
from repro.datasets import make_classification, make_regression
from repro.eval import (
    ColumnFingerprinter,
    EvaluationService,
    content_digest,
)
from repro.rl import FeatureSpace
from repro.store import MemoryBackend


def _evaluator(task="C", seed=0):
    return DownstreamEvaluator(
        task=task, n_splits=3, n_estimators=3, seed=seed
    )


def _candidates(task, n=6):
    base = task.X.to_array()
    d = base.shape[1]
    return base, [
        base[:, i % d] * base[:, (i + 1) % d] + float(i) for i in range(n)
    ]


def _accept_first(space, agent_index):
    """Accept the first generable feature of ``agent_index``."""
    for action in range(space.n_actions):
        feature = space.generate(agent_index, action)
        if feature is not None and space.accept(agent_index, feature):
            return
    raise AssertionError("no acceptable feature")


class TestFingerprint:
    def test_content_digest_is_content_keyed(self):
        a = np.arange(10, dtype=np.float64)
        assert content_digest(a) == content_digest(a.copy())
        assert content_digest(a) != content_digest(a + 1.0)

    def test_column_fingerprint_distinguishes_columns(self):
        printer = ColumnFingerprinter()
        a = np.linspace(0, 1, 50)
        assert printer.key(a) == printer.key(a.copy())
        assert printer.key(a) != printer.key(a[::-1].copy())

    def test_sketch_bucket_groups_near_duplicates(self):
        printer = ColumnFingerprinter()
        a = np.linspace(0, 1, 50)
        bucket_a, digest_a = printer.fingerprint(a)
        bucket_b, digest_b = printer.fingerprint(a + 1e-12)
        assert bucket_a == bucket_b  # same distribution shape
        assert digest_a != digest_b  # but not bit-identical content


class TestMemoization:
    def test_cached_score_bit_identical_to_uncached(self):
        task = make_classification(n_samples=80, n_features=4, seed=0)
        reference = _evaluator().evaluate(task.X.to_array(), task.y)
        service = EvaluationService(_evaluator(), cache=MemoryBackend())
        first = service.evaluate(task.X.to_array(), task.y)
        second = service.evaluate(task.X.to_array(), task.y)
        assert first == reference
        assert second == reference
        assert service.stats.n_cache_hits == 1
        assert service.evaluator.n_evaluations == 1

    def test_candidate_keying_matches_full_matrix_scoring(self):
        task = make_classification(n_samples=80, n_features=4, seed=1)
        base, columns = _candidates(task, n=1)
        trial = np.column_stack([base, columns[0]])
        reference = _evaluator().evaluate(trial, task.y)
        service = EvaluationService(_evaluator(), cache=MemoryBackend())
        token = service.token(base)
        score = service.evaluate(
            trial, task.y, base_token=token, column=columns[0]
        )
        assert score == reference
        # Second submission of the same candidate: pure cache hit.
        again = service.evaluate(
            trial, task.y, base_token=token, column=columns[0]
        )
        assert again == reference
        assert service.evaluator.n_evaluations == 1

    def test_near_duplicate_misses_are_counted(self):
        # Two columns with identical distribution shape but different
        # content land in one sketch bucket: the second miss is counted
        # as near-duplicate headroom (but still pays its own fit).
        task = make_classification(n_samples=80, n_features=4, seed=11)
        base = task.X.to_array()
        column = np.linspace(0.0, 1.0, 80)
        shifted = column + 1e-9
        service = EvaluationService(_evaluator(), cache=MemoryBackend())
        service.score_batch(base, [column, shifted], task.y)
        assert service.evaluator.n_evaluations == 2
        assert service.stats.n_near_duplicates == 1

    def test_none_cache_disables_memoization(self):
        task = make_classification(n_samples=80, n_features=4, seed=2)
        service = EvaluationService(_evaluator(), cache=None)
        service.evaluate(task.X.to_array(), task.y)
        service.evaluate(task.X.to_array(), task.y)
        assert service.stats.n_cache_hits == 0
        assert service.evaluator.n_evaluations == 2

    def test_distinct_base_versions_do_not_collide(self):
        task = make_classification(n_samples=80, n_features=4, seed=3)
        base, columns = _candidates(task, n=1)
        other_base = base[:, ::-1].copy()
        service = EvaluationService(_evaluator(), cache=MemoryBackend())
        a = service.score_batch(base, columns, task.y)[0]
        b = service.score_batch(other_base, columns, task.y)[0]
        assert service.evaluator.n_evaluations == 2
        assert a != b or service.stats.n_cache_hits == 0

    def test_regression_task_supported(self):
        task = make_regression(n_samples=80, n_features=4, seed=4)
        reference = _evaluator("R").evaluate(task.X.to_array(), task.y)
        service = EvaluationService(_evaluator("R"), cache=MemoryBackend())
        assert service.evaluate(task.X.to_array(), task.y) == reference


class TestScoreBatch:
    def test_batch_matches_individual_evaluations(self):
        task = make_classification(n_samples=90, n_features=4, seed=5)
        base, columns = _candidates(task)
        reference_eval = _evaluator()
        reference = [
            reference_eval.evaluate(np.column_stack([base, c]), task.y)
            for c in columns
        ]
        service = EvaluationService(_evaluator(), cache=MemoryBackend())
        scores = service.score_batch(base, columns, task.y)
        assert scores == reference

    def test_batch_deduplicates_within_batch(self):
        task = make_classification(n_samples=90, n_features=4, seed=6)
        base, columns = _candidates(task, n=2)
        duplicated = [columns[0], columns[1], columns[0], columns[1]]
        service = EvaluationService(_evaluator(), cache=MemoryBackend())
        scores = service.score_batch(base, duplicated, task.y)
        assert scores[0] == scores[2]
        assert scores[1] == scores[3]
        assert service.evaluator.n_evaluations == 2
        assert service.stats.n_cache_hits == 2

    def test_empty_batch(self):
        task = make_classification(n_samples=60, n_features=4, seed=7)
        service = EvaluationService(_evaluator(), cache=MemoryBackend())
        assert service.score_batch(task.X.to_array(), [], task.y) == []

    def test_unknown_backend_rejected(self):
        # A removed backend name must fail loudly, not fall back.
        for backend in ("threads", "process"):
            with pytest.raises(ValueError, match="unknown backend"):
                EvaluationService(_evaluator(), backend=backend)


class TestStreaming:
    def test_serial_stream_pays_only_for_consumed_items(self):
        task = make_classification(n_samples=90, n_features=4, seed=5)
        base, columns = _candidates(task)
        reference = EvaluationService(_evaluator(), cache=None)
        expected = reference.score_batch(base, columns[:1], task.y)
        service = EvaluationService(_evaluator(), cache=MemoryBackend())
        stream = service.iter_scores_async(base, columns, task.y)
        assert next(stream) == expected[0]
        stream.close()
        assert service.evaluator.n_evaluations == 1
        assert service.stats.n_cache_misses == 1
        assert service.stats.n_cache_hits == 0

    def test_serial_stream_matches_score_batch(self):
        task = make_classification(n_samples=90, n_features=4, seed=6)
        base, columns = _candidates(task)
        columns = columns + [columns[0]]  # one in-batch duplicate
        batch = EvaluationService(_evaluator(), cache=MemoryBackend())
        stream = EvaluationService(_evaluator(), cache=MemoryBackend())
        expected = batch.score_batch(base, columns, task.y)
        assert list(stream.iter_scores_async(base, columns, task.y)) == expected
        for service in (batch, stream):
            assert service.stats.n_cache_hits == 1
            assert service.stats.n_cache_misses == len(columns) - 1
            assert service.evaluator.n_evaluations == len(columns) - 1

    def test_lazy_future_fits_the_base_it_was_submitted_on(self):
        task = make_classification(n_samples=90, n_features=4, seed=5)
        space = FeatureSpace(task, seed=0)
        _accept_first(space, 0)
        submitted = space.feature_matrix()
        base = submitted.copy()
        column = base[:, 0] * base[:, 1] + 1.0
        service = EvaluationService(_evaluator(), cache=MemoryBackend())
        (future,) = service.submit_batch(
            submitted, [column], task.y, base_token=space.matrix_token()
        )
        # A second member of group 0 shifts the later groups' columns.
        _accept_first(space, 0)
        space.feature_matrix()
        expected = _evaluator().evaluate(
            np.column_stack([base, column]), task.y
        )
        assert future.result() == expected
        # ...and the score is stored under the submitted base's key.
        assert service.score_batch(base, [column], task.y) == [expected]
        assert service.stats.n_cache_hits == 1
        assert service.evaluator.n_evaluations == 1


class TestSharedCache:
    def test_cache_shared_across_services(self):
        task = make_classification(n_samples=80, n_features=4, seed=9)
        cache = MemoryBackend()
        first = EvaluationService(_evaluator(), cache=cache)
        second = EvaluationService(_evaluator(), cache=cache)
        a = first.evaluate(task.X.to_array(), task.y)
        b = second.evaluate(task.X.to_array(), task.y)
        assert a == b
        assert second.stats.n_cache_hits == 1
        assert second.evaluator.n_evaluations == 0

    def test_different_evaluator_params_never_share_entries(self):
        task = make_classification(n_samples=80, n_features=4, seed=9)
        cache = MemoryBackend()
        first = EvaluationService(_evaluator(seed=0), cache=cache)
        second = EvaluationService(_evaluator(seed=1), cache=cache)
        first.evaluate(task.X.to_array(), task.y)
        second.evaluate(task.X.to_array(), task.y)
        assert second.stats.n_cache_hits == 0
        assert len(cache) == 2

    def test_eviction_bounds_entries(self):
        cache = MemoryBackend(max_entries=3)
        for i in range(10):
            cache.put(f"key{i}", float(i))
        assert len(cache) == 3
        assert cache.get("key9") == 9.0
