"""Persistent pool backend: equivalence, crash recovery, shm hygiene."""

import glob
import os
import signal
import time

import numpy as np
import pytest

from repro.core.evaluation import DownstreamEvaluator
from repro.datasets import make_classification
from repro.eval import (
    EvaluationService,
    PoolExecutor,
    TaskLost,
)
from repro.eval.executor import resolve_pool_workers
from repro.eval.fingerprint import content_digest
from repro.eval.shm import SegmentStore, attach_array, segment_prefix
from repro.store import MemoryBackend


def _evaluator(seed=0):
    return DownstreamEvaluator(task="C", n_splits=3, n_estimators=3, seed=seed)


def _workload(n=6, seed=5):
    task = make_classification(n_samples=90, n_features=4, seed=seed)
    base = task.X.to_array()
    d = base.shape[1]
    columns = [
        base[:, i % d] * base[:, (i + 1) % d] + float(i) for i in range(n)
    ]
    return task, base, columns


def _own_segments():
    return glob.glob(f"/dev/shm/{segment_prefix()}*")


class TestSegmentStore:
    def test_publish_is_idempotent_per_token(self):
        store = SegmentStore()
        matrix = np.arange(12, dtype=np.float64).reshape(4, 3)
        name, shape = store.publish("tok", matrix)
        again, _ = store.publish("tok", matrix)
        assert name == again
        assert shape == (4, 3)
        assert len(store) == 1
        store.close()

    def test_attach_sees_published_bytes(self):
        store = SegmentStore()
        matrix = np.random.default_rng(0).normal(size=(8, 3))
        name, shape = store.publish("tok", matrix)
        view, segment = attach_array(name, shape)
        assert view.tobytes() == np.ascontiguousarray(matrix).tobytes()
        assert not view.flags.writeable
        segment.close()
        store.close()

    def test_eviction_spares_referenced_segments(self):
        store = SegmentStore(max_segments=2)
        column = np.zeros(4)
        store.publish("a", column)
        store.acquire("a")
        store.publish("b", column)
        store.publish("c", column)  # over the bound: "b" (idle) goes, "a" stays
        assert len(store) == 2
        name_a, _ = store.publish("a", column)  # still published, no new segment
        assert len(store) == 2
        store.release("a")
        store.publish("d", column)
        assert len(store) == 2
        store.close()
        assert len(store) == 0

    def test_close_unlinks_dev_shm_entries(self):
        store = SegmentStore()
        store.publish("tok", np.ones((16, 2)))
        assert _own_segments()
        store.close()
        assert _own_segments() == []


class TestPoolExecutor:
    def test_scores_bit_identical_to_direct_evaluation(self):
        task, base, columns = _workload()
        folds_evaluator = _evaluator()
        from repro.ml.model_selection import plan_folds

        y = np.asarray(task.y, dtype=np.float64)
        folds = plan_folds(y, n_splits=3, seed=0, stratified=True)
        reference = [
            folds_evaluator.evaluate(
                np.column_stack([base, column]), y, folds=folds
            )
            for column in columns
        ]
        with PoolExecutor(_evaluator().params(), n_workers=2) as executor:
            token, y_token = content_digest(base), content_digest(y)
            seqs = [
                executor.submit(token, base, y_token, y, column)
                for column in columns
            ]
            scores = [executor.result(seq)[0] for seq in seqs]
        assert scores == reference

    def test_crash_marks_inflight_lost_and_pool_survives(self):
        task, base, columns = _workload()
        y = np.asarray(task.y, dtype=np.float64)
        executor = PoolExecutor(_evaluator().params(), n_workers=2)
        try:
            token, y_token = content_digest(base), content_digest(y)
            seqs = [
                executor.submit(token, base, y_token, y, column)
                for column in columns
            ]
            for pid in executor.worker_pids:
                os.kill(pid, signal.SIGKILL)
            outcomes = []
            for seq in seqs:
                try:
                    outcomes.append(executor.result(seq)[0])
                except TaskLost:
                    outcomes.append(None)
            assert executor.n_recoveries >= 1
            assert None in outcomes  # at least one submission was lost
            # The respawned pool serves new submissions normally.
            seq = executor.submit(token, base, y_token, y, columns[0])
            score, seconds = executor.result(seq)
            assert seconds >= 0.0
            direct = EvaluationService(_evaluator(), cache=None).score_batch(
                base, [columns[0]], y
            )[0]
            assert score == direct
        finally:
            executor.close()
        assert _own_segments() == []

    def test_close_is_idempotent_and_unlinks(self):
        task, base, columns = _workload(n=1)
        y = np.asarray(task.y, dtype=np.float64)
        executor = PoolExecutor(_evaluator().params(), n_workers=1)
        executor.submit(
            content_digest(base), base, content_digest(y), y, columns[0]
        )
        executor.close()
        executor.close()
        assert _own_segments() == []
        with pytest.raises(RuntimeError):
            executor.submit(
                content_digest(base), base, content_digest(y), y, columns[0]
            )


class TestResolveWorkers:
    def test_explicit_beats_cpu_count(self):
        assert resolve_pool_workers(2) == 2
        assert resolve_pool_workers(None) == (os.cpu_count() or 1)

    def test_invalid_env_value_raises_named_error(self, monkeypatch):
        # REPRO_EVAL_WORKERS is parsed by the bench harness alone.
        from repro.bench.harness import bench_config

        monkeypatch.setenv("REPRO_EVAL_BACKEND", "pool")
        for bad in ("four", "0", "-2"):
            monkeypatch.setenv("REPRO_EVAL_WORKERS", bad)
            with pytest.raises(ValueError, match="REPRO_EVAL_WORKERS"):
                bench_config()


class TestBackendEquivalence:
    def test_pool_serial_bit_identity_scores_and_counters(self):
        task, base, columns = _workload()
        # Duplicate a candidate so the in-batch dedup paths are exercised.
        columns = columns + [columns[0]]
        results = {}
        for backend in ("serial", "pool"):
            service = EvaluationService(
                _evaluator(),
                cache=MemoryBackend(),
                backend=backend,
                n_workers=2,
            )
            with service:
                first = service.score_batch(base, columns, task.y)
                second = service.score_batch(base, columns, task.y)
            results[backend] = {
                "scores": (first, second),
                "hits": service.stats.n_cache_hits,
                "misses": service.stats.n_cache_misses,
                "fallbacks": service.stats.n_backend_fallbacks,
                "fits": service.evaluator.n_evaluations,
            }
        assert results["pool"] == results["serial"]
        assert results["pool"]["fallbacks"] == 0

    def test_iter_scores_async_matches_serial_scores(self):
        task, base, columns = _workload(seed=7)
        serial = EvaluationService(_evaluator(), cache=None, backend="serial")
        expected = list(serial.iter_scores(base, columns, task.y))
        pool = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
        )
        with pool:
            streamed = list(pool.iter_scores_async(base, columns, task.y))
        assert streamed == expected

    def test_abandoned_futures_still_cached_and_counted(self):
        task, base, columns = _workload(seed=8)
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
        )
        with service:
            scores = service.iter_scores_async(base, columns, task.y)
            next(scores)
            scores.close()  # abandon the rest mid-flight
            service.close()  # drains stragglers into counters + cache
            # Every candidate was submitted speculatively; the repeat
            # batch is served from cache without a single new fit.
            fits_before = service.evaluator.n_evaluations
            assert fits_before == len(columns)
            again = service.score_batch(base, columns, task.y)
            assert service.evaluator.n_evaluations == fits_before
            assert len(again) == len(columns)

    def test_submit_batch_futures_resolve_in_any_order(self):
        task, base, columns = _workload(seed=9)
        serial = EvaluationService(_evaluator(), cache=None, backend="serial")
        expected = serial.score_batch(base, columns, task.y)
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
        )
        with service:
            futures = service.submit_batch(base, columns, task.y)
            got = [future.result() for future in reversed(futures)]
        assert got == expected[::-1]

    def test_future_held_across_later_batches_still_resolves(self):
        # Regression: a drain pass used to consume completions for
        # futures the caller still held, deadlocking their result().
        task, base, columns = _workload(seed=12)
        serial = EvaluationService(_evaluator(), cache=None, backend="serial")
        expected = serial.score_batch(base, columns, task.y)
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
        )
        with service:
            held = service.submit_batch(base, columns[:3], task.y)
            deadline = time.monotonic() + 60.0
            while not all(future.done() for future in held):
                assert time.monotonic() < deadline, "pool never completed"
                time.sleep(0.01)
            # A second batch triggers the speculative drain of the first,
            # which consumes all three completions.
            service.score_batch(
                base, [column + 5.0 for column in columns], task.y
            )
            fits = service.evaluator.n_evaluations
            assert fits == 3 + len(columns)
            # The drain resolved the held futures in place: no second fit.
            assert [future.result() for future in held] == expected[:3]
            assert service.evaluator.n_evaluations == fits
            assert service.stats.n_backend_fallbacks == 0

    def test_future_resolves_after_service_close(self):
        # Regression: resolving a pool future after close() raised
        # AttributeError instead of returning the drained score.
        task, base, columns = _workload(seed=13)
        serial = EvaluationService(_evaluator(), cache=None, backend="serial")
        expected = serial.score_batch(base, columns, task.y)
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
        )
        held = service.submit_batch(base, columns, task.y)
        service.close()
        assert service.evaluator.n_evaluations == len(columns)
        assert [future.result() for future in held] == expected
        assert service.evaluator.n_evaluations == len(columns)
        assert service.stats.n_backend_fallbacks == 0

    def test_worker_crash_resubmits_and_batch_completes(self):
        task, base, columns = _workload(seed=10)
        serial = EvaluationService(_evaluator(), cache=None, backend="serial")
        expected = serial.score_batch(base, columns, task.y)
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
        )
        with service:
            executor = service._ensure_executor()
            futures = service.submit_batch(base, columns, task.y)
            for pid in executor.worker_pids:
                os.kill(pid, signal.SIGKILL)
            scores = [future.result() for future in futures]
            assert scores == expected
            # Crashed submissions are resubmitted to the recovered pool
            # (counted on the resubmit policy); anything the resubmit
            # can't save lands in the serial-fallback counter.  Either
            # way, the crash left an audit trail.
            recoveries = (
                service._pool_retry.n_retries
                + service.stats.n_backend_fallbacks
            )
            assert recoveries >= 1
            # Later batches run on the recovered pool without fallback.
            fallbacks = service.stats.n_backend_fallbacks
            more = service.score_batch(
                base, [column + 1.0 for column in columns], task.y
            )
            assert len(more) == len(columns)
            assert service.stats.n_backend_fallbacks == fallbacks
        assert _own_segments() == []

    def test_no_shm_leak_when_scoring_raises(self):
        task, base, columns = _workload(n=2, seed=11)
        service = EvaluationService(
            _evaluator(), cache=None, backend="pool", n_workers=1
        )
        bad = np.ones(base.shape[0] + 1)  # wrong length: worker-side error,
        # then the serial fallback raises the real ValueError in the parent
        with pytest.raises(ValueError):
            with service:
                service.score_batch(base, [columns[0], bad], task.y)
        assert service.stats.n_backend_fallbacks >= 1
        assert _own_segments() == []


class TestEngineTrajectoryIdentity:
    def test_pool_engine_bit_identical_to_serial(self):
        from repro.core.engine import AFEEngine, EngineConfig
        from repro.core.filters import KeepAllFilter

        task = make_classification(n_samples=100, n_features=4, seed=3)

        def run(backend):
            config = EngineConfig(
                n_epochs=2,
                stage1_epochs=1,
                transforms_per_agent=2,
                n_splits=3,
                n_estimators=3,
                seed=0,
                eval_backend=backend,
                eval_workers=2 if backend == "pool" else None,
            )
            return AFEEngine(KeepAllFilter(), config).fit(task)

        serial = run("serial")
        pool = run("pool")
        assert pool.best_score == serial.best_score
        assert pool.selected_features == serial.selected_features
        assert [r.best_score for r in pool.history] == [
            r.best_score for r in serial.history
        ]
        assert np.array_equal(pool.selected_matrix, serial.selected_matrix)
        assert pool.n_backend_fallbacks == 0
        assert "n_backend_fallbacks" in pool.to_dict()
        assert _own_segments() == []
