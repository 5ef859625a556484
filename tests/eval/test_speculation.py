"""Cross-agent sweep speculation: priority dispatch, accounting, identity."""

import os
import signal
import time

import numpy as np
import pytest

from repro.core.engine import EngineConfig
from repro.core.evaluation import DownstreamEvaluator
from repro.core.filters import CandidateFilter
from repro.core.variants import make_variant
from repro.datasets import load, make_classification
from repro.eval import (
    EvaluationService,
    PoolExecutor,
    validate_eval_workers,
)
from repro.eval.fingerprint import content_digest
from repro.rl.environment import FeatureSpace
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


class TestPriorityDispatch:
    def test_confirmed_overtakes_backlogged_speculative(self):
        # One worker, dispatch window 2.  Freeze the worker so every
        # dispatch decision below is the parent's alone, then check the
        # exact order tasks leave the backlog.
        task, base, columns = _workload(n=7)
        y = np.asarray(task.y, dtype=np.float64)
        token, y_token = content_digest(base), content_digest(y)
        executor = PoolExecutor(_evaluator().params(), n_workers=1)
        try:
            assert executor._max_dispatched == 2
            for pid in executor.worker_pids:
                os.kill(pid, signal.SIGSTOP)
            time.sleep(0.05)
            spec = [
                executor.submit(token, base, y_token, y, column, priority=1)
                for column in columns[:5]
            ]
            # The window fills with the first two; the rest stage.
            assert executor.dispatch_log == spec[:2]
            assert executor.n_backlogged == 3
            confirmed = executor.submit(
                token, base, y_token, y, columns[5], priority=0
            )
            assert executor.n_backlogged == 4
            # Undispatched speculative work can be retracted for free;
            # dispatched work cannot.
            assert executor.cancel(spec[3]) is True
            assert executor.cancel(spec[0]) is False
            assert executor.n_backlogged == 3
            executor.promote(spec[4])
            for pid in executor.worker_pids:
                os.kill(pid, signal.SIGCONT)
            # result() force-dispatches the blocked-on confirmed task;
            # the freed slots then drain confirmed-tier work (the
            # promoted speculation) before the remaining speculative.
            executor.result(confirmed)
            for seq in (spec[0], spec[1], spec[2], spec[4]):
                executor.result(seq)
            assert executor.dispatch_log == [
                spec[0],
                spec[1],
                confirmed,
                spec[4],
                spec[2],
            ]
            assert executor.peak_inflight == 6
        finally:
            executor.close()


class TestServiceSpeculation:
    def test_commit_counts_every_future_as_used(self):
        task, base, columns = _workload(seed=20)
        serial = EvaluationService(_evaluator(), cache=None, backend="serial")
        expected = serial.score_batch(base, columns[:3], task.y)
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
        )
        with service:
            futures = service.submit_batch(
                base, columns[:3], task.y, speculative=True
            )
            assert service.stats.n_speculative_submitted == 3
            service.commit_speculative(futures)
            assert [future.result() for future in futures] == expected
        stats = service.stats
        assert stats.n_speculative_used == 3
        assert stats.n_speculative_discarded == 0
        assert stats.n_speculative_submitted == (
            stats.n_speculative_used + stats.n_speculative_discarded
        )
        assert stats.pool_workers == 2
        assert stats.pool_peak_inflight >= 1
        assert service.stats.pool_occupancy >= 0.5

    def test_discard_cancels_undispatched_without_paying_fits(self):
        task, base, columns = _workload(n=7, seed=22)
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=1
        )
        with service:
            # Freeze the worker: four confirmed fits saturate the
            # dispatch window, so the speculative batch deterministically
            # stays backlogged until the discard retracts it.
            executor = service._ensure_executor()
            for pid in executor.worker_pids:
                os.kill(pid, signal.SIGSTOP)
            time.sleep(0.05)
            confirmed = service.submit_batch(base, columns[:4], task.y)
            spec = service.submit_batch(
                base, columns[4:], task.y, speculative=True
            )
            service.discard_speculative(spec)
            for pid in executor.worker_pids:
                os.kill(pid, signal.SIGCONT)
            scores = [future.result() for future in confirmed]
            assert len(scores) == 4
        assert service.stats.n_speculative_submitted == 3
        assert service.stats.n_speculative_discarded == 3
        assert service.stats.n_speculative_used == 0
        # The cancelled speculation never reached a worker: only the
        # confirmed batch paid downstream fits.
        assert service.evaluator.n_evaluations == 4

    def test_speculation_copies_base_against_caller_mutation(self):
        task, base, columns = _workload(seed=23)
        serial = EvaluationService(_evaluator(), cache=None, backend="serial")
        expected = serial.score_batch(base, columns[:2], task.y)
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
        )
        with service:
            executor = service._ensure_executor()
            mutable = base.copy()
            futures = service.submit_batch(
                mutable, columns[:2], task.y, speculative=True
            )
            mutable += 100.0  # the engine accepting a feature, in spirit
            # Kill the workers: the lost tasks re-score serially from
            # the future's captured base, which must be the frozen copy
            # rather than the caller's mutated buffer.
            for pid in executor.worker_pids:
                os.kill(pid, signal.SIGKILL)
            service.commit_speculative(futures)
            assert [future.result() for future in futures] == expected


class TestCrashWithSpeculationInFlight:
    def test_recovery_rescores_serially_without_double_counting(self):
        task, base, columns = _workload(seed=21)
        serial = EvaluationService(_evaluator(), cache=None, backend="serial")
        expected_confirmed = serial.score_batch(base, columns[:3], task.y)
        expected_spec = serial.score_batch(base, columns[3:], task.y)
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool", n_workers=2
        )
        with service:
            executor = service._ensure_executor()
            confirmed = service.submit_batch(base, columns[:3], task.y)
            spec = service.submit_batch(
                base, columns[3:], task.y, speculative=True
            )
            for pid in executor.worker_pids:
                os.kill(pid, signal.SIGKILL)
            assert [f.result() for f in confirmed] == expected_confirmed
            service.commit_speculative(spec)
            assert [f.result() for f in spec] == expected_spec
            stats = service.stats
            # The crash is recovered either by resubmitting to the
            # respawned pool (counted on the resubmit policy) or by
            # the serial fallback — both leave an audit trail.
            assert (
                service._pool_retry.n_retries + stats.n_backend_fallbacks
            ) >= 1
            assert stats.n_speculative_submitted == 3
            assert stats.n_speculative_used == 3
            assert stats.n_speculative_discarded == 0


class TestWorkerValidation:
    def test_rejects_non_positive_and_non_integer(self):
        assert validate_eval_workers(None) is None
        assert validate_eval_workers(3) == 3
        for bad in (0, -1, 1.5, True, "2"):
            with pytest.raises(ValueError, match="eval_workers"):
                validate_eval_workers(bad)

    def test_engine_config_validates_eval_workers(self):
        for bad in (0, -4, 2.0):
            with pytest.raises(ValueError, match="eval_workers"):
                EngineConfig(eval_workers=bad)
        config = EngineConfig(eval_backend="pool", eval_workers=2)
        assert config.eval_workers == 2

    def test_service_validates_n_workers(self):
        with pytest.raises(ValueError, match="n_workers"):
            EvaluationService(
                _evaluator(), cache=None, backend="pool", n_workers=0
            )


class TestEngineSpeculation:
    def test_bit_identical_to_serial_with_stateful_filter(self, monkeypatch):
        # Bench quick scale with four transforms per agent: the pool
        # speculation is discarded by acceptances here, so a kept sweep
        # has to draw E-AFE_D's stateful filter RNG in agent order.
        task = load("PimaIndian", max_samples=250, max_features=8)
        counts = {}
        generate = FeatureSpace.generate
        keep_batch = CandidateFilter.keep_batch

        def counted_generate(self, *args):
            counts["generate"] += 1
            return generate(self, *args)

        def counted_keep_batch(self, columns):
            counts["filtered"] += len(columns)
            return keep_batch(self, columns)

        monkeypatch.setattr(FeatureSpace, "generate", counted_generate)
        monkeypatch.setattr(CandidateFilter, "keep_batch", counted_keep_batch)

        def run(backend, speculation):
            config = EngineConfig(
                n_epochs=3,
                stage1_epochs=2,
                transforms_per_agent=4,
                n_splits=3,
                n_estimators=5,
                max_agents=6,
                seed=0,
                eval_backend=backend,
                eval_workers=2 if backend == "pool" else None,
                eval_speculation=speculation,
            )
            counts.update(generate=0, filtered=0)
            result = make_variant("E-AFE_D", config).fit(task)
            return result, dict(counts)

        serial, serial_counts = run("serial", True)
        pool_on, pool_on_counts = run("pool", True)
        pool_off, pool_off_counts = run("pool", False)
        # Every sweep is generated and filtered once, speculative or not.
        assert pool_on_counts == pool_off_counts == serial_counts
        for pool in (pool_on, pool_off):
            assert pool.best_score == serial.best_score
            assert pool.selected_features == serial.selected_features
            assert [r.best_score for r in pool.history] == [
                r.best_score for r in serial.history
            ]
            assert np.array_equal(pool.selected_matrix, serial.selected_matrix)
            assert pool.n_generated == serial.n_generated
            assert pool.n_filtered_out == serial.n_filtered_out
        assert pool_on.n_speculative_submitted > 0
        assert pool_on.n_speculative_discarded > 0
        assert pool_on.n_speculative_submitted == (
            pool_on.n_speculative_used + pool_on.n_speculative_discarded
        )
        assert pool_off.n_speculative_submitted == 0
        assert serial.n_speculative_submitted == 0
        assert pool_on.pool_workers == 2
        assert pool_on.pool_peak_inflight >= 1
        payload = pool_on.to_dict()
        for key in (
            "n_speculative_submitted",
            "n_speculative_used",
            "n_speculative_discarded",
            "pool_workers",
            "pool_peak_inflight",
            "pool_occupancy",
        ):
            assert key in payload
