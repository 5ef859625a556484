"""Per-fit evaluation deadlines: hung workers are cancelled, counted.

A fit that exceeds ``eval_timeout`` cannot be interrupted mid-C-call,
so the pool cancels it by recovering the worker generation; the
service counts the kill in ``n_timeouts`` and re-scores serially, so
the batch still completes with exact scores.
"""

import pytest

from repro import chaos
from repro.bench.harness import bench_config
from repro.chaos import FaultPlan
from repro.core import EngineConfig
from repro.core.evaluation import DownstreamEvaluator
from repro.datasets import make_classification
from repro.eval import EvaluationService, TaskLost
from repro.eval.executor import TaskTimeout
from repro.store import MemoryBackend

#: Read by the bench harness alone (``bench_config``), never the library.
EVAL_TIMEOUT_ENV = "REPRO_EVAL_TIMEOUT"


@pytest.fixture(autouse=True)
def _clean_chaos():
    chaos.reset()
    yield
    chaos.reset()


def _evaluator(seed=0):
    return DownstreamEvaluator(task="C", n_splits=3, n_estimators=3, seed=seed)


def _workload(n=3, seed=5):
    task = make_classification(n_samples=90, n_features=4, seed=seed)
    base = task.X.to_array()
    d = base.shape[1]
    columns = [
        base[:, i % d] * base[:, (i + 1) % d] + float(i) for i in range(n)
    ]
    return task, base, columns


class TestTaskTimeoutType:
    def test_subclasses_task_lost(self):
        # Existing `except TaskLost` recovery handlers must keep
        # catching deadline kills — the remedy (serial rescore) is the
        # same; only the accounting differs.
        assert issubclass(TaskTimeout, TaskLost)


class TestEnvParsing:
    """``REPRO_EVAL_TIMEOUT`` maps onto ``eval_timeout`` in bench_config."""

    @pytest.fixture(autouse=True)
    def _pool_backend(self, monkeypatch):
        # The deadline is a pool-only knob; serial rejects it.
        monkeypatch.setenv("REPRO_EVAL_BACKEND", "pool")

    def test_unset_and_zero_mean_disabled(self, monkeypatch):
        monkeypatch.delenv(EVAL_TIMEOUT_ENV, raising=False)
        assert bench_config().eval_timeout is None
        for disabled in ("", "0"):
            monkeypatch.setenv(EVAL_TIMEOUT_ENV, disabled)
            assert bench_config().eval_timeout is None

    def test_positive_value_parsed(self, monkeypatch):
        monkeypatch.setenv(EVAL_TIMEOUT_ENV, "2.5")
        assert bench_config().eval_timeout == 2.5

    def test_garbage_rejected(self, monkeypatch):
        for bad in ("-1", "soon"):
            monkeypatch.setenv(EVAL_TIMEOUT_ENV, bad)
            with pytest.raises(ValueError, match=EVAL_TIMEOUT_ENV):
                bench_config()

    def test_service_reads_env_fallback(self, monkeypatch):
        # The variable reaches a service only through bench_config's
        # EngineConfig, built the way the engine builds its service.
        monkeypatch.setenv(EVAL_TIMEOUT_ENV, "3.0")
        service = EvaluationService.from_config(
            _evaluator(), bench_config(), cache=None
        )
        try:
            assert service.timeout == 3.0
        finally:
            service.close()

    def test_explicit_timeout_wins_over_env(self, monkeypatch):
        monkeypatch.setenv(EVAL_TIMEOUT_ENV, "3.0")
        assert bench_config(eval_timeout=1.5).eval_timeout == 1.5


class TestEngineConfigValidation:
    def test_accepts_positive_and_none(self):
        assert EngineConfig().eval_timeout is None
        config = EngineConfig(eval_backend="pool", eval_timeout=2.5)
        assert config.eval_timeout == 2.5

    def test_rejects_non_positive(self):
        for bad in (0, -1.0, True, "2"):
            with pytest.raises(ValueError, match="eval_timeout"):
                EngineConfig(eval_timeout=bad)

    def test_execution_only_knob_excluded_from_config_hash(self):
        from repro.store import config_hash

        assert config_hash(EngineConfig()) == config_hash(
            EngineConfig(eval_backend="pool", eval_timeout=2.5)
        )

    def test_rejects_pool_knobs_on_serial(self):
        for knob, value in (("eval_timeout", 2.5), ("eval_workers", 2)):
            with pytest.raises(ValueError, match=f"{knob} is only read"):
                EngineConfig(eval_backend="serial", **{knob: value})


class TestDeadlineEnforcement:
    def test_hung_fit_is_cancelled_counted_and_rescored(self):
        task, base, columns = _workload(n=3)
        serial = EvaluationService(_evaluator(), cache=None, backend="serial")
        expected = serial.score_batch(base, columns, task.y)

        # Every pool fit hangs well past the deadline (workers inherit
        # the installed plan through fork); the parent's serial rescore
        # path has no pool.fit site, so the batch completes exactly.
        chaos.install(FaultPlan.parse("pool.fit:hang=1.0:secs=60"))
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool",
            n_workers=2, timeout=0.5,
        )
        with service:
            scores = service.score_batch(base, columns, task.y)
        assert scores == expected
        assert service.stats.n_timeouts >= 1
        # A deadline kill is not a crash-fallback; the counters are
        # disjoint views of why the pool missed.
        assert service.stats.n_timeouts + service.stats.n_backend_fallbacks
        assert service.stats.n_timeouts <= len(columns)

    def test_no_timeout_means_no_deadline(self):
        task, base, columns = _workload(n=2)
        service = EvaluationService(
            _evaluator(), cache=MemoryBackend(), backend="pool",
            n_workers=2,
        )
        with service:
            assert service.timeout is None
            scores = service.score_batch(base, columns, task.y)
        assert len(scores) == len(columns)
        assert service.stats.n_timeouts == 0

    def test_timeout_flows_into_result_counters(self):
        # EvalStats.n_timeouts must survive the AFEResult round-trip.
        from repro.core.engine import AFEResult

        result = AFEResult(
            dataset="d", method="m", task="C",
            base_score=0.5, best_score=0.6, selected_features=[],
        )
        result.n_timeouts = 3
        payload = result.to_dict()
        assert payload["n_timeouts"] == 3
        assert AFEResult.from_dict(payload).n_timeouts == 3
        assert AFEResult.from_dict(
            {k: v for k, v in payload.items() if k != "n_timeouts"}
        ).n_timeouts == 0

    def test_service_validates_timeout(self):
        # True would silently be a one-second deadline.
        for bad in (0.0, -2, True, "5"):
            with pytest.raises(ValueError, match="timeout"):
                EvaluationService(
                    _evaluator(), cache=None, backend="pool", timeout=bad
                )
