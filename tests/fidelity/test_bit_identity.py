"""eval_fidelity="off" is inert: trajectories bit-identical to before.

The acceptance criterion for the default: a config that never mentions
fidelity, a config that says ``"off"`` explicitly, and a service built
with no controller at all must produce bit-identical engine
trajectories on every backend — the fidelity subsystem must be
unobservable until switched on.
"""

import numpy as np
import pytest

from repro.core import default_fpe
from repro.core.engine import EAFE, EngineConfig
from repro.core.evaluation import DownstreamEvaluator
from repro.datasets import make_classification
from repro.eval import EvaluationService
from repro.store import MemoryBackend


def _config(**overrides):
    params = dict(
        n_epochs=2, stage1_epochs=1, transforms_per_agent=2,
        n_splits=2, n_estimators=3, max_agents=4, seed=0,
    )
    params.update(overrides)
    return EngineConfig(**params)


def _trajectory(result):
    return (
        result.base_score,
        result.best_score,
        tuple(result.selected_features),
        tuple(record.best_score for record in result.history),
    )


@pytest.fixture(scope="module")
def task():
    return make_classification(n_samples=70, n_features=3, seed=0)


@pytest.fixture(scope="module")
def fpe():
    return default_fpe()


class TestOffIsInert:
    def test_default_config_is_off(self):
        assert EngineConfig().eval_fidelity == "off"

    def test_service_from_off_config_has_no_controller(self):
        evaluator = DownstreamEvaluator(task="C", n_splits=2, seed=0)
        service = EvaluationService.from_config(
            evaluator, _config(), MemoryBackend()
        )
        assert service.fidelity is None
        service.close()

    @pytest.mark.parametrize("backend", ["serial", "pool"])
    def test_off_trajectory_bit_identical_per_backend(
        self, task, fpe, backend
    ):
        """Explicit "off" == default config, per backend, bit for bit."""
        default = EAFE(fpe, _config(eval_backend=backend)).fit(task)
        explicit = EAFE(
            fpe, _config(eval_backend=backend, eval_fidelity="off")
        ).fit(task)
        assert _trajectory(explicit) == _trajectory(default)
        for result in (default, explicit):
            assert result.n_lowfi_scored == 0
            assert result.n_promoted == 0
            assert result.n_surrogate_served == 0
            assert result.n_surrogate_fallbacks == 0
            assert result.n_audited == 0
            assert result.fidelity_regret == 0.0

    def test_off_scores_match_service_without_controller(self):
        """from_config("off") == a raw pre-fidelity service construction."""
        rng = np.random.default_rng(0)
        base = rng.normal(size=(60, 3))
        y = (base[:, 0] > 0).astype(np.float64)
        columns = [rng.normal(size=60) for _ in range(5)]
        evaluator_a = DownstreamEvaluator(task="C", n_splits=2, seed=0)
        evaluator_b = DownstreamEvaluator(task="C", n_splits=2, seed=0)
        via_config = EvaluationService.from_config(
            evaluator_a, _config(eval_fidelity="off"), MemoryBackend()
        )
        raw = EvaluationService(evaluator_b, cache=MemoryBackend())
        assert via_config.score_batch(base, columns, y) == raw.score_batch(
            base, columns, y
        )
        assert via_config.stats == raw.stats
        via_config.close()
        raw.close()


class TestFidelityOnChangesCells:
    def test_fidelity_on_disables_cross_agent_speculation(self, task, fpe):
        result = EAFE(
            fpe,
            _config(
                eval_backend="pool",
                eval_speculation=True,
                eval_fidelity="ladder:promote=0.5,rows=0.5",
            ),
        ).fit(task)
        assert result.n_speculative_submitted == 0
        assert result.n_lowfi_scored > 0
