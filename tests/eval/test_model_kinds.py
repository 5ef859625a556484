"""Every downstream model kind scores identically on every scoring path.

Serial ``score_batch``, pool ``score_batch`` and a direct
``DownstreamEvaluator.evaluate`` of ``np.column_stack([base, column])``
must agree bit for bit, for every entry of ``MODEL_KINDS``.  The
BLAS-backed models (linear SVM, GP, MLP) are the ones a change of
memory layout could move.

``check_scoring_identity`` is importable, so a larger task can run the
same check from the command line::

    PYTHONPATH=src:tests/eval python -c "
    from repro.datasets.registry import load
    from test_model_kinds import check_scoring_identity
    check_scoring_identity(load('German Credit'), 'svm', n_candidates=4)"
"""

import numpy as np
import pytest

from repro.core.evaluation import MODEL_KINDS, DownstreamEvaluator
from repro.datasets import make_classification, make_regression
from repro.eval import EvaluationService


def _evaluator(task: str, kind: str) -> DownstreamEvaluator:
    return DownstreamEvaluator(
        task=task, model_kind=kind, n_splits=3, n_estimators=3, seed=0
    )


def _candidates(base: np.ndarray, n: int) -> list[np.ndarray]:
    """Products of column pairs; the first divides by a zero column."""
    d = base.shape[1]
    columns = [
        base[:, i % d] * base[:, (i + 1) % d] + float(i) for i in range(n)
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        columns[0] = base[:, 0] / (base[:, 1] * 0.0)  # inf and NaN
    return columns


def check_scoring_identity(task, kind: str, n_candidates: int = 3,
                           n_workers: int = 2) -> list[float]:
    """Assert serial == pool == direct scores; returns the scores."""
    base = task.X.to_array()
    columns = _candidates(base, n_candidates)
    serial = EvaluationService(_evaluator(task.task, kind), cache=None)
    serial_scores = serial.score_batch(base, columns, task.y)
    with EvaluationService(
        _evaluator(task.task, kind), cache=None, backend="pool",
        n_workers=n_workers,
    ) as pool:
        pool_scores = pool.score_batch(base, columns, task.y)
        assert pool.stats.n_backend_fallbacks == 0, kind
    direct = _evaluator(task.task, kind)
    direct_scores = [
        direct.evaluate(np.column_stack([base, column]), task.y)
        for column in columns
    ]
    expected = np.asarray(direct_scores).tobytes()
    assert np.asarray(serial_scores).tobytes() == expected, (
        kind, serial_scores, direct_scores,
    )
    assert np.asarray(pool_scores).tobytes() == expected, (
        kind, pool_scores, direct_scores,
    )
    return direct_scores


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_classification_scores_match_across_backends(kind):
    task = make_classification(n_samples=80, n_features=4, seed=3)
    scores = check_scoring_identity(task, kind)
    assert all(np.isfinite(scores))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_regression_scores_match_across_backends(kind):
    task = make_regression(n_samples=80, n_features=4, seed=3)
    scores = check_scoring_identity(task, kind)
    assert all(np.isfinite(scores))
