"""Candidate evaluation subsystem: cached, batched, pipelined scoring.

Every downstream evaluation in the library flows through this layer.
:class:`EvaluationService` memoizes scores by candidate fingerprint
and batches sweeps through two bit-identical backends: ``serial``
(lazy, in-process) and ``pool`` (a persistent shared-memory
:class:`PoolExecutor` whose workers receive base matrices via
``multiprocessing.shared_memory``).  On both,
:meth:`EvaluationService.iter_scores_async` (alias ``iter_scores``)
streams :meth:`EvaluationService.submit_batch`'s :class:`ScoreFuture`
results in submission order: lazily on ``serial``, with fits pipelined
behind the consumer on ``pool``.  The un-cached primitive
(:class:`repro.core.evaluation.DownstreamEvaluator`) stays the unit of
accounting: its counters always mean *real* downstream fits, and
``EvalStats.n_backend_fallbacks`` records every time the pool
degraded to serial scoring.

Score stores are pluggable: :class:`repro.store.MemoryBackend` is the
default, and :func:`repro.store.make_eval_backend` composes it with a
durable SQLite layer when a store path is configured
(``EngineConfig.eval_store_path``).
"""

from .executor import (
    PoolExecutor,
    TaskFailed,
    TaskLost,
    validate_eval_timeout,
    validate_eval_workers,
)
from .fingerprint import ColumnFingerprinter, content_digest
from .metrics import aggregate_eval_stats, eval_metrics_text
from .service import (
    BACKENDS,
    EvalStats,
    EvaluationService,
    ScoreFuture,
)

__all__ = [
    "BACKENDS",
    "ColumnFingerprinter",
    "EvalStats",
    "EvaluationService",
    "PoolExecutor",
    "ScoreFuture",
    "TaskFailed",
    "TaskLost",
    "aggregate_eval_stats",
    "content_digest",
    "eval_metrics_text",
    "validate_eval_timeout",
    "validate_eval_workers",
]
