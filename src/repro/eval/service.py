"""EvaluationService: cached, batched candidate scoring.

This is the choke point every engine and baseline routes downstream
evaluations through.  It layers three optimizations over the thin
:class:`~repro.core.evaluation.DownstreamEvaluator` primitive without
changing a single score:

* **memoization** — candidates are fingerprinted (quantile-sketch
  bucket + exact content hash, keyed on the base-matrix token), so a
  duplicate candidate never pays a second cross-validated fit.  The
  backing store is any :class:`~repro.store.CacheBackend`:
  :class:`~repro.store.MemoryBackend` (the default, per-process) or a
  durable :class:`~repro.store.SqliteBackend` shared across OS
  processes and runs — a warm store replays an identical engine
  ``fit()`` without a single real downstream fit, even from a fresh
  process.
* **fold reuse** — CV splits are planned once per target via
  :class:`~repro.eval.folds.FoldCache` and passed into every fit.
* **batching** — :meth:`score_batch` scores a sweep's surviving
  candidates together against one frozen base matrix, through one of
  two backends: ``serial`` (arena-backed, zero-copy trials) or
  ``pool`` (a persistent :class:`~repro.eval.executor.PoolExecutor`
  whose workers receive the base matrix through shared memory).
  Backends are bit-equal because every evaluation is independently
  seeded.
* **pipelining** — :meth:`submit_batch` returns
  :class:`ScoreFuture` handles and :meth:`iter_scores_async` (alias
  :meth:`iter_scores`) resolves them in submission order on every
  backend.  ``serial`` futures are lazy, so an abandoned stream pays
  no fit; with the ``pool`` backend the CV fits run in the workers
  while the caller keeps generating and filtering candidates, and
  fresh scores are written through to the cache store in batches
  rather than one put per candidate.

``DownstreamEvaluator`` counters keep meaning *real downstream fits*:
cache hits never touch them.  Everything else the service counts —
hits, misses, fallbacks, speculation, pool occupancy, the fidelity
ladder — lives in one :class:`EvalStats` record, which
:class:`~repro.core.engine.AFEResult` carries as ``stats`` and
:mod:`repro.eval.metrics` exports as ``repro_eval_*``.  A service
whose backend owns OS resources (the ``pool`` executor) must be
:meth:`close`\\ d — the engine does this at the end of every
``fit()``.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from ..store.backends import CacheBackend, MemoryBackend
from .arena import FeatureMatrixArena
from .fingerprint import ColumnFingerprinter, content_digest
from .folds import FoldCache

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> eval)
    from ..core.evaluation import DownstreamEvaluator
    from .executor import PoolExecutor

__all__ = [
    "EvalStats",
    "EvaluationCache",
    "EvaluationService",
    "ScoreFuture",
    "BACKENDS",
]

BACKENDS = ("serial", "pool")

#: Buffered fresh scores are flushed to the cache store at this size.
_WRITE_BATCH = 64


@dataclass
class EvalStats:
    """Per-service scoring accounting: the one counter record.

    ``AFEResult.stats`` is this record (its counters also read as flat
    ``AFEResult`` attributes), so a new counter is one field here.  A
    field whose metadata carries a ``help`` string is exported by
    :mod:`repro.eval.metrics` as ``repro_eval_<name>_total`` (the
    ``n_`` prefix dropped).

    Every submission is exactly one of a cache hit, a cache miss, or a
    surrogate serve: ``n_cache_hits + n_cache_misses +
    n_surrogate_served == submissions`` (the invariant the throughput
    benchmark asserts).  Every speculation is later either committed or
    rolled back, so ``n_speculative_submitted == n_speculative_used +
    n_speculative_discarded`` at the end of a run.
    """

    n_cache_hits: int = field(
        default=0,
        metadata={"help": "Candidate score lookups served from the cache."},
    )
    n_cache_misses: int = field(
        default=0,
        metadata={"help": "Candidate score lookups that required evaluation."},
    )
    n_batches: int = field(
        default=0, metadata={"help": "Candidate batches scored."}
    )
    #: Near-duplicates paid a real fit despite matching an earlier
    #: column's distribution: the headroom for surrogate-score reuse.
    n_near_duplicates: int = field(
        default=0,
        metadata={"help": "Cache misses whose quantile-sketch bucket was "
                          "already seen."},
    )
    n_backend_fallbacks: int = field(
        default=0,
        metadata={"help": "Parallel-backend failures recovered by serial "
                          "re-scoring."},
    )
    #: A timed-out fit is re-scored serially in the parent (the run
    #: stays correct) and the hung worker generation is replaced.
    n_timeouts: int = field(
        default=0,
        metadata={"help": "Pool fits cancelled at their eval_timeout "
                          "deadline."},
    )
    n_speculative_submitted: int = field(
        default=0,
        metadata={"help": "Cross-sweep speculative submissions."},
    )
    n_speculative_used: int = field(
        default=0,
        metadata={"help": "Speculative submissions committed as real work."},
    )
    #: An upper bound on waste: discards cancelled before reaching a
    #: worker pay no fit, and discards that did fit still land in the
    #: cache.
    n_speculative_discarded: int = field(
        default=0,
        metadata={"help": "Speculative submissions invalidated by an "
                          "acceptance."},
    )
    #: Worker count of the persistent pool and the high-water mark of
    #: concurrently outstanding submissions (dispatched + backlogged).
    pool_workers: int = 0
    pool_peak_inflight: int = 0
    n_lowfi_scored: int = field(
        default=0,
        metadata={"help": "Candidates scored at rung 0 of the fidelity "
                          "ladder."},
    )
    n_promoted: int = field(
        default=0,
        metadata={"help": "Rung-0 candidates promoted to full "
                          "cross-validation."},
    )
    n_surrogate_served: int = field(
        default=0,
        metadata={"help": "Candidates served from the fitted surrogate "
                          "(no fit paid)."},
    )
    n_surrogate_fallbacks: int = field(
        default=0,
        metadata={"help": "Known-but-uncertain surrogate buckets that fell "
                          "back to real CV."},
    )
    n_audited: int = field(
        default=0,
        metadata={"help": "Approximate results audited against a full-CV "
                          "fit."},
    )
    #: Sum of |full-CV − reported| over the audited results.
    fidelity_regret_total: float = 0.0

    @property
    def fidelity_regret(self) -> float:
        """Mean |full-CV − reported| over audited approximate results."""
        if not self.n_audited:
            return 0.0
        return self.fidelity_regret_total / self.n_audited

    @property
    def pool_occupancy(self) -> float:
        """Peak outstanding submissions per worker (0 without a pool).

        Values ≥ 1 mean the sweep kept every worker busy at least once
        at its peak; sustained values well above 1 mean submissions
        queued behind the pool — the pipelining headroom measurement.
        """
        if not self.pool_workers:
            return 0.0
        return self.pool_peak_inflight / self.pool_workers

    @property
    def hit_rate(self) -> float:
        """Share of candidate lookups served without a downstream fit."""
        lookups = self.n_cache_hits + self.n_cache_misses
        return self.n_cache_hits / lookups if lookups else 0.0


#: Back-compat name: the PR-1 in-process score store now lives in
#: :mod:`repro.store.backends` as the default cache backend.
EvaluationCache = MemoryBackend


class ScoreFuture:
    """One candidate's eventual downstream score.

    Produced by :meth:`EvaluationService.submit_batch`.  How the score
    materializes depends on the service backend:

    * cache hit (or a fidelity-ladder batch) — already resolved at
      submission;
    * ``serial`` — fully lazy: the CV fit runs inside :meth:`result`,
      so abandoned futures cost nothing;
    * ``pool`` — in flight on a persistent worker; :meth:`result`
      blocks for the completion and falls back to a parent-side serial
      fit if the submission died with a worker.  A completion consumed
      first by the service's drain pass (at a later submission or at
      :meth:`EvaluationService.close`) resolves the future in place.

    Futures hold references to the caller's base matrix until
    resolved; callers that mutate the base between submission and
    consumption (the engine never does — it consumes before accepting)
    must copy it first.
    """

    __slots__ = (
        "_service", "_state", "_value", "_seq", "_key",
        "_base", "_token", "_column", "_y", "_target_token",
    )

    _RESOLVED = "resolved"
    _LAZY = "lazy"
    _POOL = "pool"
    _ALIAS = "alias"

    def __init__(self, service, state: str) -> None:
        self._service = service
        self._state = state
        self._value = None

    @classmethod
    def resolved(cls, score: float) -> "ScoreFuture":
        future = cls(None, cls._RESOLVED)
        future._value = float(score)
        return future

    @classmethod
    def _pending(
        cls, service, base, token, column, y, target_token,
        seq=None, key=None,
    ) -> "ScoreFuture":
        """A lazy serial future, or a pool future when ``seq`` is given."""
        future = cls(service, cls._LAZY if seq is None else cls._POOL)
        future._seq = seq
        future._key = key
        future._base = base
        future._token = token
        future._column = column
        future._y = y
        future._target_token = target_token
        return future

    @classmethod
    def _make_alias(cls, primary: "ScoreFuture") -> "ScoreFuture":
        future = cls(None, cls._ALIAS)
        future._value = primary
        return future

    def _resolve(self, score: float) -> float:
        self._value = float(score)
        self._state = self._RESOLVED
        return self._value

    def done(self) -> bool:
        """Whether :meth:`result` will return without blocking or fitting."""
        if self._state == self._RESOLVED:
            return True
        if self._state == self._ALIAS:
            return self._value.done()
        if self._state == self._POOL:
            executor = self._service._executor
            return executor is not None and executor.is_resolved(self._seq)
        return False  # lazy: the fit happens at result()

    def result(self) -> float:
        """The score (blocking / computing as the backend requires)."""
        if self._state == self._RESOLVED:
            return self._value
        if self._state == self._ALIAS:
            return self._value.result()
        if self._state == self._POOL:
            return self._resolve(self._service._collect_pool_future(self))
        return self._resolve(self._service._resolve_lazy_future(self))


class EvaluationService:
    """Cached, batched front-end over one :class:`DownstreamEvaluator`.

    Parameters
    ----------
    evaluator:
        The un-cached primitive; its ``n_evaluations`` /
        ``total_eval_time`` counters keep counting real fits only.
    cache:
        Optional shared score store — any
        :class:`~repro.store.CacheBackend` (in-memory, SQLite-backed,
        or a write-through composition of both; see
        :func:`repro.store.make_eval_backend`).  ``None`` disables
        memoization entirely (every lookup is a miss).
    backend:
        ``"serial"`` or ``"pool"`` — how :meth:`score_batch` /
        :meth:`submit_batch` score cache misses.
    n_workers:
        Worker count of the ``pool`` backend.  Defaults to every core.
    fidelity:
        Optional :class:`~repro.fidelity.FidelityController`.  When
        set, batch scoring routes through the multi-fidelity ladder /
        surrogate gate (and the streaming entry points fall back to
        batch semantics, since promotion is a batch decision).  When
        ``None`` — the default — every code path is exactly the
        full-CV implementation, bit-identical to a service built
        before the fidelity subsystem existed.
    """

    def __init__(
        self,
        evaluator: "DownstreamEvaluator",
        cache: CacheBackend | None = None,
        backend: str = "serial",
        n_workers: int | None = None,
        fold_cache: FoldCache | None = None,
        fidelity=None,
        timeout: float | None = None,
    ) -> None:
        if backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {backend!r}; expected one of {BACKENDS}"
            )
        from ..reliability import RetryPolicy
        from .executor import validate_eval_timeout, validate_eval_workers
        from .metrics import register_service

        self.evaluator = evaluator
        self.cache = cache
        self.backend = backend
        self.n_workers = validate_eval_workers(n_workers, name="n_workers")
        self.fidelity = fidelity
        #: Per-fit deadline for pool submissions (None: wait forever).
        self.timeout = validate_eval_timeout(timeout, name="timeout")
        # Accounting handle for pool-task resubmissions after a worker
        # crash; surfaces in the repro_reliability_* metrics family.
        self._pool_retry = RetryPolicy(
            name="pool-resubmit", max_attempts=2, base_delay=0.0,
            jitter=0.0, budget=None,
        )
        self.stats = EvalStats()
        register_service(self)
        self._folds = fold_cache or FoldCache()
        self._fingerprinter = ColumnFingerprinter(seed=evaluator.seed)
        params = evaluator.params()
        self._params_token = ":".join(
            f"{name}={params[name]}" for name in sorted(params)
        )
        self._arena: FeatureMatrixArena | None = None
        self._arena_token: str | None = None
        # bucket -> first content digest seen, bounded LRU (see
        # _note_near_duplicate).
        self._digest_of_bucket: OrderedDict[str, str] = OrderedDict()
        # Persistent pool backend state: the executor is built lazily
        # on first use; _inflight maps its sequence numbers to their
        # unresolved futures, so a result abandoned mid-batch still
        # lands in the cache and resolves the future any caller may
        # still hold; _write_buffer batches fresh pipelined scores into
        # one store write.
        self._executor: "PoolExecutor" | None = None
        self._inflight: dict[int, ScoreFuture] = {}
        self._write_buffer: list[tuple[str, float]] = []

    @classmethod
    def from_config(
        cls,
        evaluator: "DownstreamEvaluator",
        config,
        cache: CacheBackend | None,
    ) -> "EvaluationService":
        """Build a service from an :class:`~repro.core.engine.EngineConfig`.

        ``cache`` is the caller-owned store (pass ``None`` to force
        memoization off regardless of the config); ``config.eval_cache``
        still gates whether it is used.  ``config.eval_fidelity`` (when
        the config carries one and it is not ``"off"``) installs the
        multi-fidelity controller, so the engine and every baseline
        that builds its service here gets the ladder from one knob.
        """
        fidelity = None
        spec = getattr(config, "eval_fidelity", None)
        if spec is not None:
            # Imported lazily: repro.fidelity imports eval.folds, so a
            # module-level import here would be a cycle.
            from ..fidelity import make_fidelity

            fidelity = make_fidelity(spec, seed=getattr(config, "seed", 0))
        return cls(
            evaluator,
            cache=cache if config.eval_cache else None,
            backend=config.eval_backend,
            n_workers=config.eval_workers,
            fidelity=fidelity,
            timeout=getattr(config, "eval_timeout", None),
        )

    # -- keys ---------------------------------------------------------------
    def token(self, X: np.ndarray) -> str:
        """Content token of a base matrix, for candidate keying."""
        return content_digest(np.asarray(X, dtype=np.float64))

    def _target_token(self, y: np.ndarray) -> str:
        return content_digest(np.asarray(y, dtype=np.float64).reshape(-1))

    def _candidate_key(
        self, base_token: str, column: np.ndarray, target_token: str
    ) -> str:
        return (
            f"{self._params_token}|{target_token}|{base_token}|"
            f"{self._fingerprinter.key(column)}"
        )

    def _matrix_key(self, X: np.ndarray, target_token: str) -> str:
        return f"{self._params_token}|{target_token}|full|{self.token(X)}"

    def _plan(self, y: np.ndarray):
        return self._folds.plan(
            y,
            n_splits=self.evaluator.n_splits,
            seed=self.evaluator.seed,
            stratified=self.evaluator.task == "C",
        )

    # -- scoring ------------------------------------------------------------
    def _lookup(self, key: str) -> float | None:
        if self.cache is None:
            self.stats.n_cache_misses += 1
            return None
        score = self.cache.get(key)
        if score is None:
            self.stats.n_cache_misses += 1
        else:
            self.stats.n_cache_hits += 1
        return score

    def _store(self, key: str, score: float) -> None:
        if self.cache is not None:
            self.cache.put(key, score)

    def _store_many(self, items: list[tuple[str, float]]) -> None:
        """Write a batch of fresh scores through in one backend call.

        Durable backends commit the whole batch in one transaction
        (one fsync instead of one per candidate).
        """
        if self.cache is not None and items:
            self.cache.put_many(items)

    # -- pool backend plumbing ----------------------------------------------
    def _ensure_executor(self) -> "PoolExecutor":
        """Build the persistent worker pool on first use."""
        if self._executor is None:
            from .executor import PoolExecutor

            self._executor = PoolExecutor(
                self.evaluator.params(), n_workers=self.n_workers
            )
        return self._executor

    def _buffer_write(self, key: str, score: float) -> None:
        """Queue a fresh score for the next batched store write."""
        self._write_buffer.append((key, score))
        if len(self._write_buffer) >= _WRITE_BATCH:
            self._flush_writes()

    def _flush_writes(self) -> None:
        """Write buffered fresh scores through in one backend call."""
        if self._write_buffer:
            self._store_many(self._write_buffer)
            self._write_buffer = []

    def _drain_speculative(self, block: bool = False) -> None:
        """Absorb completed pool submissions nobody is waiting on.

        When a consumer abandons an :meth:`iter_scores_async` batch
        mid-stream (the engine does, whenever an acceptance changes
        the base matrix), its in-flight submissions keep running in
        the workers.  Their results are still real fits — this folds
        them into the evaluator's counters and the cache so the money
        already spent is not thrown away, and resolves their futures
        in place so a caller still holding one never pays again.
        """
        if self._executor is None or not self._inflight:
            return
        from .executor import TaskFailed, TaskLost

        for seq, future in list(self._inflight.items()):
            try:
                if block:
                    # The deadline applies here too: close() must not
                    # hang forever on a stuck speculative fit.
                    outcome = self._executor.result(
                        seq, timeout=self.timeout
                    )
                else:
                    outcome = self._executor.try_result(seq)
            except (TaskLost, TaskFailed):
                # Dead: the future stays pending, and resolving it
                # later re-scores serially through _await_pool.
                self._inflight.pop(seq, None)
                continue
            if outcome is None:
                continue
            score, seconds = outcome
            self._inflight.pop(seq, None)
            future._resolve(score)
            self.evaluator.n_evaluations += 1
            self.evaluator.total_eval_time += seconds
            self._buffer_write(future._key, score)

    #: Times a crash-lost pool submission is resubmitted to the
    #: recovered pool before conceding a serial fallback.
    _POOL_RESUBMITS = 1

    def _await_pool(
        self,
        seq: int,
        base: np.ndarray,
        token: str,
        target_token: str,
        column: np.ndarray,
        y: np.ndarray,
    ) -> float:
        """One pool submission's score, whatever happens to it.

        A completion counts as one real fit on the evaluator.  A plain
        ``TaskLost`` (a worker crash took the submission down with it)
        is resubmitted to the recovered pool up to ``_POOL_RESUBMITS``
        times.  A :class:`~repro.eval.executor.TaskTimeout` is not
        resubmitted — a deadline kill usually means the fit itself is
        pathological — and is counted in ``stats.n_timeouts``.  Every
        other failure (crash past the resubmits, worker-side error, a
        service closed with the submission lost) is counted in
        ``stats.n_backend_fallbacks``.  Failures re-score the candidate
        serially in the parent, so the score is always the one the
        ``serial`` backend would return.
        """
        from .executor import TaskFailed, TaskLost, TaskTimeout

        executor = self._executor
        resubmits = self._POOL_RESUBMITS
        try:
            if executor is None:
                raise TaskLost(f"service closed; submission {seq}")
            while True:
                try:
                    score, seconds = executor.result(seq, timeout=self.timeout)
                    break
                except TaskLost as error:
                    if isinstance(error, TaskTimeout) or not resubmits:
                        raise
                    resubmits -= 1
                    self._pool_retry.record_retry()
                    seq = executor.submit(token, base, target_token, y, column)
        except TaskTimeout:
            self.stats.n_timeouts += 1
        except (TaskLost, TaskFailed):
            self.stats.n_backend_fallbacks += 1
        else:
            self.evaluator.n_evaluations += 1
            self.evaluator.total_eval_time += seconds
            return score
        return self._score_missing_serial(base, token, [column], [0], y)[0]

    def _collect_pool_future(self, future: "ScoreFuture") -> float:
        """Resolve one in-flight pool submission (with serial fallback)."""
        self._inflight.pop(future._seq, None)
        score = self._await_pool(
            future._seq, future._base, future._token, future._target_token,
            future._column, future._y,
        )
        self._buffer_write(future._key, score)
        return score

    def _resolve_lazy_future(self, future: "ScoreFuture") -> float:
        """Serial-backend future: look up, fit on a miss, store."""
        key = self._candidate_key(
            future._token, future._column, future._target_token
        )
        cached = self._lookup(key)
        if cached is not None:
            return cached
        self._note_near_duplicate(future._column)
        score = self._score_missing_serial(
            future._base, future._token, [future._column], [0], future._y
        )[0]
        self._store(key, score)
        return score

    def close(self) -> None:
        """Flush buffered writes and release backend resources.

        Blocks for still-running speculative pool submissions first so
        their fits land in the counters and the cache; safe to call on
        any backend and more than once.
        """
        if self._executor is not None:
            self._drain_speculative(block=True)
            self._executor.close()
            self._executor = None
        self._flush_writes()

    def __enter__(self) -> "EvaluationService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    #: Bound on the near-duplicate bucket map (LRU-evicted).
    _NEAR_DUPLICATE_CAPACITY = 8192

    def _note_near_duplicate(self, column: np.ndarray) -> None:
        """Cold-path (miss-only) sketch accounting; see :class:`EvalStats`.

        The bucket map is a bounded LRU: touching a bucket refreshes
        it, and overflow evicts the least-recently-seen bucket only —
        so near-duplicate statistics stay meaningful over long runs
        instead of resetting wholesale at the bound.
        """
        bucket, digest = self._fingerprinter.fingerprint(column)
        seen = self._digest_of_bucket.get(bucket)
        if seen is None:
            if len(self._digest_of_bucket) >= self._NEAR_DUPLICATE_CAPACITY:
                self._digest_of_bucket.popitem(last=False)
            self._digest_of_bucket[bucket] = digest
            return
        self._digest_of_bucket.move_to_end(bucket)
        if seen != digest:
            self.stats.n_near_duplicates += 1

    def evaluate(
        self,
        X: np.ndarray,
        y: np.ndarray,
        base_token: str | None = None,
        column: np.ndarray | None = None,
    ) -> float:
        """Cached A_T(F, y) of one matrix.

        When ``base_token`` and ``column`` are given, ``X`` must be the
        base matrix (identified by the token) extended with exactly that
        trial column; the key then hashes only the column (O(n)) instead
        of the full matrix (O(n*d)).
        """
        target_token = self._target_token(y)
        if base_token is not None and column is not None:
            key = self._candidate_key(base_token, column, target_token)
        else:
            key = self._matrix_key(X, target_token)
        cached = self._lookup(key)
        if cached is not None:
            return cached
        if column is not None:
            self._note_near_duplicate(column)
        score = self.evaluator.evaluate(X, y, folds=self._plan(y))
        self._store(key, score)
        return score

    def score_batch(
        self,
        base: np.ndarray,
        columns: list[np.ndarray],
        y: np.ndarray,
        base_token: str | None = None,
    ) -> list[float]:
        """Score base+column candidates together; returns scores in order.

        All candidates share one frozen ``base`` matrix.  Cache hits are
        resolved up front; only the misses reach the backend.
        """
        if not columns:
            return []
        if self.backend == "pool":
            # Make scores from abandoned speculative submissions
            # visible before the lookups below, or a key drained a
            # moment ago would pay a duplicate fit.
            self._drain_speculative()
            self._flush_writes()
        self.stats.n_batches += 1
        base = np.asarray(base, dtype=np.float64)
        token = base_token if base_token is not None else self.token(base)
        target_token = self._target_token(y)
        if self.fidelity is not None:
            # Multi-fidelity path: the controller owns lookup order,
            # promotion, surrogate gating, audits, and accounting; it
            # routes whatever must pay full CV back through
            # _dispatch_missing, so the configured backend still does
            # the heavy lifting.
            return self.fidelity.score_batch(
                self, base, columns, y, token, target_token
            )
        scores: list[float | None] = [None] * len(columns)
        keys: list[str] = []
        # Deduplicate *within* the batch too: only the first occurrence
        # of a fingerprint reaches the backend, later ones are hits.
        missing_of_key: dict[str, list[int]] = {}
        missing: list[int] = []
        for index, column in enumerate(columns):
            key = self._candidate_key(token, column, target_token)
            keys.append(key)
            if key in missing_of_key:
                self.stats.n_cache_hits += 1
                missing_of_key[key].append(index)
                continue
            cached = self._lookup(key)
            if cached is None:
                missing_of_key[key] = [index]
                missing.append(index)
                self._note_near_duplicate(column)
            else:
                scores[index] = cached
        if missing:
            fresh = self._dispatch_missing(
                base, token, columns, missing, y, target_token
            )
            fresh_entries: list[tuple[str, float]] = []
            for index, score in zip(missing, fresh):
                for duplicate in missing_of_key[keys[index]]:
                    scores[duplicate] = score
                fresh_entries.append((keys[index], score))
            self._store_many(fresh_entries)
        return [float(score) for score in scores]

    def submit_batch(
        self,
        base: np.ndarray,
        columns: list[np.ndarray],
        y: np.ndarray,
        base_token: str | None = None,
        speculative: bool = False,
    ) -> list[ScoreFuture]:
        """Submit candidates for scoring; returns one future per column.

        This is the pipelined counterpart of :meth:`score_batch`: with
        the ``pool`` backend every cache miss is dispatched to the
        persistent workers immediately, so the CV fits overlap with
        whatever the caller does between submission and
        :meth:`ScoreFuture.result` — generating more candidates,
        filtering, credit assignment.  The ``serial`` backend returns
        fully lazy futures: abandoned candidates cost nothing.

        ``speculative=True`` marks the batch as *cross-sweep
        speculation*: work the caller expects to need but may have to
        invalidate (the engine submits the next agent's sweep behind
        the in-flight one this way).  Speculative pool submissions run
        at low priority — they fill idle workers but never delay
        confirmed work that has not been dispatched yet — and the base
        matrix is copied at submission, so the caller may mutate its
        buffer (accept a feature) while they are in flight.  Every
        speculative batch must later be resolved with exactly one of
        :meth:`commit_speculative` or :meth:`discard_speculative`.

        Consume futures in submission order for trajectories that are
        bit-identical to the serial backend.
        """
        if not columns:
            return []
        if speculative:
            self.stats.n_speculative_submitted += len(columns)
        if self.fidelity is not None:
            # score_batch owns stats/batch accounting on this path.
            # The fidelity ladder needs the full batch up front to make
            # its promotion decision, so futures resolve eagerly; the
            # engine disables cross-sweep speculation when fidelity is
            # on for exactly this reason.
            scores = self.score_batch(base, columns, y, base_token=base_token)
            return [ScoreFuture.resolved(score) for score in scores]
        self.stats.n_batches += 1
        if speculative:
            # The engine hands us a transient arena view; an acceptance
            # while these futures are in flight would mutate it under
            # the crash-fallback path's feet.  One copy per speculated
            # sweep keeps the fallback base frozen.
            base = np.array(base, dtype=np.float64)
        else:
            base = np.asarray(base, dtype=np.float64)
        token = base_token if base_token is not None else self.token(base)
        target_token = self._target_token(y)
        if self.backend == "serial":
            return [
                ScoreFuture._pending(self, base, token, column, y, target_token)
                for column in columns
            ]
        executor = self._ensure_executor()
        self._drain_speculative()
        self._flush_writes()
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        priority = 1 if speculative else 0
        futures: list[ScoreFuture] = []
        first_of_key: dict[str, ScoreFuture] = {}
        for column in columns:
            key = self._candidate_key(token, column, target_token)
            primary = first_of_key.get(key)
            if primary is not None:
                # In-batch duplicate: one submission, later ones are hits.
                self.stats.n_cache_hits += 1
                futures.append(ScoreFuture._make_alias(primary))
                continue
            cached = self._lookup(key)
            if cached is not None:
                future = ScoreFuture.resolved(cached)
            else:
                self._note_near_duplicate(column)
                seq = executor.submit(
                    token, base, target_token, y, column, priority=priority
                )
                future = ScoreFuture._pending(
                    self, base, token, column, y, target_token, seq, key
                )
                self._inflight[seq] = future
            first_of_key[key] = future
            futures.append(future)
        self._sync_pool_stats()
        return futures

    def commit_speculative(self, futures: list[ScoreFuture]) -> None:
        """Promote a speculative batch to confirmed work.

        The speculation held (the base matrix the batch was submitted
        against is still the live one): its futures are about to be
        consumed as the real sweep, so backlogged pool submissions are
        promoted to confirmed priority and the batch is counted as
        used.
        """
        self.stats.n_speculative_used += len(futures)
        if self._executor is None:
            return
        for future in futures:
            if future._state == ScoreFuture._POOL:
                self._executor.promote(future._seq)

    def discard_speculative(self, futures: list[ScoreFuture]) -> None:
        """Invalidate a speculative batch (the base matrix changed).

        Counted in ``stats.n_speculative_discarded``.  Pool
        submissions that never reached a worker are cancelled outright
        — no fit is paid; submissions already running drain into the
        counters and the cache through the usual speculative-drain
        machinery, exactly like any abandoned in-flight batch.
        """
        self.stats.n_speculative_discarded += len(futures)
        if self._executor is None:
            return
        for future in futures:
            if future._state != ScoreFuture._POOL:
                continue  # resolved, possibly by a drain pass
            if self._executor.cancel(future._seq):
                self._inflight.pop(future._seq, None)

    def _sync_pool_stats(self) -> None:
        """Mirror executor occupancy into the reportable stats."""
        if self._executor is not None:
            self.stats.pool_workers = self._executor.n_workers
            self.stats.pool_peak_inflight = self._executor.peak_inflight

    def iter_scores_async(
        self,
        base: np.ndarray,
        columns: list[np.ndarray],
        y: np.ndarray,
        base_token: str | None = None,
    ):
        """Yield candidate scores in order against a frozen base.

        :meth:`submit_batch`, then each future's result in submission
        order, on every backend.  The consumer may stop early (e.g.
        after accepting a candidate the base matrix changes) and
        re-issue the remainder against the new base.  ``serial``
        futures are lazy, so abandoned candidates cost nothing.  With
        the ``pool`` backend misses are in flight on the persistent
        workers while earlier scores are consumed; the stragglers of
        an abandoned stream keep running and are folded into the
        counters and cache at the next submission or :meth:`close`.
        Fresh scores are written to the cache store in batches (one
        ``put_many`` per flush) rather than one put per candidate.
        With a fidelity controller the whole batch is scored up front
        — ladder promotion is a batch decision.
        """
        futures = self.submit_batch(base, columns, y, base_token=base_token)
        try:
            for future in futures:
                yield future.result()
        finally:
            self._flush_writes()

    iter_scores = iter_scores_async

    def _dispatch_missing(
        self,
        base: np.ndarray,
        token: str,
        columns: list[np.ndarray],
        missing: list[int],
        y: np.ndarray,
        target_token: str,
    ) -> list[float]:
        """Route cache misses to the configured backend (full CV).

        The single dispatch point for real full-fidelity fits — used by
        the exact :meth:`score_batch` path and by the fidelity
        controller for promoted and audited candidates, so both
        backends serve both paths.
        """
        if self.backend == "pool":
            return self._score_missing_pool(
                base, token, columns, missing, y, target_token
            )
        return self._score_missing_serial(base, token, columns, missing, y)

    def _score_missing_serial(
        self,
        base: np.ndarray,
        token: str,
        columns: list[np.ndarray],
        missing: list[int],
        y: np.ndarray,
        folds=None,
    ) -> list[float]:
        """Arena-backed loop: base copied once per token, O(n) per trial.

        ``folds`` overrides the cached full plan — the fidelity ladder
        passes its truncated/subsampled rung-0 plan here, reusing the
        same arena and evaluator as a full fit.
        """
        if self._arena is None or self._arena.n_samples != base.shape[0]:
            self._arena = FeatureMatrixArena(base.shape[0], base.shape[1] + 1)
            self._arena_token = None
        if self._arena_token != token:
            self._arena.reset(base)
            self._arena_token = token
        if folds is None:
            folds = self._plan(y)
        return [
            self.evaluator.evaluate(
                self._arena.trial_view(columns[index]), y, folds=folds
            )
            for index in missing
        ]

    def _score_missing_pool(
        self,
        base: np.ndarray,
        token: str,
        columns: list[np.ndarray],
        missing: list[int],
        y: np.ndarray,
        target_token: str,
    ) -> list[float]:
        """Score cache misses on the persistent shared-memory pool.

        The base matrix is published once per token; each submission
        ships only its candidate column.  :meth:`_await_pool` collects
        each score, so a crashed, failed or timed-out submission is
        re-scored serially and counted — the batch always completes.
        """
        executor = self._ensure_executor()
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        seqs = [
            executor.submit(token, base, target_token, y, columns[index])
            for index in missing
        ]
        return [
            self._await_pool(seq, base, token, target_token, columns[index], y)
            for seq, index in zip(seqs, missing)
        ]
