"""EvaluationService: cached, batched candidate scoring.

This is the choke point every engine and baseline routes downstream
evaluations through.  It layers three optimizations over the thin
:class:`~repro.core.evaluation.DownstreamEvaluator` primitive without
changing a single score:

* **memoization** — candidates are keyed by an exact content hash on
  top of the base-matrix token, so a duplicate candidate never pays a
  second cross-validated fit.  One triage step
  (:meth:`EvaluationService._triage`) keys, deduplicates and counts
  every submission on every entry point.  The backing store is any
  :class:`~repro.store.CacheBackend`:
  :class:`~repro.store.MemoryBackend` (the default, per-process) or a
  durable :class:`~repro.store.SqliteBackend` shared across OS
  processes and runs — a warm store replays an identical engine
  ``fit()`` without a single real downstream fit, even from a fresh
  process.
* **batching** — :meth:`score_batch` scores a sweep's candidates
  against one base matrix on the ``serial`` backend (one
  ``np.column_stack`` per trial, in this process) or the ``pool``
  backend (a persistent :class:`~repro.eval.executor.PoolExecutor`
  fed through shared memory); backends are bit-equal because every
  fit is independently seeded.
* **pipelining** — :meth:`submit_batch` returns :class:`ScoreFuture`
  handles, lazy on ``serial`` and in flight on ``pool``, and
  :meth:`iter_scores_async` resolves them in submission order.

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

from ..fidelity import make_fidelity
from ..ml.model_selection import plan_folds
from ..store.backends import CacheBackend
from .fingerprint import ColumnFingerprinter, content_digest

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine -> eval)
    from ..core.evaluation import DownstreamEvaluator
    from .executor import PoolExecutor

__all__ = [
    "EvalStats",
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
    n_surrogate_served == submissions`` (:attr:`submissions`).  The
    service's triage step is the only writer of those three counters,
    on every entry point; an in-batch duplicate is a hit with a cache
    and a miss without one.
    Every speculation is later either committed or
    discarded, so ``n_speculative_submitted == n_speculative_used +
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
    #: concurrently outstanding submissions (dispatched + backlogged),
    #: updated by every pool submission, batch or pipelined.
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
    def submissions(self) -> int:
        """Candidate submissions: the hit/miss/served partition's total.

        Unlike ``n_downstream_evaluations + n_cache_hits`` this counts
        a candidate once under a fidelity ladder, where one miss may pay
        a rung-0 fit and then a full one.
        """
        return self.n_cache_hits + self.n_cache_misses + self.n_surrogate_served

    @property
    def hit_rate(self) -> float:
        """Share of candidate lookups served without a downstream fit."""
        lookups = self.n_cache_hits + self.n_cache_misses
        return self.n_cache_hits / lookups if lookups else 0.0


@dataclass
class _Triage:
    """One batch's lookup outcome (see :meth:`EvaluationService._triage`)."""

    keys: list[str]
    #: Per position: the cached or surrogate-served score; None until a
    #: miss is scored (and for in-batch duplicates until :meth:`result`).
    scores: list[float | None]
    #: First occurrence of every miss, in submission order.
    missing: list[int] = field(default_factory=list)
    #: First occurrence -> its later in-batch copies.
    duplicates: dict[int, list[int]] = field(default_factory=dict)
    #: Surrogate-served positions, in submission order.
    served: list[int] = field(default_factory=list)
    #: Surrogate bucket key of every position that reached the gate.
    surrogate_keys: dict[int, str] = field(default_factory=dict)

    def fill(self, positions: list[int], scores) -> list[tuple[str, float]]:
        """Record fresh full-CV scores; returns their store entries."""
        entries = []
        for index, score in zip(positions, scores):
            self.scores[index] = float(score)
            entries.append((self.keys[index], self.scores[index]))
        return entries

    def result(self) -> list[float]:
        """Scores in submission order, duplicates copied from their first."""
        for primary, copies in self.duplicates.items():
            for index in copies:
                self.scores[index] = self.scores[primary]
        return [float(score) for score in self.scores]


class ScoreFuture:
    """One candidate's eventual downstream score.

    Produced by :meth:`EvaluationService.submit_batch`.  How the score
    materializes depends on the service backend:

    * cache hit (or a fidelity-ladder batch) — already resolved at
      submission;
    * ``serial`` — fully lazy: the lookup, CV fit and store run inside
      :meth:`result`, so abandoned futures cost nothing;
    * ``pool`` — in flight on a persistent worker; :meth:`result`
      blocks for the completion and falls back to a parent-side serial
      fit if the submission died with a worker.  A completion consumed
      first by the service's drain pass (at a later submission or at
      :meth:`EvaluationService.close`) resolves the future in place.

    An in-batch duplicate of a pool batch is handed its first
    occurrence's future itself, so both positions resolve with one fit
    (with memoization on; ``cache=None`` pays one fit per submission).

    Futures hold a reference to the caller's base matrix until
    resolved and fit against it as it is then, so a caller must not
    mutate it in between; :class:`~repro.rl.FeatureSpace` hands out
    read-only matrices it never rewrites.
    """

    __slots__ = (
        "_service", "_state", "_value", "_seq", "_key",
        "_base", "_token", "_column", "_y", "_target_token",
    )

    _RESOLVED = "resolved"
    _LAZY = "lazy"
    _POOL = "pool"

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

    def _resolve(self, score: float) -> float:
        self._value = float(score)
        self._state = self._RESOLVED
        return self._value

    def done(self) -> bool:
        """Whether :meth:`result` will return without blocking or fitting."""
        if self._state == self._RESOLVED:
            return True
        if self._state == self._POOL:
            executor = self._service._executor
            return executor is not None and executor.is_resolved(self._seq)
        return False  # lazy: the fit happens at result()

    def result(self) -> float:
        """The score (blocking / computing as the backend requires)."""
        if self._state == self._RESOLVED:
            return self._value
        if self._state == self._POOL:
            return self._resolve(self._service._collect_pool_future(self))
        return self._resolve(self._service._resolve_lazy_future(self))


class EvaluationService:
    """Cached, batched front-end over one :class:`DownstreamEvaluator`.

    Every entry point — :meth:`evaluate`, :meth:`score_batch`,
    :meth:`submit_batch` and the lazy serial futures — decides hit,
    miss or surrogate serve in one step, :meth:`_triage`, which keys
    the candidates, deduplicates within the batch and keeps the
    partition counters.  Only what it reports missing reaches a fit.

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
        memoization entirely: every submission is a miss and pays its
        own fit, in-batch duplicates included, on every entry point.
    backend:
        ``"serial"`` or ``"pool"`` — how :meth:`score_batch` /
        :meth:`submit_batch` score cache misses.
    n_workers:
        Worker count of the ``pool`` backend.  Defaults to every core.
    fidelity:
        Optional :class:`~repro.fidelity.FidelityController`.  When
        set, batch scoring routes through the multi-fidelity ladder /
        surrogate gate (streaming falls back to batch semantics, since
        promotion is a batch decision).  ``None`` is exact full CV.
    """

    def __init__(
        self,
        evaluator: "DownstreamEvaluator",
        cache: CacheBackend | None = None,
        backend: str = "serial",
        n_workers: int | None = None,
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
        self._fingerprinter = ColumnFingerprinter(seed=evaluator.seed)
        params = evaluator.params()
        self._params_token = ":".join(
            f"{name}={params[name]}" for name in sorted(params)
        )
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
        """The full CV fold plan; fidelity rung 0 subsamples it."""
        return plan_folds(
            y,
            n_splits=self.evaluator.n_splits,
            seed=self.evaluator.seed,
            stratified=self.evaluator.task == "C",
        )

    # -- scoring ------------------------------------------------------------
    def _triage(
        self,
        columns: list,
        token: str | None,
        target_token: str,
        fidelity=None,
        keys: list[str] | None = None,
    ) -> _Triage:
        """Partition submissions into hits, surrogate serves and misses.

        The one lookup step behind every scoring path, and the only
        writer of ``n_cache_hits``, ``n_cache_misses`` and
        ``n_surrogate_served``, so each submission lands in exactly one
        of them.  Per position, in order:

        * a repeat of an earlier key in the batch is a hit that shares
          its first occurrence's score (with a cache only —
          ``cache=None`` makes every submission a miss that pays a fit);
        * a stored score is a hit; with a ``fidelity`` ladder, so is a
          stored rung-0 score under the fidelity-tagged key;
        * with a ``fidelity`` surrogate gate, a tight bucket serves the
          candidate without a fit, and a known bucket too uncertain to
          serve is a counted fallback;
        * anything else is a miss.

        ``keys`` replaces the candidate keys (:meth:`evaluate`'s
        whole-matrix key); a ``None`` column skips sketch accounting.
        """
        stats = self.stats
        cache = self.cache
        if keys is None:
            keys = [
                self._candidate_key(token, column, target_token)
                for column in columns
            ]
        lowfi = fidelity is not None and fidelity.ladder is not None
        gate = fidelity.surrogate if fidelity is not None else None
        triage = _Triage(keys, [None] * len(keys))
        first_of_key: dict[str, int] = {}
        for index, (key, column) in enumerate(zip(keys, columns)):
            if cache is not None:
                primary = first_of_key.setdefault(key, index)
                if primary != index:
                    stats.n_cache_hits += 1
                    triage.duplicates.setdefault(primary, []).append(index)
                    continue
                cached = cache.get(key)
                if cached is None and lowfi:
                    cached = cache.get(fidelity.lowfi_key(key))
                if cached is not None:
                    stats.n_cache_hits += 1
                    triage.scores[index] = float(cached)
                    continue
            if gate is not None:
                surrogate_key = fidelity.surrogate_key(
                    token, target_token, self._fingerprinter.bucket(column)
                )
                triage.surrogate_keys[index] = surrogate_key
                served = gate.serve(surrogate_key)
                if served is not None:
                    stats.n_surrogate_served += 1
                    triage.scores[index] = float(served)
                    triage.served.append(index)
                    continue
                if gate.n_observations(surrogate_key) > 0:
                    stats.n_surrogate_fallbacks += 1
            stats.n_cache_misses += 1
            if column is not None:
                self._note_near_duplicate(column)
            triage.missing.append(index)
        return triage

    def _score_one(self, triage: _Triage, fit) -> float:
        """A one-candidate triage's score: the cached one, or ``fit()`` stored.

        The lookup → fit → store path of :meth:`evaluate` and of lazy
        serial futures.
        """
        if triage.missing:
            triage.scores[0] = fit()
            if self.cache is not None:
                self.cache.put(triage.keys[0], triage.scores[0])
        return triage.scores[0]

    # -- pool backend plumbing ----------------------------------------------
    def _ensure_executor(self) -> "PoolExecutor":
        """Build the persistent worker pool on first use."""
        if self._executor is None:
            from .executor import PoolExecutor

            self._executor = PoolExecutor(
                self.evaluator.params(), n_workers=self.n_workers
            )
            self.stats.pool_workers = self._executor.n_workers
        return self._executor

    def _submit_pool(
        self,
        base: np.ndarray,
        token: str,
        column: np.ndarray,
        y: np.ndarray,
        target_token: str,
        key: str,
        priority: int = 0,
    ) -> ScoreFuture:
        """Dispatch one miss to the pool: the one pool submission path.

        Batch misses (:meth:`score_batch`, promoted and audited fidelity
        fits) and pipelined :meth:`submit_batch` futures both come
        through here, so every pool fit is tracked for draining and
        counted in the occupancy stats.
        """
        executor = self._ensure_executor()
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        seq = executor.submit(
            token, base, target_token, y, column, priority=priority
        )
        future = ScoreFuture._pending(
            self, base, token, column, y, target_token, seq, key
        )
        self._inflight[seq] = future
        self.stats.pool_peak_inflight = executor.peak_inflight
        return future

    def _buffer_write(self, key: str, score: float) -> None:
        """Queue a fresh score for the next batched store write."""
        self._write_buffer.append((key, score))
        if len(self._write_buffer) >= _WRITE_BATCH:
            self._flush_writes()

    def _flush_writes(self) -> None:
        """Write buffered fresh scores through in one backend call.

        Durable backends commit the whole batch in one transaction
        (one fsync instead of one per candidate).
        """
        if self._write_buffer:
            if self.cache is not None:
                self.cache.put_many(self._write_buffer)
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

    def _await_pool(self, future: ScoreFuture) -> float:
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

        self._inflight.pop(future._seq, None)
        executor = self._executor
        seq = future._seq
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
                    seq = executor.submit(
                        future._token, future._base, future._target_token,
                        future._y, future._column,
                    )
        except TaskTimeout:
            self.stats.n_timeouts += 1
        except (TaskLost, TaskFailed):
            self.stats.n_backend_fallbacks += 1
        else:
            self.evaluator.n_evaluations += 1
            self.evaluator.total_eval_time += seconds
            return score
        return self._fit_serial(future)

    def _fit_serial(self, future: ScoreFuture) -> float:
        """Fit one future's candidate in this process."""
        return self._score_missing_serial(
            future._base, [future._column], [0], future._y
        )[0]

    def _collect_pool_future(self, future: ScoreFuture) -> float:
        """Resolve one pipelined pool future; its score joins the write buffer."""
        score = self._await_pool(future)
        self._buffer_write(future._key, score)
        return score

    def _resolve_lazy_future(self, future: ScoreFuture) -> float:
        """Serial-backend future: look up, fit on a miss, store."""
        return self._score_one(
            self._triage([future._column], future._token, future._target_token),
            lambda: self._fit_serial(future),
        )

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
        keys = None
        if base_token is None or column is None:
            keys = [self._matrix_key(X, target_token)]
        return self._score_one(
            self._triage([column], base_token, target_token, keys=keys),
            lambda: self.evaluator.evaluate(X, y),
        )

    def score_batch(
        self,
        base: np.ndarray,
        columns: list[np.ndarray],
        y: np.ndarray,
        base_token: str | None = None,
    ) -> list[float]:
        """Score base+column candidates together; returns scores in order.

        All candidates share one frozen ``base`` matrix.  The batch is
        triaged up front; only its misses reach the backend, and an
        in-batch duplicate (with a cache) shares its first occurrence's
        fit.
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
        triage = self._triage(columns, token, target_token, self.fidelity)
        if self.fidelity is not None:
            # Multi-fidelity path: the controller applies its policy
            # (rung 0, promotion, audits, surrogate fitting) to the
            # triaged misses and routes whatever must pay full CV back
            # through _dispatch_missing, so the configured backend
            # still does the heavy lifting.
            fresh = self.fidelity.score_batch(
                self, base, columns, y, token, target_token, triage
            )
        else:
            fresh = triage.fill(
                triage.missing,
                self._dispatch_missing(
                    base, token, columns, triage.missing, y, target_token,
                    triage.keys,
                ),
            )
        self._write_buffer.extend(fresh)
        self._flush_writes()
        return triage.result()

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
        confirmed work that has not been dispatched yet.  Every
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
        base = np.asarray(base, dtype=np.float64)
        token = base_token if base_token is not None else self.token(base)
        target_token = self._target_token(y)
        if self.backend == "serial":
            return [
                ScoreFuture._pending(self, base, token, column, y, target_token)
                for column in columns
            ]
        self._ensure_executor()
        self._drain_speculative()
        self._flush_writes()
        triage = self._triage(columns, token, target_token)
        priority = 1 if speculative else 0
        futures = [
            None if score is None else ScoreFuture.resolved(score)
            for score in triage.scores
        ]
        for index in triage.missing:
            futures[index] = self._submit_pool(
                base, token, columns[index], y, target_token,
                triage.keys[index], priority,
            )
        for primary, copies in triage.duplicates.items():
            for index in copies:
                futures[index] = futures[primary]
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
        re-issue the remainder against the new base; abandoned
        ``serial`` futures cost nothing, and abandoned ``pool``
        stragglers are folded into the counters and cache at the next
        submission or :meth:`close`.  Fresh scores reach the store in
        batched ``put_many`` writes.
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
        keys: list[str],
    ) -> list[float]:
        """Route cache misses to the configured backend (full CV).

        The single dispatch point for real full-fidelity fits — used by
        the exact :meth:`score_batch` path and by the fidelity
        controller for promoted and audited candidates, so both
        backends serve both paths.  Pool misses are submitted and
        collected exactly like :meth:`submit_batch` futures (the base
        is published once per token, each task ships its column, and a
        crashed, failed or timed-out fit is re-scored serially).
        """
        if self.backend == "pool":
            futures = [
                self._submit_pool(
                    base, token, columns[index], y, target_token, keys[index]
                )
                for index in missing
            ]
            return [self._await_pool(future) for future in futures]
        return self._score_missing_serial(base, columns, missing, y)

    def _score_missing_serial(
        self,
        base: np.ndarray,
        columns: list[np.ndarray],
        missing: list[int],
        y: np.ndarray,
        folds=None,
    ) -> list[float]:
        """Fit each missing ``np.column_stack([base, column])`` here.

        ``folds=None`` lets the evaluator plan the full CV splits; the
        fidelity ladder passes its truncated/subsampled rung-0 plan.
        """
        return [
            self.evaluator.evaluate(
                np.column_stack([base, columns[index]]), y, folds=folds
            )
            for index in missing
        ]
