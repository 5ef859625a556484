"""Persistent shared-memory worker pool for candidate scoring.

:class:`PoolExecutor` pays process startup and base-matrix transfer
once, not per ``score_batch`` call: workers are forked when the
executor is built, construct their
:class:`~repro.core.evaluation.DownstreamEvaluator` once, and receive
base matrices through :mod:`multiprocessing.shared_memory` segments
published once per base-matrix token (:mod:`repro.eval.shm`) — so a
trial submission ships only the candidate column and a sequence
number, and scoring overlaps with whatever the parent does next.

Contract
--------
* :meth:`submit` enqueues one candidate and returns a sequence number.
  Submissions carry a **priority tier** (0 = confirmed, 1 =
  speculative): tasks are staged in a parent-side backlog and fed to
  the workers through a bounded dispatch window in ``(priority,
  seq)`` order, so speculative work only occupies workers when no
  confirmed work is waiting, and confirmed work submitted later
  preempts speculative work that has not been dispatched yet.
* :meth:`result` blocks for that sequence number (out-of-order worker
  completions are buffered; an undispatched sequence number is
  force-dispatched first, bypassing the window), folding nothing into
  any counter — the caller owns accounting.  :meth:`promote` raises a
  backlogged speculative submission to confirmed priority;
  :meth:`cancel` retracts one that was never dispatched, for free.
* Workers keep a copy of the current base and target, and fit
  ``np.column_stack([base, column])`` through the same evaluator the
  serial backend uses, so scores are bit-identical to it.
* A dead worker never hangs the parent: :meth:`result` polls worker
  liveness, and on a crash the pool **recovers** — it respawns the
  workers and raises :class:`TaskLost` for every submission that was
  in flight, letting the caller re-score those serially.
* :meth:`close` tears down workers and unlinks every shared-memory
  segment; a :mod:`weakref` finalizer in the segment store backstops
  abandoned executors.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
import weakref

import numpy as np

from ..chaos import maybe_fault
from .shm import SegmentStore, attach_array

__all__ = [
    "PoolExecutor",
    "TaskFailed",
    "TaskLost",
    "TaskTimeout",
    "resolve_pool_workers",
]

#: Seconds between liveness checks while waiting on a result.
_POLL_INTERVAL = 0.05

#: Seconds a worker gets to exit after its sentinel before termination.
_JOIN_TIMEOUT = 2.0


class TaskLost(RuntimeError):
    """The submission was in flight when the pool lost a worker."""


class TaskTimeout(TaskLost):
    """The submission overran its deadline and was cancelled.

    Subclasses :class:`TaskLost` because the remedy is identical —
    the pool recovered (the possibly-hung worker generation was
    replaced) and the caller re-scores the candidate serially; the
    distinct type lets the service count deadline kills separately
    (``n_timeouts`` vs. ``n_backend_fallbacks``).
    """


class TaskFailed(RuntimeError):
    """The worker raised while scoring this submission."""


def validate_eval_workers(value, name: str = "eval_workers") -> int | None:
    """Reject worker counts that are not positive integers.

    ``None`` means "use the default" and passes through; everything
    else must be a positive ``int`` (``bool`` counts as invalid — a
    ``True`` worker count is a bug, not a request for one worker).
    The error names the knob so a bad ``eval_workers=0`` fails at
    configuration time instead of deep inside pool construction.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(
            f"{name} must be a positive integer or None, "
            f"got {value!r} ({type(value).__name__})"
        )
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return value


def validate_eval_timeout(value, name: str = "eval_timeout") -> float | None:
    """Reject per-fit deadlines that are not positive numbers of seconds.

    ``None`` (no deadline) passes through; ``bool`` and strings are
    invalid — a ``True`` deadline would silently mean one second.
    """
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(
            f"{name} must be a positive number of seconds or None, "
            f"got {value!r} ({type(value).__name__})"
        )
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def resolve_pool_workers(explicit: int | None) -> int:
    """Pool size: the explicit count, else every CPU.

    A persistent pool amortizes startup, so it defaults to every core.
    An invalid explicit value (zero, negative, non-integer) raises
    instead of silently falling through to the default.
    """
    explicit = validate_eval_workers(explicit)
    if explicit is not None:
        return explicit
    return os.cpu_count() or 1


def _worker_main(task_queue, result_queue, evaluator_params: dict) -> None:
    """Long-lived worker loop: attach, copy once per token, score.

    The evaluator is built once and reused across tasks; a
    shared-memory segment is attached only when the base (or target)
    token changes, copied into worker-local storage, and closed
    immediately — the parent stays the sole owner of segment lifetime.
    """
    from ..core.evaluation import DownstreamEvaluator

    evaluator = DownstreamEvaluator(**evaluator_params)
    targets: dict[str, np.ndarray] = {}
    held: tuple[str, np.ndarray] | None = None
    while True:
        task = task_queue.get()
        if task is None:
            break
        (
            seq,
            base_token,
            base_name,
            base_shape,
            y_token,
            y_name,
            y_shape,
            column_bytes,
        ) = task
        try:
            if y_token not in targets:
                view, segment = attach_array(y_name, y_shape)
                y = np.array(view)  # own copy: segment closes right away
                segment.close()
                if len(targets) >= 8:  # bounded: one target per run in practice
                    targets.pop(next(iter(targets)))
                targets[y_token] = y
            y = targets[y_token]
            if held is None or held[0] != base_token:
                held = None  # release the old base before copying the new
                view, segment = attach_array(base_name, base_shape)
                held = (base_token, np.array(view))
                segment.close()
            column = np.frombuffer(column_bytes, dtype=np.float64)
            before = evaluator.total_eval_time
            # Chaos site: an `err` fault here surfaces to the parent as
            # TaskFailed; a `hang` fault simulates a stuck fit, which
            # the parent's eval_timeout deadline cancels.
            maybe_fault("pool.fit")
            score = evaluator.evaluate(np.column_stack([held[1], column]), y)
            result_queue.put(
                (seq, score, evaluator.total_eval_time - before, None)
            )
        except Exception as error:  # noqa: BLE001 - forwarded to the parent
            result_queue.put((seq, None, 0.0, repr(error)))


class PoolExecutor:
    """Persistent pool of scoring workers over shared-memory bases.

    Parameters
    ----------
    evaluator_params:
        :meth:`DownstreamEvaluator.params` of the service's evaluator;
        each worker rebuilds an equivalent evaluator once.
    n_workers:
        Pool size; ``None`` resolves via :func:`resolve_pool_workers`.
    """

    def __init__(
        self,
        evaluator_params: dict,
        n_workers: int | None = None,
    ) -> None:
        import multiprocessing

        self.params = dict(evaluator_params)
        self.n_workers = resolve_pool_workers(n_workers)
        try:
            self._context = multiprocessing.get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX fallback
            self._context = multiprocessing.get_context("spawn")
        self._store = SegmentStore()
        self._seq = 0
        self._pending: dict[int, tuple[str, str]] = {}
        self._resolved: dict[int, tuple[float | None, float, str | None]] = {}
        self._lost: set[int] = set()
        # Parent-side staging: submissions wait here as
        # [priority, seq, task] entries until a dispatch-window slot
        # frees up.  Entries are mutable so promote() can flip the
        # priority in place.
        self._backlog: list[list] = []
        self._dispatched: set[int] = set()
        # At most this many tasks sit in the worker queues at once:
        # one running plus one buffered per worker keeps workers
        # saturated while leaving later-submitted confirmed work able
        # to overtake the speculative backlog.
        self._max_dispatched = max(2, 2 * self.n_workers)
        #: Dispatch order (sequence numbers), newest last.  Exists for
        #: observability/tests of the priority contract; bounded.
        self.dispatch_log: list[int] = []
        #: High-water mark of concurrently outstanding submissions
        #: (dispatched + backlogged) — the pool-occupancy numerator.
        self.peak_inflight = 0
        self.n_recoveries = 0
        self._closed = False
        # Every worker generation ever spawned, for the finalizer:
        # _workers itself is rebound on recovery, so the finalizer
        # holds this stable list instead.
        self._all_workers: list = []
        self._spawn()
        # An abandoned executor (caller raised without close()) must
        # not leak: terminate whatever workers are still alive and
        # unlink every shared-memory segment at GC / interpreter exit.
        self._finalizer = weakref.finalize(
            self, PoolExecutor._finalize, self._store, self._all_workers
        )

    @staticmethod
    def _finalize(store: SegmentStore, workers: list) -> None:
        for worker in workers:
            if worker.exitcode is None:
                worker.terminate()
        store.close()

    # -- pool lifecycle -----------------------------------------------------
    def _spawn(self) -> None:
        try:
            # Start the POSIX resource tracker *before* forking so the
            # workers inherit it: their shared-memory attach
            # registrations then dedupe against the parent's in one
            # tracker, and the parent's unlink is the single cleanup
            # event.  Without this, each worker lazily starts its own
            # tracker, which re-unlinks (and warns about) segments the
            # parent already cleaned up.
            from multiprocessing import resource_tracker

            resource_tracker.ensure_running()
        except (ImportError, AttributeError):  # pragma: no cover - win32
            pass
        self._task_queue = self._context.Queue()
        self._result_queue = self._context.Queue()
        self._workers = [
            self._context.Process(
                target=_worker_main,
                args=(self._task_queue, self._result_queue, self.params),
                daemon=True,
            )
            for _ in range(self.n_workers)
        ]
        self._all_workers.extend(self._workers)
        for worker in self._workers:
            worker.start()

    @property
    def worker_pids(self) -> list[int]:
        """PIDs of the current worker generation (tests kill these)."""
        return [worker.pid for worker in self._workers]

    def _any_worker_dead(self) -> bool:
        return any(worker.exitcode is not None for worker in self._workers)

    def _recover(self) -> None:
        """Respawn after a worker death; dispatched submissions are lost.

        Everything already sitting in the result queue is kept, and
        every *dispatched* uncollected submission is marked lost so
        callers re-score those candidates serially instead of hanging
        forever.  Backlogged (never-dispatched) submissions survive
        the crash untouched — their tasks were never handed to a
        worker, so they simply re-dispatch to the fresh pool.
        """
        self.n_recoveries += 1
        for worker in self._workers:
            worker.terminate()
        for worker in self._workers:
            worker.join(timeout=_JOIN_TIMEOUT)
        self._drain_queue_nowait()
        for seq in self._dispatched:
            tokens = self._pending.pop(seq, None)
            if tokens is None:
                continue  # resolved by the drain above
            self._store.release(tokens[0])
            self._store.release(tokens[1])
            self._lost.add(seq)
        self._dispatched.clear()
        # Fresh queues: tasks still sitting in the old one belong to
        # lost sequence numbers and must not reach the new workers.
        for old in (self._task_queue, self._result_queue):
            old.close()
            old.cancel_join_thread()
        self._spawn()
        self._dispatch()

    # -- submission / dispatch ----------------------------------------------
    def submit(
        self,
        base_token: str,
        base: np.ndarray,
        y_token: str,
        y: np.ndarray,
        column: np.ndarray,
        priority: int = 0,
    ) -> int:
        """Enqueue one candidate; returns its sequence number.

        ``base`` and ``y`` are only serialized on the first submission
        carrying their token — later submissions ship the column alone.
        ``priority`` 0 is confirmed work, 1 is speculative: the task is
        staged in the parent-side backlog and reaches the workers in
        ``(priority, seq)`` order through the dispatch window.
        """
        if self._closed:
            raise RuntimeError("executor is closed")
        self.poll()
        # Acquire each token immediately after its publish: a publish
        # may evict *idle* segments, and until acquired the segment
        # published one line earlier would itself be idle.
        base_name, base_shape = self._store.publish(base_token, base)
        self._store.acquire(base_token)
        y_name, y_shape = self._store.publish(y_token, y)
        self._store.acquire(y_token)
        self._seq += 1
        seq = self._seq
        self._pending[seq] = (base_token, y_token)
        self.peak_inflight = max(self.peak_inflight, len(self._pending))
        column_bytes = (
            np.ascontiguousarray(column, dtype=np.float64).tobytes()
        )
        task = (
            seq,
            base_token,
            base_name,
            base_shape,
            y_token,
            y_name,
            y_shape,
            column_bytes,
        )
        self._backlog.append([priority, seq, task])
        self._dispatch()
        return seq

    def _dispatch(self) -> None:
        """Feed backlogged tasks to the workers, best-priority first."""
        while self._backlog and len(self._dispatched) < self._max_dispatched:
            best = min(
                range(len(self._backlog)),
                key=lambda i: (self._backlog[i][0], self._backlog[i][1]),
            )
            _, seq, task = self._backlog.pop(best)
            self._send_task(seq, task)

    def _send_task(self, seq: int, task: tuple) -> None:
        self._task_queue.put(task)
        self._dispatched.add(seq)
        if len(self.dispatch_log) >= 4096:
            del self.dispatch_log[:2048]
        self.dispatch_log.append(seq)

    def _ensure_dispatched(self, seq: int) -> None:
        """Force one backlogged task out, bypassing the window.

        Called when a caller *blocks* on the sequence number: waiting
        for a window slot would be strictly slower than running it.
        """
        for index, entry in enumerate(self._backlog):
            if entry[1] == seq:
                del self._backlog[index]
                self._send_task(seq, entry[2])
                return

    def promote(self, seq: int) -> None:
        """Raise a backlogged speculative submission to confirmed.

        No-op when the task has already been dispatched, resolved, or
        cancelled.  Used when speculation is committed: the scores are
        now on the critical path, so the remaining backlog entries must
        beat any speculative work queued behind them.
        """
        for entry in self._backlog:
            if entry[1] == seq:
                entry[0] = 0
                break
        self._dispatch()

    def cancel(self, seq: int) -> bool:
        """Retract a submission that was never dispatched.

        Returns ``True`` (and releases its segment references) when
        the task was still in the parent-side backlog — the candidate
        never reached a worker, so no fit is paid and no result will
        arrive.  Returns ``False`` for dispatched/resolved submissions,
        which must be collected or drained instead.
        """
        for index, entry in enumerate(self._backlog):
            if entry[1] == seq:
                del self._backlog[index]
                tokens = self._pending.pop(seq, None)
                if tokens is not None:
                    self._store.release(tokens[0])
                    self._store.release(tokens[1])
                return True
        return False

    @property
    def n_backlogged(self) -> int:
        """Submissions staged parent-side, not yet sent to a worker."""
        return len(self._backlog)

    def _record(self, item) -> None:
        seq, score, seconds, error = item
        tokens = self._pending.pop(seq, None)
        if tokens is not None:
            self._store.release(tokens[0])
            self._store.release(tokens[1])
        self._dispatched.discard(seq)
        self._resolved[seq] = (score, seconds, error)
        # A worker just freed a window slot: keep it saturated.
        if self._backlog and not self._closed:
            self._dispatch()

    def _drain_queue_nowait(self) -> None:
        while True:
            try:
                item = self._result_queue.get_nowait()
            except (queue_module.Empty, OSError):
                return
            self._record(item)

    def poll(self) -> None:
        """Absorb finished results without blocking."""
        self._drain_queue_nowait()

    def result(
        self, seq: int, timeout: float | None = None
    ) -> tuple[float, float]:
        """Block until submission ``seq`` finishes; ``(score, seconds)``.

        Raises :class:`TaskLost` when the submission died with a
        worker (or was already consumed/forgotten — an unknown
        sequence number can never arrive, so waiting would deadlock),
        :class:`TaskFailed` when the worker raised while scoring it.
        Either way the pool itself stays usable.

        With ``timeout`` set, a submission still unresolved after that
        many seconds is **cancelled**: a hung fit cannot be interrupted
        mid-C-call, so the pool recovers (terminates and respawns the
        worker generation) and raises :class:`TaskTimeout`.  Other
        in-flight submissions become :class:`TaskLost`; the caller
        re-scores serially either way.
        """
        self._ensure_dispatched(seq)
        deadline = (
            None if timeout is None else time.monotonic() + float(timeout)
        )
        while True:
            if seq in self._resolved:
                score, seconds, error = self._resolved.pop(seq)
                if error is not None:
                    raise TaskFailed(error)
                return score, seconds
            if seq in self._lost:
                self._lost.discard(seq)
                raise TaskLost(f"submission {seq} lost to a worker crash")
            if seq not in self._pending:
                # Never submitted, already collected, or forgotten —
                # no result will ever arrive for it.
                raise TaskLost(f"submission {seq} is unknown to this pool")
            if deadline is not None and time.monotonic() >= deadline:
                self._drain_queue_nowait()
                if seq in self._resolved or seq in self._lost:
                    continue  # resolved at the wire — honor the result
                self._recover()
                if seq in self._resolved:
                    continue  # drained out of the dying generation
                self._lost.discard(seq)
                raise TaskTimeout(
                    f"submission {seq} exceeded its {timeout}s deadline"
                )
            wait = _POLL_INTERVAL
            if deadline is not None:
                wait = min(wait, max(deadline - time.monotonic(), 0.001))
            try:
                item = self._result_queue.get(timeout=wait)
            except queue_module.Empty:
                if self._any_worker_dead():
                    self._recover()
                continue
            self._record(item)

    def is_resolved(self, seq: int) -> bool:
        """Whether :meth:`result` for ``seq`` would return immediately."""
        self.poll()
        return seq in self._resolved or seq in self._lost

    def try_result(self, seq: int) -> tuple[float, float] | None:
        """Non-blocking :meth:`result`; ``None`` while still running."""
        self.poll()
        if seq in self._resolved:
            return self.result(seq)
        if seq in self._lost:
            self.result(seq)  # raises TaskLost
        return None

    # -- teardown -----------------------------------------------------------
    def close(self) -> None:
        """Stop workers and unlink every shared-memory segment.

        Pending submissions are abandoned (their workers are told to
        exit after the current task; stragglers are terminated) — the
        caller drains anything it still cares about first.
        """
        if self._closed:
            return
        self._closed = True
        for _ in self._workers:
            try:
                self._task_queue.put_nowait(None)
            except (OSError, ValueError):  # pragma: no cover - queue gone
                break
        deadline = time.monotonic() + _JOIN_TIMEOUT
        for worker in self._workers:
            worker.join(timeout=max(0.0, deadline - time.monotonic()))
        for worker in self._workers:
            if worker.exitcode is None:
                worker.terminate()
                worker.join(timeout=_JOIN_TIMEOUT)
        self._drain_queue_nowait()
        for q in (self._task_queue, self._result_queue):
            q.close()
            q.cancel_join_thread()
        self._backlog.clear()
        self._dispatched.clear()
        self._pending.clear()
        self._store.close()
        self._finalizer.detach()

    def __enter__(self) -> "PoolExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
