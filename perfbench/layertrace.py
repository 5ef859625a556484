"""Outside-in instrumentation of repro's layers for the benchmark.

Nothing under ``src/`` is edited: every span and counter comes from a
wrapper this module installs on a public function or method of one
layer, patched at the place its caller looks the name up (a class
attribute for methods, the *importing* module's global for functions
that were bound by ``from ... import``).  :class:`Patches` restores the
originals on :meth:`Patches.remove`.

Two wrapper sets exist:

* the **ledger** (always installed): plain counters that let every run
  check the cache partition ``hits + misses + surrogate == submissions``
  against an independent count of the scores the engine requested;
* the **spans** (traced runs only): ``perf_counter`` durations keyed by
  a dotted ``layer.name``, with inclusive time, call counts and self
  time (duration minus the time covered by nested spans).  A span that
  starts with no other span open is *top-level*; top-level time per
  layer is what the Table I split is computed from.

Spans record in the benchmark process only: pool workers are forked
from it and inherit the patched classes, so a fork hook switches the
tracer off in every child.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from functools import partial

perf_counter = time.perf_counter


class Tracer:
    """Span and counter accumulator for one benchmark process."""

    def __init__(self) -> None:
        self.spans_on = False
        self.in_child = False
        self.reset()
        os.register_at_fork(after_in_child=self._mark_child)

    def _mark_child(self) -> None:
        self.in_child = True

    def reset(self) -> None:
        """Zero everything (called before each measured fit)."""
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.top: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.latency_ms: list[float] = []
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._future_depth = 0

    @property
    def active(self) -> bool:
        return self.spans_on and not self.in_child

    # -- spans ------------------------------------------------------------
    def enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, not self._stack]
        self._stack.append(frame)
        self._depth[name] += 1
        return frame

    def leave(self, frame: list) -> float:
        elapsed = perf_counter() - frame[1]
        self._stack.pop()
        name = frame[0]
        self._depth[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += elapsed - frame[2]
        if self._depth[name] == 0:
            # Only the outermost call of a re-entrant name adds to its
            # inclusive total, so recursion is not double-counted.
            self.total[name] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed
        if frame[3]:
            self.top[name.split(".", 1)[0]] += elapsed
        return elapsed


def _resolve(path: str):
    """``"pkg.module:Owner"`` -> the owner object (module or class)."""
    module_name, _, owner = path.partition(":")
    target = importlib.import_module(module_name)
    for part in filter(None, owner.split(".")):
        target = getattr(target, part)
    return target


class Patches:
    """Install wrappers on ``(owner, attribute)`` pairs; undo on remove."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, path: str, attr: str, make_wrapper) -> None:
        owner = _resolve(path)
        original = vars(owner)[attr]  # defined there, not inherited
        setattr(owner, attr, make_wrapper(original))
        self._saved.append((owner, attr, original))

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# -- wrappers: ``partial(factory, tracer, ...)`` is what Patches.wrap takes --
def _span(tracer: Tracer, name: str, after, fn):
    """Time every call under ``name``; ``after(tracer, result, args)`` counts."""

    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(frame)
        if after is not None:
            after(tracer, result, args)
        return result

    return wrapper


def _span_generator(tracer: Tracer, name: str, fn):
    """Time each step of a generator (the caller's wait per item)."""

    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        if not tracer.active:
            return inner
        return _timed_steps(tracer, name, inner)

    return wrapper


def _timed_steps(tracer: Tracer, name: str, inner):
    try:
        while True:
            frame = tracer.enter(name)
            # Pool futures resolved inside this step are the same
            # consumption; keep them from being counted twice.
            tracer._future_depth += 1
            try:
                value = next(inner)
            except StopIteration:
                return
            finally:
                tracer._future_depth -= 1
                elapsed = tracer.leave(frame)
            tracer.latency_ms.append(elapsed * 1e3)
            tracer.counts["eval.consumed"] += 1
            yield value
    finally:
        frame = tracer.enter(name)
        try:
            inner.close()
        finally:
            tracer.leave(frame)


# -- the ledger: submissions the engine requested ----------------------------
def _ledger_evaluate(tracer: Tracer, fn):
    def wrapper(self, *args, **kwargs):
        tracer.counts["submissions"] += 1
        if tracer.active:
            tracer.counts["eval.consumed"] += 1
        return fn(self, *args, **kwargs)

    return wrapper


def _ledger_score_batch(tracer: Tracer, fn):
    def wrapper(self, base, columns, *args, **kwargs):
        tracer.counts["submissions"] += len(columns)
        return fn(self, base, columns, *args, **kwargs)

    return wrapper


def _ledger_submit_batch(tracer: Tracer, fn):
    def wrapper(self, base, columns, *args, **kwargs):
        # Pool submissions are looked up at submission time; serial ones
        # lazily at result(); fidelity and process go through
        # score_batch, which counts them itself.
        if self.backend == "pool" and self.fidelity is None:
            tracer.counts["submissions"] += len(columns)
        return fn(self, base, columns, *args, **kwargs)

    return wrapper


def _ledger_iter_scores(tracer: Tracer, fn):
    def wrapper(self, *args, **kwargs):
        inner = fn(self, *args, **kwargs)
        if self.backend != "serial" or self.fidelity is not None:
            return inner  # delegated to score_batch
        return _counted_steps(tracer, inner)

    return wrapper


def _counted_steps(tracer: Tracer, inner):
    try:
        for value in inner:
            tracer.counts["submissions"] += 1
            yield value
    finally:
        inner.close()


def _ledger_future_result(tracer: Tracer, fn):
    def wrapper(self):
        if self._state == "lazy":
            tracer.counts["submissions"] += 1
        if not tracer.active or tracer._future_depth:
            return fn(self)
        # Outermost result() only: an alias future resolves through its
        # primary, which is one consumption, not two.
        tracer._future_depth += 1
        frame = tracer.enter("eval.result_wait")
        try:
            return fn(self)
        finally:
            elapsed = tracer.leave(frame)
            tracer._future_depth -= 1
            tracer.latency_ms.append(elapsed * 1e3)
            tracer.counts["eval.consumed"] += 1

    return wrapper


def install_ledger(patches: Patches, tracer: Tracer) -> None:
    service = "repro.eval.service:EvaluationService"
    patches.wrap(service, "evaluate", partial(_ledger_evaluate, tracer))
    patches.wrap(service, "score_batch", partial(_ledger_score_batch, tracer))
    patches.wrap(service, "submit_batch", partial(_ledger_submit_batch, tracer))
    patches.wrap(service, "iter_scores", partial(_ledger_iter_scores, tracer))
    patches.wrap(
        "repro.eval.service:ScoreFuture", "result",
        partial(_ledger_future_result, tracer),
    )


# -- the spans ------------------------------------------------------------
def _count_blocked(tracer: Tracer, result, args) -> None:
    tracer.counts["gen.calls"] += 1
    if result is None:
        tracer.counts["gen.blocked"] += 1


def _count_kept(tracer: Tracer, result, args) -> None:
    tracer.counts["filter.seen"] += len(result)
    tracer.counts["filter.kept"] += int(sum(bool(k) for k in result))


#: (owner path, attribute, span name, extra counting hook).  Each entry
#: patches the name where the caller looks it up: methods on their class,
#: functions in the module that imported them (``DownstreamEvaluator``
#: calls ``cross_val_mean`` through ``repro.core.evaluation``'s globals and
#: binds its metric from the same globals when it is constructed).
SPANS = [
    # prep: the RF-importance agent pre-filter (Section IV-B)
    ("repro.core.engine:AFEEngine", "_select_agent_features", "prep.select_agents", None),
    # gen: operator application and environment state upkeep
    ("repro.rl.environment:FeatureSpace", "generate", "gen.generate", _count_blocked),
    ("repro.rl.environment:FeatureSpace", "accept", "gen.state", None),
    ("repro.rl.environment:FeatureSpace", "feature_matrix", "gen.state", None),
    ("repro.rl.environment:FeatureSpace", "matrix_token", "gen.state", None),
    ("repro.rl.environment:FeatureSpace", "rng_snapshot", "gen.state", None),
    ("repro.rl.environment:FeatureSpace", "rng_restore", "gen.state", None),
    # filter: FPE inference and signature hashing
    ("repro.core.filters:CandidateFilter", "keep_batch", "filter.keep_batch", _count_kept),
    ("repro.core.filters:FPEFilter", "proba", "filter.proba", None),
    ("repro.core.filters:FPEFilter", "proba_batch", "filter.proba", None),
    ("repro.core.fpe:FPEModel", "signature", "filter.signature", None),
    # rl: policy sampling, REINFORCE update, state features
    ("repro.rl.policy:MultiAgentController", "act", "rl.act", None),
    ("repro.rl.policy:MultiAgentController", "update_from_trajectories", "rl.update", None),
    ("repro.rl.policy:MultiAgentController", "snapshot", "rl.snapshot", None),
    ("repro.rl.policy:MultiAgentController", "restore", "rl.snapshot", None),
    ("repro.rl.environment:FeatureSpace", "state_vector", "rl.state", None),
    # eval: the scoring service and its fingerprints
    ("repro.eval.service:EvaluationService", "evaluate", "eval.evaluate", None),
    ("repro.eval.service:EvaluationService", "submit_batch", "eval.submit", None),
    ("repro.eval.service:EvaluationService", "score_batch", "eval.score_batch", None),
    ("repro.eval.service:EvaluationService", "commit_speculative", "eval.speculation", None),
    ("repro.eval.service:EvaluationService", "discard_speculative", "eval.speculation", None),
    ("repro.eval.service:EvaluationService", "close", "eval.close", None),
    ("repro.eval.service:EvaluationService", "__init__", "eval.open", None),
    ("repro.eval.service", "content_digest", "eval.fingerprint", None),
    ("repro.eval.fingerprint:ColumnFingerprinter", "key", "eval.fingerprint", None),
    ("repro.eval.fingerprint:ColumnFingerprinter", "fingerprint", "eval.fingerprint", None),
    ("repro.eval.fingerprint:ColumnFingerprinter", "bucket", "eval.fingerprint", None),
    # store: durable SQLite score store
    ("repro.store.backends:SqliteBackend", "get", "store.get", None),
    ("repro.store.backends:SqliteBackend", "put", "store.put", None),
    ("repro.store.backends:SqliteBackend", "put_many", "store.put_many", None),
    # pool / shm: persistent worker pool and shared-memory bases
    ("repro.eval.executor:PoolExecutor", "__init__", "pool.spawn", None),
    ("repro.eval.executor:PoolExecutor", "submit", "pool.submit", None),
    ("repro.eval.executor:PoolExecutor", "result", "pool.result_wait", None),
    ("repro.eval.executor:PoolExecutor", "close", "pool.close", None),
    ("repro.eval.shm:SegmentStore", "publish", "shm.publish", None),
    # ml: the downstream CV fit, in this process
    ("repro.core.evaluation", "cross_val_mean", "ml.cv", None),
    ("repro.core.evaluation", "f1_score", "ml.metric", None),
    ("repro.core.evaluation", "one_minus_rae", "ml.metric", None),
    ("repro.ml.tree:DecisionTreeClassifier", "fit", "ml.tree_fit", None),
    ("repro.ml.tree:DecisionTreeRegressor", "fit", "ml.tree_fit", None),
    ("repro.ml.forest:RandomForestClassifier", "predict", "ml.predict", None),
    ("repro.ml.forest:RandomForestRegressor", "predict", "ml.predict", None),
    # fidelity: the multi-fidelity ladder and surrogate gate
    ("repro.fidelity.controller:FidelityController", "score_batch", "fidelity.score_batch", None),
]


def install_spans(patches: Patches, tracer: Tracer) -> None:
    for path, attr, name, after in SPANS:
        patches.wrap(path, attr, partial(_span, tracer, name, after))
    patches.wrap(
        "repro.eval.service:EvaluationService",
        "iter_scores_async",
        partial(_span_generator, tracer, "eval.iter"),
    )
