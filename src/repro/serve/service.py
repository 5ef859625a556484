"""TransformService: the thread-safe serving session.

One process answering transform traffic must not re-parse a plan's
expressions on every request — compilation (JSON → expression trees)
is the only non-vectorized work on the serving path.  The service
keeps an LRU of *compiled* :class:`~repro.api.plan.FeaturePlan`
objects keyed by their resolved registry reference, so the steady
state per request is: resolve the reference, reuse the compiled
handle, run vectorized numpy.

Accounting mirrors the evaluation layer's ``EvalStats``: every served
plan carries request/row/latency counters plus ``n_compiles`` — the
number the warm-cache contract is asserted on (a repeated plan is
served with ``n_compiles == 1`` no matter how many requests hit it).

Plans come from a :class:`~repro.serve.registry.PlanRegistry` (bare
names resolve to the *latest* version at request time, so a publish is
picked up without restarting the service) or are pinned directly with
:meth:`TransformService.add_plan` for registry-less serving.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from ..api.plan import FeaturePlan
from ..chaos import FaultInjected
from .registry import PlanNotFound, PlanRegistry
from .rows import rows_to_matrix

__all__ = ["PlanServeStats", "TransformService"]

#: Registry failures the service degrades through instead of dying:
#: filesystem I/O trouble (a network-mounted registry flaking) and
#: injected chaos faults.  Integrity failures and genuine not-found are
#: *not* here — serving a known-corrupt or never-published plan from
#: cache would be wrong, not resilient.
_DEGRADABLE_ERRORS = (OSError, FaultInjected)


@dataclass
class PlanServeStats:
    """Per-plan serving counters (the serve-side ``EvalStats``)."""

    n_requests: int = 0
    n_rows: int = 0
    n_compiles: int = 0
    n_cache_hits: int = 0
    total_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of requests served from the compiled-plan cache."""
        return self.n_cache_hits / self.n_requests if self.n_requests else 0.0

    @property
    def mean_latency(self) -> float:
        """Mean seconds per request (transform time only)."""
        return self.total_seconds / self.n_requests if self.n_requests else 0.0

    @property
    def rows_per_second(self) -> float:
        return self.n_rows / self.total_seconds if self.total_seconds else 0.0

    def as_dict(self) -> dict:
        """JSON-ready snapshot (counters plus derived rates)."""
        return {
            "n_requests": self.n_requests,
            "n_rows": self.n_rows,
            "n_compiles": self.n_compiles,
            "n_cache_hits": self.n_cache_hits,
            "total_seconds": self.total_seconds,
            "hit_rate": self.hit_rate,
            "mean_latency": self.mean_latency,
            "rows_per_second": self.rows_per_second,
        }


class TransformService:
    """Serve transform requests over a cache of compiled plans.

    Parameters
    ----------
    registry:
        Source of plans by reference (``name``, ``name@version``, or a
        content fingerprint).  Optional — plans can instead be pinned
        with :meth:`add_plan`.
    capacity:
        Maximum number of registry plans kept compiled at once; the
        least recently used is evicted (its counters survive, and a
        later request recompiles it — visible as ``n_compiles`` going
        up).  Pinned plans don't count against the capacity.
    """

    def __init__(
        self, registry: PlanRegistry | None = None, capacity: int = 8
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.registry = registry
        self.capacity = capacity
        self._lock = threading.Lock()
        self._cache: OrderedDict[str, FeaturePlan] = OrderedDict()
        self._pinned: dict[str, FeaturePlan] = {}
        self._stats: dict[str, PlanServeStats] = {}
        # Degraded-mode state: requested ref -> last successfully
        # resolved key (stale metadata served when the registry backend
        # errors), plus the failure that put the service in degraded
        # mode (None = healthy).  Counters feed /healthz and /metrics.
        self._resolved_refs: OrderedDict[str, str] = OrderedDict()
        self._degraded_error: str | None = None
        self.n_degraded_serves = 0
        self.n_registry_errors = 0

    # -- degraded mode -----------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True while the registry backend is erroring (stale serving)."""
        with self._lock:
            return self._degraded_error is not None

    @property
    def degraded_error(self) -> str | None:
        """The registry failure that triggered degraded mode, if any."""
        with self._lock:
            return self._degraded_error

    _REF_MEMO_CAPACITY = 256

    def _remember_ref(self, ref: str, key: str) -> None:
        """Memoize a successful resolution for degraded replay (locked)."""
        self._resolved_refs[ref] = key
        self._resolved_refs.move_to_end(ref)
        while len(self._resolved_refs) > self._REF_MEMO_CAPACITY:
            self._resolved_refs.popitem(last=False)

    def _acquire_degraded(
        self, ref: str, error: BaseException, key: str | None = None
    ) -> tuple[str, FeaturePlan, bool]:
        """Serve ``ref`` from stale metadata + the compiled-plan LRU.

        Raises the original registry error when nothing cached can
        honor the request — degradation never invents plans.
        """
        detail = f"{type(error).__name__}: {error}"
        with self._lock:
            self.n_registry_errors += 1
            self._degraded_error = detail
            if key is None:
                key = self._resolved_refs.get(ref)
            if key is None and ref in self._cache:
                key = ref  # the ref was already fully pinned
            plan = self._cache.get(key) if key is not None else None
            if plan is None:
                raise error
            self._cache.move_to_end(key)
            self.n_degraded_serves += 1
            return key, plan, True

    def _registry_ok(self) -> None:
        """A registry access succeeded: leave degraded mode (locked)."""
        if self._degraded_error is not None:
            self._degraded_error = None

    # -- plan management ---------------------------------------------------
    def add_plan(self, plan: FeaturePlan, ref: str | None = None) -> str:
        """Pin a plan for serving without a registry.

        Returns the serving reference — ``ref`` when given, else the
        plan's content fingerprint.  Pinned plans are never evicted.
        """
        key = ref if ref is not None else plan.fingerprint
        with self._lock:
            self._pinned[key] = plan
            stats = self._stats.setdefault(key, PlanServeStats())
            stats.n_compiles += 1
        return key

    def n_plans(self) -> int:
        """Count of serveable plans (metadata only — liveness-probe cheap).

        Unlike :meth:`available`, this never loads plan documents, so
        a health endpoint can call it every few seconds against a
        large registry.  While the registry backend errors, the count
        falls back to what is compiled or pinned locally — the health
        probe must keep answering in degraded mode.
        """
        with self._lock:
            count = len(self._pinned)
        if self.registry is not None:
            try:
                count += len(self.registry)
            except _DEGRADABLE_ERRORS as error:
                with self._lock:
                    self.n_registry_errors += 1
                    self._degraded_error = f"{type(error).__name__}: {error}"
                    count += len(self._cache)
        return count

    def available(self) -> list[dict]:
        """Serving references currently resolvable, with metadata."""
        out = []
        with self._lock:
            pinned = list(self._pinned.items())
        for key, plan in pinned:
            out.append(
                {
                    "ref": key,
                    "fingerprint": plan.fingerprint,
                    "n_features": plan.n_features,
                    "pinned": True,
                }
            )
        if self.registry is not None:
            for record in self.registry.records():
                out.append(
                    {
                        "ref": record.ref,
                        "name": record.name,
                        "version": record.version,
                        "fingerprint": record.fingerprint,
                        "n_features": record.n_features,
                        "pinned": False,
                    }
                )
        return out

    def _acquire(self, ref: str) -> tuple[str, FeaturePlan, bool]:
        """Resolve ``ref`` to (key, compiled plan, cache-hit flag).

        Bare names resolve to the latest registry version *per
        request* (a cheap metadata lookup), so the cache key is always
        a fully pinned ``name@version`` — publishing version N+1 makes
        the next bare-name request compile the new plan instead of
        serving the stale one forever.
        """
        with self._lock:
            if ref in self._pinned:
                return ref, self._pinned[ref], True
        if self.registry is None:
            raise PlanNotFound(
                f"unknown plan {ref!r} (no registry attached; use add_plan)"
            )
        try:
            name, version = self.registry.resolve_ref(ref)
        except _DEGRADABLE_ERRORS as error:
            # Registry backend down: replay the last resolution this
            # ref got and serve the compiled plan from the LRU.
            return self._acquire_degraded(ref, error)
        key = f"{name}@{version}"
        with self._lock:
            self._registry_ok()
            self._remember_ref(ref, key)
            plan = self._cache.get(key)
            if plan is not None:
                self._cache.move_to_end(key)
                return key, plan, True
        # Compile outside the lock: parsing is pure CPU on immutable
        # inputs, and a slow compile must not stall other plans'
        # traffic.  Two threads racing on a cold plan may both compile;
        # one result wins the cache slot (both are equivalent).
        try:
            plan = self.registry.get(name, version)
        except _DEGRADABLE_ERRORS as error:
            return self._acquire_degraded(ref, error, key=key)
        with self._lock:
            self._registry_ok()
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                return key, cached, True
            self._cache[key] = plan
            self._stats.setdefault(key, PlanServeStats()).n_compiles += 1
            while len(self._cache) > self.capacity:
                self._cache.popitem(last=False)
            return key, plan, False

    # -- serving -----------------------------------------------------------
    def transform(self, ref: str, X) -> np.ndarray:
        """Apply plan ``ref`` to a micro-batch (matrix or Frame).

        Bit-identical to ``FeaturePlan.transform`` by construction —
        the service only caches the compiled plan, it never touches
        the numbers.
        """
        key, plan, hit = self._acquire(ref)
        started = time.perf_counter()
        out = plan.transform(X)
        self._account(key, hit, out.shape[0], time.perf_counter() - started)
        return out

    def _account(
        self, key: str, hit: bool, n_rows: int, elapsed: float
    ) -> None:
        """Record one served request against the plan's counters."""
        with self._lock:
            stats = self._stats.setdefault(key, PlanServeStats())
            stats.n_requests += 1
            stats.n_rows += int(n_rows)
            stats.n_cache_hits += 1 if hit else 0
            stats.total_seconds += elapsed

    def output_columns(self, ref: str) -> list[str]:
        """Column names plan ``ref`` produces, in order."""
        _, plan, _ = self._acquire(ref)
        return plan.output_columns

    def transform_rows(self, ref: str, rows) -> list[list[float]]:
        """Online single-row / small-batch traffic, JSON-shaped.

        ``rows`` may be one row or a list of rows, each either a flat
        value list (positional against the plan's ``input_columns``)
        or a ``{column: value}`` mapping.  Returns plain lists of
        floats — what an HTTP endpoint serializes directly.
        """
        return self.serve_rows(ref, rows)["rows"]

    def serve_rows(self, ref: str, rows) -> dict:
        """One consistent serving response for JSON-shaped traffic.

        Returns ``{"plan": <resolved name@version>, "columns": [...],
        "rows": [[...]]}``.  Plan resolution happens exactly once, so
        rows and column labels always come from the same plan version
        even when a concurrent publish moves the latest pointer
        mid-request.
        """
        key, plan, hit = self._acquire(ref)
        started = time.perf_counter()
        matrix = rows_to_matrix(plan.input_columns, rows)
        out = plan.transform(matrix)
        self._account(key, hit, out.shape[0], time.perf_counter() - started)
        return {
            "plan": key,
            "columns": plan.output_columns,
            "rows": out.tolist(),
        }

    # -- accounting --------------------------------------------------------
    def stats(self, ref: str | None = None) -> PlanServeStats | dict:
        """Counters for one resolved reference, or all of them.

        With ``ref=None`` returns ``{key: PlanServeStats}`` over every
        plan ever served (eviction keeps counters).  A bare name is
        resolved to its latest version first.
        """
        if ref is None:
            with self._lock:
                return dict(self._stats)
        key = ref
        if ref not in self._pinned and self.registry is not None:
            try:
                name, version = self.registry.resolve_ref(ref)
                key = f"{name}@{version}"
            except Exception:  # noqa: BLE001 — stats lookups never fail
                key = ref
        with self._lock:
            return self._stats.setdefault(key, PlanServeStats())

    @property
    def n_compiled(self) -> int:
        """Number of plans currently held compiled (cache + pinned)."""
        with self._lock:
            return len(self._cache) + len(self._pinned)

    def __repr__(self) -> str:
        return (
            f"TransformService(capacity={self.capacity}, "
            f"compiled={self.n_compiled})"
        )
