"""Gating policy: route each candidate to the cheapest sufficient rung.

:class:`FidelityController` is the piece the evaluation service
delegates a batch to when ``eval_fidelity`` is on.  Per candidate, in
order:

1. **exact cache** — a full-CV score under the normal key, or a
   previously computed rung-0 score under the fidelity-tagged key
   (both are hits; neither pays a fit);
2. **surrogate gate** — candidates whose quantile-sketch bucket has
   absorbed enough real scores are served from the fitted bucket
   estimator (``n_surrogate_served``); known-but-too-uncertain buckets
   fall back to a real evaluation (``n_surrogate_fallbacks``);
3. **rung 0** — with the ladder on, the remaining misses pay a cheap
   truncated/subsampled-fold fit in the calling process
   (``n_lowfi_scored``), and only the batch's top fraction by rung-0
   score is **promoted** to full CV through the service's configured
   backend (``n_promoted``) — serial, process, and shared-memory pool
   all serve the promoted set;
4. **audit** — every ``audit``-th approximate result additionally pays
   a full-CV fit; the absolute delta between the reported approximate
   score and the true one accumulates into ``fidelity_regret``, so
   every speedup this subsystem reports ships next to its measured
   accuracy cost.

Cache-key hygiene: low-fidelity scores are stored under
``<key>|fid=<rung>`` (see ``repro.store.FIDELITY_KEY_MARKER``), so a
fidelity-on run can warm a shared store without a fidelity-off run —
which only ever looks up unmarked keys — observing a single
approximate score.  Audited and promoted scores are genuine full-CV
results and land under the normal keys.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..store.backends import FIDELITY_KEY_MARKER
from .config import FidelitySpec
from .ladder import FidelityLadder
from .surrogate import SurrogateGate

if TYPE_CHECKING:  # pragma: no cover - typing only (no import cycle)
    import numpy as np

    from ..eval.service import EvaluationService

__all__ = ["FidelityController", "make_fidelity"]


def make_fidelity(
    spec: FidelitySpec | str | None, seed: int = 0
) -> "FidelityController | None":
    """Build a controller from a spec (string or parsed); ``None`` if off."""
    if spec is None:
        return None
    if not isinstance(spec, FidelitySpec):
        spec = FidelitySpec.parse(spec)
    if not spec.enabled:
        return None
    return FidelityController(spec, seed=seed)


class FidelityController:
    """Multi-fidelity scoring policy bound to one evaluation service run."""

    def __init__(self, spec: FidelitySpec, seed: int = 0) -> None:
        if not spec.enabled:
            raise ValueError(
                "FidelityController needs an enabled spec; the service "
                "runs the exact path when fidelity is off"
            )
        self.spec = spec
        self.seed = int(seed)
        self.ladder = FidelityLadder(spec, seed=seed) if spec.ladder else None
        self.surrogate = (
            SurrogateGate(
                min_observations=spec.min_observations,
                max_halfwidth=spec.max_halfwidth,
            )
            if spec.surrogate
            else None
        )
        # Deterministic audit schedule over approximate results.
        self._approx_count = 0

    # -- keys ----------------------------------------------------------------
    def lowfi_key(self, key: str) -> str:
        """Fidelity-namespace twin of a full-CV cache key."""
        return f"{key}{FIDELITY_KEY_MARKER}{self.spec.rung_token}"

    def _surrogate_key(self, token: str, target_token: str, bucket: str) -> str:
        # The base-matrix token is part of the key: near-duplicate
        # candidates only share a score distribution against the *same*
        # accepted-feature state.
        return f"{token}|{target_token}|{bucket}"

    # -- policy --------------------------------------------------------------
    def _should_audit(self) -> bool:
        """Whether the approximate result just produced gets audited."""
        if not self.spec.audit_period:
            return False
        self._approx_count += 1
        return self._approx_count % self.spec.audit_period == 0

    def score_batch(
        self,
        service: "EvaluationService",
        base: "np.ndarray",
        columns: list,
        y: "np.ndarray",
        token: str,
        target_token: str,
    ) -> list[float]:
        """Fidelity-laddered counterpart of ``EvaluationService.score_batch``.

        Accounting invariant (asserted by the throughput benchmark):
        every submission is exactly one of a cache hit, a cache miss
        (it reached rung 0 or full CV), or a surrogate serve —
        ``n_cache_hits + n_cache_misses + n_surrogate_served`` grows
        by ``len(columns)``.  Audit fits are extra real evaluations on
        top, never a fourth lookup category.
        """
        stats = service.stats
        cache = service.cache
        scores: list[float | None] = [None] * len(columns)
        keys: list[str] = []
        first_of_key: dict[str, int] = {}
        duplicates_of: dict[int, list[int]] = {}
        surrogate_key_of: dict[int, str] = {}
        lowfi_positions: list[int] = []
        full_positions: list[int] = []
        audit_positions: list[int] = []
        for index, column in enumerate(columns):
            key = service._candidate_key(token, column, target_token)
            keys.append(key)
            primary = first_of_key.get(key)
            if primary is not None:
                # In-batch duplicate: resolved once, later ones are hits.
                stats.n_cache_hits += 1
                duplicates_of.setdefault(primary, []).append(index)
                continue
            first_of_key[key] = index
            cached = cache.get(key) if cache is not None else None
            if cached is not None:
                stats.n_cache_hits += 1
                scores[index] = float(cached)
                continue
            if self.ladder is not None and cache is not None:
                lowfi_cached = cache.get(self.lowfi_key(key))
                if lowfi_cached is not None:
                    stats.n_cache_hits += 1
                    scores[index] = float(lowfi_cached)
                    continue
            if self.surrogate is not None:
                surrogate_key = self._surrogate_key(
                    token, target_token, service._fingerprinter.bucket(column)
                )
                surrogate_key_of[index] = surrogate_key
                served = self.surrogate.serve(surrogate_key)
                if served is not None:
                    # Served from the fitted estimator: no fit, and —
                    # deliberately — *not* a cache miss (the invariant
                    # above is what the accounting-fix satellite pins).
                    stats.n_surrogate_served += 1
                    scores[index] = float(served)
                    if self._should_audit():
                        audit_positions.append(index)
                    continue
                if self.surrogate.n_observations(surrogate_key) > 0:
                    stats.n_surrogate_fallbacks += 1
            stats.n_cache_misses += 1
            service._note_near_duplicate(column)
            if self.ladder is not None:
                lowfi_positions.append(index)
            else:
                full_positions.append(index)
        fresh_entries: list[tuple[str, float]] = []
        if lowfi_positions:
            rung_scores = self._score_rung0(
                service, base, token, columns, lowfi_positions, y, target_token
            )
            stats.n_lowfi_scored += len(lowfi_positions)
            promoted, rejected = self.ladder.promote(rung_scores)
            stats.n_promoted += len(promoted)
            full_positions.extend(lowfi_positions[p] for p in promoted)
            full_positions.sort()
            for p in rejected:
                index = lowfi_positions[p]
                scores[index] = float(rung_scores[p])
                fresh_entries.append((self.lowfi_key(keys[index]), scores[index]))
                if self._should_audit():
                    audit_positions.append(index)
        if full_positions:
            fresh = service._dispatch_missing(
                base, token, columns, full_positions, y, target_token
            )
            for index, score in zip(full_positions, fresh):
                scores[index] = float(score)
                fresh_entries.append((keys[index], scores[index]))
                self._observe_surrogate(surrogate_key_of, index, scores[index])
        if audit_positions:
            audit_positions.sort()
            true_scores = service._dispatch_missing(
                base, token, columns, audit_positions, y, target_token
            )
            for index, true_score in zip(audit_positions, true_scores):
                stats.n_audited += 1
                stats.fidelity_regret_total += abs(
                    float(true_score) - scores[index]
                )
                # The audit's full-CV score is genuine: store it under
                # the normal key (and fit the surrogate on it), but keep
                # *reporting* the approximate score — the audit measures
                # the policy, it must not change it.
                fresh_entries.append((keys[index], float(true_score)))
                self._observe_surrogate(
                    surrogate_key_of, index, float(true_score)
                )
        for primary, duplicate_indexes in duplicates_of.items():
            for index in duplicate_indexes:
                scores[index] = scores[primary]
        service._store_many(fresh_entries)
        return [float(score) for score in scores]

    def _observe_surrogate(
        self, surrogate_key_of: dict[int, str], index: int, score: float
    ) -> None:
        """Fit one real full-CV score into the surrogate (when gated)."""
        if self.surrogate is None:
            return
        key = surrogate_key_of.get(index)
        if key is not None:
            self.surrogate.observe(key, score)

    def _score_rung0(
        self,
        service: "EvaluationService",
        base: "np.ndarray",
        token: str,
        columns: list,
        positions: list[int],
        y: "np.ndarray",
        target_token: str,
    ) -> list[float]:
        """Rung-0 fits: arena-backed serial loop over the cheap fold plan.

        Runs in the calling process on purpose — a rung-0 fit is
        ``rung_folds/n_splits · row_fraction`` of a full one, cheaper
        than a round-trip through a worker, and keeping rung 0 local
        leaves the parallel backend entirely to the promoted set.
        """
        folds = self.ladder.rung0_folds(service._plan(y), target_token)
        return service._score_missing_serial(
            base, token, columns, positions, y, folds=folds
        )
