"""Gating policy: route each candidate to the cheapest sufficient rung.

:class:`FidelityController` is the policy the evaluation service
applies to a batch when ``eval_fidelity`` is on.  The service's triage
step (``EvaluationService._triage``) keys the batch, deduplicates it
and keeps the hit/miss/served counters; per candidate, in order:

1. **exact cache** — a full-CV score under the normal key, or a
   previously computed rung-0 score under the fidelity-tagged key
   (:meth:`FidelityController.lowfi_key`; both are hits, neither pays
   a fit);
2. **surrogate gate** — candidates whose quantile-sketch bucket has
   absorbed enough real scores are served from the fitted bucket
   estimator (``n_surrogate_served``); known-but-too-uncertain buckets
   fall back to a real evaluation (``n_surrogate_fallbacks``).

The controller then scores the triaged misses:

3. **rung 0** — with the ladder on, the misses pay a cheap
   truncated/subsampled-fold fit in the calling process
   (``n_lowfi_scored``), and only the batch's top fraction by rung-0
   score is **promoted** to full CV through the service's configured
   backend (``n_promoted``) — the serial loop and the shared-memory
   pool both serve the promoted set;
4. **audit** — every ``audit``-th approximate result additionally pays
   a full-CV fit; the absolute delta between the reported approximate
   score and the true one accumulates into ``fidelity_regret``, so
   every speedup this subsystem reports ships next to its measured
   accuracy cost.  Every full-CV score it sees is fitted into the
   surrogate.

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

    from ..eval.service import EvaluationService, _Triage

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

    def surrogate_key(self, token: str, target_token: str, bucket: str) -> str:
        """Surrogate bucket of a candidate column against one base."""
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
        triage: "_Triage",
    ) -> list[tuple[str, float]]:
        """Score a triaged batch's misses; returns the entries to store.

        Fills ``triage.scores`` for every miss.  Audit fits are extra
        real evaluations on top of the triage's partition, never a
        fourth lookup category.
        """
        stats = service.stats
        scores = triage.scores
        audit_positions = [i for i in triage.served if self._should_audit()]
        full_positions = triage.missing
        fresh: list[tuple[str, float]] = []
        if self.ladder is not None and triage.missing:
            # Rung 0 runs in this process on purpose: a rung-0 fit is
            # rung_folds/n_splits · row_fraction of a full one, cheaper
            # than a worker round-trip, and it leaves the parallel
            # backend entirely to the promoted set.
            lowfi = triage.missing
            folds = self.ladder.rung0_folds(service._plan(y), target_token)
            rung_scores = service._score_missing_serial(
                base, columns, lowfi, y, folds=folds
            )
            stats.n_lowfi_scored += len(lowfi)
            # Positions sharing a key (every copy is a miss without a
            # cache, and pays its own fits) are promoted or rejected as
            # one unit, so identical columns report identical scores.
            units: dict[str, list[int]] = {}
            for p, index in enumerate(lowfi):
                units.setdefault(triage.keys[index], []).append(p)
            groups = list(units.values())
            chosen, dropped = self.ladder.promote(
                [rung_scores[group[0]] for group in groups]
            )
            promoted = sorted(p for unit in chosen for p in groups[unit])
            rejected = sorted(p for unit in dropped for p in groups[unit])
            stats.n_promoted += len(promoted)
            full_positions = sorted(lowfi[p] for p in promoted)
            for p in rejected:
                index = lowfi[p]
                scores[index] = float(rung_scores[p])
                fresh.append((self.lowfi_key(triage.keys[index]), scores[index]))
                if self._should_audit():
                    audit_positions.append(index)
        if full_positions:
            fresh += triage.fill(full_positions, service._dispatch_missing(
                base, token, columns, full_positions, y, target_token,
                triage.keys,
            ))
            for index in full_positions:
                self._observe_surrogate(triage, index, scores[index])
        if audit_positions:
            audit_positions.sort()
            true_scores = service._dispatch_missing(
                base, token, columns, audit_positions, y, target_token,
                triage.keys,
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
                fresh.append((triage.keys[index], float(true_score)))
                self._observe_surrogate(triage, index, float(true_score))
        return fresh

    def _observe_surrogate(
        self, triage: "_Triage", index: int, score: float
    ) -> None:
        """Fit one real full-CV score into the surrogate (when gated)."""
        key = triage.surrogate_keys.get(index)
        if key is not None:
            self.surrogate.observe(key, score)
