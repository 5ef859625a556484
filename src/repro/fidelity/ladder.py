"""Successive-halving fidelity ladder (SAFE-style cheap pre-evaluation).

SAFE makes industrial-scale candidate pools affordable by filtering
with cheap proxies before paying full evaluation; the ladder applies
the same economics *after* the FPE filter, on the candidates that are
about to pay a cross-validated downstream fit.  Rung 0 scores every
batch survivor on a truncated, row-subsampled version of the run's own
fold plan (:func:`subsample_fold_plan` — the cheap estimate uses the
``plan_folds`` splits and the service's serial fit loop exactly like a
full fit, so it costs roughly ``rung_folds/n_splits · row_fraction``
of one).  Only the top
``promote_fraction`` of the batch by rung-0 score is promoted to full
CV through whatever backend the service runs (serial or the
shared-memory pool); the rest report their rung-0 estimate, tagged into
their own cache-key namespace so a low-fidelity score can never be
mistaken for a full one.
"""

from __future__ import annotations

import numpy as np

from .config import FidelitySpec

__all__ = ["FidelityLadder", "subsample_fold_plan"]

FoldPlan = tuple[tuple[np.ndarray, np.ndarray], ...]


def subsample_fold_plan(
    plan: FoldPlan,
    n_folds: int = 1,
    row_fraction: float = 1.0,
    seed: int = 0,
) -> FoldPlan:
    """Derive a low-fidelity plan from a full fold plan.

    Rung 0 of the fidelity ladder evaluates candidates on the first
    ``n_folds`` folds of the *full* plan with ``row_fraction`` of each
    fold's train and test rows kept — so the cheap estimate uses the
    exact split family the full evaluation will, only less of it.  The
    subsample is a seeded permutation (deterministic per fold shape and
    position, independent of candidate content), and surviving indices
    are re-sorted so row order — which seeded models are sensitive to —
    matches a genuine smaller fold.  At ``row_fraction=1.0`` the rung
    is simply plan truncation.
    """
    if not plan:
        raise ValueError("fold plan is empty")
    folds = plan[: max(1, int(n_folds))]
    if not 0.0 < row_fraction <= 1.0:
        raise ValueError("row_fraction must be in (0, 1]")
    if row_fraction >= 1.0:
        return tuple(folds)
    reduced = []
    for position, (train, test) in enumerate(folds):
        reduced.append(
            (
                _subsample_indices(train, row_fraction, seed, position, 0),
                _subsample_indices(test, row_fraction, seed, position, 1),
            )
        )
    return tuple(reduced)


def _subsample_indices(
    indices: np.ndarray, fraction: float, seed: int, position: int, side: int
) -> np.ndarray:
    """Keep a sorted seeded fraction of one fold side (at least 2 rows)."""
    indices = np.asarray(indices)
    keep = max(2, int(round(indices.shape[0] * fraction)))
    if keep >= indices.shape[0]:
        return indices
    rng = np.random.default_rng([int(seed) & 0xFFFFFFFF, position, side])
    chosen = rng.permutation(indices.shape[0])[:keep]
    return indices[np.sort(chosen)]


class FidelityLadder:
    """Rung-0 plan derivation and promotion selection for one run."""

    def __init__(self, spec: FidelitySpec, seed: int = 0) -> None:
        if not spec.ladder:
            raise ValueError("spec does not enable the ladder")
        self.spec = spec
        self.seed = int(seed)
        # One target per run in practice; keyed on the target token so a
        # service scoring several targets never mixes subsamples.
        self._plans: dict[str, FoldPlan] = {}

    def rung0_folds(self, full_plan: FoldPlan, target_token: str) -> FoldPlan:
        """The cheap fold plan rung 0 evaluates candidates on."""
        plan = self._plans.get(target_token)
        if plan is None:
            plan = subsample_fold_plan(
                full_plan,
                n_folds=self.spec.rung_folds,
                row_fraction=self.spec.row_fraction,
                seed=self.seed,
            )
            if len(self._plans) >= 64:  # bounded: one target per run in practice
                self._plans.pop(next(iter(self._plans)))
            self._plans[target_token] = plan
        return plan

    def n_promoted(self, n_candidates: int) -> int:
        """Promotion budget for a batch (at least one, never more than all)."""
        if n_candidates <= 0:
            return 0
        budget = int(np.ceil(n_candidates * self.spec.promote_fraction))
        return min(n_candidates, max(1, budget))

    def promote(self, rung0_scores: list[float]) -> tuple[list[int], list[int]]:
        """Split batch positions into (promoted, rejected) by rung-0 score.

        Promotion order is deterministic: descending rung-0 score with
        ties broken by batch position (stable sort on the negated
        scores), so identical batches always promote identically.
        Returned position lists preserve batch order.
        """
        count = len(rung0_scores)
        budget = self.n_promoted(count)
        if budget >= count:
            return list(range(count)), []
        order = np.argsort(
            -np.asarray(rung0_scores, dtype=np.float64), kind="stable"
        )
        chosen = set(order[:budget].tolist())
        promoted = [i for i in range(count) if i in chosen]
        rejected = [i for i in range(count) if i not in chosen]
        return promoted, rejected
