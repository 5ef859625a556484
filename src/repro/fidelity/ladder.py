"""Successive-halving fidelity ladder (SAFE-style cheap pre-evaluation).

SAFE makes industrial-scale candidate pools affordable by filtering
with cheap proxies before paying full evaluation; the ladder applies
the same economics *after* the FPE filter, on the candidates that are
about to pay a cross-validated downstream fit.  Rung 0 scores every
batch survivor on a truncated, row-subsampled version of the run's own
fold plan (:func:`repro.eval.folds.subsample_fold_plan` — the cheap
estimate reuses ``FoldCache``/``plan_folds`` splits and the service's
arena exactly like a full fit, so it costs roughly
``rung_folds/n_splits · row_fraction`` of one).  Only the top
``promote_fraction`` of the batch by rung-0 score is promoted to full
CV through whatever backend the service runs (serial or the
shared-memory pool); the rest report their rung-0 estimate, tagged into
their own cache-key namespace so a low-fidelity score can never be
mistaken for a full one.
"""

from __future__ import annotations

import numpy as np

from ..eval.folds import FoldPlan, subsample_fold_plan
from .config import FidelitySpec

__all__ = ["FidelityLadder"]


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
            if len(self._plans) >= 64:  # matches FoldCache's default bound
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
