"""FidelityLadder: rung-0 fold plans and successive-halving promotion."""

import numpy as np
import pytest

from repro.fidelity import FidelityLadder, FidelitySpec
from repro.fidelity.ladder import subsample_fold_plan
from repro.ml.model_selection import plan_folds


def _full_plan(n=120, n_splits=4):
    y = (np.arange(n) % 2).astype(np.float64)
    return plan_folds(y, n_splits=n_splits, seed=0, stratified=True)


class TestSubsampleFoldPlan:
    def test_truncates_to_leading_folds(self):
        plan = _full_plan()
        cheap = subsample_fold_plan(plan, n_folds=2, row_fraction=1.0)
        assert len(cheap) == 2
        for (ct, cv), (ft, fv) in zip(cheap, plan[:2]):
            assert np.array_equal(ct, ft) and np.array_equal(cv, fv)

    def test_row_fraction_subsamples_both_sides(self):
        plan = _full_plan()
        cheap = subsample_fold_plan(plan, n_folds=1, row_fraction=0.5, seed=3)
        (train, test), (full_train, full_test) = cheap[0], plan[0]
        assert train.shape[0] == round(full_train.shape[0] * 0.5)
        assert test.shape[0] == round(full_test.shape[0] * 0.5)
        # Surviving indices come from the full fold and stay sorted
        # (row order matters to seeded models).
        assert set(train) <= set(full_train)
        assert set(test) <= set(full_test)
        assert np.array_equal(train, np.sort(train))

    def test_deterministic_per_seed(self):
        plan = _full_plan()
        a = subsample_fold_plan(plan, n_folds=1, row_fraction=0.5, seed=3)
        b = subsample_fold_plan(plan, n_folds=1, row_fraction=0.5, seed=3)
        c = subsample_fold_plan(plan, n_folds=1, row_fraction=0.5, seed=4)
        assert np.array_equal(a[0][0], b[0][0])
        assert not np.array_equal(a[0][0], c[0][0])

    def test_keeps_at_least_two_rows(self):
        plan = _full_plan(n=20, n_splits=5)
        cheap = subsample_fold_plan(plan, n_folds=1, row_fraction=0.01)
        assert cheap[0][0].shape[0] >= 2
        assert cheap[0][1].shape[0] >= 2

    def test_rejects_bad_inputs(self):
        plan = _full_plan()
        with pytest.raises(ValueError):
            subsample_fold_plan((), n_folds=1)
        with pytest.raises(ValueError):
            subsample_fold_plan(plan, row_fraction=0.0)
        with pytest.raises(ValueError):
            subsample_fold_plan(plan, row_fraction=1.5)


class TestPromotion:
    def _ladder(self, promote=0.25):
        spec = FidelitySpec.parse(f"ladder:promote={promote}")
        return FidelityLadder(spec, seed=0)

    def test_requires_ladder_mode(self):
        with pytest.raises(ValueError):
            FidelityLadder(FidelitySpec.parse("surrogate"))

    def test_budget_is_ceil_with_floor_of_one(self):
        ladder = self._ladder(promote=0.25)
        assert ladder.n_promoted(0) == 0
        assert ladder.n_promoted(1) == 1
        assert ladder.n_promoted(2) == 1
        assert ladder.n_promoted(8) == 2
        assert ladder.n_promoted(9) == 3

    def test_promotes_top_scores_preserving_batch_order(self):
        ladder = self._ladder(promote=0.5)
        promoted, rejected = ladder.promote([0.1, 0.9, 0.3, 0.8])
        assert promoted == [1, 3]
        assert rejected == [0, 2]

    def test_ties_break_by_batch_position(self):
        ladder = self._ladder(promote=0.25)
        promoted, rejected = ladder.promote([0.5, 0.5, 0.5, 0.5])
        assert promoted == [0]
        assert rejected == [1, 2, 3]

    def test_promote_everything_when_budget_covers_batch(self):
        ladder = self._ladder(promote=1.0)
        promoted, rejected = ladder.promote([0.2, 0.1])
        assert promoted == [0, 1] and rejected == []

    def test_rung0_plan_cached_per_target(self):
        ladder = FidelityLadder(
            FidelitySpec.parse("ladder:folds=1,rows=0.5"), seed=0
        )
        plan = _full_plan()
        first = ladder.rung0_folds(plan, "target-a")
        again = ladder.rung0_folds(plan, "target-a")
        assert first is again
