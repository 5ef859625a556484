"""Candidate-feature filters: who decides what reaches the downstream task.

The engine is agnostic about the discriminator in Figure 3.  Three
strategies cover the paper's methods and ablations:

* :class:`FPEFilter` — the contribution: pre-trained FPE probability.
* :class:`RandomFilter` — the E-AFE_D ablation: drop at random with the
  same expected rate, no learned knowledge.
* :class:`KeepAllFilter` — NFS-style: every generated feature is
  formally evaluated.
"""

from __future__ import annotations

import numpy as np

from .fpe import FPEModel

__all__ = ["CandidateFilter", "FPEFilter", "RandomFilter", "KeepAllFilter"]


class CandidateFilter:
    """Interface: probability that a candidate feature is worth evaluating."""

    def proba(self, column: np.ndarray) -> float:
        raise NotImplementedError

    def keep(self, column: np.ndarray) -> bool:
        return self.proba(column) >= 0.5

    def proba_batch(self, columns: list[np.ndarray]) -> np.ndarray:
        """Per-column keep probabilities for a whole sweep.

        The default delegates to :meth:`proba` column by column, in
        order — so stateful filters (e.g. :class:`RandomFilter`'s RNG)
        behave identically whether the caller batches or loops.
        Vectorizable filters override this.
        """
        return np.array([self.proba(column) for column in columns], dtype=float)

    def keep_batch(self, columns: list[np.ndarray]) -> np.ndarray:
        """Boolean keep decisions for a whole sweep (see proba_batch)."""
        if not columns:
            return np.zeros(0, dtype=bool)
        return self.proba_batch(columns) >= 0.5


class FPEFilter(CandidateFilter):
    """Filter by the pre-trained feature-validness classifier."""

    def __init__(self, model: FPEModel) -> None:
        if not model.is_fitted:
            raise ValueError("FPE model must be fitted before filtering")
        self.model = model

    def proba(self, column: np.ndarray) -> float:
        return self.model.predict_proba(column)

    def proba_batch(self, columns: list[np.ndarray]) -> np.ndarray:
        """One vectorized classifier call over the stacked signatures.

        The classifier inference runs once per sweep instead of once
        per candidate.  Per-row probabilities agree with :meth:`proba`
        to within one floating-point ULP (BLAS may reorder the dot-
        product reduction for batched operands); keep *decisions* are
        the quantity consumers rely on.
        """
        if not columns:
            return np.zeros(0, dtype=float)
        signatures = self.model.signatures(columns)
        return np.asarray(
            self.model.predict_proba_signature(signatures), dtype=float
        )


class RandomFilter(CandidateFilter):
    """E-AFE_D: coin-flip dropout at a fixed keep rate."""

    def __init__(self, keep_rate: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= keep_rate <= 1.0:
            raise ValueError("keep_rate must be in [0, 1]")
        self.keep_rate = keep_rate
        self._rng = np.random.default_rng(seed)

    def proba(self, column: np.ndarray) -> float:
        # A fresh draw per candidate: 1.0 keeps, 0.0 drops.
        return 1.0 if self._rng.random() < self.keep_rate else 0.0


class KeepAllFilter(CandidateFilter):
    """No pre-selection: the traditional AFE pipeline."""

    def proba(self, column: np.ndarray) -> float:
        return 1.0
