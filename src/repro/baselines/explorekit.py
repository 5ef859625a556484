"""ExploreKit baseline (Katz et al., ICDM 2016) — generate-all-and-rank.

Related-work method (paper §V-A, reference [19]): exhaustively generate
candidate features by applying every applicable transformation, rank
candidates with a meta-feature-based scorer, and greedily evaluate the
top-ranked ones on the downstream task until the budget runs out.

The ranker here is the library's :class:`MetaFeatureExtractor`
descriptors fed to a logistic scorer trained on the same public-corpus
labelling the FPE model uses — ExploreKit's "candidate features-based
meta-features" in this codebase's vocabulary.  The method demonstrates
the generate-everything end of the efficiency spectrum the paper
argues against: candidate counts explode combinatorially with feature
count.
"""

from __future__ import annotations

import copy

import numpy as np

from ..core.engine import AFEEngine, AFEResult, EngineConfig, SearchRun
from ..core.filters import KeepAllFilter
from ..datasets.generators import TabularTask
from ..hashing.meta_features import MetaFeatureExtractor
from ..ml.base import sanitize_matrix
from ..ml.linear import LogisticRegression
from ..operators.registry import OperatorRegistry, default_registry

__all__ = ["ExploreKit"]


class ExploreKit(AFEEngine):
    """Exhaustive candidate generation with meta-feature ranking."""

    method_name = "ExploreKit"

    def __init__(
        self,
        config: EngineConfig | None = None,
        evaluation_budget: int = 20,
    ) -> None:
        if evaluation_budget < 1:
            raise ValueError("evaluation_budget must be positive")
        super().__init__(KeepAllFilter(), copy.deepcopy(config))
        self.evaluation_budget = evaluation_budget
        self.registry: OperatorRegistry = default_registry()
        self.extractor = MetaFeatureExtractor(d=MetaFeatureExtractor.N_BASE)
        self._ranker: LogisticRegression | None = None

    # -- offline ranking model --------------------------------------------
    def pretrain(self, corpus: list[TabularTask]) -> "ExploreKit":
        """Train the candidate ranker on corpus add-one gains."""
        from ..core.fpe import label_generated_features

        descriptors, labels = [], []
        for task in corpus:
            for column, label in label_generated_features(
                task, self._make_evaluator(task), thre=self.config.thre,
                n_candidates=8, seed=self.config.seed,
            ):
                descriptors.append(self.extractor.describe(column))
                labels.append(label)
        if descriptors and len(set(labels)) >= 2:
            self._ranker = LogisticRegression(n_iter=300, lr=0.3)
            self._ranker.fit(np.vstack(descriptors), np.array(labels))
        return self

    def _rank_score(self, column: np.ndarray) -> float:
        """Higher = more promising candidate."""
        if self._ranker is None:
            # Untrained ranker degrades to variance ordering.
            return float(np.std(column))
        descriptor = self.extractor.describe(column).reshape(1, -1)
        proba = self._ranker.predict_proba(descriptor)
        classes = list(self._ranker.classes_)
        positive = classes.index(1) if 1 in classes else len(classes) - 1
        return float(proba[0, positive])

    # -- generate everything -------------------------------------------------
    def _generate_all(
        self, working: TabularTask
    ) -> list[tuple[str, np.ndarray]]:
        """Every unary(column) and binary(column_i, column_j) candidate."""
        candidates: list[tuple[str, np.ndarray]] = []
        names = working.X.columns
        columns = {name: np.asarray(working.X[name]) for name in names}
        for index in self.registry.unary_indices:
            operator = self.registry.by_index(index)
            for name in names:
                values = operator.apply(columns[name])
                if np.ptp(values) > 1e-12:
                    candidates.append((operator.describe(name), values))
        for index in self.registry.binary_indices:
            operator = self.registry.by_index(index)
            for i, a in enumerate(names):
                for b in names[i + 1 :]:
                    values = operator.apply(columns[a], columns[b])
                    if np.ptp(values) > 1e-12:
                        candidates.append((operator.describe(a, b), values))
        return candidates

    def _search(self, run: SearchRun) -> AFEResult:
        working, service = run.working, run.service
        result = run.open_result(self.method_name)
        candidates = self._generate_all(working)
        result.n_generated = len(candidates)
        ranked = sorted(
            candidates, key=lambda pair: self._rank_score(pair[1]), reverse=True
        )
        current = working.X.to_array()
        current_names = list(working.X.columns)
        current_score = best_score = result.base_score
        current_token = service.token(current)
        for step, (name, values) in enumerate(
            ranked[: self.evaluation_budget]
        ):
            # The base token only changes when a candidate is
            # accepted, so each trial hashes just its own column.
            score = service.score_batch(
                current, [values], working.y, base_token=current_token
            )[0]
            if score > current_score:
                current = sanitize_matrix(np.column_stack([current, values]))
                current_token = service.token(current)
                current_score = score
                current_names.append(name)
            if score > best_score:
                best_score = score
            run.record_epoch(result, step, best_score)
        result.best_score = best_score
        result.selected_features = current_names
        result.selected_matrix = current
        return result
