"""Transformation Graph baseline (Khurana et al., AAAI 2018).

Related-work method (paper §V-A, reference [5]): feature engineering as
exploration of a directed acyclic graph whose nodes are *whole dataset
states* (a set of feature columns) and whose edges apply one
transformation function to every column of the source node.  Q-learning
over (node, transformation) pairs learns a performance-guided traversal
policy under a fixed node budget.

The per-node evaluation cost is the same cross-validated downstream
task as everywhere else, so this baseline slots into the harness and
its evaluation counts are comparable with Table IV's.
"""

from __future__ import annotations

import copy

import networkx as nx
import numpy as np

from ..core.engine import AFEEngine, AFEResult, EngineConfig, SearchRun
from ..core.filters import KeepAllFilter
from ..ml.base import sanitize_matrix
from ..operators.registry import OperatorRegistry, default_registry

__all__ = ["TransformationGraph"]


class TransformationGraph(AFEEngine):
    """DAG exploration with tabular Q-learning.

    Parameters
    ----------
    config:
        Shared engine configuration; ``n_epochs`` bounds the number of
        expansion steps and ``max_agents`` the feature pre-filter.
    max_nodes:
        Hard budget on dataset states the graph may contain.
    epsilon:
        Exploration rate of the epsilon-greedy Q policy.
    alpha:
        Q-learning step size.
    """

    method_name = "TransGraph"

    def __init__(
        self,
        config: EngineConfig | None = None,
        max_nodes: int = 24,
        epsilon: float = 0.3,
        alpha: float = 0.5,
    ) -> None:
        if max_nodes < 2:
            raise ValueError("max_nodes must be at least 2")
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        super().__init__(KeepAllFilter(), copy.deepcopy(config))
        self.max_nodes = max_nodes
        self.epsilon = epsilon
        self.alpha = alpha
        self.registry: OperatorRegistry = default_registry()

    # -- transformations over whole nodes ---------------------------------
    def _apply_to_node(
        self, matrix: np.ndarray, operator_index: int
    ) -> np.ndarray:
        """Apply one operator column-wise to a dataset state.

        Unary operators map each column; binary operators combine each
        column with the node's first column (Khurana et al. pair
        columns positionally; one anchor column keeps growth linear).
        """
        operator = self.registry.by_index(operator_index)
        columns = []
        anchor = matrix[:, 0]
        for j in range(matrix.shape[1]):
            if operator.arity == 1:
                columns.append(operator.apply(matrix[:, j]))
            else:
                columns.append(operator.apply(matrix[:, j], anchor))
        return sanitize_matrix(np.column_stack(columns))

    # -- main loop -----------------------------------------------------------
    def _search(self, run: SearchRun) -> AFEResult:
        working, service = run.working, run.service
        rng = np.random.default_rng(self.config.seed)
        n_actions = len(self.registry)

        graph = nx.DiGraph()
        root_matrix = working.X.to_array()
        result = run.open_result(self.method_name)
        graph.add_node(0, matrix=root_matrix, score=result.base_score, depth=0)
        q_values: dict[tuple[int, int], float] = {}
        best_node, best_score = 0, result.base_score

        steps = self.config.n_epochs * self.config.transforms_per_agent
        for step in range(steps):
            if graph.number_of_nodes() >= self.max_nodes:
                break
            # Pick a frontier (node, action) pair epsilon-greedily by Q.
            candidates = [
                (node, action)
                for node in graph.nodes
                for action in range(n_actions)
                if not graph.has_edge(node, f"{node}:{action}")
                and graph.nodes[node]["depth"] < self.config.max_order
            ]
            candidates = [
                (node, action)
                for node, action in candidates
                if (node, action) not in {
                    (u, graph.edges[u, v]["action"]) for u, v in graph.edges
                }
            ]
            if not candidates:
                break
            if rng.random() < self.epsilon:
                node, action = candidates[int(rng.integers(0, len(candidates)))]
            else:
                node, action = max(
                    candidates, key=lambda pair: q_values.get(pair, 0.0)
                )
            parent = graph.nodes[node]
            child_matrix = np.column_stack(
                [parent["matrix"], self._apply_to_node(parent["matrix"], action)]
            )
            # Cap width so node evaluation stays bounded.
            if child_matrix.shape[1] > 4 * root_matrix.shape[1]:
                child_matrix = child_matrix[:, -4 * root_matrix.shape[1]:]
            # Whole-node states have no shared base; key on full content.
            score = service.evaluate(child_matrix, working.y)
            result.n_generated += child_matrix.shape[1] - parent["matrix"].shape[1]
            child = graph.number_of_nodes()
            graph.add_node(
                child, matrix=child_matrix, score=score,
                depth=parent["depth"] + 1,
            )
            graph.add_edge(node, child, action=action)
            reward = score - parent["score"]
            key = (node, action)
            q_values[key] = (1 - self.alpha) * q_values.get(key, 0.0) + (
                self.alpha * reward
            )
            if score > best_score:
                best_score, best_node = score, child
            run.record_epoch(result, step, best_score)

        result.best_score = best_score
        best_depth = graph.nodes[best_node]["depth"]
        result.selected_features = [
            f"tg_node{best_node}_col{j}"
            for j in range(graph.nodes[best_node]["matrix"].shape[1])
        ]
        result.selected_matrix = graph.nodes[best_node]["matrix"]
        # Expose the traversal structure for inspection/tests.
        self.graph_ = graph
        self.q_values_ = q_values
        self.best_depth_ = best_depth
        return result
