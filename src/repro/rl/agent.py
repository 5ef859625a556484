"""Per-feature recurrent policy agents (Figure 4, Equation 1).

Each original feature owns one agent.  The agent is a small recurrent
network whose hidden state *is* the action probability distribution
``h_t`` (the paper's design): at round t it consumes a fixed-size
summary of the current state (its feature subgroup) together with
``h_{t-1}``, and emits the updated distribution over the nine operator
actions.

The update implements the three terms of Equation 1:

    L(theta, h, r) = log(argmax(h)) * r  +  log(h) * h  +  ||theta||^2

read as (i) the REINFORCE policy-gradient term for the taken action
weighted by the return, (ii) a (negative-)entropy regularizer on the
distribution, and (iii) L2 weight decay.  Gradients are computed
analytically (truncated through the recurrent input, as the paper's
round-by-round distribution update implies) and applied with Adam.
"""

from __future__ import annotations

import numpy as np

from ..ml.optim import Adam

__all__ = ["RecurrentPolicyAgent"]


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max()
    exp = np.exp(shifted)
    return exp / exp.sum()


class RecurrentPolicyAgent:
    """A recurrent softmax policy over a discrete action space.

    Parameters
    ----------
    n_actions:
        Size of the action space (9 paper operators by default usage).
    state_dim:
        Length of the state summary vector fed at each round.
    lr:
        Adam learning rate (paper default 0.01).
    entropy_coef / l2_coef:
        Weights of the second and third loss terms of Equation 1.
    """

    def __init__(
        self,
        n_actions: int,
        state_dim: int,
        lr: float = 0.01,
        entropy_coef: float = 0.01,
        l2_coef: float = 1e-4,
        seed: int = 0,
    ) -> None:
        if n_actions < 2:
            raise ValueError("need at least two actions")
        if state_dim < 1:
            raise ValueError("state_dim must be positive")
        self.n_actions = n_actions
        self.state_dim = state_dim
        self.entropy_coef = entropy_coef
        self.l2_coef = l2_coef
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(state_dim)
        # Logits = W_x x + U h_prev + b.
        self._W = rng.normal(0.0, scale, size=(n_actions, state_dim))
        self._U = rng.normal(0.0, 1.0 / np.sqrt(n_actions), size=(n_actions, n_actions))
        self._b = np.zeros(n_actions)
        self._optimizer = Adam(lr=lr)
        # First round: uniform distribution (paper, Section II).
        self.h = np.full(n_actions, 1.0 / n_actions)
        self._rng = rng

    # -- forward -----------------------------------------------------------
    def distribution(self, state: np.ndarray) -> np.ndarray:
        """Update and return the action distribution h_t for a state."""
        x = np.asarray(state, dtype=np.float64).reshape(-1)
        if x.shape[0] != self.state_dim:
            raise ValueError(
                f"state has dim {x.shape[0]}, agent expects {self.state_dim}"
            )
        logits = self._W @ x + self._U @ self.h + self._b
        self._last_state = x
        self._last_h_prev = self.h.copy()
        self.h = _softmax(logits)
        return self.h

    def act(self, state: np.ndarray) -> int:
        """Sample an action from the updated distribution."""
        probabilities = self.distribution(state)
        return int(self._rng.choice(self.n_actions, p=probabilities))

    def greedy_action(self, state: np.ndarray) -> int:
        """argmax action (used at exploitation time)."""
        return int(np.argmax(self.distribution(state)))

    # -- learning ------------------------------------------------------------
    def update(self, state: np.ndarray, action: int, advantage: float) -> float:
        """One Equation-1 gradient step; returns the scalar loss value.

        ``advantage`` is the (possibly baselined) return U assigned to
        ``action``.  Positive advantage raises the action's probability.
        """
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} out of range")
        if not np.isfinite(advantage):
            raise ValueError("advantage must be finite")
        x = np.asarray(state, dtype=np.float64).reshape(-1)
        h_prev = self.h.copy()
        logits = self._W @ x + self._U @ h_prev + self._b
        probabilities = _softmax(logits)

        # Term 1: -log pi(a) * advantage  (gradient: (pi - onehot) * adv).
        one_hot = np.zeros(self.n_actions)
        one_hot[action] = 1.0
        grad_logits = (probabilities - one_hot) * advantage

        # Term 2: negative entropy  sum h log h  (pushes toward uniform
        # when entropy_coef > 0, fighting premature collapse).
        log_p = np.log(np.maximum(probabilities, 1e-12))
        entropy_grad = probabilities * (
            log_p + 1.0 - np.sum(probabilities * (log_p + 1.0))
        )
        grad_logits += self.entropy_coef * entropy_grad

        grad_W = np.outer(grad_logits, x) + self.l2_coef * self._W
        grad_U = np.outer(grad_logits, h_prev) + self.l2_coef * self._U
        grad_b = grad_logits.copy()
        self._optimizer.step([self._W, self._U, self._b], [grad_W, grad_U, grad_b])

        loss = (
            -float(np.log(max(probabilities[action], 1e-12))) * advantage
            + self.entropy_coef * float(np.sum(probabilities * log_p))
            + self.l2_coef
            * float(np.sum(self._W**2) + np.sum(self._U**2))
        )
        return loss

    # -- state capture -------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Deep copy of everything :meth:`act` and :meth:`update` touch.

        Covers the weights, the carried distribution ``h``, the Adam
        moments, and the sampling RNG — restoring the snapshot makes
        the agent replay the exact action sequence it would have
        produced from the snapshot point.  Only
        :meth:`MultiAgentController.snapshot` calls it.
        """
        return {
            "W": self._W.copy(),
            "U": self._U.copy(),
            "b": self._b.copy(),
            "h": self.h.copy(),
            "optimizer": self._optimizer.state_snapshot(),
            "rng": self._rng.bit_generator.state,
        }

    def state_restore(self, state: dict) -> None:
        """Rewind the agent to a :meth:`state_snapshot`."""
        self._W = state["W"].copy()
        self._U = state["U"].copy()
        self._b = state["b"].copy()
        self.h = state["h"].copy()
        self._optimizer.state_restore(state["optimizer"])
        self._rng.bit_generator.state = state["rng"]

    def bias_toward(self, action: int, strength: float = 1.0) -> None:
        """Nudge the policy prior toward one action.

        Used by the two-stage trainer to transplant replay-buffer
        knowledge into the stage-2 starting policy.
        """
        if not 0 <= action < self.n_actions:
            raise ValueError(f"action {action} out of range")
        self._b[action] += strength

    def reset_hidden(self) -> None:
        """Return the carried distribution to uniform (episode start)."""
        self.h = np.full(self.n_actions, 1.0 / self.n_actions)

    def parameter_norm(self) -> float:
        """L2 norm of all weights (the third Eq. 1 term's magnitude)."""
        return float(
            np.sqrt(np.sum(self._W**2) + np.sum(self._U**2) + np.sum(self._b**2))
        )
