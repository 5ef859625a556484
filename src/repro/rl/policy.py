"""Multi-agent REINFORCE controller (Equations 11–12).

Coordinates the per-feature agents: collects one trajectory per agent,
assigns λ-returns as the learning signal, and performs the REINFORCE
update of Equation 12 with a moving-average baseline (the Monte-Carlo
estimate over the batch the paper's ``1/m`` factor corresponds to).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .agent import RecurrentPolicyAgent
from .returns import forward_lambda_returns

__all__ = ["TrajectoryStep", "MultiAgentController"]


@dataclass
class TrajectoryStep:
    """One (state, action, reward) triple recorded during an epoch."""

    agent_index: int
    state: np.ndarray
    action: int
    reward: float = 0.0
    extras: dict = field(default_factory=dict)


class MultiAgentController:
    """N independent recurrent agents updated with REINFORCE."""

    def __init__(
        self,
        n_agents: int,
        n_actions: int,
        state_dim: int,
        lr: float = 0.01,
        gamma: float = 0.9,
        lam: float = 1.0,
        entropy_coef: float = 0.01,
        seed: int = 0,
    ) -> None:
        if n_agents < 1:
            raise ValueError("need at least one agent")
        if not 0.0 <= lam <= 1.0:
            raise ValueError("lam must be in [0, 1]")
        self.n_agents = n_agents
        self.gamma = gamma
        self.lam = lam
        self.agents = [
            RecurrentPolicyAgent(
                n_actions=n_actions,
                state_dim=state_dim,
                lr=lr,
                entropy_coef=entropy_coef,
                seed=seed + index,
            )
            for index in range(n_agents)
        ]
        self._baseline = 0.0
        self._baseline_momentum = 0.9

    def act(self, agent_index: int, state: np.ndarray) -> int:
        """Sample an action for one agent."""
        return self._agent(agent_index).act(state)

    def snapshot(self) -> dict:
        """Deep copy of the whole controller state.

        Captures every agent (weights, carried distribution, optimizer
        moments, sampling RNG) plus the shared reward baseline, so
        :meth:`restore`-ing it replays the exact actions the controller
        would have produced from the snapshot point.  No search path
        calls it: the engine's speculation keeps the sweep it
        generated instead of rewinding.
        """
        return {
            "agents": [agent.state_snapshot() for agent in self.agents],
            "baseline": self._baseline,
        }

    def restore(self, state: dict) -> None:
        """Rewind the controller to a :meth:`snapshot`."""
        if len(state["agents"]) != self.n_agents:
            raise ValueError(
                f"snapshot holds {len(state['agents'])} agents, "
                f"controller has {self.n_agents}"
            )
        for agent, agent_state in zip(self.agents, state["agents"]):
            agent.state_restore(agent_state)
        self._baseline = state["baseline"]

    def action_distribution(self, agent_index: int, state: np.ndarray) -> np.ndarray:
        return self._agent(agent_index).distribution(state)

    def reset_episode(self) -> None:
        """Reset every agent's carried distribution to uniform."""
        for agent in self.agents:
            agent.reset_hidden()

    def update_from_trajectories(
        self, steps: list[TrajectoryStep]
    ) -> float:
        """REINFORCE update over one epoch of recorded steps (Eq. 12).

        Steps are grouped per agent, per-agent forward-view λ-returns
        (U^λ of Eq. 10) are computed, a shared moving baseline is
        subtracted, and each agent takes one gradient step per recorded
        action.  Returns the mean loss across updates.
        """
        if not steps:
            raise ValueError("no trajectory steps to learn from")
        by_agent: dict[int, list[TrajectoryStep]] = {}
        for step in steps:
            by_agent.setdefault(step.agent_index, []).append(step)

        all_rewards = np.array([step.reward for step in steps])
        batch_mean = float(all_rewards.mean())
        self._baseline = (
            self._baseline_momentum * self._baseline
            + (1.0 - self._baseline_momentum) * batch_mean
        )

        losses = []
        for agent_index, agent_steps in by_agent.items():
            rewards = [step.reward for step in agent_steps]
            returns = forward_lambda_returns(rewards, self.gamma, self.lam)
            agent = self._agent(agent_index)
            for step, value in zip(agent_steps, returns):
                advantage = float(value) - self._baseline
                losses.append(agent.update(step.state, step.action, advantage))
        return float(np.mean(losses))

    def bias_agent(self, agent_index: int, action: int, strength: float = 1.0) -> None:
        """Transplant prior knowledge into one agent's policy."""
        self._agent(agent_index).bias_toward(action, strength)

    def _agent(self, agent_index: int) -> RecurrentPolicyAgent:
        if not 0 <= agent_index < self.n_agents:
            raise IndexError(f"agent index {agent_index} out of range")
        return self.agents[agent_index]
