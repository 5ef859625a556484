"""AutoFSR baseline: random generation + feature selection.

AutoFS (Fan et al., ICDM 2020) is a feature-*selection* RL framework
that cannot generate features, so the paper pairs it with random
feature generation ("we generated features randomly and selected
features by AutoFS", Section IV-A3) and finds that "the randomly
generated feature set does not have enough good features".

Implementation: the :class:`~repro.baselines.RandomAFE` search under
the paper's name — uniform-random actions, every candidate evaluated
downstream, a candidate kept when it raises the score.  AutoFS's own
reinforced selection step is not implemented, so this method returns
exactly what RandomAFE does.
"""

from __future__ import annotations

from .random_afe import RandomAFE

__all__ = ["AutoFSR"]


class AutoFSR(RandomAFE):
    """Random generation + greedy score-gain selection."""

    method_name = "AutoFSR"
