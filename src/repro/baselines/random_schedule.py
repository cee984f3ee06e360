"""The naive randomized baseline (Chen et al., ICDCS 2014, Section 1.2).

Each agent hops on a channel drawn uniformly at random from its set in
every slot.  The paper notes this gives rendezvous in
``O(|S_i||S_j| log n)`` slots *with high probability* — but it needs a
random source and gives no deterministic guarantee, which is exactly the
gap the paper's deterministic constructions close.

The schedule is seeded so experiments are reproducible; distinct agents
should receive distinct seeds (the simulator handles this).  A finite
pseudo-random tape of ``tape_length`` slots is cycled — long enough that
experiments never wrap in practice.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.schedule import Schedule, validated_channels

__all__ = ["RandomSchedule"]


class RandomSchedule(Schedule):
    """Uniform random hopping over the agent's channel set."""

    def __init__(
        self,
        channels: Iterable[int],
        n: int,
        seed: int = 0,
        tape_length: int = 1 << 18,
    ):
        ordered = validated_channels(channels, n)
        if tape_length <= 0:
            raise ValueError("tape_length must be positive")
        self.n = n
        self.seed = seed
        self.sorted_channels = ordered
        self.channels = frozenset(ordered)
        rng = np.random.default_rng(seed)
        picks = rng.integers(0, len(ordered), size=tape_length)
        self._tape = np.asarray(ordered, dtype=np.int64)[picks]
        self.period = tape_length

    def channel_at(self, t: int) -> int:
        """Channel at slot ``t``: the seeded tape, read cyclically."""
        return int(self._tape[t % self.period])

    def _period_array(self) -> np.ndarray:
        return self._tape
