"""Jump-Stay baseline — Lin, Liu, Chu, Leung (INFOCOM 2011).

Cited in the paper under study (Chen et al., ICDCS 2014) in Section 1.2
and Table 1 with ``O(n^3)`` asymmetric and ``O(n)`` symmetric
rendezvous time; the cubic global period is the baseline the paper's
coalition scenario (Section 1.3, |S| << n) is designed to escape.

Construction (channels 0-indexed): let ``P`` be the smallest prime
``P > n``.  Time is divided into *rounds* of ``3P`` slots: ``2P`` jump
slots followed by ``P`` stay slots.  Round ``m`` uses

* step ``r = (m mod (P-1)) + 1`` (cycling through ``1..P-1``) and
* start ``i = (m div (P-1)) mod P``;
* jump slot ``j`` plays channel ``(i + j*r) mod P``;
* stay slots play channel ``r``.

Channels ``>= n`` remap to ``c mod n``; unavailable channels project to
``available[c mod k]``.  The full pattern period is ``3P * P * (P-1)``,
which is the ``O(n^3)`` in Table 1.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.baselines.projection import project_onto_available
from repro.core.primes import smallest_prime_greater_than
from repro.core.schedule import Schedule

__all__ = [
    "JumpStaySchedule",
    "jump_stay_global_channel",
    "jump_stay_global_block",
    "jump_stay_global_values",
]


def jump_stay_global_channel(t: int, prime: int) -> int:
    """Channel of the global Jump-Stay sequence at slot ``t`` (in ``[0, P)``)."""
    if t < 0:
        raise ValueError(f"slot must be nonnegative, got {t}")
    round_index, offset = divmod(t, 3 * prime)
    step = (round_index % (prime - 1)) + 1
    start = (round_index // (prime - 1)) % prime
    if offset < 2 * prime:
        return (start + offset * step) % prime
    return step


def jump_stay_global_values(t: np.ndarray, prime: int) -> np.ndarray:
    """Global Jump-Stay channels at an arbitrary array of slot indices.

    The closed form of :func:`jump_stay_global_channel` evaluated
    elementwise over any index array (the construction is naturally
    periodic, so raw slot indices need no reduction).  Shared by
    :func:`jump_stay_global_block` (contiguous windows) and
    :meth:`JumpStaySchedule.channel_gather` (scattered tile rows).
    """
    t = np.asarray(t, dtype=np.int64)
    round_index, offset = np.divmod(t, 3 * prime)
    step = (round_index % (prime - 1)) + 1
    start_channel = (round_index // (prime - 1)) % prime
    jump = (start_channel + offset * step) % prime
    return np.where(offset < 2 * prime, jump, step)


def jump_stay_global_block(start: int, stop: int, prime: int) -> np.ndarray:
    """Global Jump-Stay channels for slots ``start .. stop-1``, vectorized.

    The closed form of :func:`jump_stay_global_channel` over a whole
    window — the sweep kernel generates its tiles from this, so
    Jump-Stay's cubic period never needs to be materialized.
    """
    if stop < start:
        raise ValueError(f"empty window: start={start}, stop={stop}")
    return jump_stay_global_values(np.arange(start, stop, dtype=np.int64), prime)


class JumpStaySchedule(Schedule):
    """Jump-Stay projected onto an agent's available channel set."""

    def __init__(self, channels: Iterable[int], n: int):
        ordered = sorted(set(int(c) for c in channels))
        if not ordered:
            raise ValueError("channel set must be nonempty")
        if ordered[0] < 0 or ordered[-1] >= n:
            raise ValueError(f"channels {ordered} outside universe [0, {n})")
        self.n = n
        self.prime = smallest_prime_greater_than(n)
        self.sorted_channels = tuple(ordered)
        self.channels = frozenset(ordered)
        self.period = 3 * self.prime * self.prime * (self.prime - 1)

    def channel_at(self, t: int) -> int:
        """Channel at slot ``t``: the global sequence, projected."""
        c = jump_stay_global_channel(t % self.period, self.prime)
        c %= self.n
        if c in self.channels:
            return c
        k = len(self.sorted_channels)
        return self.sorted_channels[c % k]

    def channel_block(self, start: int, stop: int) -> np.ndarray:
        """Vectorized window: closed-form global channels, projected.

        This is what keeps Jump-Stay sweepable past ``n = 128``, where
        its cubic period exceeds the schedule cache limit.
        """
        raw = jump_stay_global_block(start, stop, self.prime) % self.n
        return project_onto_available(raw, self.sorted_channels)

    def channel_gather(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized scattered access: closed-form channels, projected.

        A whole ``(shift row, time)`` tile of the sweep kernel costs
        one closed-form evaluation and one projection pass, instead of
        one ``channel_block`` call (and one ``np.isin``) per row.
        """
        raw = jump_stay_global_values(indices, self.prime) % self.n
        return project_onto_available(raw, self.sorted_channels)

    def _compute_period_array(self) -> np.ndarray:
        return self.channel_block(0, self.period)
