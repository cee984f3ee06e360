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

from repro.baselines.projection import ProjectedSchedule
from repro.core.primes import smallest_prime_greater_than

__all__ = [
    "JumpStaySchedule",
    "jump_stay_global_channel",
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
    periodic, so raw slot indices need no reduction) — the sweep
    kernel generates its tiles from this, so Jump-Stay's cubic period
    never needs to be materialized, even past ``n = 128``, where it
    exceeds the schedule cache limit.
    """
    t = np.asarray(t, dtype=np.int64)
    round_index, offset = np.divmod(t, 3 * prime)
    step = (round_index % (prime - 1)) + 1
    start_channel = (round_index // (prime - 1)) % prime
    jump = (start_channel + offset * step) % prime
    return np.where(offset < 2 * prime, jump, step)


class JumpStaySchedule(ProjectedSchedule):
    """Jump-Stay projected onto an agent's available channel set."""

    def __init__(self, channels: Iterable[int], n: int):
        super().__init__(channels, n)
        self.prime = smallest_prime_greater_than(n)
        self.period = 3 * self.prime * self.prime * (self.prime - 1)

    def global_channel(self, t: int) -> int:
        """:func:`jump_stay_global_channel` at slot ``t``, remapped mod ``n``."""
        return jump_stay_global_channel(t, self.prime) % self.n

    def global_values(self, indices: np.ndarray) -> np.ndarray:
        """:func:`jump_stay_global_values` over ``indices``, remapped mod ``n``."""
        return jump_stay_global_values(indices, self.prime) % self.n
