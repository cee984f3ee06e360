"""CRSEQ baseline — Shin, Yang, Kim (IEEE Communications Letters 2010).

The first construction guaranteeing asynchronous blind rendezvous,
cited in the paper under study (Chen et al., ICDCS 2014) in Section 1.2
and Table 1 with ``O(n^2)`` rendezvous time for both the asymmetric and
symmetric cases — the quadratic envelope the paper's
``O(|S_i||S_j| log log n)`` schedule is measured against.

Construction (channels 0-indexed): let ``P`` be the smallest prime with
``P >= n``.  The global sequence has period ``3 P^2``, divided into ``P``
subsequences of ``3P`` slots each.  Subsequence ``i`` consists of

* ``2P`` *jump* slots: channel ``(T_i + j) mod P`` for ``j = 0..2P-1``,
  where ``T_i = i (i+1) / 2`` is the i-th triangular number (the
  triangular offsets guarantee distinct relative phases under shifts);
* ``P`` *stay* slots on channel ``i``.

An agent plays the global sequence projected onto its available set:
channels outside the set map to ``available[c mod k]``.  Rendezvous is
guaranteed on the slots where both agents natively play a common channel.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.baselines.projection import project_onto_available
from repro.core.primes import smallest_prime_at_least
from repro.core.schedule import Schedule

__all__ = [
    "CRSEQSchedule",
    "crseq_global_channel",
    "crseq_global_block",
    "crseq_global_values",
]


def crseq_global_channel(t: int, prime: int) -> int:
    """Channel of the *global* CRSEQ sequence at slot ``t`` (in ``[0, P)``)."""
    if t < 0:
        raise ValueError(f"slot must be nonnegative, got {t}")
    period = 3 * prime * prime
    t %= period
    subsequence, offset = divmod(t, 3 * prime)
    if offset < 2 * prime:
        triangular = subsequence * (subsequence + 1) // 2
        return (triangular + offset) % prime
    return subsequence


def crseq_global_values(t: np.ndarray, prime: int) -> np.ndarray:
    """Global CRSEQ channels at an arbitrary array of slot indices.

    The closed form of :func:`crseq_global_channel` evaluated
    elementwise over any index array.  Shared by
    :func:`crseq_global_block` (contiguous windows) and
    :meth:`CRSEQSchedule.channel_gather` (scattered tile rows).
    """
    t = np.asarray(t, dtype=np.int64) % (3 * prime * prime)
    subsequence, offset = np.divmod(t, 3 * prime)
    triangular = subsequence * (subsequence + 1) // 2
    return np.where(offset < 2 * prime, (triangular + offset) % prime, subsequence)


def crseq_global_block(start: int, stop: int, prime: int) -> np.ndarray:
    """Global CRSEQ channels for slots ``start .. stop-1``, vectorized.

    The closed form of :func:`crseq_global_channel` over a whole window
    — the chunk source for the sweep kernel's tiles.
    """
    if stop < start:
        raise ValueError(f"empty window: start={start}, stop={stop}")
    return crseq_global_values(np.arange(start, stop, dtype=np.int64), prime)


class CRSEQSchedule(Schedule):
    """CRSEQ projected onto an agent's available channel set."""

    def __init__(self, channels: Iterable[int], n: int):
        ordered = sorted(set(int(c) for c in channels))
        if not ordered:
            raise ValueError("channel set must be nonempty")
        if ordered[0] < 0 or ordered[-1] >= n:
            raise ValueError(f"channels {ordered} outside universe [0, {n})")
        self.n = n
        self.prime = smallest_prime_at_least(n)
        self.sorted_channels = tuple(ordered)
        self.channels = frozenset(ordered)
        self.period = 3 * self.prime * self.prime

    def channel_at(self, t: int) -> int:
        """Channel at slot ``t``: the global sequence, projected."""
        c = crseq_global_channel(t, self.prime)
        if c in self.channels:
            return c
        k = len(self.sorted_channels)
        return self.sorted_channels[c % k]

    def channel_block(self, start: int, stop: int) -> np.ndarray:
        """Vectorized window: closed-form global channels, projected."""
        raw = crseq_global_block(start, stop, self.prime)
        return project_onto_available(raw, self.sorted_channels)

    def channel_gather(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized scattered access: closed-form channels, projected.

        One closed-form evaluation plus one projection pass for a whole
        streaming tile of scattered rows.
        """
        raw = crseq_global_values(indices, self.prime)
        return project_onto_available(raw, self.sorted_channels)

    def _compute_period_array(self) -> np.ndarray:
        return self.channel_block(0, self.period)
