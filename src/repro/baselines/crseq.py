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

from repro.baselines.projection import ProjectedSchedule
from repro.core.primes import smallest_prime_at_least

__all__ = [
    "CRSEQSchedule",
    "crseq_global_channel",
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
    elementwise over any index array — contiguous windows and
    scattered tile rows alike.
    """
    t = np.asarray(t, dtype=np.int64) % (3 * prime * prime)
    subsequence, offset = np.divmod(t, 3 * prime)
    triangular = subsequence * (subsequence + 1) // 2
    return np.where(offset < 2 * prime, (triangular + offset) % prime, subsequence)


class CRSEQSchedule(ProjectedSchedule):
    """CRSEQ projected onto an agent's available channel set."""

    def __init__(self, channels: Iterable[int], n: int):
        super().__init__(channels, n)
        self.prime = smallest_prime_at_least(n)
        self.period = 3 * self.prime * self.prime
        # Global ids run over [0, P), past n: they are not reduced mod n.
        self.id_bound = self.prime

    def global_channel(self, t: int) -> int:
        """:func:`crseq_global_channel` at slot ``t``."""
        return crseq_global_channel(t, self.prime)

    def global_values(self, indices: np.ndarray) -> np.ndarray:
        """:func:`crseq_global_values` over ``indices``."""
        return crseq_global_values(indices, self.prime)
