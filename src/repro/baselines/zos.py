"""ZOS baseline — after Lin, Yu, Liu, Leung, Chu (arXiv:1506.00744).

ZOS is the strongest *available-channel-set* baseline for the paper's
Table-1 comparison (paper under study: Chen et al., ICDCS 2014,
Section 1.2 related work): where CRSEQ/Jump-Stay/DRDS hop over the whole
universe ``[n]`` and pay ``O(n^2)``--``O(n^3)`` periods, ZOS generates
each agent's channel-hopping sequence from its own available set
``S``, ``m = |S|``, so both the period and the rendezvous guarantee
scale with ``m`` — matching the regime (``|S| << n``) where the paper's
``O(|S_i||S_j| log log n)`` construction shines.  Yu et al.'s companion
work (arXiv:1506.01136) motivates the same available-set workload
shapes; see :func:`repro.sim.workloads.available_overlap`.

Lin et al.'s exact subsequence parameterization is not reproduced in
the paper under study, so — like :mod:`repro.baselines.drds` — this
module implements the documented three-subsequence *skeleton* with our
own parameterization in the same guarantee class.  Each agent derives a
**collision-free modulus**: the smallest prime ``p > m`` under which its
channel IDs are pairwise distinct (:func:`collision_free_modulus`), so
every residue in ``Z_p`` names at most one of its channels.  Time is
divided into rounds of ``4p`` slots, each the concatenation of three
subsequences:

* **Z-subsequence** (``p`` slots) — stay on the *zero-residue anchor*:
  the channel with ID ``== 0 (mod p)`` if the set has one, else the
  smallest channel.  Rescues the corner where a common channel's global
  ID is ``0 (mod p)`` and the rate loop below can never name it.
* **O-subsequence** (``2p`` slots) — *orbit* over the residue space:
  slot ``j`` visits residue ``x = (i + j r) mod p`` for the round's
  start ``i`` and rate ``r``; residue ``x`` plays the agent's channel
  with ID ``== x (mod p)`` when it exists (its *native* slot) and a
  deterministic filler ``sorted(S)[x mod m]`` otherwise.
* **S-subsequence** (``p`` slots) — stay on the channel with ID
  ``== r (mod p)`` if present, else the filler ``sorted(S)[(r-1) mod m]``.

Rounds cycle the rate ``r`` through ``1 .. p-1`` (inner loop) and the
start ``i`` through ``0 .. p-1`` (outer loop), giving the full period
``4 p^2 (p-1) = Theta(m^3)`` — *independent of the universe size* ``n``
up to the collision-free gap.  Why every nonempty intersection meets,
for common channel ``g``:

* different moduli ``p != q``: while one agent stays on ``g`` (its S- or
  Z-subsequence names ``g`` whenever ``r == g (mod p)``, resp.
  ``g == 0 (mod p)``), the other's orbit covers *all* residues mod its
  own prime every ``q`` slots, so it plays ``g`` natively; the coprime
  round lengths ``4p`` and ``4q`` drift through every phase alignment.
* equal moduli, different rates in some round: the start loop drives the
  orbit pair ``(x_A, x_B)`` through every residue combination,
  including ``(g mod p, g mod p)`` — both native.
* equal moduli and rates forever (agents in lockstep translation, the
  adversarial case that breaks purely index-based local hopping): both
  S-subsequences are keyed to the *global* residue ``r``, so the round
  with ``r == g (mod p)`` has both agents staying on ``g`` itself; the
  Z-subsequence covers ``g == 0 (mod p)``.

Guarantee checks are recorded by ``benchmarks/test_zos_comparison.py``
via :func:`repro.core.verification.verify_guarantee` over exhaustive
shift ranges.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.primes import smallest_prime_greater_than
from repro.core.schedule import Schedule, validated_channels

__all__ = ["ZOSSchedule", "collision_free_modulus", "zos_period"]


def collision_free_modulus(channels: Iterable[int]) -> int:
    """Smallest prime ``p > m`` with all channel IDs distinct mod ``p``.

    Distinctness makes the residue -> channel map injective, which is
    what lets two agents agree on a common channel through its global
    residue alone.  The search always terminates: any prime exceeding
    the largest channel ID is collision-free.  In practice ``p`` lands
    on or near the first prime past ``m``; adversarially spaced IDs can
    push it to ``O~(m^2 log n)``, still universe-size-independent for
    the workloads the paper targets.
    """
    ordered = sorted(set(int(c) for c in channels))
    if not ordered:
        raise ValueError("a collision-free modulus needs at least one channel")
    p = smallest_prime_greater_than(len(ordered))
    while len({c % p for c in ordered}) < len(ordered):
        p = smallest_prime_greater_than(p)
    return p


def zos_period(p: int) -> int:
    """Full ZOS period for modulus ``p``: ``4p`` slots per round times
    ``p (p-1)`` rounds (rate inner loop, start outer loop)."""
    return 4 * p * p * (p - 1)


class ZOSSchedule(Schedule):
    """Z/O/S subsequence schedule keyed to the agent's available set."""

    def __init__(self, channels: Iterable[int], n: int):
        ordered = validated_channels(channels, n)
        self.n = n
        self.sorted_channels = ordered
        self.channels = frozenset(ordered)
        m = len(ordered)
        self.prime = p = collision_free_modulus(ordered)
        residue_of = {c % p: c for c in ordered}
        # Residue x -> channel played when the orbit visits x: the native
        # owner when the set has a channel == x (mod p), filler otherwise.
        self._residue_channel = np.asarray(
            [residue_of.get(x, ordered[x % m]) for x in range(p)],
            dtype=np.int64,
        )
        self._zero_anchor = residue_of.get(0, ordered[0])
        # S-subsequence channel per rate r in 1..p-1 (index r-1).
        self._stay_channel = np.asarray(
            [residue_of.get(r, ordered[(r - 1) % m]) for r in range(1, p)],
            dtype=np.int64,
        )
        self.period = zos_period(p)

    def channel_at(self, t: int) -> int:
        """Channel at slot ``t``: Z, O or S subsequence of the round."""
        p = self.prime
        round_index, offset = divmod(t % self.period, 4 * p)
        if offset < p:  # Z-subsequence
            return int(self._zero_anchor)
        rate = (round_index % (p - 1)) + 1
        if offset < 3 * p:  # O-subsequence
            start = (round_index // (p - 1)) % p
            x = (start + (offset - p) * rate) % p
            return int(self._residue_channel[x])
        return int(self._stay_channel[rate - 1])  # S-subsequence

    def channel_gather(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized scattered access: the Z/O/S anatomy, elementwise.

        One closed-form evaluation for a whole streaming tile of
        scattered rows; it also lets the sweep kernel sweep ZOS at set
        sizes whose ``Theta(m^3)`` period exceeds the schedule cache
        limit.
        """
        p = self.prime
        t = np.asarray(indices, dtype=np.int64) % self.period
        round_index, offset = np.divmod(t, 4 * p)
        rate = (round_index % (p - 1)) + 1
        orbit_start = (round_index // (p - 1)) % p
        x = (orbit_start + (offset - p) * rate) % p
        out = np.where(
            offset < 3 * p,
            self._residue_channel[x],
            self._stay_channel[rate - 1],
        )
        return np.where(offset < p, self._zero_anchor, out)

    def _compute_period_array(self) -> np.ndarray:
        """Vectorized full-period materialization.

        Assembles the ``(round, slot)`` matrix in one shot: the Z and S
        columns broadcast from per-round scalars, the O columns gather
        from the residue lookup — no per-slot Python dispatch, so a
        period table (for the schedule store) takes milliseconds even
        at the ``Theta(m^3)`` period.
        """
        p = self.prime
        rounds = p * (p - 1)
        k = np.arange(rounds, dtype=np.int64)
        rate = (k % (p - 1)) + 1
        start = (k // (p - 1)) % p
        table = np.empty((rounds, 4 * p), dtype=np.int64)
        table[:, :p] = self._zero_anchor
        j = np.arange(2 * p, dtype=np.int64)
        orbit = (start[:, None] + j[None, :] * rate[:, None]) % p
        table[:, p : 3 * p] = self._residue_channel[orbit]
        table[:, 3 * p :] = self._stay_channel[rate - 1][:, None]
        return table.reshape(-1)
