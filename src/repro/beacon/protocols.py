"""The two beacon rendezvous protocols of Section 5.

Both protocols derive, from the common beacon stream, a min-wise
permutation ``pi_t`` for each slot and hop on
``argmin_{a in S_i} pi_t(a)``.  Two agents meet in any slot where the
global argmin of ``pi_t`` over ``S_i ∪ S_j`` lies in the intersection —
probability ``>= 1 / (2(|S_i| + |S_j|))`` per fresh permutation for an
ε=1/2 min-wise family (paper equation (8)).

* :class:`SimpleBeaconProtocol` — a fresh permutation every
  ``d log n`` slots (each from ``d log n`` fresh beacon bits), giving
  w.h.p. rendezvous in ``O((|S_i| + |S_j|) log^2 n)`` slots when bits
  arrive one per slot (the paper counts *bits*:
  ``O((|S_i|+|S_j|) log n)`` bits).
* :class:`AmplifiedBeaconProtocol` — deterministic amplification: the
  first ``d log n`` bits choose a start vertex of an MGG expander whose
  vertices seed permutations; every subsequent 3 bits take one walk step
  and yield a *new* permutation.  Bit cost drops to
  ``O(|S_i| + |S_j| + log n)``.

Important model point: the beacon is *ambient global* randomness, so the
protocols are functions of global time — asynchronous wake-ups do not
shift them relative to each other.  Rendezvous is therefore measured from
the later wake-up with both agents following the same ``pi_t`` sequence
(:func:`beacon_first_meeting`).
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.beacon.expander import MGGExpander
from repro.beacon.minwise import (
    DEFAULT_DEGREE,
    MinwisePermutation,
    field_prime,
    permutation_from_word,
    seed_bits_needed,
)
from repro.beacon.source import BeaconSource
from repro.core.schedule import validated_channels

__all__ = [
    "SimpleBeaconProtocol",
    "AmplifiedBeaconProtocol",
    "beacon_first_meeting",
]


class SimpleBeaconProtocol:
    """Fresh permutation per window of ``seed_bits_needed(n)`` slots."""

    def __init__(
        self,
        channels: Iterable[int],
        n: int,
        beacon: BeaconSource,
        degree: int = DEFAULT_DEGREE,
    ):
        self.sorted_channels = validated_channels(channels, n)
        self.channels = frozenset(self.sorted_channels)
        self.n = n
        self.beacon = beacon
        self.degree = degree
        self.window = seed_bits_needed(n, degree)
        self._cache: dict[int, MinwisePermutation] = {}

    def _permutation(self, window_index: int) -> MinwisePermutation:
        cached = self._cache.get(window_index)
        if cached is None:
            word = self.beacon.word(window_index * self.window, self.window)
            cached = permutation_from_word(word, self.n, self.degree)
            self._cache[window_index] = cached
        return cached

    def channel_at_global(self, t: int) -> int:
        """Hop at global slot ``t``: argmin under the window's permutation.

        Window 0 (no full window of bits observed yet) falls back to the
        smallest channel — a deterministic warm-up of ``window`` slots.
        """
        if t < 0:
            raise ValueError(f"slot must be nonnegative, got {t}")
        window_index = t // self.window
        if window_index == 0:
            return self.sorted_channels[0]
        # Use the *previous* complete window of bits: causal.
        return self._permutation(window_index - 1).argmin(self.sorted_channels)


class AmplifiedBeaconProtocol:
    """Expander-walk amplification: a new permutation every 3 bits."""

    BITS_PER_STEP = 3

    def __init__(
        self,
        channels: Iterable[int],
        n: int,
        beacon: BeaconSource,
        degree: int = DEFAULT_DEGREE,
    ):
        self.sorted_channels = validated_channels(channels, n)
        self.channels = frozenset(self.sorted_channels)
        self.n = n
        self.beacon = beacon
        self.degree = degree
        self.burn_in = seed_bits_needed(n, degree)
        # Vertex space ~ squares of the permutation field: each vertex
        # coordinate pair seeds a permutation via mixing.
        side = max(2, field_prime(n))
        self.graph = MGGExpander(side)
        self._vertex_cache: dict[int, int] = {}
        self._perm_cache: dict[int, MinwisePermutation] = {}

    def _start_vertex(self) -> int:
        word = self.beacon.word(0, self.burn_in)
        return word % self.graph.num_vertices

    def _vertex(self, step: int) -> int:
        """Walk position after ``step`` expander steps (cached prefix)."""
        if step == 0:
            return self._start_vertex()
        cached = self._vertex_cache.get(step)
        if cached is None:
            previous = self._vertex(step - 1)
            offset = self.burn_in + (step - 1) * self.BITS_PER_STEP
            direction = self.beacon.word(offset, self.BITS_PER_STEP)
            cached = self.graph.neighbor(previous, direction)
            self._vertex_cache[step] = cached
        return cached

    def _permutation(self, step: int) -> MinwisePermutation:
        cached = self._perm_cache.get(step)
        if cached is None:
            x, y = self.graph.coordinates(self._vertex(step))
            # Mix the vertex coordinates into polynomial coefficients.
            word = 0
            width = max(field_prime(self.n).bit_length(), 1)
            state = (x * self.graph.m + y) or 1
            for i in range(self.degree):
                state = (state * 6364136223846793005 + 1442695040888963407) % (
                    1 << 64
                )
                word |= (state >> 32 & ((1 << width) - 1)) << (i * width)
            cached = permutation_from_word(word, self.n, self.degree)
            self._perm_cache[step] = cached
        return cached

    def channel_at_global(self, t: int) -> int:
        """Hop at global slot ``t``; warm-up of ``burn_in`` slots."""
        if t < 0:
            raise ValueError(f"slot must be nonnegative, got {t}")
        if t < self.burn_in:
            return self.sorted_channels[0]
        step = (t - self.burn_in) // self.BITS_PER_STEP
        return self._permutation(step).argmin(self.sorted_channels)


def beacon_first_meeting(
    a: SimpleBeaconProtocol | AmplifiedBeaconProtocol,
    b: SimpleBeaconProtocol | AmplifiedBeaconProtocol,
    wake_a: int,
    wake_b: int,
    horizon: int,
) -> int | None:
    """Slots from the later wake-up until the first common hop.

    Both protocols are keyed to global time (ambient beacon), so the
    relative wake-up offset only changes *when* they are both listening.
    """
    start = max(wake_a, wake_b)
    for t in range(start, start + horizon):
        if a.channel_at_global(t) == b.channel_at_global(t):
            return t - start
    return None
