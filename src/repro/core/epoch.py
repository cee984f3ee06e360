"""The general n-schedule (paper Theorem 3).

An agent with channel set ``A = {a_0 < ... < a_{k-1}}`` picks the two
smallest distinct primes ``p < p'`` in ``[k, 3k]`` and runs a sequence of
fixed-length *epochs*.  Epoch ``r`` plays the Theorem 1 size-two schedule
for the channel pair ``(a_i, a_j)`` with ``i = r mod p`` and
``j = r mod p'`` (indices that fall outside ``[0, k)`` fall back to 0, the
paper's "arbitrary element").  If ``i == j`` the epoch degenerates to a
constant schedule on that channel — harmless, since every size-two
string visits both of its channels.

* **Synchronous variant**: epochs last ``sync_period(n)`` slots and play
  the ``C``-string once per epoch (repeating cyclically).
* **Asynchronous variant**: epochs last ``2 * async_period(n)`` slots —
  the paper's doubling trick, which makes any two agents' epochs overlap
  in at least one full size-two period regardless of wake-up offsets.

Rendezvous bound: for agents ``A, B`` sharing channel ``c = a_x = b_y``
there is a *helpful* prime pair ``p != q`` (one from each agent); the
Chinese Remainder Theorem yields an epoch ``r <= p*q`` with
``r = x (mod p)`` and ``r - mu = y (mod q)``, so rendezvous happens within
``O(p q)`` epochs, i.e. ``O(|A||B| log log n)`` slots.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

import numpy as np

from repro.core.pairwise import (
    async_period,
    pair_schedule_async,
    pair_schedule_sync,
    sync_period,
)
from repro.core.primes import two_primes_for_set_size
from repro.core.schedule import ConstantSchedule, Schedule, validated_channels

__all__ = ["EpochSchedule", "rendezvous_bound"]


@functools.lru_cache(maxsize=4096)
def _pair_schedule(low: int, high: int, n: int, asynchronous: bool) -> Schedule:
    """The epoch schedule of channels ``low <= high``, built once per process.

    Every :class:`EpochSchedule` of a population shares these: a
    constant schedule when ``low == high``, else the Theorem 1 pair
    string.  4,096 entries hold every pair of 90 channels.  The shared
    period table is made read-only, so no holder can change another's
    epochs.
    """
    if low == high:
        built: Schedule = ConstantSchedule(low)
    elif asynchronous:
        built = pair_schedule_async(low, high, n)
    else:
        built = pair_schedule_sync(low, high, n)
    built.period_table().setflags(write=False)
    return built


class EpochSchedule(Schedule):
    """Theorem 3 schedule for an arbitrary channel set.

    Parameters
    ----------
    channels:
        The agent's available channels (distinct ints in ``[0, n)``).
    n:
        Universe size; all agents of a deployment share it.
    asynchronous:
        ``True`` (default) builds the doubled-epoch asynchronous variant,
        ``False`` the synchronous one.
    prime_pair:
        Override the prime pair (ablation knob).  Must be two distinct
        primes in ``[k, 3k]``; the default is the two smallest.
    """

    def __init__(
        self,
        channels: Iterable[int],
        n: int,
        *,
        asynchronous: bool = True,
        prime_pair: tuple[int, int] | None = None,
    ):
        self.n = n
        self.sorted_channels = validated_channels(channels, n)
        self.channels = frozenset(self.sorted_channels)
        self.asynchronous = asynchronous
        self.k = len(self.sorted_channels)
        if prime_pair is None:
            prime_pair = two_primes_for_set_size(self.k)
        else:
            prime_pair = self._validated_prime_pair(prime_pair)
        self.prime_pair = prime_pair
        base = async_period(n) if asynchronous else sync_period(n)
        self.size_two_period = base
        self.epoch_length = 2 * base if asynchronous else base
        p, q = self.prime_pair
        self.period = self.epoch_length * p * q

    def _validated_prime_pair(self, pair: tuple[int, int]) -> tuple[int, int]:
        from repro.core.primes import is_prime

        p, q = pair
        if p == q or not (is_prime(p) and is_prime(q)):
            raise ValueError(f"prime_pair must be two distinct primes, got {pair}")
        if not (self.k <= min(p, q) and max(p, q) <= 3 * self.k):
            raise ValueError(
                f"prime_pair {pair} outside the paper's window "
                f"[{self.k}, {3 * self.k}]"
            )
        return (min(p, q), max(p, q))

    def _epoch_indices(self, r: int) -> tuple[int, int]:
        """Channel indices ``(i, j)`` for epoch ``r`` (with fallback to 0)."""
        p, q = self.prime_pair
        i = r % p
        j = r % q
        if i >= self.k:
            i = 0
        if j >= self.k:
            j = 0
        return i, j

    def _epoch_schedule(self, i: int, j: int) -> Schedule:
        a, b = self.sorted_channels[min(i, j)], self.sorted_channels[max(i, j)]
        return _pair_schedule(a, b, self.n, self.asynchronous)

    def channel_at(self, t: int) -> int:
        """Channel at slot ``t``: epoch ``r = t div epoch_length``'s pair string."""
        if t < 0:
            raise ValueError(f"slot must be nonnegative, got {t}")
        r, offset = divmod(t, self.epoch_length)
        i, j = self._epoch_indices(r)
        return self._epoch_schedule(i, j).channel_at(offset)

    def _compute_period_array(self) -> np.ndarray:
        """One period, epoch by epoch: each epoch is its pair schedule's
        period table cycled to ``epoch_length``, one array op per
        distinct epoch pair."""
        p, q = self.prime_pair
        epochs: dict[Schedule, np.ndarray] = {}
        parts = []
        for r in range(p * q):
            schedule = self._epoch_schedule(*self._epoch_indices(r))
            epoch = epochs.get(schedule)
            if epoch is None:
                epoch = epochs[schedule] = np.resize(
                    schedule.period_table(), self.epoch_length
                )
            parts.append(epoch)
        return np.concatenate(parts)


def rendezvous_bound(a: EpochSchedule, b: EpochSchedule) -> int:
    """Conservative worst-case asynchronous TTR bound for two schedules.

    Uses the cheapest *helpful* prime pair (one prime from each agent,
    distinct).  The CRT argument places a good epoch within ``p*q`` epochs
    of wake-up; one extra epoch absorbs the rounding of the relative
    offset ``mu`` and one more the partial first epoch.
    """
    best = None
    for p in a.prime_pair:
        for q in b.prime_pair:
            if p != q and (best is None or p * q < best):
                best = p * q
    if best is None:
        raise AssertionError("no helpful prime pair; unreachable for distinct pairs")
    epoch = max(a.epoch_length, b.epoch_length)
    return epoch * (best + 2)
