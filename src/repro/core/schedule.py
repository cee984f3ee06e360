"""Channel-hopping schedule abstractions.

A *schedule* is the paper's ``sigma : N -> S`` (Section 2, "channel
schedule"): an infinite map from local time slots to the agent's
available channels.  Two agents rendezvous at global slot ``t`` when
``sigma_A(t - tA) == sigma_B(t - tB)`` for their wake-up times
``tA, tB`` — the predicate every verifier in this repo ultimately
evaluates.  All concrete constructions in this package (the paper's
epoch schedules of Theorem 3 as well as every Table-1 baseline) are
eventually cyclic, so the base class carries a ``period`` and supports
vectorized materialization into numpy arrays — the verification engine
and the simulator compare schedules as arrays rather than slot by slot.

The bulk hooks are :meth:`Schedule.channel_gather` — channels at an
arbitrary *array* of slot indices in one vectorized call, which is how
the sweep kernel (:mod:`repro.core.stream`) assembles a whole
``(shift, time)`` tile of scattered rows without per-row Python
dispatch — its contiguous case :meth:`Schedule.channel_block`, a slot
window **without** materializing the period (what lets the kernel
sweep schedules whose period is too large to table), and
:meth:`Schedule.period_table`, one full period as a shared read-only
array, cached up to ``_CACHE_LIMIT`` slots.  Adding a new algorithm
only requires ``channel_at`` plus (optionally) a vectorized
``channel_gather`` and ``_compute_period_array``; the kernel certifies
it through those hooks.  :func:`validated_channels` is the one
channel-set check every constructor shares.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Schedule",
    "CyclicSchedule",
    "ConstantSchedule",
    "FunctionSchedule",
    "validated_channels",
]

_CACHE_LIMIT = 1 << 22  # largest period array worth caching (slots)


def validated_channels(channels: Iterable[int], n: int) -> tuple[int, ...]:
    """An agent's channel set as a sorted tuple of distinct ints in ``[0, n)``.

    The channel-set check every schedule constructor shares: duplicates
    collapse, and an empty set or a channel outside the universe raises
    ``ValueError``.
    """
    ordered = sorted(set(int(c) for c in channels))
    if not ordered:
        raise ValueError("channel set must be nonempty")
    if ordered[0] < 0 or ordered[-1] >= n:
        raise ValueError(f"channels {ordered} outside universe [0, {n})")
    return tuple(ordered)


class Schedule:
    """Base class: an infinite, eventually-cyclic channel schedule.

    Subclasses must set ``period`` (a positive int) and ``channels`` (the
    frozenset of channels the schedule can visit) and implement
    :meth:`channel_at`.
    """

    period: int
    channels: frozenset[int]

    def channel_at(self, t: int) -> int:
        """Channel accessed at local slot ``t >= 0``."""
        raise NotImplementedError

    def materialize(self, start: int, stop: int) -> np.ndarray:
        """Channels for slots ``start .. stop-1`` as an int64 array.

        For moderate periods this tiles one cached period array, so a
        window of any size costs one pass over the period plus a copy.
        Schedules with huge periods (e.g. Jump-Stay's cubic period at
        large ``n``) evaluate only the requested window instead.
        """
        return self.channel_block(start, stop)

    def channel_block(self, start: int, stop: int) -> np.ndarray:
        """Channels for slots ``start .. stop-1``, generated on demand.

        This is the chunk hook the sweep kernel
        (:mod:`repro.core.stream`) builds tiles from: unlike
        :meth:`period_table` it never requires materializing a full
        period, so it stays usable on schedules whose period exceeds
        the table limit (Jump-Stay's cubic period at large ``n``).

        It is :meth:`channel_gather` over ``np.arange(start, stop)``;
        only schedules whose window is a slice of a wrapped array
        override it.
        """
        if stop < start:
            raise ValueError(f"empty window: start={start}, stop={stop}")
        return self.channel_gather(np.arange(start, stop, dtype=np.int64))

    def channel_gather(self, indices: np.ndarray) -> np.ndarray:
        """Channels at an arbitrary array of slot indices, shape-preserving.

        It answers any index array (typically the 2-D ``(shift row,
        time)`` matrix of one kernel tile — see
        :mod:`repro.core.stream`) in a single vectorized call;
        :meth:`channel_block` is its contiguous case.  The generic
        fallback indexes the cached period array modularly for moderate
        periods and evaluates ``channel_at`` per element for huge ones;
        subclasses with closed-form sequences override it so a whole
        tile of scattered rows costs one array expression instead of
        one Python call per row.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if self.period > _CACHE_LIMIT and indices.size < self.period:
            flat = indices.reshape(-1)
            out = np.fromiter(
                (self.channel_at(int(t)) for t in flat),
                dtype=np.int64,
                count=flat.size,
            )
            return out.reshape(indices.shape)
        return self._period_array()[indices % self.period]

    def period_table(self) -> np.ndarray:
        """One full period of the schedule as a shared int64 array.

        The bulk-materialization hook behind the generic
        ``channel_gather`` fallback: the table
        is computed once per schedule (and cached for periods up to
        ``_CACHE_LIMIT``), after which any window of the infinite
        schedule is a view/tile of it.  Callers must treat the returned
        array as read-only.
        """
        return self._period_array()

    def _period_array(self) -> np.ndarray:
        """Cache wrapper around :meth:`_compute_period_array`.

        Subclasses that can build their period faster than a scalar
        ``channel_at`` loop should override ``_compute_period_array``
        (pure computation); the caching policy lives only here.
        """
        cached = getattr(self, "_period_array_cache", None)
        if cached is not None:
            return cached
        array = self._compute_period_array()
        if self.period <= _CACHE_LIMIT:
            self._period_array_cache = array
        return array

    def has_warm_table(self) -> bool:
        """Whether :meth:`period_table` is already materialized.

        ``True`` means the next ``period_table()`` call is free (the
        cached array, a wrapped sequence, or a store memmap); ``False``
        means it would pay a full pass over the period.  Profilers use
        it to tell table builds from table reuse.
        """
        return getattr(self, "_period_array_cache", None) is not None

    def _compute_period_array(self) -> np.ndarray:
        return np.fromiter(
            (self.channel_at(t) for t in range(self.period)),
            dtype=np.int64,
            count=self.period,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        name = type(self).__name__
        return f"{name}(period={self.period}, channels={sorted(self.channels)})"


class CyclicSchedule(Schedule):
    """Endless repetition of a finite channel sequence (``sigma-circle``)."""

    def __init__(self, sequence: Sequence[int]):
        if len(sequence) == 0:
            raise ValueError("cyclic schedule needs a nonempty sequence")
        self._sequence = np.asarray(sequence, dtype=np.int64)
        self.period = len(sequence)
        self.channels = frozenset(int(c) for c in sequence)

    def channel_at(self, t: int) -> int:
        """Channel at slot ``t``: the sequence read cyclically."""
        return int(self._sequence[t % self.period])

    def has_warm_table(self) -> bool:
        """Always ``True``: the wrapped sequence *is* the period table."""
        return True

    def _period_array(self) -> np.ndarray:
        return self._sequence


class ConstantSchedule(Schedule):
    """Always the same channel (singleton channel sets, stay phases)."""

    def __init__(self, channel: int):
        self._channel = int(channel)
        self.period = 1
        self.channels = frozenset((self._channel,))

    def channel_at(self, t: int) -> int:
        """The constant channel, at every slot."""
        return self._channel

    def has_warm_table(self) -> bool:
        """Always ``True``: a one-slot table costs nothing to produce."""
        return True

    def channel_gather(self, indices: np.ndarray) -> np.ndarray:
        """The constant channel, broadcast over the index array."""
        return np.full(np.shape(indices), self._channel, dtype=np.int64)


class FunctionSchedule(Schedule):
    """Schedule defined by an arbitrary slot function with known period."""

    def __init__(
        self,
        fn: Callable[[int], int],
        period: int,
        channels: frozenset[int] | None = None,
    ):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._fn = fn
        self.period = period
        if channels is None:
            channels = frozenset(fn(t) for t in range(min(period, 4096)))
        self.channels = channels

    def channel_at(self, t: int) -> int:
        """Channel at slot ``t``: the wrapped slot function, verbatim."""
        return self._fn(t)
