"""Global-sequence baselines: one universe-wide sequence, projected.

Every global-sequence baseline in this package (CRSEQ, Jump-Stay, DRDS,
AsyncETCH) plays one universe-wide channel sequence *projected* onto
the agent's available set: a slot whose global channel the agent owns
is played natively, anything else maps deterministically to
``available[c mod k]``.  :class:`ProjectedSchedule` holds that idea
once — the channel-set check, the scalar ``channel_at``, the vectorized
``channel_gather`` (and through it ``channel_block``) and the period
table — so a baseline supplies only its ``period`` and its global
sequence, as a scalar ``global_channel(t)`` and a vectorized
``global_values(indices)``.  The two forms stay separate on purpose:
the tests check every gather against ``channel_at``, which would prove
nothing if one were built on the other.

The vectorized projection is a lookup: :func:`projection_table` maps
every id the global sequence can return, ``[0, id_bound)``, to the
channel it plays, once per schedule, so projecting a whole streaming
tile of global ids is one ``take`` (:mod:`repro.core.stream`) without
per-slot Python dispatch or per-tile membership tests.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

import numpy as np

from repro.core.schedule import Schedule, validated_channels

__all__ = ["ProjectedSchedule", "projection_table"]


def projection_table(sorted_channels: tuple[int, ...], size: int) -> np.ndarray:
    """The projection onto an available set as an int64 lookup table.

    Entry ``c`` of the ``size``-entry table is ``c`` for a channel the
    agent owns and ``sorted_channels[c mod k]`` for every other id — the
    rule of :meth:`ProjectedSchedule.channel_at` — so global ids in
    ``[0, size)`` project with ``table.take(ids)``.
    """
    available = np.asarray(sorted_channels, dtype=np.int64)
    table = available[np.arange(size, dtype=np.int64) % available.size]
    table[available] = available
    return table


class ProjectedSchedule(Schedule):
    """A universe-wide global sequence projected onto an available set.

    Subclasses call ``super().__init__(channels, n)``, set ``period``
    and implement :meth:`global_channel` and :meth:`global_values`,
    which return global channel ids in ``[0, id_bound)``.  ``id_bound``
    is ``n`` unless a subclass widens it (CRSEQ's ids run up to its
    prime); the projection table covers exactly that range.
    """

    def __init__(self, channels: Iterable[int], n: int):
        self.n = n
        self.id_bound = n
        self.sorted_channels = validated_channels(channels, n)
        self.channels = frozenset(self.sorted_channels)

    @functools.cached_property
    def _table(self) -> np.ndarray:
        return projection_table(self.sorted_channels, self.id_bound)

    def global_channel(self, t: int) -> int:
        """Global channel at slot ``0 <= t < period``, before projection."""
        raise NotImplementedError

    def global_values(self, indices: np.ndarray) -> np.ndarray:
        """Global channels at any array of slot indices, before projection."""
        raise NotImplementedError

    def channel_at(self, t: int) -> int:
        """Channel at slot ``t``: the global sequence, projected."""
        c = self.global_channel(t % self.period)
        if c in self.channels:
            return c
        return self.sorted_channels[c % len(self.sorted_channels)]

    def channel_gather(self, indices: np.ndarray) -> np.ndarray:
        """Vectorized scattered access: global channels, projected.

        One closed-form evaluation plus one table lookup for a whole
        streaming tile of scattered rows.
        """
        return self._table.take(self.global_values(indices))

    def _compute_period_array(self) -> np.ndarray:
        return self.channel_block(0, self.period)
