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
nothing if one were built on the other.  :func:`project_onto_available`
is the window-at-a-time projection the gather applies, which is what
makes these baselines streamable (:mod:`repro.core.stream`) without
per-slot Python dispatch.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.core.schedule import Schedule, validated_channels

__all__ = ["ProjectedSchedule", "project_onto_available"]


def project_onto_available(
    raw: np.ndarray, sorted_channels: tuple[int, ...]
) -> np.ndarray:
    """Project raw global channels onto an agent's available set.

    ``raw`` holds global channel ids (already reduced mod ``n`` where
    the construction requires it); ids the agent owns pass through,
    every other id ``c`` maps to ``sorted_channels[c mod k]`` — the
    same rule as :meth:`ProjectedSchedule.channel_at`.
    """
    available = np.asarray(sorted_channels, dtype=np.int64)
    raw = np.asarray(raw, dtype=np.int64)
    native = np.isin(raw, available)
    return np.where(native, raw, available[raw % available.size])


class ProjectedSchedule(Schedule):
    """A universe-wide global sequence projected onto an available set.

    Subclasses call ``super().__init__(channels, n)``, set ``period``
    and implement :meth:`global_channel` and :meth:`global_values`,
    which return non-negative global channel ids.
    """

    def __init__(self, channels: Iterable[int], n: int):
        self.n = n
        self.sorted_channels = validated_channels(channels, n)
        self.channels = frozenset(self.sorted_channels)

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

        One closed-form evaluation plus one projection pass for a whole
        streaming tile of scattered rows.
        """
        return project_onto_available(
            self.global_values(indices), self.sorted_channels
        )

    def _compute_period_array(self) -> np.ndarray:
        return self.channel_block(0, self.period)
