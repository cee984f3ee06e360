"""Summary metrics over simulation results and TTR samples.

Two metric families live here.  The pair family (:class:`TTRStats`,
:func:`summarize_ttrs`, :func:`summarize_profile`) summarizes
time-to-rendezvous samples from shift sweeps.  The population
family works over whole-network discovery runs: a
:class:`DiscoveryProfile` — first-meet times with agent-pair weights,
produced by both the vectorized core
(:meth:`repro.sim.netcore.NetResult.discovery_profile`) and the
pairwise reference
(:meth:`repro.sim.network.SimulationResult.discovery_profile`) — feeds
:func:`summarize_discovery` (time-to-full-neighbor-discovery plus
quantile milestones) and :func:`discovery_throughput` (the cumulative
pairs-met-over-time curve), while :func:`channel_contention` ranks
channels by the co-location counters the vectorized core accumulates.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "TTRStats",
    "summarize_ttrs",
    "summarize_profile",
    "DiscoveryProfile",
    "DiscoveryStats",
    "summarize_discovery",
    "discovery_throughput",
    "channel_contention",
]


@dataclass(frozen=True)
class TTRStats:
    """Distribution summary of time-to-rendezvous samples."""

    count: int
    mean: float
    median: float
    p95: float
    maximum: int
    minimum: int

    def as_row(self) -> dict[str, float | int]:
        """The stats as one flat dict row, ready for a results table."""
        return {
            "count": self.count,
            "mean": round(self.mean, 2),
            "median": self.median,
            "p95": self.p95,
            "max": self.maximum,
            "min": self.minimum,
        }


def _percentile(ordered: list[int], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 1]) of a sorted list."""
    if not ordered:
        raise ValueError("no samples")
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    lo = math.floor(position)
    hi = math.ceil(position)
    frac = position - lo
    return ordered[lo] * (1 - frac) + ordered[hi] * frac


def summarize_profile(
    profile: Mapping[int, int | None],
) -> tuple[TTRStats | None, list[int]]:
    """Summarize a shift -> TTR profile from :func:`repro.ttr_sweep`.

    Returns ``(stats over the shifts that rendezvoused, shifts that
    missed)``; stats are ``None`` when every shift missed.
    """
    misses = sorted(s for s, ttr in profile.items() if ttr is None)
    hits = [ttr for ttr in profile.values() if ttr is not None]
    return (summarize_ttrs(hits) if hits else None), misses


@dataclass(frozen=True)
class DiscoveryProfile:
    """First-meet event times with agent-pair weights, sorted by time.

    ``times[k]`` is the global slot of the ``k``-th first-meet event and
    ``weights[k]`` how many agent pairs met at it (the pairwise engine
    always weights 1; the vectorized core weights by cohort sizes).
    ``overlapping_pairs`` is the population's total count of agent pairs
    sharing a channel — the denominator every coverage metric divides
    by.
    """

    times: np.ndarray
    weights: np.ndarray
    overlapping_pairs: int

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=np.int64)
        weights = np.asarray(self.weights, dtype=np.int64)
        if times.shape != weights.shape:
            raise ValueError("times and weights must have equal length")
        if times.size and np.any(np.diff(times) < 0):
            raise ValueError("times must be sorted nondecreasing")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "weights", weights)

    @property
    def met_pairs(self) -> int:
        """Total agent pairs that met (the sum of event weights)."""
        return int(self.weights.sum())


@dataclass(frozen=True)
class DiscoveryStats:
    """Population discovery summary derived from a profile.

    ``milestones`` maps a coverage fraction to the first global slot by
    which at least that fraction of the overlapping pairs had met
    (``None`` when the run never reached it); ``discovery_time`` is the
    full-coverage slot — the paper-scale time-to-full-neighbor-
    discovery metric — or ``None`` when some overlapping pair never
    met.
    """

    overlapping_pairs: int
    met_pairs: int
    discovery_time: int | None
    milestones: dict[float, int | None] = field(default_factory=dict)

    def as_row(self) -> dict[str, float | int | None]:
        """The stats as one flat dict row, ready for a results table."""
        row: dict[str, float | int | None] = {
            "overlapping_pairs": self.overlapping_pairs,
            "met_pairs": self.met_pairs,
            "discovery_time": self.discovery_time,
        }
        for quantile, slot in self.milestones.items():
            row[f"t{quantile:g}"] = slot
        return row


def summarize_discovery(
    profile: DiscoveryProfile,
    quantiles: Sequence[float] = (0.5, 0.9, 0.99, 1.0),
) -> DiscoveryStats:
    """Summarize a discovery profile into coverage milestones.

    A quantile ``q`` is reached at the first slot where the cumulative
    met-pair count meets ``ceil(q * overlapping_pairs)``; with zero
    overlapping pairs every quantile is trivially reached at slot 0.
    """
    cumulative = np.cumsum(profile.weights)
    met = int(cumulative[-1]) if cumulative.size else 0
    total = profile.overlapping_pairs
    milestones: dict[float, int | None] = {}
    for q in quantiles:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        needed = math.ceil(q * total)
        if needed == 0:
            milestones[q] = 0
        elif met < needed:
            milestones[q] = None
        else:
            index = int(np.searchsorted(cumulative, needed))
            milestones[q] = int(profile.times[index])
    if total == 0:
        discovery = 0
    elif met < total:
        discovery = None
    else:
        discovery = int(profile.times[int(np.searchsorted(cumulative, total))])
    return DiscoveryStats(
        overlapping_pairs=total,
        met_pairs=met,
        discovery_time=discovery,
        milestones=milestones,
    )


def discovery_throughput(
    profile: DiscoveryProfile, num_points: int | None = None
) -> list[tuple[int, int]]:
    """Cumulative discovery curve: ``(slot, pairs met by that slot)``.

    One breakpoint per distinct event time; ``num_points`` downsamples
    the curve evenly (keeping the final point) for plotting or JSON
    output.
    """
    if profile.times.size == 0:
        return []
    cumulative = np.cumsum(profile.weights)
    last_of_time = np.nonzero(
        np.r_[profile.times[1:] != profile.times[:-1], True]
    )[0]
    points = [
        (int(profile.times[k]), int(cumulative[k])) for k in last_of_time
    ]
    if num_points is not None and 0 < num_points < len(points):
        picks = np.unique(
            np.linspace(0, len(points) - 1, num_points).round().astype(int)
        )
        points = [points[int(p)] for p in picks]
    return points


def channel_contention(result, top: int | None = None) -> list[dict[str, int]]:
    """Rank channels by co-location pressure from a vectorized run.

    ``result`` is a :class:`~repro.sim.netcore.NetResult` (anything
    exposing ``contended_slots`` and ``pair_colocations`` arrays).
    Returns one row per channel that ever held two or more agents in a
    slot — ``{"channel", "contended_slots", "colocated_pairs"}`` —
    sorted by co-located pairs descending, trimmed to ``top`` rows when
    given.  Counts cover ``[0, slots_simulated)``.
    """
    rows = [
        {
            "channel": int(c),
            "contended_slots": int(result.contended_slots[c]),
            "colocated_pairs": int(result.pair_colocations[c]),
        }
        for c in np.nonzero(result.contended_slots)[0]
    ]
    rows.sort(key=lambda r: (-r["colocated_pairs"], r["channel"]))
    return rows[:top] if top is not None else rows


def summarize_ttrs(samples: Iterable[int]) -> TTRStats:
    """Summarize a collection of TTR samples."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("no TTR samples to summarize")
    return TTRStats(
        count=len(ordered),
        mean=sum(ordered) / len(ordered),
        median=_percentile(ordered, 0.5),
        p95=_percentile(ordered, 0.95),
        maximum=ordered[-1],
        minimum=ordered[0],
    )
