"""Vectorized network-scale discovery simulation core.

The pairwise reference (:meth:`repro.sim.network.Network.run` with
``engine="pairwise"``) walks an ``O(num_pairs * horizon)`` Python loop
over :class:`~repro.sim.agent.Agent` objects — fine for a handful of
radios, hopeless for the paper's real setting of thousands discovering
each other on shared spectrum.  This module steps the *whole population*
as numpy columns instead:

* **Cohorts.**  Agents are grouped into cohorts of identical behaviour —
  same schedule object, same wake-up slot, same departure slot.  Every
  member of a cohort occupies the same channel at every slot, so the
  simulation runs over ``R`` cohort rows rather than ``N`` agents, and
  agent-pair results expand combinatorially afterwards (10k agents
  sharing a few hundred distinct schedules pay for each row — and each
  schedule — exactly once).
* **Slot-major channel matrix.**  Time advances in chunks, and each
  chunk in time blocks that start at 256 slots and double up to the
  chunk width.  A block assembles a ``(slots, active cohorts)`` matrix
  of dense channel ids with one
  :meth:`~repro.core.schedule.Schedule.channel_gather` call per
  distinct schedule — the same bulk hook the sweep kernel tiles with,
  so DRDS schedules answer from the store's shared memmap — and an
  early stop ends assembly too.
* **Bitset rendezvous detection.**  Pending cohort pairs are a packed
  ``uint64`` bitset, one row per cohort holding each pair once (in its
  lower cohort's row).  Per slot every cohort's pending row is ANDed
  with the member bitset of the channel it sits on: that one AND finds
  every new meeting on every channel, and clearing the hit bits
  retires the pairs — *first-meet retirement* — so no pair is ever
  reported twice.  A cohort that leaves takes its pending pairs with
  it, so the simulation retires as soon as no pending pair can still
  meet.
* **Event wheel.**  Wake (join) and leave (churn) events live in a
  time-chunked :class:`EventWheel`; each chunk pops only its own bucket,
  so maintaining the active-cohort set costs ``O(events)`` over the
  whole run rather than ``O(R)`` per chunk.

The result is columnar too: :class:`NetResult` keeps cohort-level event
arrays plus per-channel contention counters, derives population metrics
(through :class:`~repro.sim.metrics.DiscoveryProfile`) without ever
materializing the quadratic agent-pair set, and can expand to the exact
per-pair events of the pairwise reference when the population is small
enough to want them.  The two engines are certified bit-identical in
``tests/sim/test_netcore.py``.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core import telemetry
from repro.core.environment import Environment
from repro.core.schedule import Schedule
from repro.sim.agent import Agent
from repro.sim.metrics import DiscoveryProfile

__all__ = [
    "Population",
    "EventWheel",
    "NetResult",
    "simulate_population",
    "DEFAULT_CHUNK",
    "LEAVE_NEVER",
    "WAKE",
    "LEAVE",
]

#: Default time-chunk length (slots): event-wheel granularity and the
#: widest time block of channel-matrix assembly.
DEFAULT_CHUNK = 4096

#: Sentinel departure slot for cohorts that never leave.
LEAVE_NEVER = np.iinfo(np.int64).max

#: Event-wheel kind tag: a cohort wakes (joins) at the event slot.
WAKE = 0

#: Event-wheel kind tag: a cohort leaves at the event slot.
LEAVE = 1


class EventWheel:
    """Time-chunked buckets of wake/leave events.

    Events are pushed once up front and popped exactly when the chunk
    containing their slot begins, so the active-cohort set is maintained
    with ``O(total events)`` work over a whole simulation instead of a
    full population scan per chunk.
    """

    def __init__(self, chunk: int):
        if chunk <= 0:
            raise ValueError(f"chunk must be positive, got {chunk}")
        self.chunk = chunk
        self._buckets: dict[int, list[tuple[int, int, int]]] = {}

    def push(self, time: int, kind: int, cohort: int) -> None:
        """Schedule ``(time, kind, cohort)`` into its chunk bucket."""
        if time < 0:
            raise ValueError(f"event time must be nonnegative, got {time}")
        self._buckets.setdefault(time // self.chunk, []).append(
            (time, kind, cohort)
        )

    def pop(self, index: int) -> list[tuple[int, int, int]]:
        """Drain chunk ``index``'s bucket, sorted by (time, kind, cohort)."""
        return sorted(self._buckets.pop(index, ()))

    def __len__(self) -> int:
        """Number of events not yet popped."""
        return sum(len(bucket) for bucket in self._buckets.values())


class Population:
    """Columnar population: distinct schedules plus per-cohort columns.

    A *cohort* groups agents with identical behaviour — the same
    schedule object, wake slot, and departure slot — so the simulation
    core scales with the number of distinct behaviours rather than the
    number of agents.  Construction is columnar
    (:meth:`from_columns`) with an object-level convenience wrapper
    (:meth:`from_agents`) that deduplicates schedules by identity.
    """

    def __init__(
        self,
        schedules: Sequence[Schedule],
        cohort_schedule: np.ndarray,
        cohort_wake: np.ndarray,
        cohort_leave: np.ndarray,
        cohort_members: list[np.ndarray],
        num_agents: int,
    ):
        self.schedules = list(schedules)
        self.cohort_schedule = np.asarray(cohort_schedule, dtype=np.int64)
        self.cohort_wake = np.asarray(cohort_wake, dtype=np.int64)
        self.cohort_leave = np.asarray(cohort_leave, dtype=np.int64)
        self.cohort_members = cohort_members
        self.num_agents = num_agents
        self.cohort_size = np.array(
            [len(m) for m in cohort_members], dtype=np.int64
        )
        channels: set[int] = set()
        for schedule in self.schedules:
            channels |= schedule.channels
        if channels and min(channels) < 0:
            raise ValueError("channel values must be nonnegative")
        #: One past the largest channel value any schedule visits.
        self.num_channels = (max(channels) + 1) if channels else 0
        #: The distinct channel values, ascending; a value's index here
        #: is its dense channel id.
        self.channel_values = np.array(sorted(channels), dtype=np.int64)

    @property
    def num_cohorts(self) -> int:
        """Number of distinct (schedule, wake, leave) cohorts."""
        return len(self.cohort_schedule)

    @classmethod
    def from_columns(
        cls,
        schedules: Sequence[Schedule],
        schedule_index: np.ndarray,
        wake: np.ndarray,
        leave: np.ndarray | None = None,
    ) -> "Population":
        """Build from per-agent columns, grouping cohorts vectorized.

        ``schedule_index[a]`` names agent ``a``'s schedule in
        ``schedules``; ``wake[a]`` its wake slot; ``leave[a]`` its
        departure slot (``LEAVE_NEVER`` or ``None`` for none).  Cohorts
        come out sorted lexicographically by (schedule, wake, leave),
        so cohort numbering is deterministic.
        """
        schedule_index = np.asarray(schedule_index, dtype=np.int64)
        wake = np.asarray(wake, dtype=np.int64)
        if leave is None:
            leave = np.full(len(wake), LEAVE_NEVER, dtype=np.int64)
        else:
            leave = np.asarray(leave, dtype=np.int64)
        if not (len(schedule_index) == len(wake) == len(leave)):
            raise ValueError("population columns must have equal length")
        if len(wake) and wake.min() < 0:
            raise ValueError("wake times must be nonnegative")
        if len(schedule_index) and (
            schedule_index.min() < 0 or schedule_index.max() >= len(schedules)
        ):
            raise ValueError("schedule_index out of range")
        columns = np.stack([schedule_index, wake, leave])
        keys, inverse = np.unique(columns, axis=1, return_inverse=True)
        inverse = inverse.reshape(-1)
        order = np.argsort(inverse, kind="stable")
        bounds = np.searchsorted(
            inverse[order], np.arange(keys.shape[1] + 1)
        )
        members = [
            order[bounds[c] : bounds[c + 1]] for c in range(keys.shape[1])
        ]
        return cls(
            schedules,
            keys[0],
            keys[1],
            keys[2],
            members,
            num_agents=len(wake),
        )

    @classmethod
    def from_agents(cls, agents: Sequence[Agent]) -> "Population":
        """Build from :class:`Agent` objects, sharing schedules by identity.

        Agents holding the *same schedule object* share one period
        table (and one cohort, when wake and leave also agree); equal
        but distinct schedule objects simply land in separate cohorts —
        a performance distinction, never a correctness one.
        """
        schedules: list[Schedule] = []
        index_of: dict[int, int] = {}
        schedule_index = np.empty(len(agents), dtype=np.int64)
        wake = np.empty(len(agents), dtype=np.int64)
        leave = np.full(len(agents), LEAVE_NEVER, dtype=np.int64)
        for a, agent in enumerate(agents):
            key = id(agent.schedule)
            g = index_of.get(key)
            if g is None:
                g = len(schedules)
                schedules.append(agent.schedule)
                index_of[key] = g
            schedule_index[a] = g
            wake[a] = agent.wake_time
            if agent.leave_time is not None:
                leave[a] = agent.leave_time
        return cls.from_columns(schedules, schedule_index, wake, leave)

    def schedule_overlap(self) -> np.ndarray:
        """Boolean (cohort, cohort) matrix: do the channel sets intersect?

        Computed at the distinct-schedule level (a small membership
        matmul) and expanded to cohorts by indexing, so the cost scales
        with distinct schedules rather than cohorts.
        """
        overlap = _schedule_overlap(_schedule_membership(self))
        return overlap[self.cohort_schedule][:, self.cohort_schedule]


class NetResult:
    """Columnar outcome of one :func:`simulate_population` run.

    Events stay at cohort granularity: ``pair_events`` holds one row per
    *cohort pair* first meeting, ``intra_events`` one row per cohort of
    two or more members (its internal pairs all meet the slot the
    cohort wakes).  Population metrics derive from these plus the
    cohort sizes without ever materializing agent pairs; the exact
    agent-pair events of the pairwise reference are recovered on demand
    by :meth:`iter_agent_events`.

    Contention counters cover global slots ``[0, slots_simulated)`` —
    with ``early_stop`` the simulator retires once no pending pair can
    still meet (every overlapping pair has met, or one of its cohorts
    has left), so ``slots_simulated`` can be well short of the horizon.
    """

    def __init__(
        self,
        population: Population,
        horizon: int,
        slots_simulated: int,
        pair_events: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        intra_events: tuple[np.ndarray, np.ndarray, np.ndarray],
        contended_slots: np.ndarray,
        pair_colocations: np.ndarray,
        overlapping_pairs: int,
        unmet_cohort_pairs: int,
    ):
        self.population = population
        self.horizon = horizon
        self.slots_simulated = slots_simulated
        self.event_i, self.event_j, self.event_time, self.event_channel = (
            pair_events
        )
        self.intra_cohort, self.intra_time, self.intra_channel = intra_events
        self.contended_slots = contended_slots
        self.pair_colocations = pair_colocations
        self.overlapping_pairs = overlapping_pairs
        self.unmet_cohort_pairs = unmet_cohort_pairs

    def met_pairs(self) -> int:
        """Number of agent pairs that met, weighted by cohort sizes."""
        sizes = self.population.cohort_size
        inter = int(np.sum(sizes[self.event_i] * sizes[self.event_j]))
        intra_sizes = sizes[self.intra_cohort]
        intra = int(np.sum(intra_sizes * (intra_sizes - 1) // 2))
        return inter + intra

    def all_discovered(self) -> bool:
        """Whether every overlapping agent pair met within the horizon."""
        return self.met_pairs() == self.overlapping_pairs

    def discovery_time(self) -> int | None:
        """Global slot by which every overlapping pair has met (or None)."""
        if not self.all_discovered():
            return None
        times = np.concatenate([self.event_time, self.intra_time])
        return int(times.max()) if times.size else 0

    def discovery_profile(self) -> DiscoveryProfile:
        """First-meet times with agent-pair weights, sorted by time."""
        sizes = self.population.cohort_size
        intra_sizes = sizes[self.intra_cohort]
        times = np.concatenate([self.intra_time, self.event_time])
        weights = np.concatenate(
            [
                intra_sizes * (intra_sizes - 1) // 2,
                sizes[self.event_i] * sizes[self.event_j],
            ]
        )
        order = np.argsort(times, kind="stable")
        return DiscoveryProfile(
            times=times[order],
            weights=weights[order],
            overlapping_pairs=self.overlapping_pairs,
        )

    def iter_agent_events(self):
        """Yield ``(agent_i, agent_j, time, channel)`` per first meeting.

        Expands cohort events combinatorially — quadratic in cohort
        sizes, so intended for populations small enough to want the
        pairwise representation (the :class:`~repro.sim.network.Network`
        facade and parity tests), not for the 10k-agent regime.
        """
        members = self.population.cohort_members
        for c, t, ch in zip(self.intra_cohort, self.intra_time, self.intra_channel):
            group = members[c]
            for x in range(len(group)):
                for y in range(x + 1, len(group)):
                    yield int(group[x]), int(group[y]), int(t), int(ch)
        for i, j, t, ch in zip(
            self.event_i, self.event_j, self.event_time, self.event_channel
        ):
            for a in members[i]:
                for b in members[j]:
                    yield int(a), int(b), int(t), int(ch)


#: Width (slots) of a run's first time block; each later block doubles,
#: up to the chunk width.
_FIRST_BLOCK = 256

#: Most (slot, cohort) cells one contention ``bincount`` covers.
_CONTENTION_CELLS = 1 << 18


def _schedule_membership(population: Population) -> np.ndarray:
    """Boolean (schedule, dense channel id) matrix: who visits what."""
    values = population.channel_values
    membership = np.zeros((len(population.schedules), values.size), dtype=bool)
    for g, schedule in enumerate(population.schedules):
        membership[g, np.searchsorted(values, sorted(schedule.channels))] = True
    return membership


def _schedule_overlap(membership: np.ndarray) -> np.ndarray:
    """Boolean (schedule, schedule) matrix: do the channel sets intersect?"""
    weights = membership.astype(np.float64)
    return (weights @ weights.T) > 0


def _bits(cohorts: np.ndarray) -> np.ndarray:
    """Each cohort's bit in word ``cohort >> 6`` of a packed cohort bitset."""
    return np.left_shift(np.uint64(1), (cohorts & 63).astype(np.uint64))


def _set_bits(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(index into words, bit)`` of every set bit, in ascending order.

    Only the nonzero bytes are unpacked: hit words are sparse, about two
    bits each.  Bit ``b`` of a little-endian word is bit ``b % 8`` of
    its byte ``b // 8``.
    """
    octets = words.astype("<u8", copy=False).view(np.uint8)
    nonzero = np.flatnonzero(octets)
    found = np.flatnonzero(np.unpackbits(octets[nonzero], bitorder="little"))
    position = (nonzero[found >> 3] << 3) + (found & 7)
    return position >> 6, position & 63


def _member_bits(
    channel: np.ndarray, cohort: np.ndarray, num_channels: int, words: int
) -> np.ndarray:
    """``(channels, words)`` bitsets: row ``d`` holds every cohort listed
    with channel id ``d``.  The ``(channel, cohort)`` pairs must be
    distinct: distinct cohorts own distinct bits, so adding them ORs
    them."""
    members = np.zeros((num_channels, words), dtype=np.uint64)
    np.add.at(members, (channel, cohort >> 6), _bits(cohort))
    return members


def _pending_pairs(
    population: Population, membership: np.ndarray, alive: np.ndarray
) -> np.ndarray:
    """Packed ``(cohorts, words)`` bitset of the cohort pairs yet to meet.

    Bit ``j`` of row ``i`` (word ``j >> 6``, bit ``j & 63``) is set iff
    ``i < j``, both cohorts are alive and their channel sets intersect,
    so each pair is held once, in its lower cohort's row.  Built from
    one bitset per channel, OR-ed per distinct schedule: no
    ``(cohort, cohort)`` matrix is materialized.
    """
    num_cohorts = population.num_cohorts
    words = (num_cohorts + 63) >> 6
    cohort, channel = np.nonzero(
        membership[population.cohort_schedule] & alive[:, None]
    )
    on_channel = _member_bits(channel, cohort, membership.shape[1], words)
    # Every schedule visits at least one channel, so no segment is empty.
    schedule, channel = np.nonzero(membership)
    starts = np.searchsorted(schedule, np.arange(membership.shape[0]))
    by_schedule = np.bitwise_or.reduceat(on_channel[channel], starts, axis=0)
    pending = by_schedule[population.cohort_schedule]
    pending[~alive] = 0
    index = np.arange(num_cohorts)
    pending[np.arange(words)[None, :] < (index >> 6)[:, None]] = 0
    below = (_bits(index) << np.uint64(1)) - np.uint64(1)
    pending[index, index >> 6] &= ~below
    return pending


def _drop_cohorts(pending: np.ndarray, cohorts: list[int]) -> int:
    """Clear every pending pair of ``cohorts``; returns how many there were.

    Each pair sits once, in its lower cohort's row, so clearing the
    cohorts' rows and then their bits in every row clears each pair
    exactly once.
    """
    cohorts = np.asarray(cohorts, dtype=np.int64)
    cleared = int(np.bitwise_count(pending[cohorts]).sum())
    pending[cohorts] = 0
    column = np.zeros(pending.shape[1], dtype=np.uint64)
    np.bitwise_or.at(column, cohorts >> 6, _bits(cohorts))
    cleared += int(np.bitwise_count(pending & column).sum())
    pending &= ~column
    return cleared


def _assemble_block(
    population: Population,
    rows_idx: np.ndarray,
    start: int,
    stop: int,
) -> np.ndarray:
    """Slot-major dense channel ids of cohorts ``rows_idx`` over ``[start, stop)``.

    Returns a ``(stop - start, rows)`` matrix of indices into
    ``population.channel_values``; pre-wake and post-leave cells hold
    the asleep id ``channel_values.size``.  One
    :meth:`~repro.core.schedule.Schedule.channel_gather` call per
    distinct schedule covers every cohort row sharing it.
    """
    values = population.channel_values
    asleep = values.size
    dense = np.full((stop - start, rows_idx.size), asleep, dtype=np.int64)
    offsets = np.arange(start, stop, dtype=np.int64)[:, None]
    scheds = population.cohort_schedule[rows_idx]
    for g in np.unique(scheds):
        telemetry.count("netsim.gather_calls")
        sel = np.nonzero(scheds == g)[0]
        cohorts = rows_idx[sel]
        local = offsets - population.cohort_wake[cohorts]
        valid = (local >= 0) & (offsets < population.cohort_leave[cohorts])
        gathered = population.schedules[g].channel_gather(
            np.where(valid, local, 0)
        )
        dense[:, sel] = np.where(
            valid, np.searchsorted(values, gathered), asleep
        )
    return dense


def _scan_block(
    dense: np.ndarray,
    rows_idx: np.ndarray,
    num_values: int,
    pending: np.ndarray,
    remaining: int,
    valid: np.ndarray | None,
    early_stop: bool,
    start: int,
) -> tuple[int, int, list[tuple[np.ndarray, ...]]]:
    """First meetings in one block: ``(slots scanned, remaining, events)``.

    ``dense`` is the block's ``(slots, rows)`` channel-id matrix from
    :func:`_assemble_block` (``num_values`` is its asleep id) and
    ``valid``, when given, its ``(slots, channels)`` fault mask.  Each
    slot ANDs every row's pending bits with the member bitset of the
    channel the row sits on — empty for the asleep id and for channels
    the mask rejects — so one AND finds the slot's meetings on every
    channel, and their bits are cleared from ``pending``.  Events come
    out as ``(i, j, slot, dense channel)`` arrays, in (channel, i, j)
    order within a slot.  With ``early_stop`` the scan ends at the slot
    the last pending pair meets.
    """
    slots = dense.shape[0]
    words = pending.shape[1]
    rows_pending = pending[rows_idx]
    flat_pending = rows_pending.reshape(-1)
    events: list[tuple[np.ndarray, ...]] = []
    scanned = slots
    for s in range(slots):
        column = dense[s]
        members = _member_bits(column, rows_idx, num_values + 1, words)
        members[num_values] = 0
        if valid is not None:
            members[:num_values][~valid[s]] = 0
        hits = rows_pending & members[column]
        flat = np.flatnonzero(hits)
        if not flat.size:
            continue
        found = hits.reshape(-1)[flat]
        flat_pending[flat] ^= found
        row, word = np.divmod(flat, words)
        k, bit = _set_bits(found)
        row = row[k]
        channel = column[row]
        # Hits come out sorted by (i, j); a stable sort by channel gives
        # the (channel, i, j) event order.
        order = np.argsort(channel, kind="stable")
        first = rows_idx[row[order]]
        events.append(
            (
                first,
                ((word[k] << 6) + bit)[order],
                np.full(first.size, start + s, dtype=np.int64),
                channel[order],
            )
        )
        remaining -= first.size
        if remaining == 0:
            if early_stop:
                scanned = s + 1
            break
    pending[rows_idx] = rows_pending
    return scanned, remaining, events


def _contention(
    dense: np.ndarray, sizes_rows: np.ndarray, num_values: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-channel ``(contended slots, co-located agent pairs)`` over ``dense``.

    A ``bincount`` over (slot, channel id) weighs each awake row by its
    cohort size; the asleep id's column is dropped.  It runs over
    pieces of at most ``_CONTENTION_CELLS`` cells, so its key and weight
    temporaries stay small next to ``dense`` itself.
    """
    slots, rows = dense.shape
    step = max(1, _CONTENTION_CELLS // max(rows, 1))
    agents_on = np.empty((slots, num_values + 1), dtype=np.int64)
    for lo in range(0, slots, step):
        piece = dense[lo : lo + step]
        key = np.arange(piece.shape[0])[:, None] * (num_values + 1) + piece
        agents_on[lo : lo + step] = np.bincount(
            key.reshape(-1),
            weights=np.broadcast_to(sizes_rows, key.shape).reshape(-1),
            minlength=key.shape[0] * (num_values + 1),
        ).reshape(-1, num_values + 1)
    agents_on = agents_on[:, :num_values]
    return (
        np.count_nonzero(agents_on >= 2, axis=0),
        np.sum(agents_on * (agents_on - 1) // 2, axis=0),
    )


def _first_valid_meet(
    schedule: Schedule,
    wake: int,
    leave: int,
    horizon: int,
    chunk: int,
    environment: Environment,
) -> tuple[int, int] | None:
    """First ``(slot, channel)`` where an intra-cohort pair's coincidence
    survives the environment mask, or ``None`` if none does.

    Members of one cohort sit on the same channel every awake slot, so
    their meeting slot is the first global slot in
    ``[wake, min(leave, horizon))`` the mask validates — scanned in
    chunks so huge-period schedules never materialize a full row.
    """
    stop_at = min(leave, horizon)
    for start in range(wake, stop_at, chunk):
        stop = min(start + chunk, stop_at)
        slots = np.arange(start, stop, dtype=np.int64)
        channels = schedule.channel_gather(slots - wake)
        valid = np.broadcast_to(
            environment.slot_mask(channels, slots), channels.shape
        )
        hits = np.nonzero(valid)[0]
        if hits.size:
            k = int(hits[0])
            return int(slots[k]), int(channels[k])
    return None




def simulate_population(
    population: Population,
    horizon: int,
    chunk: int = DEFAULT_CHUNK,
    early_stop: bool = True,
    environment: Environment | None = None,
) -> NetResult:
    """Simulate ``horizon`` slots over the whole population, vectorized.

    Per chunk: pop the event wheel to update the active-cohort set, then
    walk the chunk in time blocks (256 slots first, doubling up to the
    chunk width).  Each block assembles a slot-major
    ``(slots, active cohorts)`` matrix of dense channel ids; each slot
    ANDs every cohort's pending-pair bitset with the member bitset of
    its channel, records the hits as first meetings and retires them
    (first-meet retirement).  One ``bincount`` over (slot, channel) per
    block accumulates the per-channel contention counters over exactly
    the slots scanned.  At the end of each chunk, the pending pairs of
    cohorts that left in it are dropped: they can never meet, and
    ``unmet_cohort_pairs`` still counts them.  With ``early_stop`` (the
    default) the scan — and assembly — retires once no pending pair
    is left: at the slot the last one meets, or at the end of the
    chunk in which the last cohort with an unmet pair leaves;
    ``early_stop=False`` scans the full horizon so contention metrics
    cover every slot.

    With an ``environment``
    (:class:`~repro.core.environment.Environment`), each block also
    evaluates the fault mask over its ``(global slot, channel)`` grid
    and a coincidence only counts as a meeting on a validated cell —
    the *same* mask generator the sweep engines apply, here on the
    global simulation clock (the sweep engines index it by slots since
    the later wake-up; see ``docs/ARCHITECTURE.md``).  Intra-cohort
    pairs, which the clean path retires at their wake slot, instead
    meet at the first masked-valid awake slot (or never).  Contention
    counters stay *raw* — primary users occupying a channel still
    contend with everyone sensing it; the mask decides meetings, not
    presence.

    Certified bit-identical to the pairwise reference
    (``Network.run(engine="pairwise")``) in ``tests/sim/test_netcore.py``,
    clean and masked.
    """
    if horizon <= 0:
        raise ValueError(f"horizon must be positive, got {horizon}")
    if chunk <= 0:
        raise ValueError(f"chunk must be positive, got {chunk}")
    sizes = population.cohort_size
    num_cohorts = population.num_cohorts
    values = population.channel_values
    num_values = values.size
    membership = _schedule_membership(population)
    # The reference counts every channel-set-sharing pair as
    # overlapping, whether or not it ever wakes.  Over the agent counts
    # per schedule, S @ overlap @ S counts each overlapping pair twice
    # and each agent once with itself.
    per_schedule = np.bincount(
        population.cohort_schedule,
        weights=sizes,
        minlength=len(population.schedules),
    ).astype(np.int64)
    overlap = _schedule_overlap(membership).astype(np.int64)
    overlapping_pairs = (
        int(per_schedule @ overlap @ per_schedule) - int(per_schedule.sum())
    ) // 2

    # A cohort participates only if it is awake before both the horizon
    # and its own departure.
    alive = (population.cohort_wake < horizon) & (
        population.cohort_wake < population.cohort_leave
    )
    pending = _pending_pairs(population, membership, alive)
    remaining = int(np.bitwise_count(pending).sum())
    # Unmet pairs dropped from ``pending`` when one of their cohorts left.
    departed = 0

    # Intra-cohort pairs share one behaviour: clean, they meet the slot
    # the cohort wakes, on the schedule's first channel; under an
    # environment, at the first awake slot the mask validates (if any).
    intra_mask = alive & (sizes >= 2)
    intra_cohort = np.nonzero(intra_mask)[0]
    if environment is None:
        intra_time = population.cohort_wake[intra_cohort]
        intra_channel = np.array(
            [
                population.schedules[g].channel_at(0)
                for g in population.cohort_schedule[intra_cohort]
            ],
            dtype=np.int64,
        )
    else:
        kept, times, channels_out = [], [], []
        for c in intra_cohort:
            meet = _first_valid_meet(
                population.schedules[population.cohort_schedule[c]],
                int(population.cohort_wake[c]),
                int(population.cohort_leave[c]),
                horizon,
                chunk,
                environment,
            )
            if meet is not None:
                kept.append(c)
                times.append(meet[0])
                channels_out.append(meet[1])
        intra_cohort = np.array(kept, dtype=np.int64)
        intra_time = np.array(times, dtype=np.int64)
        intra_channel = np.array(channels_out, dtype=np.int64)

    wheel = EventWheel(chunk)
    for c in np.nonzero(alive)[0]:
        wheel.push(int(population.cohort_wake[c]), WAKE, int(c))
        if population.cohort_leave[c] < horizon:
            wheel.push(int(population.cohort_leave[c]), LEAVE, int(c))

    contended_slots = np.zeros(num_values, dtype=np.int64)
    pair_colocations = np.zeros(num_values, dtype=np.int64)
    events: list[tuple[np.ndarray, ...]] = []

    active = np.zeros(num_cohorts, dtype=bool)
    slots_simulated = 0
    done = early_stop and remaining == 0
    width = min(_FIRST_BLOCK, chunk)
    with telemetry.span("netsim.simulate"):
        for start in range(0, horizon, chunk):
            if done:
                break
            stop = min(start + chunk, horizon)
            leaves: list[int] = []
            for _, kind, cohort in wheel.pop(start // chunk):
                if kind == WAKE:
                    active[cohort] = True
                else:
                    leaves.append(cohort)
            rows_idx = np.nonzero(active)[0]
            if rows_idx.size == 0:
                slots_simulated = stop
                for cohort in leaves:
                    active[cohort] = False
                continue
            telemetry.count("netsim.chunks")
            telemetry.count("netsim.cohort_rows", int(rows_idx.size))
            sizes_rows = sizes[rows_idx]
            block_start = start
            while block_start < stop and not done:
                block_stop = min(block_start + width, stop)
                width = min(2 * width, chunk)
                with telemetry.span("netsim.assemble") as assemble_span:
                    dense = _assemble_block(
                        population, rows_idx, block_start, block_stop
                    )
                    assemble_span.add_bytes(dense.nbytes)
                valid = None
                if environment is not None and remaining:
                    # One (slot, channel) validity grid per block — the
                    # identical mask generator the sweep engines tile with.
                    with telemetry.span("netsim.mask"):
                        slots = np.arange(block_start, block_stop, dtype=np.int64)
                        valid = np.broadcast_to(
                            environment.slot_mask(values[None, :], slots[:, None]),
                            (slots.size, num_values),
                        )
                with telemetry.span("netsim.scan"):
                    scanned = block_stop - block_start
                    if remaining:
                        scanned, remaining, found = _scan_block(
                            dense,
                            rows_idx,
                            num_values,
                            pending,
                            remaining,
                            valid,
                            early_stop,
                            block_start,
                        )
                        events += found
                    busy, pairs = _contention(
                        dense[:scanned], sizes_rows, num_values
                    )
                    contended_slots += busy
                    pair_colocations += pairs
                slots_simulated = block_start + scanned
                done = early_stop and remaining == 0
                block_start = block_stop
            for cohort in leaves:
                active[cohort] = False
            if leaves and remaining:
                # A cohort that left can meet no one again: retire its
                # pairs, so the early stop waits only on pairs that can.
                dropped = _drop_cohorts(pending, leaves)
                remaining -= dropped
                departed += dropped
                done = early_stop and remaining == 0

    if events:
        event_i, event_j, event_time, event_channel = (
            np.concatenate(column) for column in zip(*events)
        )
    else:
        event_i, event_j, event_time, event_channel = (
            np.empty(0, dtype=np.int64) for _ in range(4)
        )
    # Counters were kept per dense channel id; the public arrays are
    # indexed by channel value.
    per_value = np.zeros((2, population.num_channels), dtype=np.int64)
    per_value[:, values] = contended_slots, pair_colocations
    return NetResult(
        population,
        horizon,
        slots_simulated,
        (event_i, event_j, event_time, values[event_channel]),
        (intra_cohort, intra_time, intra_channel),
        per_value[0],
        per_value[1],
        overlapping_pairs,
        unmet_cohort_pairs=remaining + departed,
    )
