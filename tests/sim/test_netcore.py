"""Certification and unit tests for the vectorized network core.

The central contract: ``engine="vectorized"`` must produce events
*bit-identical* to the pairwise reference loop — same pairs, same slot,
same channel, same TTR — across every workload family, mixed wake
times, churn, and chunk sizes smaller than one schedule period.  The
same pattern certifies the sweep kernel against the scalar
``ttr_for_shift``.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import repro
from repro.core.environment import FadingMisses, PrimaryUserChurn
from repro.core.schedule import ConstantSchedule, CyclicSchedule
from repro.sim import workloads
from repro.sim.agent import ASLEEP, Agent
from repro.sim.netcore import (
    DEFAULT_CHUNK,
    LEAVE,
    LEAVE_NEVER,
    WAKE,
    EventWheel,
    NetResult,
    Population,
    _first_valid_meet,
    simulate_population,
)
from repro.sim.network import Network


def build_agents(instance, universe, *, wake=None, leave=None, algorithm="paper"):
    """Agents over an Instance, sharing one Schedule per distinct set.

    ``wake``/``leave`` map an agent index to its wake/leave slot (leave
    ``None`` means the agent never departs).  Sharing schedule objects
    is what lets the vectorized core group agents into cohorts.
    """
    schedules = {}
    agents = []
    for i, channels in enumerate(instance.sets):
        if channels not in schedules:
            schedules[channels] = repro.build_schedule(
                channels, universe, algorithm
            )
        agents.append(
            Agent(
                f"agent{i}",
                schedules[channels],
                wake(i) if wake else 0,
                leave(i) if leave else None,
            )
        )
    return agents


def assert_engines_agree(agents, horizon, chunk=1 << 14, environment=None):
    """Run both engines and require bit-identical event dictionaries."""
    reference = Network(agents).run(
        horizon, chunk=chunk, engine="pairwise", environment=environment
    )
    candidate = Network(agents).run(
        horizon, chunk=chunk, engine="vectorized", environment=environment
    )
    assert candidate.events == reference.events
    return reference


WORKLOADS = [
    ("random_subsets", lambda: workloads.random_subsets(12, 3, 24, seed=1)),
    ("symmetric", lambda: workloads.symmetric(10, 4, 18, seed=2)),
    ("single_overlap", lambda: workloads.single_overlap(14, 4, 5, seed=3)),
    (
        "coalition_bands",
        lambda: workloads.coalition_bands(16, 4, 5, 3, seed=4),
    ),
    ("whitespace", lambda: workloads.whitespace(12, 16, seed=5)),
    ("nested", lambda: workloads.nested(12, [2, 3, 5, 7], seed=6)),
    (
        "available_overlap",
        lambda: workloads.available_overlap(12, 4, 16, 0.5, seed=7),
    ),
    (
        "adversarial_single_common",
        lambda: workloads.adversarial_single_common(12, 3, 5, seed=8),
    ),
]


class TestEngineParity:
    @pytest.mark.parametrize(
        "name,make", WORKLOADS, ids=[name for name, _ in WORKLOADS]
    )
    def test_workload_parity_mixed_wakes(self, name, make):
        instance = make()
        agents = build_agents(instance, instance.n, wake=lambda i: (7 * i) % 23)
        assert_engines_agree(agents, 120_000)

    def test_chunk_smaller_than_period(self):
        """Chunks far below one schedule period must not change events."""
        instance = workloads.random_subsets(16, 3, 12, seed=9)
        agents = build_agents(instance, 16, wake=lambda i: 5 * i)
        full = assert_engines_agree(agents, 90_000, chunk=513)
        tiny = Network(agents).run(90_000, chunk=97, engine="vectorized")
        assert tiny.events == full.events

    def test_no_overlap_population(self):
        """Disjoint channel sets: zero pairs, zero events, both engines."""
        agents = [
            Agent("a", ConstantSchedule(0)),
            Agent("b", ConstantSchedule(1), wake_time=3),
            Agent("c", ConstantSchedule(2)),
        ]
        reference = assert_engines_agree(agents, 500)
        assert reference.events == {}
        population = Population.from_agents(agents)
        net = simulate_population(population, 500)
        assert net.overlapping_pairs == 0
        assert net.all_discovered()
        assert net.discovery_time() == 0

    def test_churn_parity(self):
        """Agents leaving mid-run produce identical events on both engines."""
        instance = workloads.random_subsets(12, 3, 20, seed=10)
        leaves = {3: 1, 7: 40, 11: 500, 15: 2}
        agents = build_agents(
            instance,
            12,
            wake=lambda i: (3 * i) % 11,
            leave=lambda i: leaves.get(i),
        )
        assert_engines_agree(agents, 60_000, chunk=97)

    def test_wake_beyond_horizon(self):
        """An agent waking after the horizon behaves as absent."""
        schedule = repro.build_schedule({1, 4}, 8)
        agents = [
            Agent("a", schedule),
            Agent("b", schedule, wake_time=10_000),
        ]
        assert_engines_agree(agents, 100)

    def test_intra_cohort_pairs(self):
        """Agents sharing one schedule object and wake slot meet at wake."""
        schedule = repro.build_schedule({2, 5, 9}, 12)
        agents = [Agent(f"a{i}", schedule, wake_time=4) for i in range(5)]
        agents.append(Agent("late", schedule, wake_time=9))
        reference = assert_engines_agree(agents, 50_000, chunk=7)
        for i in range(5):
            for j in range(i + 1, 5):
                assert reference.events[(f"a{i}", f"a{j}")].time == 4


class TestEnvironmentParity:
    """Masked runs: both engines agree under every fault family."""

    @pytest.mark.parametrize(
        "name,make", WORKLOADS, ids=[name for name, _ in WORKLOADS]
    )
    def test_workload_parity_under_fading(self, name, make):
        from repro.core.environment import FadingMisses

        instance = make()
        agents = build_agents(instance, instance.n, wake=lambda i: (7 * i) % 23)
        assert_engines_agree(
            agents, 60_000, chunk=257, environment=FadingMisses(0.3, seed=2)
        )

    def test_parity_under_churn_and_composition(self):
        from repro.core.environment import (
            AsymmetricSensing,
            FadingMisses,
            PrimaryUserChurn,
            compose,
        )

        instance = workloads.random_subsets(12, 3, 20, seed=12)
        agents = build_agents(instance, 12, wake=lambda i: (5 * i) % 17)
        for env in (
            PrimaryUserChurn(0.4, seed=3, dwell=32),
            AsymmetricSensing(0.3, seed=4),
            compose(FadingMisses(0.15, seed=5), PrimaryUserChurn(0.2, seed=6, dwell=16)),
        ):
            assert_engines_agree(agents, 60_000, chunk=129, environment=env)

    def test_zero_intensity_equals_clean(self):
        from repro.core.environment import FadingMisses, PrimaryUserChurn, compose

        instance = workloads.random_subsets(12, 3, 16, seed=13)
        agents = build_agents(instance, 12, wake=lambda i: 3 * i)
        clean = Network(agents).run(60_000, chunk=97, engine="vectorized")
        zero = compose(FadingMisses(0.0, seed=9), PrimaryUserChurn(0.0, seed=9))
        for engine in ("pairwise", "vectorized"):
            masked = Network(agents).run(
                60_000, chunk=97, engine=engine, environment=zero
            )
            assert masked.events == clean.events

    def test_intra_cohort_first_valid_slot(self):
        """A faded wake slot delays the intra-cohort meeting to the
        first mask-validated slot, identically on both engines."""
        from repro.core.environment import FadingMisses

        schedule = repro.build_schedule({2, 5, 9}, 12)
        agents = [Agent(f"a{i}", schedule, wake_time=4) for i in range(3)]
        env = FadingMisses(0.6, seed=7)
        reference = assert_engines_agree(
            agents, 50_000, chunk=7, environment=env
        )
        clean = assert_engines_agree(agents, 50_000, chunk=7)
        masked_time = reference.events[("a0", "a1")].time
        assert masked_time >= clean.events[("a0", "a1")].time
        for i in range(3):
            for j in range(i + 1, 3):
                assert reference.events[(f"a{i}", f"a{j}")].time == masked_time

    def test_churned_agents_under_mask(self):
        """Departures and fault masks interact identically on both engines."""
        from repro.core.environment import PrimaryUserChurn

        instance = workloads.random_subsets(12, 3, 20, seed=10)
        leaves = {3: 1, 7: 40, 11: 500, 15: 2}
        agents = build_agents(
            instance,
            12,
            wake=lambda i: (3 * i) % 11,
            leave=lambda i: leaves.get(i),
        )
        assert_engines_agree(
            agents,
            60_000,
            chunk=97,
            environment=PrimaryUserChurn(0.5, seed=8, dwell=8),
        )


class TestProperties:
    def test_seeded_determinism(self):
        """Identical seeds give identical populations and identical runs."""

        def run():
            instance = workloads.random_subsets(12, 3, 30, seed=11)
            rng = np.random.default_rng(11)
            agents = build_agents(
                instance,
                12,
                wake=lambda i: int(rng.integers(0, 16)),
                leave=lambda i: int(rng.integers(50, 5000))
                if rng.random() < 0.3
                else None,
            )
            population = Population.from_agents(agents)
            return Network(agents).run(30_000, engine="vectorized"), population

        first, pop_a = run()
        second, pop_b = run()
        assert first.events == second.events
        assert pop_a.num_cohorts == pop_b.num_cohorts
        assert np.array_equal(pop_a.cohort_wake, pop_b.cohort_wake)

    def test_removing_nonparticipant_preserves_events(self):
        """Dropping an agent sharing no channel with anyone changes nothing
        for the surviving pairs, on both engines."""
        instance = workloads.random_subsets(10, 3, 12, seed=12)
        agents = build_agents(instance, 10, wake=lambda i: i % 5)
        # The bystander lives on channels 10..12, outside everyone's sets.
        bystander = Agent(
            "bystander", CyclicSchedule([10, 11, 12]), wake_time=2
        )
        with_extra = Network(agents + [bystander]).run(
            40_000, engine="vectorized"
        )
        without = Network(agents).run(40_000, engine="vectorized")
        surviving = {
            pair: event
            for pair, event in with_extra.events.items()
            if "bystander" not in pair
        }
        assert surviving == without.events

    def test_churn_determinism(self):
        """Churn runs repeat bit-identically under a fixed seed."""
        instance = workloads.symmetric(10, 3, 16, seed=13)

        def run():
            agents = build_agents(
                instance,
                10,
                wake=lambda i: (5 * i) % 13,
                leave=lambda i: 30 + 7 * i if i % 3 == 0 else None,
            )
            return Network(agents).run(20_000, engine="vectorized").events

        assert run() == run()


class TestEventWheel:
    def test_push_pop_sorted(self):
        wheel = EventWheel(chunk=10)
        wheel.push(25, LEAVE, 1)
        wheel.push(21, WAKE, 2)
        wheel.push(21, WAKE, 0)
        wheel.push(5, WAKE, 3)
        assert len(wheel) == 4
        assert wheel.pop(2) == [(21, WAKE, 0), (21, WAKE, 2), (25, LEAVE, 1)]
        assert wheel.pop(2) == []
        assert wheel.pop(0) == [(5, WAKE, 3)]
        assert len(wheel) == 0

    def test_bad_chunk(self):
        with pytest.raises(ValueError, match="chunk"):
            EventWheel(chunk=0)


class TestPopulation:
    def test_cohort_grouping(self):
        shared = repro.build_schedule({1, 3}, 8)
        other = repro.build_schedule({3, 6}, 8)
        agents = [
            Agent("a", shared, wake_time=0),
            Agent("b", shared, wake_time=0),
            Agent("c", shared, wake_time=5),
            Agent("d", other, wake_time=0),
            Agent("e", shared, wake_time=0, leave_time=99),
        ]
        population = Population.from_agents(agents)
        assert population.num_agents == 5
        # (shared,0,never) x2; (shared,5,never); (other,0,never);
        # (shared,0,99) — four distinct keys -> 4 cohorts.
        assert population.num_cohorts == 4
        assert sorted(population.cohort_size.tolist()) == [1, 1, 1, 2]
        assert len(population.schedules) == 2

    def test_from_columns_validation(self):
        schedule = ConstantSchedule(1)
        with pytest.raises(ValueError, match="schedule_index"):
            Population.from_columns([schedule], np.array([0, 1]), np.zeros(2))
        with pytest.raises(ValueError, match="wake"):
            Population.from_columns([schedule], np.zeros(1), np.array([-1]))

    def test_schedule_overlap(self):
        a = repro.build_schedule({1, 2}, 8)
        b = repro.build_schedule({2, 3}, 8)
        c = repro.build_schedule({4, 5}, 8)
        agents = [Agent("a", a), Agent("b", b), Agent("c", c)]
        population = Population.from_agents(agents)
        overlap = population.schedule_overlap()
        labels = {
            tuple(sorted(population.schedules[i].channels)): i
            for i in range(len(population.schedules))
        }
        ia, ib, ic = labels[(1, 2)], labels[(2, 3)], labels[(4, 5)]
        assert overlap[ia, ib] and not overlap[ia, ic] and not overlap[ib, ic]
        assert overlap[ia, ia]

    def test_leave_never_sentinel(self):
        agents = [Agent("a", ConstantSchedule(1))]
        population = Population.from_agents(agents)
        assert population.cohort_leave[0] == LEAVE_NEVER


class TestNetResult:
    def _population(self):
        schedule = repro.build_schedule({1, 4}, 8)
        agents = [
            Agent("a", schedule),
            Agent("b", schedule),
            Agent("c", schedule, wake_time=3),
        ]
        return Population.from_agents(agents)

    def test_weighted_accounting(self):
        net = simulate_population(self._population(), 10_000)
        assert net.overlapping_pairs == 3
        assert net.met_pairs() == 3
        assert net.all_discovered()
        events = dict()
        for i, j, t, channel in net.iter_agent_events():
            events[(i, j)] = (t, channel)
        assert len(events) == 3
        assert events[(0, 1)][0] == 0  # intra-cohort pair meets at wake

    def test_early_stop_vs_full_horizon(self):
        population = self._population()
        stopped = simulate_population(population, 10_000)
        full = simulate_population(population, 10_000, early_stop=False)
        assert stopped.slots_simulated < full.slots_simulated
        assert full.slots_simulated == 10_000
        profile_a = stopped.discovery_profile()
        profile_b = full.discovery_profile()
        assert np.array_equal(profile_a.times, profile_b.times)
        assert np.array_equal(profile_a.weights, profile_b.weights)
        # Contention counters keep accumulating after the last meeting.
        assert full.contended_slots.sum() >= stopped.contended_slots.sum()

    def test_early_stop_once_departures_strand_the_rest(self):
        """Every pair left unmet has a cohort that departed (all by slot
        340), so the scan stops at the end of that chunk, not the horizon."""
        population = _churned_population(300, 7, "paper")
        stopped = simulate_population(population, 50_000)
        full = simulate_population(population, 50_000, early_stop=False)
        assert stopped.unmet_cohort_pairs == full.unmet_cohort_pairs > 0
        assert stopped.slots_simulated == DEFAULT_CHUNK
        assert full.slots_simulated == 50_000
        for field in (
            "event_i", "event_j", "event_time", "event_channel",
            "intra_cohort", "intra_time", "intra_channel",
        ):
            np.testing.assert_array_equal(
                getattr(stopped, field), getattr(full, field), err_msg=field
            )

    def test_contention_counters(self):
        # Two agents pinned to channel 2 forever: every simulated slot is
        # contended on channel 2 with exactly one co-located pair.
        agents = [
            Agent("a", ConstantSchedule(2)),
            Agent("b", ConstantSchedule(2)),
        ]
        net = simulate_population(
            Population.from_agents(agents), 50, early_stop=False
        )
        assert net.slots_simulated == 50
        assert net.contended_slots[2] == 50
        assert net.pair_colocations[2] == 50
        assert net.contended_slots.sum() == 50

    def test_validation(self):
        population = self._population()
        with pytest.raises(ValueError, match="horizon"):
            simulate_population(population, 0)
        with pytest.raises(ValueError, match="chunk"):
            simulate_population(population, 10, chunk=0)


def _reference_simulate(population, horizon, chunk, early_stop, environment):
    """The per-slot, per-channel bucket scan the bitset scan replaced.

    Pending pairs are a ``(cohorts, cohorts)`` bool matrix; each chunk
    assembles a row-major ``(active cohorts, chunk)`` channel matrix,
    and each slot buckets its column by raw channel value and gathers
    every crowded bucket's pending submatrix.  At the end of a chunk
    the pairs of every cohort that left in it leave the matrix, and
    the early stop tests what is left.  Returns the
    :class:`NetResult` fields the scan produces.
    """
    sizes = population.cohort_size
    overlap = population.schedule_overlap()
    np.fill_diagonal(overlap, False)
    alive = (population.cohort_wake < horizon) & (
        population.cohort_wake < population.cohort_leave
    )
    pending = overlap
    pending[~alive, :] = False
    pending[:, ~alive] = False
    remaining = int(np.count_nonzero(np.triu(pending, 1)))
    departed = 0

    intra_cohort = np.nonzero(alive & (sizes >= 2))[0]
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

    num_channels = population.num_channels
    contended_slots = np.zeros(num_channels, dtype=np.int64)
    pair_colocations = np.zeros(num_channels, dtype=np.int64)
    ev_i, ev_j, ev_t, ev_c = [], [], [], []
    active = np.zeros(population.num_cohorts, dtype=bool)
    slots_simulated = 0
    done = early_stop and remaining == 0
    for start in range(0, horizon, chunk):
        if done:
            break
        stop = min(start + chunk, horizon)
        leaves = []
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
        offsets = np.arange(start, stop, dtype=np.int64)
        rows = np.full((rows_idx.size, stop - start), ASLEEP, dtype=np.int64)
        for r, c in enumerate(rows_idx):
            local = offsets - population.cohort_wake[c]
            valid = (local >= 0) & (offsets < population.cohort_leave[c])
            schedule = population.schedules[population.cohort_schedule[c]]
            gathered = schedule.channel_gather(np.where(valid, local, 0))
            rows[r] = np.where(valid, gathered, ASLEEP)
        sizes_rows = sizes[rows_idx]
        valid_chunk = None
        if environment is not None and num_channels:
            valid_chunk = np.broadcast_to(
                environment.slot_mask(
                    np.arange(num_channels, dtype=np.int64)[:, None],
                    offsets[None, :],
                ),
                (num_channels, stop - start),
            )
        for s in range(stop - start):
            column = rows[:, s]
            awake = column >= 0
            slots_simulated = start + s + 1
            if not awake.any():
                continue
            values = column[awake]
            agents_on = np.bincount(
                values, weights=sizes_rows[awake], minlength=num_channels
            ).astype(np.int64)
            crowded = agents_on >= 2
            contended_slots += crowded
            pair_colocations += np.where(
                crowded, agents_on * (agents_on - 1) // 2, 0
            )
            if remaining:
                counts = np.bincount(values, minlength=num_channels)
                for channel in np.nonzero(counts >= 2)[0]:
                    if valid_chunk is not None and not valid_chunk[channel, s]:
                        continue
                    bucket = rows_idx[awake & (column == channel)]
                    sub = pending[np.ix_(bucket, bucket)]
                    if not sub.any():
                        continue
                    ii, jj = np.nonzero(np.triu(sub, 1))
                    first, second = bucket[ii], bucket[jj]
                    ev_i.append(first)
                    ev_j.append(second)
                    ev_t.append(np.full(first.size, start + s, dtype=np.int64))
                    ev_c.append(np.full(first.size, channel, dtype=np.int64))
                    pending[first, second] = False
                    pending[second, first] = False
                    remaining -= first.size
            if early_stop and remaining == 0:
                done = True
                break
        for cohort in leaves:
            active[cohort] = False
            dropped = int(np.count_nonzero(pending[cohort]))
            pending[cohort, :] = False
            pending[:, cohort] = False
            remaining -= dropped
            departed += dropped
        if early_stop and remaining == 0:
            done = True

    def concat(parts):
        return np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)

    return {
        "event_i": concat(ev_i),
        "event_j": concat(ev_j),
        "event_time": concat(ev_t),
        "event_channel": concat(ev_c),
        "intra_cohort": intra_cohort,
        "intra_time": intra_time,
        "intra_channel": intra_channel,
        "contended_slots": contended_slots,
        "pair_colocations": pair_colocations,
        "slots_simulated": slots_simulated,
        "unmet_cohort_pairs": remaining + departed,
    }


def _churned_population(num_agents, seed, algorithm):
    """Seeded population over 40 wake slots; a third of the agents leave
    1-300 slots after waking, mostly inside a chunk."""
    instance = workloads.random_subsets(12, 3, num_agents, seed=seed)
    rng = np.random.default_rng(seed)
    wakes = rng.integers(0, 40, size=num_agents)
    leaves = np.where(
        rng.random(num_agents) < 0.3,
        wakes + 1 + rng.integers(0, 300, size=num_agents),
        -1,
    )
    agents = build_agents(
        instance,
        12,
        wake=lambda i: int(wakes[i]),
        leave=lambda i: int(leaves[i]) if leaves[i] >= 0 else None,
        algorithm=algorithm,
    )
    return Population.from_agents(agents)


REFERENCE_ENVIRONMENTS = {
    "clean": None,
    "fading": FadingMisses(0.2, seed=3),
    "pu-churn": PrimaryUserChurn(0.3, seed=4, dwell=64),
}

# (agents, algorithm, chunk, environment, early_stop); every population
# spans at least three 64-cohort bitset words.
REFERENCE_CASES = [
    (150, "paper", 97, "clean", False),
    (300, "crseq", 513, "fading", False),
    (700, "paper", 4096, "pu-churn", False),
    (700, "jump-stay", 97, "clean", True),
    (150, "paper", 513, "pu-churn", True),
    (300, "paper", 4096, "fading", True),
]


class TestReferenceScan:
    """The bitset scan against the bucket scan it replaced, whole
    :class:`NetResult` at a time, across bitset word boundaries."""

    @pytest.mark.parametrize(
        "agents,algorithm,chunk,env,early_stop",
        REFERENCE_CASES,
        ids=[
            f"{agents}-{algorithm}-chunk{chunk}-{env}-{'stop' if stop else 'full'}"
            for agents, algorithm, chunk, env, stop in REFERENCE_CASES
        ],
    )
    def test_matches_bucket_scan(self, agents, algorithm, chunk, env, early_stop):
        population = _churned_population(agents, agents + chunk, algorithm)
        assert population.num_cohorts > 128
        assert (population.cohort_leave != LEAVE_NEVER).any()
        environment = REFERENCE_ENVIRONMENTS[env]
        horizon = 1500
        net = simulate_population(
            population,
            horizon,
            chunk=chunk,
            early_stop=early_stop,
            environment=environment,
        )
        expected = _reference_simulate(
            population, horizon, chunk, early_stop, environment
        )
        assert expected["event_i"].size > 0
        for field, value in expected.items():
            got = getattr(net, field)
            if isinstance(value, np.ndarray):
                assert got.dtype == value.dtype, field
                np.testing.assert_array_equal(got, value, err_msg=field)
            else:
                assert got == value, field

    def test_pairwise_parity_across_words(self):
        """150 agents over 16 wake slots: more than two bitset words of
        cohorts, certified against the pairwise reference."""
        instance = workloads.random_subsets(12, 3, 150, seed=21)
        agents = build_agents(instance, 12, wake=lambda i: (7 * i) % 16)
        assert Population.from_agents(agents).num_cohorts >= 130
        assert_engines_agree(agents, 20_000)


class TestChannelValues:
    def test_scan_cost_ignores_the_largest_channel_value(self):
        """Two-agent cohorts alone on channels 3 and 5_000_003 for 2,000
        slots: every slot contends both channels with one pair each.
        Channels are indexed densely, so the huge value costs one final
        scatter, not a per-slot pass over five million counters."""
        low, high = ConstantSchedule(3), ConstantSchedule(5_000_003)
        agents = [Agent("a", low), Agent("b", low), Agent("c", high), Agent("d", high)]
        started = time.perf_counter()
        net = simulate_population(
            Population.from_agents(agents), 2_000, early_stop=False
        )
        assert time.perf_counter() - started < 10
        assert net.slots_simulated == 2_000
        assert net.contended_slots.size == 5_000_004
        for channel in (3, 5_000_003):
            assert net.contended_slots[channel] == 2_000
            assert net.pair_colocations[channel] == 2_000
        assert net.contended_slots.sum() == net.pair_colocations.sum() == 4_000

    def test_masked_meetings_on_huge_channel_values(self):
        """A hopper between the two channels meets both cohorts under a
        fault mask, identically on both engines."""
        low, high = ConstantSchedule(3), ConstantSchedule(5_000_003)
        hopper = CyclicSchedule([3, 5_000_003])
        agents = [
            Agent("a", low),
            Agent("b", low, wake_time=5),
            Agent("c", high, wake_time=2),
            Agent("d", hopper, wake_time=1),
        ]
        reference = assert_engines_agree(
            agents, 2_000, environment=PrimaryUserChurn(0.5, seed=1, dwell=4)
        )
        assert {event.channel for event in reference.events.values()} == {
            3,
            5_000_003,
        }
