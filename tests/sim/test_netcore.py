"""Certification and unit tests for the vectorized network core.

The central contract: ``engine="vectorized"`` must produce events
*bit-identical* to the pairwise reference loop — same pairs, same slot,
same channel, same TTR — across every workload family, mixed wake
times, churn, and chunk sizes smaller than one schedule period.  The
same pattern certifies the sweep kernel against the scalar
``ttr_for_shift``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.schedule import ConstantSchedule, CyclicSchedule
from repro.sim import workloads
from repro.sim.agent import Agent
from repro.sim.netcore import (
    LEAVE,
    LEAVE_NEVER,
    WAKE,
    EventWheel,
    NetResult,
    Population,
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
