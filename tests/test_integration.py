"""Cross-module integration tests: the whole pipeline, end to end.

These tests exercise realistic flows that cut across subpackages:
workload generation -> schedule construction -> simulation ->
verification -> metrics, for every algorithm the library ships.
"""

from __future__ import annotations

import pytest

import repro
from repro.baselines import BASELINE_NAMES
from repro.core import bounds
from repro.core.verification import (
    exhaustive_shift_range,
    ttr_for_shift,
    verify_guarantee,
)
from repro.sim import (
    Agent,
    ChirpAndListen,
    Network,
    coalition_bands,
    measure_instance,
    nested,
    random_subsets,
    single_overlap,
    summarize_ttrs,
    whitespace,
)


class TestFullDiscoveryAcrossAlgorithms:
    @pytest.mark.parametrize("algorithm", ("paper", "paper-symmetric") + BASELINE_NAMES)
    def test_random_workload_full_discovery(self, algorithm):
        n = 16
        instance = random_subsets(n, 4, 4, seed=8)
        horizon = {
            "paper": 100_000,
            "paper-symmetric": 400_000,
            "crseq": 100_000,
            "jump-stay": 500_000,
            "drds": 100_000,
            "zos": 100_000,
            "async-etch": 100_000,
            "random": 100_000,
        }[algorithm]
        agents = [
            Agent(
                f"{algorithm}{i}",
                repro.build_schedule(s, n, algorithm=algorithm),
                wake_time=7 * i,
            )
            for i, s in enumerate(instance.sets)
        ]
        result = Network(agents).run(horizon)
        assert result.all_discovered(), (algorithm, result.unmet_pairs())


class TestWorkloadsThroughPipeline:
    def test_whitespace_measured_instance(self):
        instance = whitespace(32, 5, incumbent_load=0.5, seed=4)
        measured = measure_instance(
            instance, "paper", horizon=200_000, max_pairs=4, dense=8, probes=8
        )
        assert measured
        stats = summarize_ttrs(m.worst_ttr for m in measured)
        assert stats.maximum < 200_000

    def test_coalition_cross_band_discovery(self):
        n = 128
        instance = coalition_bands(
            n, band_width=8, agents_per_band=2, num_bands=3, overlap=2, seed=3
        )
        agents = [
            Agent(f"m{i}", repro.build_schedule(s, n), wake_time=29 * i)
            for i, s in enumerate(instance.sets)
        ]
        result = Network(agents).run(500_000)
        assert result.all_discovered(), result.unmet_pairs()

    def test_nested_chain_discovery(self):
        n = 32
        instance = nested(n, [2, 4, 8], seed=6)
        agents = [
            Agent(f"s{i}", repro.build_schedule(s, n), wake_time=11 * i)
            for i, s in enumerate(instance.sets)
        ]
        result = Network(agents).run(200_000)
        assert result.all_discovered()
        # Nested sets: every pair overlaps (the chain shares its smallest set).
        assert len(result.events) == 3


class TestGuaranteesMatchBounds:
    def test_analytic_bounds_respected_end_to_end(self):
        n = 16
        a_set, b_set = {2, 9, 13}, {9, 15}
        a = repro.build_schedule(a_set, n)
        b = repro.build_schedule(b_set, n)
        bound = bounds.theorem3_async_bound(len(a_set), len(b_set), n)
        ok, worst, failing = verify_guarantee(
            a, b, bound, shifts=range(0, 5000, 11)
        )
        assert ok, failing
        assert worst <= bound

    def test_symmetric_wrapper_composes_with_simulator(self):
        n = 64
        shared = {4, 30, 59}
        agents = [
            Agent(
                f"w{i}",
                repro.build_schedule(shared, n, algorithm="paper-symmetric"),
                wake_time=i * 5 + 1,
            )
            for i in range(3)
        ]
        result = Network(agents).run(1000)
        assert result.all_discovered()
        assert all(
            e.ttr <= bounds.symmetric_wrapper_bound()
            for e in result.events.values()
        )


class TestHandshakeOverRendezvous:
    def test_identification_follows_copresence(self):
        """Mutual identification can only happen at or after the first
        co-presence the plain simulator reports."""
        n = 16
        a = Agent("a", repro.build_schedule({3, 7}, n))
        b = Agent("b", repro.build_schedule({7, 12}, n), wake_time=9)
        plain = Network([a, b]).run(20_000)
        copresence = plain.events[("a", "b")].time
        handshake = ChirpAndListen([a, b], seed=1).run(40_000)
        mutual = handshake.mutual_identification_time("a", "b")
        assert mutual is not None
        assert mutual >= copresence


class TestCrossAlgorithmIsolation:
    def test_different_algorithms_do_not_rendezvous_reliably(self):
        """Sanity: the guarantees are within-algorithm; deployments must
        not mix algorithms.  (Mixed pairs may still meet by luck; the
        point is the library keeps the schedules distinct.)"""
        n = 16
        paper = repro.build_schedule({3, 7}, n, algorithm="paper")
        crseq = repro.build_schedule({3, 7}, n, algorithm="crseq")
        window_paper = paper.materialize(0, 64)
        window_crseq = crseq.materialize(0, 64)
        assert list(window_paper) != list(window_crseq)

    def test_all_algorithms_only_play_available_channels(self):
        n = 16
        channels = {2, 9, 13}
        for algorithm in ("paper", "paper-sync", "paper-symmetric") + BASELINE_NAMES:
            sched = repro.build_schedule(channels, n, algorithm=algorithm)
            window = sched.materialize(0, 3000)
            assert set(int(c) for c in window) <= channels, algorithm


class TestDeterminismAcrossProcessBoundary:
    def test_schedules_are_pure_functions_of_inputs(self):
        """Anonymity + determinism: rebuilt schedules are identical."""
        n = 32
        for algorithm in ("paper", "crseq", "jump-stay", "drds"):
            s1 = repro.build_schedule({1, 17, 29}, n, algorithm=algorithm)
            s2 = repro.build_schedule({1, 17, 29}, n, algorithm=algorithm)
            assert list(s1.materialize(0, 500)) == list(s2.materialize(0, 500))

    def test_ttr_reproducible(self):
        n = 16
        a = repro.build_schedule({1, 9}, n)
        b = repro.build_schedule({9, 14}, n)
        first = [ttr_for_shift(a, b, s, 10_000) for s in range(0, 40)]
        second = [ttr_for_shift(a, b, s, 10_000) for s in range(0, 40)]
        assert first == second


class TestTable1ExhaustiveWorstCases:
    """Worst TTRs over *every* shift class of ``single_overlap(n, 3, 3,
    seed=0)``: a strided sampler finds lower maxima, so it can never
    silently stand in for these."""

    @pytest.mark.parametrize(
        "algorithm, n, worst",
        [("paper", 64, 798), ("crseq", 64, 665), ("zos", 256, 153), ("drds", 32, 3240)],
    )
    def test_pinned_exhaustive_worst(self, algorithm, n, worst):
        instance = single_overlap(n, 3, 3, seed=0)
        a = repro.build_schedule(instance.sets[0], n, algorithm)
        b = repro.build_schedule(instance.sets[1], n, algorithm)
        shifts = exhaustive_shift_range(a, b)
        profile = repro.ttr_sweep(a, b, shifts, 4 * max(a.period, b.period))
        assert len(profile) == a.period + b.period - 1
        assert None not in profile.values()
        assert max(profile.values()) == worst
