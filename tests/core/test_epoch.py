"""Tests for Theorem 3: the general n-schedule."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.core import epoch as epoch_module
from repro.core.epoch import EpochSchedule, rendezvous_bound
from repro.core.pairwise import async_period, pair_schedule_async, sync_period
from repro.core.verification import ttr_for_shift, verify_guarantee
from repro.sim.workloads import random_subsets


def _overlapping_sets(rng: random.Random, n: int, ka: int, kb: int):
    common = rng.randrange(n)
    rest = [c for c in range(n) if c != common]
    a = {common} | set(rng.sample(rest, ka - 1))
    b = {common} | set(rng.sample(rest, kb - 1))
    return a, b


class TestConstruction:
    def test_channels_sorted_and_deduplicated(self):
        s = EpochSchedule([9, 2, 2, 5], 16)
        assert s.sorted_channels == (2, 5, 9)
        assert s.k == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            EpochSchedule([], 16)

    def test_rejects_out_of_universe(self):
        with pytest.raises(ValueError):
            EpochSchedule([17], 16)
        with pytest.raises(ValueError):
            EpochSchedule([-1], 16)

    def test_primes_in_paper_window(self):
        for k in range(1, 12):
            s = EpochSchedule(list(range(k)), 64)
            p, q = s.prime_pair
            assert k <= p < q <= 3 * k

    def test_async_epoch_is_doubled(self):
        s = EpochSchedule([1, 2, 3], 64)
        assert s.epoch_length == 2 * async_period(64)

    def test_sync_epoch_is_single(self):
        s = EpochSchedule([1, 2, 3], 64, asynchronous=False)
        assert s.epoch_length == sync_period(64)

    def test_period_covers_all_epoch_pairs(self):
        s = EpochSchedule([0, 3, 7, 9], 32)
        p, q = s.prime_pair
        assert s.period == s.epoch_length * p * q

    def test_only_uses_own_channels(self):
        s = EpochSchedule([3, 7, 11], 16)
        window = s.materialize(0, s.period)
        assert set(int(c) for c in window) <= {3, 7, 11}

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError):
            EpochSchedule([1], 8).channel_at(-1)


class TestSingletonSets:
    def test_singleton_is_constant(self):
        s = EpochSchedule([5], 16)
        assert set(int(c) for c in s.materialize(0, 100)) == {5}

    def test_singleton_meets_anything_containing_it(self):
        n = 16
        a = EpochSchedule([5], n)
        b = EpochSchedule([2, 5, 9], n)
        bound = rendezvous_bound(a, b)
        for shift in range(0, 3 * b.epoch_length, 7):
            assert ttr_for_shift(a, b, shift, bound + 1) is not None


class TestEpochStructure:
    def test_epoch_indices_follow_primes(self):
        s = EpochSchedule(list(range(5)), 32)
        p, q = s.prime_pair
        for r in range(p * q):
            i, j = s._epoch_indices(r)
            expected_i = r % p if r % p < 5 else 0
            expected_j = r % q if r % q < 5 else 0
            assert (i, j) == (expected_i, expected_j)

    def test_fallback_to_first_channel(self):
        # k=4 has primes (5, 7): epoch r=4 gives i=4 >= k -> fallback 0.
        s = EpochSchedule([1, 2, 3, 4], 32)
        i, j = s._epoch_indices(4)
        assert i == 0

    def test_within_epoch_cycles_pair_schedule(self):
        s = EpochSchedule([2, 9], 32)
        base = async_period(32)
        first = [s.channel_at(t) for t in range(base)]
        second = [s.channel_at(t + base) for t in range(base)]
        assert first == second  # the doubled epoch repeats its content


class TestAsynchronousGuarantee:
    """Randomized-but-seeded sweep: overlapping sets must rendezvous
    within the analytic bound at structured and random shifts."""

    N = 16

    @pytest.mark.parametrize("seed", range(6))
    def test_random_overlapping_pairs(self, seed):
        rng = random.Random(seed)
        ka, kb = rng.randint(1, 6), rng.randint(1, 6)
        a_set, b_set = _overlapping_sets(rng, self.N, ka, kb)
        a, b = EpochSchedule(a_set, self.N), EpochSchedule(b_set, self.N)
        bound = rendezvous_bound(a, b)
        shifts = list(range(0, 3 * max(a.epoch_length, b.epoch_length)))
        shifts += [rng.randrange(0, a.period * b.period) for _ in range(25)]
        for shift in shifts:
            ttr = ttr_for_shift(a, b, shift, bound + 1)
            assert ttr is not None and ttr <= bound, (a_set, b_set, shift, ttr)

    def test_exhaustive_tiny_instance(self):
        # k=1 vs k=2 has a small enough joint period for full certification.
        a = EpochSchedule([3], 8)
        b = EpochSchedule([3, 6], 8)
        ok, worst, shift = verify_guarantee(a, b, rendezvous_bound(a, b))
        assert ok, shift

    def test_disjoint_sets_never_meet(self):
        a = EpochSchedule([1, 2], 16)
        b = EpochSchedule([8, 9], 16)
        assert ttr_for_shift(a, b, 0, 5000) is None


class TestSynchronousGuarantee:
    @pytest.mark.parametrize("seed", range(6))
    def test_aligned_rendezvous(self, seed):
        rng = random.Random(100 + seed)
        n = 16
        ka, kb = rng.randint(1, 6), rng.randint(1, 6)
        a_set, b_set = _overlapping_sets(rng, n, ka, kb)
        a = EpochSchedule(a_set, n, asynchronous=False)
        b = EpochSchedule(b_set, n, asynchronous=False)
        # Synchronous bound: epoch r <= p*q via CRT, plus one epoch slack.
        bound = rendezvous_bound(a, b)
        ttr = ttr_for_shift(a, b, 0, bound + 1)
        assert ttr is not None and ttr <= bound, (a_set, b_set, ttr)


class TestRendezvousBound:
    def test_scales_with_set_sizes(self):
        n = 64
        small = rendezvous_bound(EpochSchedule([1, 2], n), EpochSchedule([2, 3], n))
        large = rendezvous_bound(
            EpochSchedule(list(range(10)), n), EpochSchedule(list(range(9, 19)), n)
        )
        assert large > small

    def test_uses_cheapest_helpful_pair(self):
        n = 64
        a = EpochSchedule([1, 2, 3], n)  # primes (3, 5)
        b = EpochSchedule([4, 5, 6], n)  # primes (3, 5)
        # Helpful pairs: (3,5) both ways -> 15.
        assert rendezvous_bound(a, b) == a.epoch_length * (15 + 2)

    def test_identical_prime_pairs_still_helpful(self):
        n = 32
        a = EpochSchedule([0, 1], n)
        b = EpochSchedule([1, 2], n)
        assert rendezvous_bound(a, b) > 0


class TestPeriodTable:
    """The per-epoch period table equals the scalar ``channel_at`` loop."""

    @pytest.mark.parametrize("asynchronous", [True, False], ids=["async", "sync"])
    @pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 16, 33, 64, 128, 256])
    def test_matches_channel_at(self, n, asynchronous):
        rng = random.Random(n)
        for k in range(1, min(n, 9) + 1):
            s = EpochSchedule(
                rng.sample(range(n), k), n, asynchronous=asynchronous
            )
            expected = [s.channel_at(t) for t in range(s.period)]
            assert s.period_table().tolist() == expected

    @pytest.mark.parametrize("asynchronous", [True, False], ids=["async", "sync"])
    @pytest.mark.parametrize("pair", [(3, 5), (3, 7), (7, 5)])
    def test_explicit_prime_pair(self, pair, asynchronous):
        s = EpochSchedule(
            [1, 4, 6], 32, prime_pair=pair, asynchronous=asynchronous
        )
        expected = [s.channel_at(t) for t in range(s.period)]
        assert s.period_table().tolist() == expected


class TestSharedPairSchedules:
    """Each epoch's pair schedule is built once per process and shared."""

    def test_schedules_sharing_a_pair_share_its_object(self):
        a = EpochSchedule([2, 9], 32)
        b = EpochSchedule([2, 5, 9], 32)
        shared = a._epoch_schedule(0, 1)
        assert b._epoch_schedule(0, 2) is shared
        assert b._epoch_schedule(2, 0) is shared
        assert not shared.period_table().flags.writeable
        # Constant epochs (i == j) are shared too.
        assert a._epoch_schedule(0, 0) is b._epoch_schedule(0, 0)

    def test_population_builds_each_pair_once(self, monkeypatch):
        builds = []

        def counting(a, b, n):
            builds.append((a, b, n))
            return pair_schedule_async(a, b, n)

        monkeypatch.setattr(epoch_module, "pair_schedule_async", counting)
        epoch_module._pair_schedule.cache_clear()
        counts = []
        for seed in (0, 1):
            sets = set(random_subsets(12, 3, 2000, seed=seed).sets)
            for channels in sets:
                EpochSchedule(channels, 12).period_table()
            counts.append(len(builds))
        # 2,000 agents draw all 220 three-subsets of 12 channels, whose
        # epochs use all 66 channel pairs; the next network reuses them.
        assert counts == [66, 66]
