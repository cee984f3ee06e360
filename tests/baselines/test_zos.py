"""Tests for the ZOS baseline (after Lin-Yu-Liu-Leung-Chu)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.baselines.zos import (
    ZOSSchedule,
    collision_free_modulus,
    zos_period,
)
from repro.core.stream import ttr_sweep
from repro.core.verification import (
    exhaustive_shift_range,
    ttr_for_shift,
    verify_guarantee,
)
from repro.sim.workloads import adversarial_single_common, available_overlap


class TestCollisionFreeModulus:
    def test_prime_exceeds_set_size(self):
        assert collision_free_modulus([4]) == 2
        assert collision_free_modulus([0, 1]) == 3
        assert collision_free_modulus([3, 17, 40]) == 5

    def test_skips_colliding_primes(self):
        # {0, 5, 10, 15} all collide mod 5; 7 separates them.
        assert collision_free_modulus([0, 5, 10, 15]) == 7

    def test_distinctness_holds(self):
        rng = random.Random(0)
        for _ in range(50):
            channels = rng.sample(range(200), rng.randint(1, 12))
            p = collision_free_modulus(channels)
            assert p > len(channels)
            assert len({c % p for c in channels}) == len(channels)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            collision_free_modulus([])


class TestSchedule:
    def test_period_formula(self):
        s = ZOSSchedule([3, 17, 40], 64)
        assert s.period == zos_period(s.prime) == 4 * 5 * 5 * 4

    def test_period_independent_of_universe(self):
        small = ZOSSchedule([3, 17, 40], 64)
        huge = ZOSSchedule([3, 17, 40], 1 << 20)
        assert small.period == huge.period == 400

    def test_plays_only_available_channels(self):
        s = ZOSSchedule([3, 6, 11], 16)
        window = s.materialize(0, s.period)
        assert set(int(c) for c in window) <= {3, 6, 11}

    def test_subsequence_structure(self):
        s = ZOSSchedule([1, 2, 5], 8)
        p = s.prime
        # Z-subsequence: first p slots of every round hold the anchor.
        anchors = {s.channel_at(k * 4 * p + j) for k in range(3) for j in range(p)}
        assert len(anchors) == 1
        # S-subsequence of round 0 (rate 1): constant channel.
        stays = {s.channel_at(3 * p + j) for j in range(p)}
        assert len(stays) == 1
        # O-subsequence of round 0 covers every available channel natively.
        orbit = {s.channel_at(p + j) for j in range(2 * p)}
        assert orbit == {1, 2, 5}

    def test_period_array_matches_scalar(self):
        for channels in ([0, 1], [3, 17, 40], [5], [0, 5, 10, 15]):
            s = ZOSSchedule(channels, 64)
            table = s.period_table()
            scalar = np.array([s.channel_at(t) for t in range(s.period)])
            assert (table == scalar).all()

    def test_singleton_constant(self):
        s = ZOSSchedule([9], 16)
        assert set(s.materialize(0, s.period).tolist()) == {9}

    def test_validation(self):
        with pytest.raises(ValueError):
            ZOSSchedule([], 8)
        with pytest.raises(ValueError):
            ZOSSchedule([8], 8)
        with pytest.raises(ValueError):
            ZOSSchedule([-1], 8)


class TestGuarantee:
    def test_lockstep_translation_pair(self):
        """Same modulus, zero shift: the case index-keyed local hopping
        gets wrong forever; ZOS meets through the global residue keys."""
        a, b = ZOSSchedule([0, 1], 8), ZOSSchedule([1, 2], 8)
        assert a.prime == b.prime
        ok, worst, failing = verify_guarantee(
            a, b, math.lcm(a.period, b.period), shifts=exhaustive_shift_range(a, b)
        )
        assert ok, f"missed at shift {failing}"
        assert worst < a.period

    @pytest.mark.parametrize("seed", range(6))
    def test_guaranteed_rendezvous_exhaustive(self, seed):
        rng = random.Random(300 + seed)
        n = rng.choice([16, 32, 64])
        a_set = set(rng.sample(range(n), rng.randint(1, 5)))
        b_set = set(rng.sample(range(n), rng.randint(1, 5)))
        if not a_set & b_set:
            b_set.add(next(iter(a_set)))
        a, b = ZOSSchedule(a_set, n), ZOSSchedule(b_set, n)
        ok, worst, failing = verify_guarantee(
            a, b, math.lcm(a.period, b.period), shifts=exhaustive_shift_range(a, b)
        )
        assert ok, (sorted(a_set), sorted(b_set), failing)
        assert worst >= 0

    def test_single_common_channel_pairs(self):
        inst = adversarial_single_common(32, 4, 3, seed=1)
        schedules = [ZOSSchedule(s, inst.n) for s in inst.sets]
        for i, j in inst.overlapping_pairs():
            a, b = schedules[i], schedules[j]
            ok, _, failing = verify_guarantee(
                a, b, math.lcm(a.period, b.period),
                shifts=exhaustive_shift_range(a, b),
            )
            assert ok, (i, j, failing)

    def test_symmetric_meets_quickly(self):
        """Equal sets: the shared orbit aligns within a few rounds."""
        a = ZOSSchedule([2, 9, 13], 16)
        b = ZOSSchedule([2, 9, 13], 16)
        worst = 0
        for shift in range(0, a.period, 7):
            ttr = ttr_for_shift(a, b, shift, a.period)
            assert ttr is not None
            worst = max(worst, ttr)
        assert worst <= 4 * a.prime * a.prime

    def test_disjoint_sets_never_meet(self):
        a, b = ZOSSchedule([1, 3], 16), ZOSSchedule([2, 4], 16)
        assert ttr_for_shift(a, b, 0, math.lcm(a.period, b.period)) is None


class TestBatchedParity:
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_scalar_vs_batched_on_available_overlap(self, rho):
        inst = available_overlap(32, 4, 3, rho=rho, seed=5)
        i, j = inst.overlapping_pairs()[0]
        a = ZOSSchedule(inst.sets[i], inst.n)
        b = ZOSSchedule(inst.sets[j], inst.n)
        shifts = list(range(-40, 120, 3))
        horizon = 4 * max(a.period, b.period)
        profile = ttr_sweep(a, b, shifts, horizon)
        for shift in shifts:
            assert profile[shift] == ttr_for_shift(a, b, shift, horizon)

    def test_scalar_vs_batched_on_single_common(self):
        inst = adversarial_single_common(48, 5, 2, seed=8)
        a = ZOSSchedule(inst.sets[0], inst.n)
        b = ZOSSchedule(inst.sets[1], inst.n)
        shifts = [0, 1, 17, -3, 999, a.period, -b.period + 5]
        horizon = math.lcm(a.period, b.period)
        profile = ttr_sweep(a, b, shifts, horizon)
        for shift in shifts:
            assert profile[shift] == ttr_for_shift(a, b, shift, horizon)
