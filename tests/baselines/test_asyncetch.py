"""Tests for the AsyncETCH baseline (after Zhang-Li-Yu-Wang, anonymized)."""

from __future__ import annotations

import math
import random

import numpy as np
import pytest

from repro.baselines.asyncetch import (
    AsyncETCHSchedule,
    asyncetch_global_channel,
    asyncetch_global_values,
    asyncetch_period,
)
from repro.core.stream import ttr_sweep
from repro.core.verification import (
    exhaustive_shift_range,
    ttr_for_shift,
    verify_guarantee,
)
from repro.sim.workloads import adversarial_single_common, available_overlap


class TestGlobalSequence:
    def test_period_formula(self):
        s = AsyncETCHSchedule([1, 2], 8)
        assert s.prime == 11
        assert s.period == asyncetch_period(11) == 24 * 11 * 10

    def test_frame_anatomy(self):
        """Anchor, stay, then two identical orbit subframes."""
        p = 11
        frame = [asyncetch_global_channel(t, p) for t in range(2 * p + 2)]
        assert frame[0] == 0  # anchor pilot
        assert frame[1] == 1  # stay pilot: frame 0 has step 1
        assert frame[2 : 2 + p] == frame[2 + p : 2 + 2 * p]  # dual subframes
        assert sorted(frame[2 : 2 + p]) == list(range(p))  # full orbit

    def test_step_and_start_loops(self):
        """Step cycles 1..P-1 per frame; start advances every P-1 frames."""
        p = 11
        frame_len = 2 * p + 2
        stays = [
            asyncetch_global_channel(r * frame_len + 1, p) for r in range(2 * (p - 1))
        ]
        assert stays == list(range(1, p)) * 2
        starts = [
            asyncetch_global_channel(r * frame_len + 2, p)
            for r in range(0, p * (p - 1), p - 1)
        ]
        assert starts == list(range(p))

    def test_negative_slot_rejected(self):
        with pytest.raises(ValueError):
            asyncetch_global_channel(-1, 11)

    def test_vectorized_block_matches_scalar(self):
        p = 11
        period = asyncetch_period(p)
        for lo, hi in [(0, 200), (period - 50, period + 75), (1234, 1234)]:
            block = asyncetch_global_values(np.arange(lo, hi), p)
            scalar = [asyncetch_global_channel(t % period, p) for t in range(lo, hi)]
            assert block.tolist() == scalar


class TestSchedule:
    def test_plays_only_available_channels(self):
        s = AsyncETCHSchedule([3, 6, 11], 16)
        window = s.materialize(0, 2000)
        assert set(int(c) for c in window) <= {3, 6, 11}

    def test_period_array_matches_scalar(self):
        for channels in ([0, 1], [3, 7], [5]):
            s = AsyncETCHSchedule(channels, 8)
            table = s.period_table()
            scalar = np.array([s.channel_at(t) for t in range(s.period)])
            assert (table == scalar).all()

    def test_validation(self):
        with pytest.raises(ValueError):
            AsyncETCHSchedule([], 8)
        with pytest.raises(ValueError):
            AsyncETCHSchedule([8], 8)
        with pytest.raises(ValueError):
            AsyncETCHSchedule([-1], 8)


class TestGuarantee:
    @pytest.mark.parametrize("seed", range(6))
    def test_guaranteed_rendezvous_exhaustive(self, seed):
        rng = random.Random(100 + seed)
        n = rng.choice([8, 16])
        a_set = set(rng.sample(range(n), rng.randint(1, 4)))
        b_set = set(rng.sample(range(n), rng.randint(1, 4)))
        if not a_set & b_set:
            b_set.add(next(iter(a_set)))
        a, b = AsyncETCHSchedule(a_set, n), AsyncETCHSchedule(b_set, n)
        ok, worst, failing = verify_guarantee(
            a, b, math.lcm(a.period, b.period), shifts=exhaustive_shift_range(a, b)
        )
        assert ok, (sorted(a_set), sorted(b_set), failing)
        assert worst >= 0

    def test_equal_step_shift_classes_meet(self):
        """Shifts that are whole multiples of (P-1) frames leave both
        agents on the *same* step forever — the case the published
        multi-row argument never faces, covered here by the anchor/stay
        pilot pair."""
        a = AsyncETCHSchedule([0, 3], 8)
        b = AsyncETCHSchedule([3, 5], 8)
        p = a.prime
        frame_len = 2 * p + 2
        aligned = [d * frame_len * (p - 1) for d in range(1, 6)]
        profile = ttr_sweep(a, b, aligned, a.period)
        assert all(t is not None for t in profile.values()), profile

    def test_single_common_channel_pairs(self):
        inst = adversarial_single_common(16, 3, 3, seed=1)
        schedules = [AsyncETCHSchedule(s, inst.n) for s in inst.sets]
        for i, j in inst.overlapping_pairs():
            a, b = schedules[i], schedules[j]
            ok, _, failing = verify_guarantee(
                a, b, math.lcm(a.period, b.period),
                shifts=exhaustive_shift_range(a, b),
            )
            assert ok, (i, j, failing)

    def test_disjoint_sets_never_meet(self):
        a, b = AsyncETCHSchedule([1, 3], 16), AsyncETCHSchedule([2, 4], 16)
        assert ttr_for_shift(a, b, 0, math.lcm(a.period, b.period)) is None


class TestBatchedParity:
    @pytest.mark.parametrize("rho", [0.0, 1.0])
    def test_scalar_vs_batched(self, rho):
        inst = available_overlap(16, 3, 2, rho=rho, seed=5)
        i, j = inst.overlapping_pairs()[0]
        a = AsyncETCHSchedule(inst.sets[i], inst.n)
        b = AsyncETCHSchedule(inst.sets[j], inst.n)
        shifts = list(range(-40, 120, 3))
        horizon = 2 * max(a.period, b.period)
        profile = ttr_sweep(a, b, shifts, horizon)
        for shift in shifts:
            assert profile[shift] == ttr_for_shift(a, b, shift, horizon)
