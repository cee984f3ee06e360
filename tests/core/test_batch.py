"""Parity tests: the batched shift sweep vs the scalar reference path.

``ttr_sweep`` answers a whole batch of shifts in one call.  The
contract is bit-identical profiles: for every workload the library
ships, ``ttr_sweep`` must return exactly what a per-shift loop over
``ttr_for_shift`` returns — including ``None`` misses, negative shifts,
duplicate shifts, and degenerate horizons — and its dispatch between
the scalar loop and the kernel depends on the joint period alone.
Kernel mechanics (tiles, checkpoints) are tested in
``test_stream.py``.
"""

from __future__ import annotations

import math

import pytest

import repro
from repro.core import stream, telemetry
from repro.core.schedule import _CACHE_LIMIT, CyclicSchedule, FunctionSchedule
from repro.core.stream import SCALAR_JOINT_LIMIT, plan_tiles, ttr_sweep
from repro.core.verification import (
    exhaustive_shift_range,
    max_ttr,
    ttr_for_shift,
    ttr_profile,
)
from repro.sim.workloads import (
    coalition_bands,
    nested,
    random_subsets,
    single_overlap,
    symmetric,
    whitespace,
)

WORKLOADS = {
    "random_subsets": lambda: random_subsets(16, 4, 3, seed=1),
    "single_overlap": lambda: single_overlap(16, 3, 3, seed=2),
    "symmetric": lambda: symmetric(16, 3, 2, seed=3),
    "coalition_bands": lambda: coalition_bands(
        32, band_width=6, agents_per_band=2, num_bands=2, overlap=2, seed=4
    ),
    "whitespace": lambda: whitespace(16, 3, incumbent_load=0.6, seed=5),
    "nested": lambda: nested(16, [2, 4], seed=6),
}

SHIFTS = list(range(-40, 120)) + [997, 12_345, -733]


def _scalar(a, b, shifts, horizon):
    return {s: ttr_for_shift(a, b, s, horizon) for s in shifts}


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
@pytest.mark.parametrize("algorithm", ["paper", "crseq"])
def test_parity_across_workloads(kind, algorithm):
    instance = WORKLOADS[kind]()
    pairs = instance.overlapping_pairs()[:2]
    assert pairs, f"workload {kind} produced no overlapping pairs"
    for i, j in pairs:
        a = repro.build_schedule(instance.sets[i], instance.n, algorithm=algorithm)
        b = repro.build_schedule(instance.sets[j], instance.n, algorithm=algorithm)
        horizon = 4 * max(a.period, b.period)
        assert ttr_sweep(a, b, SHIFTS, horizon) == _scalar(a, b, SHIFTS, horizon)


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
def test_parity_on_tight_horizon_misses(kind):
    """Horizons below the TTR must yield the same ``None``s as scalar."""
    instance = WORKLOADS[kind]()
    i, j = instance.overlapping_pairs()[0]
    a = repro.build_schedule(instance.sets[i], instance.n)
    b = repro.build_schedule(instance.sets[j], instance.n)
    for horizon in (1, 2, 5, 17):
        shifts = list(range(-30, 90))
        swept = ttr_sweep(a, b, shifts, horizon)
        assert swept == _scalar(a, b, shifts, horizon)
        assert any(t is None for t in swept.values()) or horizon > 5


def test_parity_exhaustive_range():
    a = CyclicSchedule([1, 2, 3, 4])
    b = CyclicSchedule([9, 9, 2, 9, 9, 1])
    shifts = list(exhaustive_shift_range(a, b))
    assert len(shifts) == a.period + b.period - 1
    assert ttr_sweep(a, b, shifts, 500) == _scalar(a, b, shifts, 500)


def test_parity_disjoint_schedules_all_miss():
    a, b = CyclicSchedule([1, 2]), CyclicSchedule([3, 4, 5])
    shifts = list(range(-12, 25))
    swept = ttr_sweep(a, b, shifts, 100_000)
    assert swept == {s: None for s in shifts}


def test_lcm_early_stop_matches_full_horizon_scan():
    """The engine stops scanning at lcm(periods); a huge horizon must not
    change any answer (the joint pattern is periodic)."""
    a, b = CyclicSchedule([1, 2, 7]), CyclicSchedule([7, 5])
    shifts = list(range(-6, 12))
    assert ttr_sweep(a, b, shifts, 10**9) == _scalar(a, b, shifts, 10_000)


def test_chunking_is_invisible():
    """Tiny tile budgets exercise both chunk axes without changing results."""
    instance = single_overlap(32, 3, 4, seed=7)
    a = repro.build_schedule(instance.sets[0], 32)
    b = repro.build_schedule(instance.sets[1], 32)
    shifts = list(range(-50, 400))
    reference = ttr_sweep(a, b, shifts, 20_000)
    for tile_bytes in (8, 512, 8192):
        plan = plan_tiles(len(shifts), 20_000, tile_bytes=tile_bytes)
        assert ttr_sweep(a, b, shifts, 20_000, plan=plan) == reference


def test_duplicate_and_empty_shift_lists():
    a, b = CyclicSchedule([1, 2, 3]), CyclicSchedule([3, 1])
    assert ttr_sweep(a, b, [], 100) == {}
    dup = ttr_sweep(a, b, [4, 4, -4, 4], 100)
    assert set(dup) == {4, -4}
    assert dup == _scalar(a, b, [4, -4], 100)


def test_zero_horizon_is_all_misses():
    a, b = CyclicSchedule([1]), CyclicSchedule([1])
    assert ttr_sweep(a, b, [0, 3], 0) == {0: None, 3: None}


def test_huge_period_fallback_matches_scalar():
    """Periods past the schedule cache limit never materialize a table
    (building it would dwarf the sweep): the kernel only evaluates the
    slots it scans — bit-identical to the scalar reference."""
    period = _CACHE_LIMIT + 1
    a = FunctionSchedule(lambda t: t % 3, period, channels=frozenset({0, 1, 2}))
    b = CyclicSchedule([2, 0])
    shifts = [0, 1, 5, -3]
    assert ttr_sweep(a, b, shifts, 50) == _scalar(a, b, shifts, 50)


def test_ttr_profile_goes_through_batch_engine():
    """``ttr_profile`` is ``ttr_sweep`` over the caller's shift batch."""
    instance = symmetric(16, 3, 2, seed=3)
    a = repro.build_schedule(instance.sets[0], 16, algorithm="paper-symmetric")
    b = repro.build_schedule(instance.sets[1], 16, algorithm="paper-symmetric")
    shifts = [5, -2, 0, 31]
    profile = ttr_profile(a, b, shifts, 100)
    assert list(profile) == shifts  # insertion order preserved
    assert profile == _scalar(a, b, shifts, 100)


def test_max_ttr_matches_scalar_max_through_batch():
    instance = single_overlap(16, 2, 3, seed=9)
    a = repro.build_schedule(instance.sets[0], 16)
    b = repro.build_schedule(instance.sets[1], 16)
    shifts = list(range(200))
    horizon = 4 * max(a.period, b.period)
    expected = max(_scalar(a, b, shifts, horizon).values())
    assert max_ttr(a, b, shifts, horizon) == expected


def test_max_ttr_raises_on_miss_through_batch():
    a, b = CyclicSchedule([1, 2]), CyclicSchedule([3])
    with pytest.raises(AssertionError, match="no rendezvous"):
        max_ttr(a, b, [0, 1], 1000)


def _counters(*args, **kwargs):
    """Run ``ttr_sweep`` with telemetry on; return (profile, counters)."""
    telemetry.enable()
    telemetry.reset()
    try:
        profile = ttr_sweep(*args, **kwargs)
        counters = telemetry.snapshot()["counters"]
    finally:
        telemetry.disable()
        telemetry.reset()
    return profile, counters


class TestAutoDispatchShape:
    """Only the joint period picks the path: a cold strided sweep goes
    to the kernel, which reads rows through the chunk hooks and never
    builds a period table for the sweep's sake."""

    def _cold_pair(self):
        # Fresh builds every call: a prior period_table() call would
        # warm the tables this class asserts stay cold.
        instance = single_overlap(16, 3, 3, seed=2)
        a = repro.build_schedule(instance.sets[0], 16, algorithm="jump-stay")
        b = repro.build_schedule(instance.sets[1], 16, algorithm="jump-stay")
        return a, b

    def test_cold_strided_sweep_streams(self):
        a, b = self._cold_pair()
        shifts = list(range(0, max(a.period, b.period), 64))
        horizon = 4 * max(a.period, b.period)
        profile, counters = _counters(a, b, shifts, horizon)
        assert counters["sweep.kernel"] == 1
        assert not a.has_warm_table() and not b.has_warm_table()
        sample = shifts[::10]
        assert {s: profile[s] for s in sample} == _scalar(a, b, sample, horizon)

    def test_stored_schedules_count_as_warm(self, tmp_path):
        from repro.core.store import ScheduleStore, StoredSchedule

        ScheduleStore(tmp_path).global_sequence(16)
        store = ScheduleStore(tmp_path)
        attached = StoredSchedule(store.global_sequence(16))
        assert attached.has_warm_table()
        # A store-backed per-set schedule is not: its table is never built.
        assert not store.get([1, 5], 16, "drds").has_warm_table()

    def test_warmth_probe_semantics(self):
        assert CyclicSchedule([1, 2, 3]).has_warm_table()
        cold = repro.build_schedule([1, 5, 9], 16, algorithm="paper")
        assert not cold.has_warm_table()
        cold.period_table()
        assert cold.has_warm_table()


class TestChooseEngine:
    """Each dispatch regime, pinned through the telemetry counters that
    record the decision (``sweep.scalar`` / ``sweep.kernel``)."""

    def test_checkpoint_forces_stream(self, tmp_path):
        # A checkpoint selects the kernel even at a tiny joint period.
        a, b = CyclicSchedule([1, 2]), CyclicSchedule([2, 1])
        sink = stream.SweepCheckpoint(tmp_path / "c.json")
        profile, counters = _counters(a, b, [0, 1, -1], 10, checkpoint=sink)
        assert counters["sweep.kernel"] == 1 and "sweep.scalar" not in counters
        assert profile == _scalar(a, b, [0, 1, -1], 10)

    def test_tiny_joint_period_goes_scalar(self):
        a, b = CyclicSchedule([1, 2]), CyclicSchedule([2, 1])
        assert math.lcm(a.period, b.period) <= SCALAR_JOINT_LIMIT
        profile, counters = _counters(a, b, [0, 1, 5, -3], 10)
        assert counters["sweep.scalar"] == 1 and "sweep.kernel" not in counters
        assert profile == _scalar(a, b, [0, 1, 5, -3], 10)

    def test_huge_period_goes_stream(self):
        big = FunctionSchedule(lambda t: t % 7, period=_CACHE_LIMIT + 1)
        small = CyclicSchedule([1, 2, 3])
        profile, counters = _counters(big, small, [0, 4, -2], 30)
        assert counters["sweep.kernel"] == 1
        assert profile == _scalar(big, small, [0, 4, -2], 30)

    def test_cold_strided_goes_stream(self):
        instance = single_overlap(16, 3, 3, seed=2)
        a = repro.build_schedule(instance.sets[0], 16, algorithm="jump-stay")
        b = repro.build_schedule(instance.sets[1], 16, algorithm="jump-stay")
        shifts = list(range(0, a.period, 97))
        _, counters = _counters(a, b, shifts, 4 * a.period)
        assert counters["sweep.kernel"] == 1
        assert counters["sweep.shifts"] == len(shifts)
