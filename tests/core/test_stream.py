"""Parity tests: ``ttr_sweep`` (scalar loop + blocked kernel) vs scalar.

The contract is bit-identical profiles at any period size and under
any tile plan: for every workload the library ships, ``ttr_sweep``
must return exactly what a per-shift loop over ``ttr_for_shift``
returns — including ``None`` misses, negative shifts, duplicate
shifts, degenerate horizons, and tiles smaller than one period.
"""

from __future__ import annotations

import hashlib
import math
import threading

import numpy as np
import pytest

import repro
from repro.baselines import BASELINE_NAMES
from repro.core import stream as stream_module
from repro.core import telemetry
from repro.core.environment import FadingMisses
from repro.core.schedule import _CACHE_LIMIT, CyclicSchedule, FunctionSchedule
from repro.core.stream import TilePlan, plan_tiles, ttr_sweep
from repro.core.verification import (
    exhaustive_shift_range,
    strided_shift_range,
    ttr_for_shift,
    verify_guarantee,
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

#: 64-byte tiles of one shift row each: many time-block boundaries, so
#: checkpoint snapshots land early and an injected death falls mid-scan.
TINY = TilePlan(tile_bytes=64, block_rows=1)


def _scalar(a, b, shifts, horizon):
    return {s: ttr_for_shift(a, b, s, horizon) for s in shifts}


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
@pytest.mark.parametrize("algorithm", ["paper", "crseq", "jump-stay", "zos"])
def test_three_way_parity_across_workloads(kind, algorithm):
    """Default plan == small-tile plan == scalar loop on every workload
    generator."""
    instance = WORKLOADS[kind]()
    pairs = instance.overlapping_pairs()[:2]
    assert pairs, f"workload {kind} produced no overlapping pairs"
    for i, j in pairs:
        a = repro.build_schedule(instance.sets[i], instance.n, algorithm=algorithm)
        b = repro.build_schedule(instance.sets[j], instance.n, algorithm=algorithm)
        horizon = 4 * max(a.period, b.period)
        swept = ttr_sweep(a, b, SHIFTS, horizon)
        small = TilePlan(tile_bytes=4096, block_rows=2)
        assert swept == ttr_sweep(a, b, SHIFTS, horizon, plan=small)
        assert swept == _scalar(a, b, SHIFTS, horizon)


@pytest.mark.parametrize("tile_bytes", [64, 512, 4096, 1 << 20])
def test_tile_boundaries_are_invisible(tile_bytes):
    """Property: results are invariant under the tile budget — including
    tiles far smaller than one period (a paper schedule at n=32 has a
    period of thousands of slots; 64 bytes is an 8-slot tile)."""
    instance = single_overlap(32, 3, 4, seed=7)
    a = repro.build_schedule(instance.sets[0], 32)
    b = repro.build_schedule(instance.sets[1], 32)
    shifts = list(range(-50, 400))
    reference = _scalar(a, b, shifts, 20_000)
    plan = plan_tiles(len(shifts), 20_000, tile_bytes=tile_bytes)
    assert ttr_sweep(a, b, shifts, 20_000, plan=plan) == reference


def test_tile_budget_validation():
    """A tile budget is pinned through a validated plan; the sweep takes
    no tile budget or lane count of its own."""
    a, b = CyclicSchedule([1, 2]), CyclicSchedule([2, 3])
    with pytest.raises(ValueError, match="tile_bytes"):
        ttr_sweep(a, b, [0], 10, plan=TilePlan(tile_bytes=0, block_rows=1))
    for knob in ("tile_bytes", "stream_workers"):
        with pytest.raises(TypeError, match=knob):
            ttr_sweep(a, b, [0], 10, **{knob: 4096})


def test_parity_exhaustive_range():
    a = CyclicSchedule([1, 2, 3, 4] * 5)
    b = CyclicSchedule([9, 9, 2, 9, 9, 1] * 3)
    shifts = list(exhaustive_shift_range(a, b))
    assert len(shifts) == a.period + b.period - 1
    assert ttr_sweep(a, b, shifts, 500) == _scalar(a, b, shifts, 500)


def test_disjoint_schedules_all_miss_with_lcm_early_stop():
    """A huge horizon must cost only lcm slots of scanning and yield the
    same ``None``s as the scalar loop."""
    a, b = CyclicSchedule([1, 2] * 40), CyclicSchedule([3, 4, 5] * 30)
    shifts = list(range(-12, 25))
    assert ttr_sweep(a, b, shifts, 10**9) == {s: None for s in shifts}


def test_duplicate_empty_and_zero_horizon():
    a, b = CyclicSchedule([1, 2, 3] * 30), CyclicSchedule([3, 1] * 30)
    assert ttr_sweep(a, b, [], 100) == {}
    assert ttr_sweep(a, b, [0, 3], 0) == {0: None, 3: None}
    dup = ttr_sweep(a, b, [4, 4, -4, 4], 100)
    assert set(dup) == {4, -4}
    assert dup == _scalar(a, b, [4, -4], 100)


def test_unknown_engine_rejected():
    """``ttr_sweep`` has one kernel: no ``engine`` option is accepted."""
    a, b = CyclicSchedule([1] * 70), CyclicSchedule([1] * 70)
    for engine in ("auto", "batched", "stream", "scalar", "quantum"):
        with pytest.raises(TypeError, match="engine"):
            ttr_sweep(a, b, [0], 10, engine=engine)


def test_huge_period_streams_without_table():
    """Periods past the schedule cache limit sweep through the kernel,
    which generates tiles through channel_block and never materializes
    a period table."""
    period = _CACHE_LIMIT + 3
    a = FunctionSchedule(lambda t: t % 5, period, channels=frozenset(range(5)))
    b = CyclicSchedule([4, 2])
    shifts = [0, 1, 5, -3, 9999]
    assert ttr_sweep(a, b, shifts, 60) == _scalar(a, b, shifts, 60)
    assert getattr(a, "_period_array_cache", None) is None


def test_raw_arrays_and_memmaps_stream_off_the_table(tmp_path):
    """Raw period arrays — including a read-only store memmap — feed the
    kernel's tiles directly, bit-identical to schedule objects."""
    from repro.core.store import ScheduleStore, StoredSchedule

    store = ScheduleStore(tmp_path)
    a = store.get([1, 5, 9], 16, "drds")
    b = store.get([5, 12], 16, "drds")
    shifts = list(range(-40, 40))
    expected = _scalar(a, b, shifts, 50_000)
    assert ttr_sweep(a, b, shifts, 50_000) == expected
    assert ttr_sweep(a.period_table(), b.period_table(), shifts, 50_000) == expected
    sequence = ScheduleStore(tmp_path).global_sequence(16)
    assert isinstance(sequence, np.memmap)
    assert ttr_sweep(sequence, b, shifts, 50_000) == _scalar(
        StoredSchedule(sequence), b, shifts, 50_000
    )


def test_sparse_offsets_use_per_row_generation():
    """Widely strided shifts (offsets scattered over the period) take
    the sparse path — every row's slot indices generated and fetched in
    one ``channel_gather`` call; results must not depend on it."""
    instance = single_overlap(32, 3, 4, seed=9)
    a = repro.build_schedule(instance.sets[0], 32, algorithm="crseq")
    b = repro.build_schedule(instance.sets[1], 32, algorithm="crseq")
    stride = max(1, a.period // 7)
    shifts = list(range(0, a.period, stride)) + [-1, -stride]
    horizon = 4 * a.period
    plan = TilePlan(tile_bytes=256, block_rows=1)
    assert ttr_sweep(a, b, shifts, horizon, plan=plan) == _scalar(
        a, b, shifts, horizon
    )


def test_verify_guarantee_through_stream_engine(monkeypatch):
    """Exhaustive certification through the kernel gives the same
    verdict on the smallest tiles the planner makes (a 32 KiB L2)."""
    a = repro.build_schedule([1, 5], 16, algorithm="zos")
    b = repro.build_schedule([5, 9], 16, algorithm="zos")
    bound = math.lcm(a.period, b.period)
    default = verify_guarantee(a, b, bound)
    monkeypatch.setattr(stream_module, "l2_cache_bytes", lambda: 1 << 15)
    assert plan_tiles(10, bound).tile_bytes == 1 << 14
    tiny = verify_guarantee(a, b, bound)
    assert default == tiny
    assert tiny[0]


def test_kernel_records_its_tile_plan():
    """With telemetry on, a kernel sweep records raw shifts vs deduped
    classes and the tile plan it ran under."""
    a = repro.build_schedule([1, 5, 9], 16, algorithm="crseq")
    b = repro.build_schedule([5, 12], 16, algorithm="crseq")
    shifts = SHIFTS + SHIFTS[:10]
    telemetry.enable()
    telemetry.reset()
    try:
        profile = ttr_sweep(
            a, b, shifts, 4 * a.period, plan=TilePlan(tile_bytes=4096, block_rows=2)
        )
        snap = telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()
    assert profile == _scalar(a, b, SHIFTS, 4 * a.period)
    counters, gauges = snap["counters"], snap["gauges"]
    assert counters["sweep.kernel"] == 1
    assert counters["sweep.shifts"] == len(shifts)
    # Raw shifts collapse to their distinct offset classes.
    assert counters["sweep.classes"] == len(
        stream_module.reduce_shifts(a, b, shifts)[0]
    )
    assert gauges == {"sweep.block_rows": 2, "sweep.tile_bytes": 4096}
    assert "stream.sweep" in snap["spans"]
    sweep_children = snap["spans"]["stream.sweep"]["children"]
    assert sweep_children["stream.reduce"]["calls"] == 1
    assert sweep_children["stream.scatter"]["calls"] == 1


def _reference_reduce(a, b, shift_list):
    """The structured-row dedup the rank sort replaced."""
    arr = np.asarray(shift_list, dtype=np.int64)
    off_a = np.where(arr >= 0, arr, 0) % a.period
    off_b = np.where(arr < 0, -arr, 0) % b.period
    pairs = np.stack([off_a, off_b], axis=1)
    unique_pairs, inverse = np.unique(pairs, axis=0, return_inverse=True)
    return unique_pairs, inverse.reshape(-1)


def _reference_scatter(shift_list, ttrs, inverse):
    """The per-shift dict comprehension the bulk scatter replaced."""
    scattered = ttrs[inverse]
    return {
        s: None if t < 0 else int(t)
        for s, t in zip(shift_list, scattered.tolist())
    }


def _shift_inputs(rng, period_a, period_b):
    """Every shape of shift input the sweep accepts, seeded."""
    reach = 3 * max(period_a, period_b)
    drawn = rng.integers(-reach, reach + 1, size=int(rng.integers(1, 80)))
    with_duplicates = drawn.tolist() + drawn[: drawn.size // 2].tolist()
    step = int(rng.integers(2, 9))
    lo = int(rng.integers(-reach, 1))
    inside = int(rng.integers(-period_b + 1, period_a))
    return [
        with_duplicates,
        [period_a, -period_b, 2 * period_a + 1, -3 * period_b - 1, 0, 0],
        drawn,
        drawn.astype(np.int32),
        range(-period_b + 1, period_a),
        range(lo, reach, step),
        range(reach, lo, -step),
        range(5, 5),
        # Positive-step ranges inside the shift window (closed-form
        # reduction): strided, one sign, one element, on either edge.
        range(-period_b + 1, period_a, step),
        range(inside, period_a, step),
        range(0, period_a),
        range(1, period_a),
        range(-period_b + 1, 0),
        range(-period_b + 1, 1),
        range(inside, inside + 1),
        range(-period_b + 1, -period_b + 2),
        range(period_a - 1, period_a),
        # One past either edge: back to the sort.
        range(-period_b, period_a),
        range(-period_b + 1, period_a + 1),
    ]


class TestShiftBookkeeping:
    """Rank-sort reduce and bulk scatter vs the references they replaced."""

    @pytest.mark.parametrize("seed", range(12))
    def test_reduce_and_scatter_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        period_a, period_b = (int(p) for p in rng.integers(1, 90, size=2))
        if seed % 3 == 0:
            period_b = period_a
        a = CyclicSchedule(list(range(period_a)))
        b = CyclicSchedule(list(range(period_b)))
        for shifts in _shift_inputs(rng, period_a, period_b):
            shift_list = [int(s) for s in shifts]
            pairs, inverse = stream_module.reduce_shifts(a, b, shifts)
            ref_pairs, ref_inverse = _reference_reduce(a, b, shift_list)
            np.testing.assert_array_equal(pairs, ref_pairs)
            np.testing.assert_array_equal(inverse, ref_inverse)
            assert pairs.dtype == ref_pairs.dtype
            assert inverse.dtype == ref_inverse.dtype
            ttrs = rng.integers(-1, 40, size=len(pairs))
            assert stream_module.scatter_ttrs(
                shifts, ttrs, inverse
            ) == _reference_scatter(shift_list, ttrs, ref_inverse)

    def test_only_in_window_ranges_skip_the_sort(self, monkeypatch):
        """The closed form takes positive-step ranges inside
        ``[-(period_B - 1), period_A - 1]``; every other input sorts."""
        a, b = CyclicSchedule(list(range(9))), CyclicSchedule(list(range(4)))
        closed = []
        original = stream_module._reduce_window_range

        def spy(arr):
            closed.append(arr.size)
            return original(arr)

        monkeypatch.setattr(stream_module, "_reduce_window_range", spy)
        for shifts, takes_closed_form in (
            (range(-3, 9), True),
            (range(-3, 9, 4), True),
            (range(2, 3), True),
            (range(-4, 9), False),
            (range(-3, 10), False),
            (range(8, -4, -1), False),
            (range(0), False),
            (list(range(-3, 9)), False),
        ):
            closed.clear()
            stream_module.reduce_shifts(a, b, shifts)
            assert bool(closed) == takes_closed_form, shifts

    @pytest.mark.parametrize("seed", range(4))
    def test_range_sweeps_like_its_list(self, seed):
        """A lazy range and its expanded list give the same profile, on
        the kernel path and on the scalar path."""
        rng = np.random.default_rng(100 + seed)
        # Period A past SCALAR_JOINT_LIMIT forces the kernel path.
        a = CyclicSchedule(rng.integers(0, 4, size=int(rng.integers(65, 100))))
        b = CyclicSchedule(rng.integers(0, 4, size=int(rng.integers(20, 60))))
        tiny_a, tiny_b = CyclicSchedule([1, 2, 3]), CyclicSchedule([3, 1])
        for x, y in ((a, b), (tiny_a, tiny_b)):
            horizon = 2 * math.lcm(x.period, y.period)
            for r in (
                exhaustive_shift_range(x, y),
                range(-3 * y.period, 3 * x.period, 7),
                range(x.period, -y.period, -2),
                range(0),
                range(-y.period + 1, x.period, 3),
                range(1, x.period),
                range(-y.period + 1, 1),
                range(0, 1),
                range(x.period - 1, x.period),
                range(-y.period, x.period + 1),
            ):
                profile = ttr_sweep(x, y, r, horizon)
                assert profile == ttr_sweep(x, y, list(r), horizon)
                assert list(profile) == list(dict.fromkeys(r))


class TestParallelScan:
    """Independent shift blocks, scanned one after another: how the
    rows are cut into blocks never shows in a profile."""

    @pytest.mark.parametrize("block_rows", [1, 2, 8])
    @pytest.mark.parametrize("algorithm", ["paper", "jump-stay", "zos"])
    def test_parallel_matches_serial_reference(self, block_rows, algorithm):
        """Bit-identical per cell at every block width, on every workload
        generator.  Blocks are the kernel's independent work items, and
        the serial reference is the default plan, which
        ``test_three_way_parity_across_workloads`` certifies against the
        scalar loop on these same workloads."""
        plan = TilePlan(tile_bytes=1 << 16, block_rows=block_rows)
        for kind in sorted(WORKLOADS):
            instance = WORKLOADS[kind]()
            i, j = instance.overlapping_pairs()[0]
            a = repro.build_schedule(instance.sets[i], instance.n, algorithm=algorithm)
            b = repro.build_schedule(instance.sets[j], instance.n, algorithm=algorithm)
            horizon = 4 * max(a.period, b.period)
            serial = ttr_sweep(a, b, SHIFTS, horizon)
            assert ttr_sweep(a, b, SHIFTS, horizon, plan=plan) == serial

    def test_parallel_matches_scalar_loop(self):
        """A scan over many blocks also agrees with the independent
        scalar path."""
        instance = single_overlap(32, 3, 4, seed=7)
        a = repro.build_schedule(instance.sets[0], 32, algorithm="crseq")
        b = repro.build_schedule(instance.sets[1], 32, algorithm="crseq")
        shifts = list(range(-60, 200)) + [5 * a.period + 3, -2 * b.period - 7]
        horizon = 4 * max(a.period, b.period)
        plan = TilePlan(tile_bytes=4096, block_rows=4)
        assert ttr_sweep(a, b, shifts, horizon, plan=plan) == _scalar(
            a, b, shifts, horizon
        )

    @pytest.mark.parametrize("block_rows", [1, 2, 3])
    def test_blocks_smaller_than_one_tile(self, block_rows):
        """Degenerate pinned plans — shift blocks far narrower than a
        tile could hold — change nothing."""
        instance = single_overlap(32, 3, 4, seed=9)
        a = repro.build_schedule(instance.sets[0], 32, algorithm="jump-stay")
        b = repro.build_schedule(instance.sets[1], 32, algorithm="jump-stay")
        shifts = list(range(-40, 90))
        horizon = 4 * max(a.period, b.period)
        reference = _scalar(a, b, shifts, horizon)
        plan = TilePlan(tile_bytes=4096, block_rows=block_rows)
        assert ttr_sweep(a, b, shifts, horizon, plan=plan) == reference

    def test_default_never_starts_a_thread_pool(self, monkeypatch):
        """The kernel scans every block in the calling thread: a sweep
        over many blocks starts no thread, default plan or pinned."""
        instance = single_overlap(32, 3, 4, seed=9)
        a = repro.build_schedule(instance.sets[0], 32, algorithm="jump-stay")
        b = repro.build_schedule(instance.sets[1], 32, algorithm="jump-stay")
        shifts = list(range(-300, 300, 3))
        horizon = 4 * max(a.period, b.period)

        def no_thread(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("a sweep must not start a thread")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        blocked = ttr_sweep(
            a, b, shifts, horizon, plan=TilePlan(tile_bytes=4096, block_rows=2)
        )
        assert ttr_sweep(a, b, shifts, horizon) == blocked
        sample = shifts[::25]
        assert {s: blocked[s] for s in sample} == _scalar(a, b, sample, horizon)


#: sha256 of ``period_table()`` for the set {1, 5, 9}: an edit to a
#: closed form fails here instead of silently moving every result.
_PINNED_TABLE_DIGESTS = {
    ("crseq", 16): "1117fedb793e380f0b1e2cb8b70f66c8a961423f939d9b3ef7a54dcd49b2d3cb",
    ("crseq", 33): "9a6afaae893d57818eebbd7dc91ec928d9aca433dc994f62da6d784d4b501bf1",
    ("jump-stay", 16): "82743f68757c83ccfeba063c241d36919c1b0810fa7c40aa53977d04704cc072",
    ("jump-stay", 33): "24fb00194156c2a4c19855de70a699c91687bc999d084da8c45c79f47c24f821",
    ("async-etch", 16): "a88972adbc47492e77b8dd449bbdaad6789f9688a97297d21bed6ca24c5e7aba",
    ("async-etch", 33): "b675ab664c7c7de3c35425263aea909d604e5b56fdc843f1e6c4c183c2089aa5",
}


class TestChannelGather:
    """One row-source contract for every algorithm the CLI accepts:
    ``channel_gather``, ``channel_block`` and ``period_table`` all answer
    what the scalar ``channel_at`` answers."""

    @pytest.mark.parametrize(
        "algorithm", ("paper", "paper-sync", "paper-symmetric") + BASELINE_NAMES
    )
    def test_gather_matches_channel_at(self, algorithm):
        # crseq@64 plays global ids 64..66 (P = 67) beside the owned
        # channel 63; a one-channel set projects every id onto itself.
        for n, channels in ((16, [1, 5, 9]), (33, [1, 5, 9]), (64, [1, 5, 63]), (16, [9])):
            schedule = repro.build_schedule(channels, n, algorithm=algorithm)
            period = schedule.period
            indices = np.array([[0, 7, 1], [13, 2, period + 5]], dtype=np.int64)
            gathered = schedule.channel_gather(indices)
            assert gathered.shape == indices.shape
            expected = [
                [schedule.channel_at(int(t) % period) for t in row]
                for row in indices
            ]
            assert gathered.tolist() == expected
            head = np.arange(min(period, 600), dtype=np.int64)
            assert schedule.channel_gather(head).tolist() == [
                schedule.channel_at(int(t)) for t in head
            ]
            wrapping = range(period - 7, period + 9)
            assert schedule.channel_block(wrapping.start, wrapping.stop).tolist() == [
                schedule.channel_at(t % period) for t in wrapping
            ]
            np.testing.assert_array_equal(
                schedule.period_table(), schedule.channel_block(0, period)
            )

    @pytest.mark.parametrize("algorithm, n", sorted(_PINNED_TABLE_DIGESTS))
    def test_period_table_digest_pinned(self, algorithm, n):
        table = repro.build_schedule([1, 5, 9], n, algorithm=algorithm).period_table()
        digest = hashlib.sha256(
            np.ascontiguousarray(table, dtype=np.int64).tobytes()
        ).hexdigest()
        assert digest == _PINNED_TABLE_DIGESTS[(algorithm, n)]

    def test_generic_fallback_on_huge_periods(self):
        period = _CACHE_LIMIT + 3
        sched = FunctionSchedule(lambda t: t % 5, period, channels=frozenset(range(5)))
        indices = np.array([0, 3, 11, period - 1, period + 4], dtype=np.int64)
        assert sched.channel_gather(indices).tolist() == [
            sched.channel_at(int(t)) for t in indices
        ]


def _old_gather(schedule, offsets, t0, width):
    """The tile gather before view tiles: every dense row copied out of
    an int64 window view, sparse rows fetched in one gather."""
    base = int(offsets[0])
    span = int(offsets[-1]) - base + width
    if span <= offsets.size * width:
        chunk = np.asarray(schedule.channel_block(base + t0, base + t0 + span))
        return np.lib.stride_tricks.sliding_window_view(chunk, width)[offsets - base]
    starts = offsets[:, np.newaxis] + t0
    return schedule.channel_gather(starts + np.arange(width)[np.newaxis, :])


def _kernel_snapshot(a, b, shifts, horizon, **kwargs):
    """One kernel sweep with telemetry on: ``(profile, snapshot)``."""
    telemetry.enable()
    telemetry.reset()
    try:
        profile = ttr_sweep(a, b, shifts, horizon, **kwargs)
        return profile, telemetry.snapshot()
    finally:
        telemetry.disable()
        telemetry.reset()


class TestViewTiles:
    """Consecutive shift rows compared in place, ids narrowed to int16
    when they fit, one ``argmax`` per row to retire it."""

    def test_ids_past_int16_never_alias(self):
        # Cast to int16, 65541 would wrap to 5, 70000 to 4464 and 32768
        # to -32768: every such pair would fake a meeting.
        rng = np.random.default_rng(0)
        a = CyclicSchedule(rng.choice([5, 70000, 32767, 32768], size=97))
        b = CyclicSchedule(rng.choice([65541, 4464, 32767, -32768], size=89))
        shifts = exhaustive_shift_range(a, b)
        horizon = math.lcm(a.period, b.period)
        assert ttr_sweep(a, b, shifts, horizon) == _scalar(a, b, shifts, horizon)

    def test_consecutive_offsets_are_a_view_of_the_chunk(self, monkeypatch):
        schedule = repro.build_schedule([1, 5, 9], 32, algorithm="crseq")
        chunks = []
        narrow = stream_module._narrow

        def spy(values):
            chunks.append(narrow(values))
            return chunks[-1]

        monkeypatch.setattr(stream_module, "_narrow", spy)
        offsets = np.arange(40, 90, dtype=np.int64)
        tile, built = stream_module._gather_tile(schedule, offsets, 7, 33, False)
        (chunk,) = chunks
        assert chunk.dtype == np.int16
        assert np.shares_memory(tile, chunk)
        assert built == chunk.nbytes
        np.testing.assert_array_equal(tile, _old_gather(schedule, offsets, 7, 33))

    def test_ids_past_int16_view_the_table_itself(self):
        # Nothing to narrow: the tile is a window over the int64 table.
        table = np.arange(100_000, 100_500, dtype=np.int64)
        schedule = stream_module._coerce_schedule(table)
        offsets = np.arange(10, 30, dtype=np.int64)
        tile, built = stream_module._gather_tile(schedule, offsets, 5, 64, False)
        assert tile.dtype == np.int64
        assert np.shares_memory(tile, table)
        assert built == (offsets.size + 64 - 1) * 8
        np.testing.assert_array_equal(tile, _old_gather(schedule, offsets, 5, 64))

    @pytest.mark.parametrize(
        "offsets",
        [[3, 4, 6, 9, 10], [0, 500, 1000], [2, 2000, 2001, 2002]],
        ids=["dense", "sparse", "sparse-wrapping"],
    )
    def test_other_offsets_gather_the_same_values(self, offsets):
        offsets = np.asarray(offsets, dtype=np.int64)
        sparse = stream_module._sparse(offsets, 16)
        for algorithm in ("crseq", "jump-stay"):
            schedule = repro.build_schedule([1, 5, 9], 32, algorithm=algorithm)
            t0 = schedule.period - 3
            tile, built = stream_module._gather_tile(schedule, offsets, t0, 16, sparse)
            assert built == tile.nbytes
            np.testing.assert_array_equal(
                tile, _old_gather(schedule, offsets, t0, 16)
            )

    @pytest.mark.parametrize("tile_bytes", [64, 384, 4096])
    def test_retire_first_slot_last_slot_and_never(self, tile_bytes):
        # ``b`` always plays channel 0, so shift s >= 0 meets at the
        # first zero of ``a`` from position s on.  With zeros at 0, 7
        # and 40 of 48 and a horizon of 16, a 384-byte tile scans
        # [0, 8) then [8, 16) in one block, and each tile has rows
        # meeting at its first slot, rows meeting at its last slot and
        # rows (s = 8..24) that never meet.
        sequence = [1] * 48
        for zero in (0, 7, 40):
            sequence[zero] = 0
        a, b = CyclicSchedule(sequence), CyclicSchedule([0] * 5)
        shifts = list(exhaustive_shift_range(a, b))
        plan = TilePlan(tile_bytes=tile_bytes, block_rows=64)
        profile = ttr_sweep(a, b, shifts, 16, plan=plan)
        assert profile == _scalar(a, b, shifts, 16)
        assert [profile[s] for s in (0, 7, 40, 33, 41, 32, 25)] == [
            0, 0, 0, 7, 7, 8, 15,
        ]
        assert all(profile[s] is None for s in range(8, 25))

    def test_tile_bytes_count_what_each_tile_builds(self):
        # One block per sign group and a horizon inside the first time
        # block: each group is one view tile, which builds only its
        # int16 chunk of rows + width - 1 ids, not rows x width of them.
        a = CyclicSchedule(np.arange(97) % 11)
        b = CyclicSchedule(np.arange(89) % 7)
        horizon = 50
        plan = TilePlan(tile_bytes=1 << 20, block_rows=256)
        shifts = exhaustive_shift_range(a, b)
        profile, snap = _kernel_snapshot(a, b, shifts, horizon, plan=plan)
        assert profile == _scalar(a, b, shifts, horizon)
        assembly = snap["spans"]["stream.sweep"]["children"]["stream.tile_assembly"]
        assert assembly["calls"] == 2
        chunk_ids = (97 + horizon - 1) + (88 + horizon - 1)
        assert assembly["bytes"] == 2 * chunk_ids

    def test_block_rows_follow_the_tile_kind(self, monkeypatch):
        # The sweep records which budget its last sign group ran under:
        # consecutive offsets with no environment budget one mask byte
        # per cell; an environment or strided shifts budget 8 bytes.
        # A 2 MiB L2 makes the auto tile 1 MiB.
        monkeypatch.setattr(stream_module, "l2_cache_bytes", lambda: 1 << 21)
        rng = np.random.default_rng(3)
        a = CyclicSchedule(rng.integers(0, 8, size=5003))
        b = CyclicSchedule(rng.integers(0, 8, size=4999))

        def block_rows(shifts, environment=None):
            _, snap = _kernel_snapshot(a, b, shifts, 1000, environment=environment)
            assert snap["gauges"]["sweep.tile_bytes"] == 1 << 20
            return snap["gauges"]["sweep.block_rows"]

        exhaustive = exhaustive_shift_range(a, b)
        assert block_rows(exhaustive) == (1 << 20) // 256
        assert block_rows(exhaustive, FadingMisses(p=0.0)) == (1 << 20) // 8 // 256
        strided = range(-b.period + 1, a.period, 3)
        assert block_rows(strided) == (1 << 20) // 8 // 256


def _spy_gathers(monkeypatch):
    """Record ``(rows, width, sparse, bytes built)`` of every tile."""
    tiles = []
    gather = stream_module._gather_tile

    def spy(schedule, offsets, t0, width, sparse):
        tile, built = gather(schedule, offsets, t0, width, sparse)
        tiles.append((offsets.size, width, sparse, built))
        return tile, built

    monkeypatch.setattr(stream_module, "_gather_tile", spy)
    return tiles


class TestSparseTileCap:
    """Gathered tiles stay within 64 KiB, half of glibc's default 128 KiB
    mmap threshold, so no sparse tile is mapped and faulted in afresh."""

    def test_strided_jump_stay_builds_no_tile_above_the_cap(self, monkeypatch):
        # The auto plan gives this sweep 512-row blocks: a 256-slot
        # first window would gather 1 MiB of ids per tile.
        instance = single_overlap(128, 3, 3, seed=0)
        a = repro.build_schedule(instance.sets[0], 128, algorithm="jump-stay")
        b = repro.build_schedule(instance.sets[1], 128, algorithm="jump-stay")
        shifts = strided_shift_range(a, b, 2000)
        horizon = 4 * max(a.period, b.period)
        tiles = _spy_gathers(monkeypatch)
        profile = ttr_sweep(a, b, shifts, horizon)
        sparse = [built for _, _, is_sparse, built in tiles if is_sparse]
        assert sparse, "a strided sweep must gather sparse tiles"
        assert max(sparse) <= 64 << 10
        sample = list(shifts)[::100]
        assert {s: profile[s] for s in sample} == _scalar(a, b, sample, horizon)

    def test_capped_tile_retires_first_slot_last_slot_and_never(self, monkeypatch):
        # 64 shift rows 512 offsets apart make one sparse block.  The
        # 1 MiB tile allows 256-slot windows, the cap 65536 // (64 * 8)
        # = 128 slots: the block scans [0, 128) then [128, 256).  ``b``
        # always plays channel 0, so row k meets at the first zero of
        # ``a`` at or after 512 k: at a window's first or last slot, or
        # never within the horizon.
        meets = {0: 0, 1: 127, 2: 128, 3: 255, 4: None, 5: 64}
        sequence = np.ones(64 * 512, dtype=np.int64)
        for row, ttr in meets.items():
            if ttr is not None:
                sequence[512 * row + ttr] = 0
        sequence[512 * 4 + 256] = 0  # row 4 meets just past the horizon
        a, b = CyclicSchedule(sequence), CyclicSchedule([0] * 5)
        shifts = list(range(0, a.period, 512))
        plan = TilePlan(tile_bytes=1 << 20, block_rows=64)
        tiles = _spy_gathers(monkeypatch)
        profile = ttr_sweep(a, b, shifts, 256, plan=plan)
        assert profile == _scalar(a, b, shifts, 256)
        assert [profile[512 * row] for row in meets] == list(meets.values())
        assert all(profile[s] is None for s in shifts[6:])
        assert tiles[0] == (64, 128, True, 64 << 10)
        assert [width for _, width, _, _ in tiles] == [128, 128]


class TestTilePlanner:
    """plan_tiles: deterministic, cache-aware, shape-aware."""

    def test_same_inputs_same_plan(self):
        first = plan_tiles(2000, 1 << 20)
        second = plan_tiles(2000, 1 << 20)
        assert first == second

    def test_no_wall_clock_dependence(self, monkeypatch):
        """The plan is pure arithmetic: poisoning every clock source
        must not change (or crash) the planner."""
        import time as time_module

        def boom(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("plan_tiles must not consult the clock")

        for name in ("time", "perf_counter", "monotonic", "process_time"):
            monkeypatch.setattr(time_module, name, boom)
        assert plan_tiles(500, 10_000) == plan_tiles(500, 10_000)

    def test_tile_from_l2_budget(self, monkeypatch):
        # Half the L2, clamped to 16 KiB .. 8 MiB.
        for l2, tile in ((1 << 21, 1 << 20), (1 << 10, 1 << 14), (1 << 26, 1 << 23)):
            monkeypatch.setattr(stream_module, "l2_cache_bytes", lambda: l2)
            assert plan_tiles(10_000, 1 << 20).tile_bytes == tile

    def test_default_plans_one_lane(self):
        # A plan is a tile budget and a block width, nothing more: no
        # lane count to set or fan blocks out over.
        plan = plan_tiles(10_000, 1 << 20)
        assert set(vars(plan)) == {"tile_bytes", "block_rows"}
        with pytest.raises(TypeError, match="workers"):
            plan_tiles(10_000, 1 << 20, workers=2)

    def test_explicit_tile_bytes_pins_budget(self):
        plan = plan_tiles(100, 1000, tile_bytes=4096)
        assert plan.tile_bytes == 4096

    def test_serial_blocks_fill_the_tile(self):
        plan = plan_tiles(10_000, 1 << 20, tile_bytes=1 << 20)
        assert plan.block_rows == (1 << 20) // 8 // 256

    def test_contiguous_blocks_budget_the_compare_mask(self):
        # A copy-free window view allocates one mask byte per cell, not
        # an 8-byte id, so the same tile holds 8x the rows.
        plan = plan_tiles(10_000, 1 << 20, tile_bytes=1 << 20, contiguous=True)
        assert plan.block_rows == (1 << 20) // 256

    def test_validation(self):
        with pytest.raises(ValueError, match="tile_bytes"):
            plan_tiles(10, 100, tile_bytes=0)
        with pytest.raises(ValueError, match="num_offsets"):
            plan_tiles(-1, 100)
        with pytest.raises(ValueError, match="tile_bytes"):
            TilePlan(tile_bytes=0, block_rows=1)
        with pytest.raises(ValueError, match="block_rows"):
            TilePlan(tile_bytes=64, block_rows=0)

    def test_cache_probe_is_memoized_and_sane(self):
        l2 = stream_module.l2_cache_bytes()
        assert stream_module.l2_cache_bytes() == l2
        assert l2 > 0


class _FailingSink(stream_module.SweepCheckpoint):
    """Checkpoint sink that dies after N successful saves — the test's
    stand-in for a mid-sweep kill (the exception unwinds the scan
    exactly the way SIGTERM-during-save would leave the file system:
    last complete snapshot on disk, scan unfinished)."""

    def __init__(self, path, fail_after):
        super().__init__(path)
        self.fail_after = fail_after

    def save(self, state):
        if self.saves >= self.fail_after:
            raise RuntimeError("injected interruption")
        super().save(state)


class TestCheckpointResume:
    """Interrupt/resume certification: merged profiles are bit-identical."""

    def _pair(self, algorithm):
        instance = single_overlap(16, 3, 3, seed=2)
        i, j = instance.overlapping_pairs()[0]
        a = repro.build_schedule(instance.sets[i], instance.n, algorithm=algorithm)
        b = repro.build_schedule(instance.sets[j], instance.n, algorithm=algorithm)
        return a, b, 4 * max(a.period, b.period)

    @pytest.mark.parametrize("algorithm", ["paper", "jump-stay", "zos"])
    def test_interrupted_then_resumed_is_bit_identical(self, tmp_path, algorithm):
        a, b, horizon = self._pair(algorithm)
        baseline = ttr_sweep(a, b, SHIFTS, horizon)
        path = tmp_path / "sweep.ckpt.json"
        # Tiny tiles force many block boundaries, so the injected death
        # lands mid-scan with real partial progress on disk.
        dying = _FailingSink(path, fail_after=3)
        with pytest.raises(RuntimeError, match="injected"):
            ttr_sweep(a, b, SHIFTS, horizon, plan=TINY, checkpoint=dying)
        assert path.exists(), "interruption must leave the last snapshot"
        resumed = ttr_sweep(
            a, b, SHIFTS, horizon, plan=TINY,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert resumed == baseline

    def test_interrupted_parallel_scan_resumes(self, tmp_path):
        """A scan over several multi-row blocks, cut after its fifth
        snapshot, resumes with its surviving rows re-blocked."""
        a, b, horizon = self._pair("paper")
        baseline = ttr_sweep(a, b, SHIFTS, horizon)
        path = tmp_path / "sweep.ckpt.json"
        plan = TilePlan(tile_bytes=64, block_rows=4)
        with pytest.raises(RuntimeError, match="injected"):
            ttr_sweep(
                a, b, SHIFTS, horizon, plan=plan,
                checkpoint=_FailingSink(path, fail_after=5),
            )
        resumed = ttr_sweep(
            a, b, SHIFTS, horizon, plan=plan,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert resumed == baseline

    def test_complete_snapshot_answers_without_rescanning(
        self, tmp_path, monkeypatch
    ):
        # After an uninterrupted checkpointed run, every row is resolved
        # in the snapshot; a rerun must answer entirely from it — proven
        # by making any tile gather blow up.
        a, b, horizon = self._pair("zos")
        path = tmp_path / "sweep.ckpt.json"
        first = ttr_sweep(
            a, b, SHIFTS, horizon, plan=TINY,
            checkpoint=stream_module.SweepCheckpoint(path),
        )

        def no_gather(*args, **kwargs):
            raise AssertionError("resumed run gathered a tile")

        monkeypatch.setattr(stream_module, "_gather_tile", no_gather)
        replayed = ttr_sweep(
            a, b, SHIFTS, horizon, plan=TINY,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert replayed == first

    def test_certified_misses_resume_as_misses(self, tmp_path):
        # Disjoint channel sets: every shift is a miss.  The snapshot
        # must certify them (resolved -1), not leave them pending.
        a = repro.build_schedule([1, 2], 16, algorithm="paper")
        b = repro.build_schedule([3, 4], 16, algorithm="paper")
        horizon = 2 * max(a.period, b.period)
        path = tmp_path / "sweep.ckpt.json"
        first = ttr_sweep(
            a, b, SHIFTS, horizon, plan=TINY,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert set(first.values()) == {None}
        resumed = ttr_sweep(
            a, b, SHIFTS, horizon, checkpoint=stream_module.SweepCheckpoint(path)
        )
        assert resumed == first

    def test_snapshot_of_a_different_sweep_is_ignored(self, tmp_path):
        a, b, horizon = self._pair("paper")
        path = tmp_path / "sweep.ckpt.json"
        ttr_sweep(
            a, b, SHIFTS, horizon // 2, plan=TINY,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        # Same sink path, different horizon: the spec digest differs, so
        # the stale snapshot must not contaminate the fresh sweep.
        fresh = ttr_sweep(
            a, b, SHIFTS, horizon, plan=TINY,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert fresh == ttr_sweep(a, b, SHIFTS, horizon)

    def test_checkpointed_run_matches_plain_run(self, tmp_path):
        a, b, horizon = self._pair("jump-stay")
        profile = ttr_sweep(
            a, b, SHIFTS, horizon,
            checkpoint=stream_module.SweepCheckpoint(tmp_path / "c.json"),
        )
        assert profile == ttr_sweep(a, b, SHIFTS, horizon)

    def test_dispatcher_routes_checkpoint_to_stream(self, tmp_path):
        """A checkpoint selects the kernel even where the scalar loop
        would run, so every checkpointed sweep is resumable."""
        a = CyclicSchedule([1, 2, 3, 4])
        b = CyclicSchedule([9, 2, 9, 1, 9, 9])
        shifts = list(range(-12, 12))
        sink = stream_module.SweepCheckpoint(tmp_path / "c.json")
        assert ttr_sweep(a, b, shifts, 40, checkpoint=sink) == _scalar(a, b, shifts, 40)
        assert sink.saves > 0

    def test_snapshot_of_another_pair_is_ignored(self, tmp_path):
        """Regression: pairs with equal periods and offsets must not
        share a snapshot.  Every CRSEQ schedule at one ``n`` has the
        same period, so a spec of periods alone resumed the second pair
        from the first pair's profile."""
        first = (
            repro.build_schedule([1, 5, 9], 64, algorithm="crseq"),
            repro.build_schedule([5, 20, 33], 64, algorithm="crseq"),
        )
        second = (
            repro.build_schedule([2, 7, 40], 64, algorithm="crseq"),
            repro.build_schedule([7, 11, 50], 64, algorithm="crseq"),
        )
        assert {s.period for s in first + second} == {first[0].period}
        shifts, horizon = range(-300, 300), 4 * first[0].period
        path = tmp_path / "sweep.ckpt.json"
        before = ttr_sweep(
            *first, shifts, horizon,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        after = ttr_sweep(
            *second, shifts, horizon,
            checkpoint=stream_module.SweepCheckpoint(path),
        )
        assert after == ttr_sweep(*second, shifts, horizon)
        assert after != before
        sample = list(shifts)[::30]
        assert {s: after[s] for s in sample} == _scalar(*second, sample, horizon)

    def test_sink_save_load_and_clear(self, tmp_path):
        sink = stream_module.SweepCheckpoint(tmp_path / "c.json")
        assert sink.load() is None
        sink.save({"spec": "x"})
        assert sink.load() == {"spec": "x"}
        sink.clear()
        assert sink.load() is None
        sink.clear()  # idempotent


