"""Micro-benchmarks: construction and evaluation throughput.

Not a paper table — engineering numbers a downstream user cares about:
how fast schedules are built and evaluated, and what the sweep kernel
sustains.  ``test_kernel_sweep_speedup`` is the acceptance gate for
``ttr_sweep``: an exhaustive shift sweep at ``n = 64`` through the
kernel must run at least 5x faster than the scalar per-shift loop, and
the measurement is persisted to ``results/BENCH_kernel_sweep.json``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import repro
from repro.baselines.drds import build_global_sequence
from repro.core.stream import ttr_sweep
from repro.core.epoch import EpochSchedule
from repro.core.pairwise import async_pair_string, pair_schedule_async
from repro.core.ramsey import color_bits, edge_color
from repro.core.verification import exhaustive_shift_range, ttr_for_shift
from repro.sim.workloads import single_overlap


def test_build_epoch_schedule(benchmark):
    channels = list(range(0, 160, 10))  # k = 16
    benchmark(lambda: EpochSchedule(channels, 1024))


def test_build_size2_string(benchmark):
    n = 1 << 20
    bits = color_bits(edge_color(1234, 99999, n), n)
    benchmark(lambda: async_pair_string(bits))


def test_channel_at_throughput(benchmark):
    schedule = EpochSchedule([3, 17, 40, 99], 128)

    def evaluate() -> int:
        total = 0
        for t in range(2000):
            total += schedule.channel_at(t)
        return total

    benchmark(evaluate)


def test_materialize_throughput(benchmark):
    schedule = EpochSchedule([3, 17, 40, 99], 128)
    benchmark(lambda: schedule.materialize(0, 100_000))


def test_verification_scan(benchmark):
    n = 64
    a = pair_schedule_async(5, 40, n)
    b = pair_schedule_async(40, 63, n)
    benchmark(lambda: ttr_for_shift(a, b, 17, 10_000))


def test_kernel_sweep_speedup(benchmark, record):
    """Exhaustive shift sweep, scalar loop vs the sweep kernel."""
    n = 64
    instance = single_overlap(n, 3, 3, seed=2)
    a = repro.build_schedule(instance.sets[0], n)
    b = repro.build_schedule(instance.sets[1], n)
    shifts = list(exhaustive_shift_range(a, b))
    horizon = 4 * max(a.period, b.period)

    # Warm the period-table caches so neither side pays one-time
    # construction inside its timed region, and take the scalar loop's
    # best of three so the comparison is honest.
    a.period_table(), b.period_table()
    scalar = {s: ttr_for_shift(a, b, s, horizon) for s in shifts}
    scalar_seconds = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for s in shifts:
            ttr_for_shift(a, b, s, horizon)
        scalar_seconds = min(scalar_seconds, time.perf_counter() - start)

    kernel = benchmark(lambda: ttr_sweep(a, b, shifts, horizon))
    assert kernel == scalar, "the sweep kernel must be bit-identical to scalar"

    kernel_seconds = benchmark.stats.stats.mean
    speedup = scalar_seconds / kernel_seconds
    payload = {
        "n": n,
        "workload": "single_overlap(k=l=3, seed=2)",
        "shifts": len(shifts),
        "horizon": horizon,
        "scalar_seconds": round(scalar_seconds, 6),
        "kernel_seconds": round(kernel_seconds, 6),
        "speedup": round(speedup, 2),
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_kernel_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record(
        "micro_kernel_sweep",
        f"exhaustive sweep, n={n}, {len(shifts)} shifts: "
        f"scalar {scalar_seconds * 1e3:.1f} ms, "
        f"kernel {kernel_seconds * 1e3:.1f} ms ({speedup:.1f}x)",
    )
    assert speedup >= 5, f"kernel sweep only {speedup:.1f}x faster than scalar"


def test_drds_global_build(benchmark):
    def build():
        build_global_sequence.cache_clear()
        return build_global_sequence(8)

    sequence = benchmark.pedantic(build, rounds=3, iterations=1)
    assert isinstance(sequence, np.ndarray)


def test_simulator_network_run(benchmark):
    from repro.sim import Agent, Network

    n = 32
    sets = [{1, 9, 17}, {9, 25}, {17, 25, 31}, {1, 31}]
    agents = [
        Agent(f"a{i}", repro.build_schedule(s, n), wake_time=7 * i)
        for i, s in enumerate(sets)
    ]
    benchmark(lambda: Network(agents).run(20_000))
