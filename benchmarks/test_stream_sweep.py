"""The sweep kernel measured: vs the scalar loop, and 2 lanes vs 1 lane.

The acceptance bench for ``repro.core.stream``: Jump-Stay is the
baseline whose cubic global period made huge-universe sweeps
unmeasurable — beyond the schedule cache limit the only correct path
used to be the scalar per-shift loop.  Two measurements are recorded to
``results/stream_sweep.txt`` / ``results/BENCH_stream_sweep.json``:

* **kernel vs scalar** (``n = 64``, period 888,822 slots): the kernel
  sweeps the full strided shift set, and is timed against the scalar
  reference on a shift subset (the scalar loop is too slow for the
  full set — which is the point);
* **lanes** (``n = 128`` and ``n = 256``, strided ~2,000 classes): one
  pair's sweep on 1 lane (the default) against 2 thread lanes, best of
  :data:`ROUNDS` each.  Large strided sweeps over Jump-Stay's
  closed-form ``channel_gather`` are the one shape where lanes pay —
  numpy releases the GIL inside the tile gathers and compares.

The gate asserts bit-identical profiles everywhere, a wall-clock win
for the kernel over the scalar loop, and — on machines with at least
two CPUs — a >= 1.3x win for 2 lanes over 1 lane at ``n = 128``
(measured 1.8–2.4x on a 2-CPU host; the margin absorbs shared-host
noise).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import repro
from repro.core.stream import plan_tiles, ttr_sweep
from repro.core.verification import strided_shift_range, ttr_for_shift
from repro.sim.workloads import single_overlap

N_SCALAR = 64
LANE_NS = (128, 256)
K = L = 3
MAX_SHIFTS = 2_000
SCALAR_SUBSET = 48  # shifts the scalar loop is timed on
LANES = 2
ROUNDS = 3
MIN_LANE_SPEEDUP = 1.3  # gate at n = 128, 2 lanes vs 1


def _build(n: int):
    instance = single_overlap(n, K, L, seed=0)
    a = repro.build_schedule(instance.sets[0], n, algorithm="jump-stay")
    b = repro.build_schedule(instance.sets[1], n, algorithm="jump-stay")
    return a, b


def _best_of(fn):
    """``(result, best wall seconds)`` over :data:`ROUNDS` calls."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def _measure_lanes(n: int) -> dict:
    """One pair at universe ``n``: 1 lane vs :data:`LANES` lanes."""
    a, b = _build(n)
    shifts = list(strided_shift_range(a, b, MAX_SHIFTS))
    horizon = 4 * max(a.period, b.period)
    one, one_seconds = _best_of(lambda: ttr_sweep(a, b, shifts, horizon))
    laned, laned_seconds = _best_of(
        lambda: ttr_sweep(a, b, shifts, horizon, stream_workers=LANES)
    )
    assert laned == one, "lane counts must be bit-identical"
    assert all(t is not None for t in one.values())
    plan = plan_tiles(len(shifts), horizon, workers=LANES)
    return {
        "n": n,
        "period": a.period,
        "shifts": len(shifts),
        "sampled_max_ttr": int(max(one.values())),
        "one_lane_seconds": round(one_seconds, 4),
        "laned_seconds": round(laned_seconds, 4),
        "lanes": LANES,
        "tile_plan": {
            "tile_bytes": plan.tile_bytes,
            "block_rows": plan.block_rows,
            "workers": plan.workers,
        },
        "lane_speedup": round(one_seconds / laned_seconds, 2),
        "parity_bit_identical": True,
    }


def test_stream_vs_scalar_and_intra_pair_parallel(benchmark, record):
    """Recorded wall-clock comparisons + the bit-identical parity gates."""
    a, b = _build(N_SCALAR)
    shifts = list(strided_shift_range(a, b, MAX_SHIFTS))
    horizon = 4 * max(a.period, b.period)

    start = time.perf_counter()
    swept = ttr_sweep(a, b, shifts, horizon)
    sweep_seconds = time.perf_counter() - start

    subset = shifts[:: max(1, len(shifts) // SCALAR_SUBSET)]
    start = time.perf_counter()
    scalar = {s: ttr_for_shift(a, b, s, horizon) for s in subset}
    scalar_seconds = time.perf_counter() - start
    start = time.perf_counter()
    kernel_subset = ttr_sweep(a, b, subset, horizon)
    kernel_subset_seconds = time.perf_counter() - start
    assert kernel_subset == scalar
    assert {s: swept[s] for s in subset} == scalar

    def lane_rows():
        return [_measure_lanes(n) for n in LANE_NS]

    lanes = benchmark.pedantic(lane_rows, rounds=1, iterations=1)

    speedup = scalar_seconds / kernel_subset_seconds
    payload = {
        "algorithm": "jump-stay",
        "workload": f"single_overlap(k=l={K}, seed=0)",
        "scalar_n": N_SCALAR,
        "scalar_period": a.period,
        "shifts": len(shifts),
        "sweep_seconds": round(sweep_seconds, 4),
        "scalar_subset_shifts": len(subset),
        "scalar_subset_seconds": round(scalar_seconds, 4),
        "kernel_subset_seconds": round(kernel_subset_seconds, 4),
        "kernel_vs_scalar_speedup": round(speedup, 2),
        "cpus": os.cpu_count(),
        "lanes": lanes,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_stream_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    lane_lines = "".join(
        f"  n={row['n']} (period {row['period']}, {row['shifts']} strided "
        f"shifts, sampled max TTR {row['sampled_max_ttr']})\n"
        f"    1 lane               {row['one_lane_seconds']:8.3f} s\n"
        f"    {row['lanes']} lanes              {row['laned_seconds']:8.3f} s  "
        f"({row['lane_speedup']:.2f}x, tile "
        f"{row['tile_plan']['tile_bytes'] >> 10} KiB x "
        f"{row['tile_plan']['block_rows']} rows)\n"
        for row in lanes
    )
    record(
        "stream_sweep",
        f"Jump-Stay shift sweeps (single-overlap k=l={K}):\n"
        f"  n={N_SCALAR} (period {a.period}, {len(shifts)} strided shifts)\n"
        f"    kernel               {sweep_seconds:8.3f} s\n"
        f"    scalar, {len(subset):4d} shifts  {scalar_seconds:8.3f} s\n"
        f"    kernel, {len(subset):4d} shifts  {kernel_subset_seconds:8.3f} s  "
        f"({speedup:.1f}x over scalar)\n"
        f"{lane_lines}"
        f"best of {ROUNDS} per lane count on {os.cpu_count()} CPUs; "
        "all profiles bit-identical",
    )
    assert speedup > 1.0, (
        f"the kernel must beat the scalar loop, got {speedup:.2f}x "
        f"({scalar_seconds:.3f}s vs {kernel_subset_seconds:.3f}s)"
    )
    gate = lanes[0]
    if (os.cpu_count() or 1) >= LANES:
        assert gate["lane_speedup"] >= MIN_LANE_SPEEDUP, (
            f"{LANES} lanes must win >= {MIN_LANE_SPEEDUP}x over 1 lane at "
            f"n={gate['n']}, got {gate['lane_speedup']}x"
        )
