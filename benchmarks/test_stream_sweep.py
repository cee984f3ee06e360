"""The sweep kernel measured: vs the scalar loop, and vs a pinned tile.

The acceptance bench for ``repro.core.stream``: Jump-Stay is the
baseline whose cubic global period made huge-universe sweeps
unmeasurable — beyond the schedule cache limit the only correct path
used to be the scalar per-shift loop.  Two measurements are recorded to
``results/stream_sweep.txt`` / ``results/BENCH_stream_sweep.json``:

* **kernel vs scalar** (``n = 64``, period 888,822 slots): the kernel
  sweeps the full strided shift set, and is timed against the scalar
  reference on a shift subset (the scalar loop is too slow for the
  full set — which is the point);
* **tiles** (``n = 128`` and ``n = 256``, strided ~2,000 classes): one
  pair's sweep under the default auto-tuned plan against the pinned
  :data:`PINNED` plan (a 64 KiB tile of 32-row blocks), best of
  :data:`ROUNDS` each, with the minor page faults (``ru_minflt``) of
  every sweep.  Strided Jump-Stay sweeps gather every tile through the
  closed-form ``channel_gather``, the shape where a gathered tile above
  glibc's mmap threshold once faulted its pages in afresh per tile.

The gate asserts bit-identical profiles everywhere, a wall-clock win
for the kernel over the scalar loop, and a >= 1.5x win for the default
plan over the pinned one at ``n = 128``: the default's 512-row blocks
amortise the per-tile dispatch, and its sparse tiles stay under the
mmap threshold, so it pays no page faults for them whatever the heap
did before.
"""

from __future__ import annotations

import json
import os
import resource
import time
from pathlib import Path

import repro
from repro.core.stream import TilePlan, plan_tiles, ttr_sweep
from repro.core.verification import strided_shift_range, ttr_for_shift
from repro.sim.workloads import single_overlap

N_SCALAR = 64
TILE_NS = (128, 256)
K = L = 3
MAX_SHIFTS = 2_000
SCALAR_SUBSET = 48  # shifts the scalar loop is timed on
#: The plan ``sweep --tile-bytes 65536`` used to produce for these sweeps.
PINNED = TilePlan(tile_bytes=65536, block_rows=32)
ROUNDS = 3
MIN_DEFAULT_SPEEDUP = 1.5  # gate at n = 128, default plan vs PINNED


def _build(n: int):
    instance = single_overlap(n, K, L, seed=0)
    a = repro.build_schedule(instance.sets[0], n, algorithm="jump-stay")
    b = repro.build_schedule(instance.sets[1], n, algorithm="jump-stay")
    return a, b


def _best_of(fn):
    """``(result, best wall seconds, minor faults per call)`` over
    :data:`ROUNDS` calls."""
    best = float("inf")
    faults = []
    for _ in range(ROUNDS):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return result, best, faults


def _measure_tiles(n: int) -> dict:
    """One pair at universe ``n``: the default plan vs :data:`PINNED`."""
    a, b = _build(n)
    shifts = list(strided_shift_range(a, b, MAX_SHIFTS))
    horizon = 4 * max(a.period, b.period)
    default, default_seconds, default_faults = _best_of(
        lambda: ttr_sweep(a, b, shifts, horizon)
    )
    pinned, pinned_seconds, pinned_faults = _best_of(
        lambda: ttr_sweep(a, b, shifts, horizon, plan=PINNED)
    )
    assert pinned == default, "tile plans must be bit-identical"
    assert all(t is not None for t in default.values())
    plan = plan_tiles(len(shifts), horizon)
    return {
        "n": n,
        "period": a.period,
        "shifts": len(shifts),
        "sampled_max_ttr": int(max(default.values())),
        "default_seconds": round(default_seconds, 4),
        "default_minor_faults": default_faults,
        "default_plan": {"tile_bytes": plan.tile_bytes, "block_rows": plan.block_rows},
        "pinned_seconds": round(pinned_seconds, 4),
        "pinned_minor_faults": pinned_faults,
        "pinned_plan": {
            "tile_bytes": PINNED.tile_bytes, "block_rows": PINNED.block_rows,
        },
        "default_speedup": round(pinned_seconds / default_seconds, 2),
        "parity_bit_identical": True,
    }


def test_stream_vs_scalar_and_pinned_tiles(benchmark, record):
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

    def tile_rows():
        return [_measure_tiles(n) for n in TILE_NS]

    tiles = benchmark.pedantic(tile_rows, rounds=1, iterations=1)

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
        "tiles": tiles,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_stream_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    tile_lines = "".join(
        f"  n={row['n']} (period {row['period']}, {row['shifts']} strided "
        f"shifts, sampled max TTR {row['sampled_max_ttr']})\n"
        f"    default plan         {row['default_seconds']:8.3f} s  "
        f"(tile {row['default_plan']['tile_bytes'] >> 10} KiB x "
        f"{row['default_plan']['block_rows']} rows, minor faults "
        f"{row['default_minor_faults']})\n"
        f"    pinned 64 KiB plan   {row['pinned_seconds']:8.3f} s  "
        f"(32 rows, minor faults {row['pinned_minor_faults']}; default "
        f"{row['default_speedup']:.2f}x faster)\n"
        for row in tiles
    )
    record(
        "stream_sweep",
        f"Jump-Stay shift sweeps (single-overlap k=l={K}):\n"
        f"  n={N_SCALAR} (period {a.period}, {len(shifts)} strided shifts)\n"
        f"    kernel               {sweep_seconds:8.3f} s\n"
        f"    scalar, {len(subset):4d} shifts  {scalar_seconds:8.3f} s\n"
        f"    kernel, {len(subset):4d} shifts  {kernel_subset_seconds:8.3f} s  "
        f"({speedup:.1f}x over scalar)\n"
        f"{tile_lines}"
        f"best of {ROUNDS} per plan; all profiles bit-identical",
    )
    assert speedup > 1.0, (
        f"the kernel must beat the scalar loop, got {speedup:.2f}x "
        f"({scalar_seconds:.3f}s vs {kernel_subset_seconds:.3f}s)"
    )
    gate = tiles[0]
    assert gate["default_speedup"] >= MIN_DEFAULT_SPEEDUP, (
        f"the default plan must win >= {MIN_DEFAULT_SPEEDUP}x over the pinned "
        f"64 KiB plan at n={gate['n']}, got {gate['default_speedup']}x"
    )
