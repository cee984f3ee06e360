"""The persistent result cache vs recomputation, measured on a Table-1 pair.

The acceptance bench for ``repro.core.results``: the same worst-TTR
pair query — a Theorem-7 ``single_overlap`` pair at ``n = 128`` under
Jump-Stay, whose cubic period (6,692,790 slots — past the schedule
cache limit, so the kernel generates its tiles on demand) makes the sweep a
genuine compute — is answered twice through ``SweepRunner`` instances sharing
one result-cache directory:

* **cold** — empty cache: the full shift sweep runs and the
  ``MeasuredPair`` is written through as one record file
  (``misses == 1``, ``writes == 1``);
* **warm** — a fresh runner (fresh process state, nothing memoized in
  Python) attached to the same directory: the answer is one record read,
  no schedule is built and no shift is scanned (``hits == 1``).

This is the gap ``python -m repro serve`` trades on. Results are
recorded to ``results/service_cache.txt`` and
``results/BENCH_service_cache.json``; the gate asserts the warm query
is bit-identical to the cold one and at least 50x faster.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.core.results import result_digest
from repro.sim.runner import SweepRunner
from repro.sim.workloads import single_overlap

N = 128
K = 8
L = 8
ALGORITHM = "jump-stay"
HORIZON = 28_000_000
SWEEP = dict(dense=512, probes=512)
MIN_SPEEDUP = 50.0


def test_warm_query_beats_recomputation(benchmark, record, tmp_path):
    """Recorded cold-compute vs warm-cache-hit wall-clock + parity gate."""
    instance = single_overlap(N, K, L, seed=2)
    results_dir = tmp_path / "results"

    cold_runner = SweepRunner(workers=1, results=results_dir)
    start = time.perf_counter()
    cold = cold_runner.measure_pair(instance, ALGORITHM, (0, 1), HORIZON, **SWEEP)
    cold_seconds = time.perf_counter() - start
    assert cold_runner.results.hits == 0
    assert cold_runner.results.misses == 1
    assert cold_runner.results.writes == 1

    warm_runner = SweepRunner(workers=1, results=results_dir)
    start = time.perf_counter()
    warm = benchmark.pedantic(
        lambda: warm_runner.measure_pair(
            instance, ALGORITHM, (0, 1), HORIZON, **SWEEP
        ),
        rounds=1,
        iterations=1,
    )
    warm_seconds = time.perf_counter() - start
    assert warm_runner.results.hits == 1
    assert warm_runner.results.misses == 0
    assert warm_runner.results.writes == 0

    assert warm == cold, "a cache hit must be bit-identical to the sweep"

    query = cold_runner.pair_query_for(instance, ALGORITHM, (0, 1), HORIZON, **SWEEP)
    speedup = cold_seconds / warm_seconds
    payload = {
        "n": N,
        "k": K,
        "l": L,
        "algorithm": ALGORITHM,
        "workload": f"single_overlap(k={K}, l={L}, seed=2)",
        "horizon": HORIZON,
        "digest": result_digest(query),
        "worst_ttr": cold.worst_ttr,
        "cold_seconds": round(cold_seconds, 4),
        "warm_seconds": round(warm_seconds, 6),
        "speedup_warm": round(speedup, 2),
        "min_speedup_gate": MIN_SPEEDUP,
    }
    results_dir_out = Path(__file__).parent / "results"
    results_dir_out.mkdir(exist_ok=True)
    (results_dir_out / "BENCH_service_cache.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record(
        "service_cache",
        f"Worst-TTR pair query at n={N} ({ALGORITHM}, "
        f"single_overlap k={K} l={L}, horizon {HORIZON}):\n"
        f"  cold (sweep + write-through)  {cold_seconds:10.4f} s\n"
        f"  warm (result-cache hit)       {warm_seconds:10.6f} s  "
        f"({speedup:.0f}x)\n"
        f"identical MeasuredPair on both paths "
        f"(worst TTR {cold.worst_ttr}, digest {result_digest(query)})",
    )
    assert speedup >= MIN_SPEEDUP, (
        f"warm query must be at least {MIN_SPEEDUP:.0f}x faster than the "
        f"cold sweep, got {speedup:.1f}x "
        f"({cold_seconds:.4f}s vs {warm_seconds:.6f}s)"
    )
