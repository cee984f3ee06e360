"""The schedule store vs per-worker rebuilds, measured at n = 128.

The acceptance bench for ``repro.core.store``: a Table-1-regime sweep
(the multi-agent Theorem-7 adversarial family at ``n = 128``, DRDS —
the baseline whose ``45 n^2 + 8n``-slot global sequence makes period
tables genuinely expensive) is run three ways over the same pairs with
the same parallel ``SweepRunner`` settings:

* **rebuild** — no store: every worker process materializes the period
  table of every schedule its chunk of pairs touches;
* **store, cold** — fresh store: the parent builds each distinct table
  exactly once (asserted via the store's build counter), workers attach
  read-only memmaps;
* **store, warm** — the store already holds every table (the steady
  state every later sweep, table, and process on the machine sees):
  nothing is built anywhere.

Results are recorded to ``results/store_sweep.txt`` and
``results/BENCH_store_sweep.json``; the gate asserts bit-identical
measurements across all three paths and that the warm store is no
slower than per-worker rebuilds.

Historical note: before DRDS table construction was vectorized
(closed-form projection of a shared global sequence), the
rebuild path cost ~3.5 s here and the warm store won by ~8x; the
vectorization shrank the rebuild penalty itself, so the store's
remaining margin on this workload is the global-sequence build and the
memory it deduplicates, not the projection loop.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.store import store_key
from repro.sim.runner import SweepRunner
from repro.sim.workloads import adversarial_single_common

N = 128
K = 4
NUM_AGENTS = 6  # 15 overlapping pairs: comfortably above the pool cutoff
ALGORITHM = "drds"
HORIZON = 2 * (45 * N * N + 8 * N)  # two DRDS periods
# At least two workers, so the per-worker-rebuild pathology this bench
# quantifies is actually exercised even on small CI boxes.
WORKERS = max(2, min(4, os.cpu_count() or 1))
SWEEP = dict(dense=8, probes=8)


def _timed_sweep(runner: SweepRunner, instance) -> tuple[float, list]:
    start = time.perf_counter()
    measured = runner.measure_instance(
        instance, ALGORITHM, HORIZON, **SWEEP
    )
    return time.perf_counter() - start, measured


def test_store_vs_per_worker_rebuild(benchmark, record, tmp_path):
    """Recorded wall-clock comparison + the built-exactly-once assertion."""
    instance = adversarial_single_common(N, K, NUM_AGENTS, seed=2)
    pairs = instance.overlapping_pairs()
    distinct = {store_key(s, N, ALGORITHM, 0) for s in instance.sets}

    rebuild_runner = SweepRunner(workers=WORKERS)
    assert rebuild_runner.effective_workers(len(pairs)) == WORKERS
    rebuild_seconds, rebuild_measured = _timed_sweep(rebuild_runner, instance)

    store_runner = SweepRunner(workers=WORKERS, store=tmp_path / "store")
    cold_seconds, cold_measured = _timed_sweep(store_runner, instance)
    # The tentpole contract: each distinct (channels, n, algorithm,
    # seed) period table was materialized exactly once for the sweep —
    # plus one shared DRDS global sequence (its own entry, counted
    # separately) that every per-set build projected from.
    assert store_runner.store.builds == len(distinct)
    assert store_runner.store.global_builds == 1
    assert len(store_runner.store.entries()) == len(distinct) + 1

    warm_runner = SweepRunner(workers=WORKERS, store=tmp_path / "store")
    warm_seconds, warm_measured = benchmark.pedantic(
        lambda: _timed_sweep(warm_runner, instance),
        rounds=1,
        iterations=1,
    )
    # Warm pass: attaches only, zero builds anywhere.
    assert warm_runner.store.builds == 0
    assert warm_runner.store.attaches == len(distinct)

    assert rebuild_measured == cold_measured == warm_measured, (
        "store on/off must be bit-identical"
    )

    speedup_warm = rebuild_seconds / warm_seconds
    speedup_cold = rebuild_seconds / cold_seconds
    payload = {
        "n": N,
        "k": K,
        "algorithm": ALGORITHM,
        "workload": f"adversarial_single_common(k={K}, agents={NUM_AGENTS}, seed=2)",
        "pairs": len(pairs),
        "workers": WORKERS,
        "distinct_tables": len(distinct),
        "table_slots": 45 * N * N + 8 * N,
        "rebuild_seconds": round(rebuild_seconds, 4),
        "store_cold_seconds": round(cold_seconds, 4),
        "store_warm_seconds": round(warm_seconds, 4),
        "speedup_cold": round(speedup_cold, 2),
        "speedup_warm": round(speedup_warm, 2),
        "store_builds": store_runner.store.builds,
        "global_sequence_builds": store_runner.store.global_builds,
        "parent_attaches": store_runner.store.attaches,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_store_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record(
        "store_sweep",
        f"Table-1 sweep at n={N} ({ALGORITHM}, {len(pairs)} pairs, "
        f"{WORKERS} workers, {len(distinct)} distinct tables of "
        f"{45 * N * N + 8 * N} slots):\n"
        f"  per-worker rebuild   {rebuild_seconds:8.3f} s\n"
        f"  store, cold          {cold_seconds:8.3f} s  "
        f"({speedup_cold:.2f}x; parent builds each table once)\n"
        f"  store, warm          {warm_seconds:8.3f} s  "
        f"({speedup_warm:.2f}x; attach-only, zero builds)\n"
        "identical measurements on all three paths; store builds == "
        f"{len(distinct)} == distinct (channels, n, algorithm, seed) keys",
    )
    assert warm_seconds <= rebuild_seconds * 1.2, (
        f"warm store must not lose to per-worker rebuilds, got "
        f"{speedup_warm:.2f}x ({rebuild_seconds:.3f}s vs {warm_seconds:.3f}s)"
    )
