"""The schedule store vs per-worker rebuilds, measured at n = 128.

The acceptance bench for ``repro.core.store``: a Table-1-regime sweep
(the multi-agent Theorem-7 adversarial family at ``n = 128``, DRDS —
the baseline whose ``45 n^2 + 8n``-slot global sequence is the one
schedule input expensive to rebuild) is run three ways over the same
pairs with the same parallel ``SweepRunner`` settings:

* **rebuild** — no store: every worker process builds the global
  sequence itself;
* **store, cold** — fresh store: the parent builds the global sequence
  exactly once (asserted via the store's build counter), workers attach
  it as a read-only memmap;
* **store, warm** — the store already holds it (the steady state every
  later sweep, table, and process on the machine sees): nothing is
  built anywhere.

Every per-set schedule is built in-process on all three paths and swept
through its row hooks; no per-set table is stored.

Results are recorded to ``results/store_sweep.txt`` and
``results/BENCH_store_sweep.json``; the gate asserts bit-identical
measurements across all three paths and that the warm store is no
slower than per-worker rebuilds.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

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

    rebuild_runner = SweepRunner(workers=WORKERS)
    assert rebuild_runner.effective_workers(len(pairs)) == WORKERS
    rebuild_seconds, rebuild_measured = _timed_sweep(rebuild_runner, instance)

    store_runner = SweepRunner(workers=WORKERS, store=tmp_path / "store")
    cold_seconds, cold_measured = _timed_sweep(store_runner, instance)
    # The store's contract: the shared DRDS global sequence was built
    # exactly once for the sweep, and it is the store's one entry.
    assert store_runner.store.builds == 1
    assert len(store_runner.store.entries()) == 1

    warm_runner = SweepRunner(workers=WORKERS, store=tmp_path / "store")
    warm_seconds, warm_measured = benchmark.pedantic(
        lambda: _timed_sweep(warm_runner, instance),
        rounds=1,
        iterations=1,
    )
    # Warm pass: zero builds anywhere.
    assert warm_runner.store.builds == 0

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
        "distinct_sets": len(set(instance.sets)),
        "global_sequence_slots": 45 * N * N + 8 * N,
        "rebuild_seconds": round(rebuild_seconds, 4),
        "store_cold_seconds": round(cold_seconds, 4),
        "store_warm_seconds": round(warm_seconds, 4),
        "speedup_cold": round(speedup_cold, 2),
        "speedup_warm": round(speedup_warm, 2),
        "store_builds": store_runner.store.builds,
        "warm_parent_attaches": warm_runner.store.attaches,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_store_sweep.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record(
        "store_sweep",
        f"Table-1 sweep at n={N} ({ALGORITHM}, {len(pairs)} pairs, "
        f"{WORKERS} workers, one global sequence of "
        f"{45 * N * N + 8 * N} slots):\n"
        f"  per-worker rebuild   {rebuild_seconds:8.3f} s\n"
        f"  store, cold          {cold_seconds:8.3f} s  "
        f"({speedup_cold:.2f}x; parent builds the sequence once)\n"
        f"  store, warm          {warm_seconds:8.3f} s  "
        f"({speedup_warm:.2f}x; attach-only, zero builds)\n"
        "identical measurements on all three paths; store builds == 1, "
        "its only entry",
    )
    assert warm_seconds <= rebuild_seconds * 1.2, (
        f"warm store must not lose to per-worker rebuilds, got "
        f"{speedup_warm:.2f}x ({rebuild_seconds:.3f}s vs {warm_seconds:.3f}s)"
    )
