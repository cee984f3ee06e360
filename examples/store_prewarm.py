"""Prewarming the shared schedule store for large-universe sweeps.

At ``n = 128`` the DRDS global sequence spans ``45 n^2 + 8n = 738304``
slots (5.6 MiB), and every DRDS schedule projects it.  Without a store,
every process that sweeps DRDS — each `SweepRunner` pool worker, every
later run — rebuilds it from scratch.  The store keeps that one
sequence per universe size and nothing else: per-set schedules are
built in-process over it, and the sweep kernel reads their rows on
demand.  This example shows the store lifecycle end to end:

1. prewarm: build and store the global sequence exactly once;
2. sweep: the runner (and all of its workers) attach a read-only memmap;
3. resweep: a fresh runner starts warm — zero builds anywhere;
4. budget: a runner spends `workers` on processes across pairs, and
   each pair's sweep runs in one thread (see docs/TUNING.md);
5. inspect and evict.

The CLI equivalents:

    python -m repro store prewarm --agents ... --universe 128 \\
        --algorithm drds --store-dir .schedules
    python -m repro sweep --agents ... --universe 128 \\
        --algorithm drds --store-dir .schedules --workers 0
    python -m repro store inspect --store-dir .schedules
    python -m repro store evict --store-dir .schedules --all

Run:  python examples/store_prewarm.py
"""

from __future__ import annotations

import tempfile
import time

from repro.analysis import format_table
from repro.core.store import ScheduleStore
from repro.sim import SweepRunner, adversarial_single_common

N = 128
K = 4
ALGORITHM = "drds"
HORIZON = 2 * (45 * N * N + 8 * N)


def main() -> None:
    instance = adversarial_single_common(N, K, 6, seed=2)
    print(
        f"universe n={N}, {instance.num_agents} agents, "
        f"{len(instance.overlapping_pairs())} overlapping pairs, "
        f"algorithm {ALGORITHM}\n"
    )

    with tempfile.TemporaryDirectory() as store_dir:
        store = ScheduleStore(store_dir)

        # --- 1. prewarm: the global sequence is built exactly once ---
        start = time.perf_counter()
        runner = SweepRunner(workers=1, store=store)
        distinct = runner.prewarm(instance, ALGORITHM)
        print(
            f"prewarmed the n={N} global sequence for {distinct} distinct "
            f"channel sets in {time.perf_counter() - start:.2f}s "
            f"(store: {store.builds} builds, "
            f"{store.total_bytes() / (1 << 20):.1f} MiB)"
        )

        # --- 2. sweep: schedules project the stored sequence ----------
        start = time.perf_counter()
        measured = runner.measure_instance(
            instance, ALGORITHM, HORIZON, dense=8, probes=8
        )
        print(
            f"swept {len(measured)} pairs in "
            f"{time.perf_counter() - start:.2f}s "
            f"(store builds still {store.builds})"
        )

        # --- 3. a fresh runner — same store — starts warm -------------
        start = time.perf_counter()
        again = SweepRunner(workers=1, store=ScheduleStore(store_dir))
        remeasured = again.measure_instance(
            instance, ALGORITHM, HORIZON, dense=8, probes=8
        )
        assert remeasured == measured, "store on/off must be bit-identical"
        print(
            f"fresh runner resweep in {time.perf_counter() - start:.2f}s "
            f"({again.store.builds} builds, {again.store.attaches} attaches)\n"
        )

        # --- 4. the worker budget -------------------------------------
        # Processes go to the pair fan-out once a job has enough pairs;
        # every pair's sweep runs in one thread of one process.
        budgeted = SweepRunner(workers=8)
        pairs = len(instance.overlapping_pairs())
        print(
            f"SweepRunner(workers=8) sweeps these {pairs} pairs over "
            f"{budgeted.effective_workers(pairs)} processes, a single-pair "
            f"job over {budgeted.effective_workers(1)}\n"
        )

        # --- 5. inspect and evict -------------------------------------
        rows = [
            [m["digest"], m["n"], m["period"], f"{m['nbytes'] / (1 << 20):.1f}"]
            for m in store.entries()
        ]
        assert len(rows) == 1, "the store keeps one global sequence per n"
        print(format_table(["digest", "n", "period", "MiB"], rows))
        print(f"\nworst TTR over all pairs: {max(m.worst_ttr for m in measured)}")
        print(f"evicted {store.clear()} entries; store empty again")


if __name__ == "__main__":
    main()
