"""Rendezvous-as-a-service: cached queries and resumable sweeps.

A measured worst-TTR profile is a pure function of its query — the
channel sets, universe, algorithm, horizon, and sweep shape.  The
service layer exploits that twice over:

1. query: a cold worst-TTR pair query runs the full shift sweep and
   writes the ``MeasuredPair`` through to a persistent result cache;
2. re-query: a *fresh* runner (think: the next process, tomorrow's
   run) answers the same query from one cache record in microseconds —
   bit-identical, no schedule built, no shift scanned;
3. interrupt: a long checkpointed sweep dies mid-scan — the snapshot
   written at the last tile-block boundary survives on disk;
4. resume: a new runner picks the sweep up from the snapshot, rescans
   only the unresolved shifts, and lands the identical measurement
   (the checkpoint file is deleted on success, the result cached);
5. re-query again: now even the interrupted pair is a cache hit.

The CLI equivalents:

    python -m repro serve --a 3,17,40 --b 17,58 --universe 64 \\
        --algorithm jump-stay --results-dir .results
    python -m repro sweep --agents 3,17,40/17,58 --universe 64 \\
        --algorithm jump-stay --results-dir .results \\
        --checkpoint-dir .ckpt
    python -m repro sweep ... --checkpoint-dir .ckpt --resume

Run:  python examples/rendezvous_service.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import repro.sim.runner as runner_module
from repro.core.stream import SweepCheckpoint
from repro.sim import SweepRunner
from repro.sim.workloads import single_overlap

N = 64
ALGORITHM = "jump-stay"
HORIZON = 4_000_000
SWEEP = dict(dense=32, probes=32)


class DyingCheckpoint(SweepCheckpoint):
    """A checkpoint sink that simulates a crash after its 2nd snapshot."""

    def save(self, state: dict) -> None:
        """Persist the snapshot, then die once two are on disk."""
        super().save(state)
        if self.saves >= 2:
            raise RuntimeError("simulated crash (power loss, preemption...)")


def cache_line(runner: SweepRunner) -> str:
    """One-line cache summary, in the CLI's format."""
    s = runner.results.stats()
    return (
        f"    cache: {s['hits']} hits, {s['misses']} misses, "
        f"{s['writes']} writes, {s['entries']} entries"
    )


def main() -> None:
    instance = single_overlap(N, 5, 5, seed=2)
    print(
        f"universe n={N}, pair {sorted(instance.sets[0])} / "
        f"{sorted(instance.sets[1])}, algorithm {ALGORITHM}\n"
    )

    with tempfile.TemporaryDirectory() as tmp:
        results_dir = Path(tmp) / "results"
        ckpt_dir = Path(tmp) / "checkpoints"

        # --- 1. cold query: sweep + write-through ---------------------
        server = SweepRunner(workers=1, results=results_dir)
        start = time.perf_counter()
        cold = server.measure_pair(instance, ALGORITHM, (0, 1), HORIZON, **SWEEP)
        cold_seconds = time.perf_counter() - start
        print(f"cold query: worst TTR {cold.worst_ttr} in {cold_seconds:.3f}s")
        print(cache_line(server))

        # --- 2. re-query from a fresh runner: one record read ---------
        fresh = SweepRunner(workers=1, results=results_dir)
        start = time.perf_counter()
        warm = fresh.measure_pair(instance, ALGORITHM, (0, 1), HORIZON, **SWEEP)
        warm_seconds = time.perf_counter() - start
        assert warm == cold, "a cache hit must be bit-identical to the sweep"
        print(
            f"re-query:   worst TTR {warm.worst_ttr} in {warm_seconds:.6f}s "
            f"({cold_seconds / warm_seconds:.0f}x, bit-identical)"
        )
        print(cache_line(fresh))

        # --- 3. interrupt a checkpointed sweep mid-scan ---------------
        # A second, uncached pair; its sweep snapshots at each of its
        # four time-block boundaries, so the second lands mid-scan.
        # Injecting the dying sink through the runner module stands in
        # for a real crash.
        other = single_overlap(N, 6, 4, seed=7)
        doomed = SweepRunner(
            workers=1, results=results_dir, checkpoint_dir=ckpt_dir
        )
        runner_module.SweepCheckpoint = DyingCheckpoint
        try:
            doomed.measure_pair(other, ALGORITHM, (0, 1), HORIZON, **SWEEP)
            raise AssertionError("the injected crash should have fired")
        except RuntimeError as exc:
            print(f"\ninterrupted sweep: {exc}")
        finally:
            runner_module.SweepCheckpoint = SweepCheckpoint
        snapshots = list(ckpt_dir.glob("*.ckpt.json"))
        assert len(snapshots) == 1, "the partial sweep must leave its snapshot"
        print(f"    snapshot on disk: {snapshots[0].name}")

        # --- 4. resume from the snapshot ------------------------------
        resumer = SweepRunner(
            workers=1, results=results_dir, checkpoint_dir=ckpt_dir
        )
        resumed = resumer.measure_pair(other, ALGORITHM, (0, 1), HORIZON, **SWEEP)
        reference = SweepRunner(workers=1).measure_pair(
            other, ALGORITHM, (0, 1), HORIZON, **SWEEP
        )
        assert resumed == reference, "resume must be bit-identical to one pass"
        assert not list(ckpt_dir.glob("*.ckpt.json")), (
            "the snapshot is deleted once the sweep completes"
        )
        print(
            f"resumed:    worst TTR {resumed.worst_ttr} "
            "(bit-identical to an uninterrupted sweep; snapshot cleared)"
        )

        # --- 5. the resumed result is served from cache too -----------
        final = SweepRunner(workers=1, results=results_dir)
        again = final.measure_pair(other, ALGORITHM, (0, 1), HORIZON, **SWEEP)
        assert again == resumed
        print("re-query of the resumed pair: cache hit")
        print(cache_line(final))


if __name__ == "__main__":
    main()
