"""Experiment runner: build schedules, sweep shifts, aggregate TTRs.

This is the measurement harness behind every benchmark table: given an
:class:`~repro.sim.workloads.Instance` and an algorithm name, it builds
one schedule per agent, measures pairwise time-to-rendezvous over a
deterministic set of relative shifts, and aggregates.

The heavy lifting happens in :class:`SweepRunner`:

* schedules are cached per ``(channels, n, algorithm, seed)`` — in an
  instance with many agents the same channel set is never rebuilt for
  each pair it appears in;
* every pair's shift sweep goes through
  :func:`repro.core.stream.ttr_sweep`, one pass instead of a Python
  loop over shifts;
* instances with many pairs fan out across a
  ``concurrent.futures.ProcessPoolExecutor`` (worker count configurable,
  default ``os.cpu_count()``); small jobs stay serial, where the
  schedule cache and warm numpy buffers beat process startup;
* with a :class:`~repro.core.store.ScheduleStore` attached, the DRDS
  global sequence is built **once** (the parent prewarms it before
  fanning out) and workers attach a read-only memmap of it instead of
  rebuilding it per process;
* with a :class:`~repro.core.results.ResultStore` attached, whole
  *measurements* persist: a repeat query is answered from disk before
  any schedule is built, which is the serving layer behind
  ``python -m repro serve``;
* with a ``checkpoint_dir``, sweeps snapshot their progress and resume
  after an interruption, bit-identically.

Shift policy: the asynchronous guarantee quantifies over *all* relative
wake-up offsets — both wake orders.  A nonnegative shift only acts
through its phase class mod ``period_A`` and a negative one mod
``period_B`` (see
:func:`repro.core.verification.exhaustive_shift_range`), so
``shift_plan`` straddles zero: a signed dense prefix
(``0, -1, 1, -2, 2, ...``) plus seeded pseudo-random probes drawn
uniformly from the two-sided class range, each side clamped to
``joint_cap``.  The same policy applies to every algorithm, so
comparisons are fair.

The module-level ``shift_plan`` / ``measure_pairwise`` /
``measure_instance`` functions are thin wrappers over a serial
``SweepRunner`` and keep the original API.
"""

from __future__ import annotations

import os
import random
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from repro.core import telemetry
from repro.core.environment import Environment, environment_digest, parse_environment
from repro.core.results import ResultStore, pair_query, result_digest
from repro.core.schedule import Schedule
from repro.core.store import ScheduleStore, build_plain, store_key
from repro.core.stream import SweepCheckpoint, ttr_sweep
from repro.sim.metrics import TTRStats, summarize_ttrs
from repro.sim.workloads import Instance

__all__ = [
    "MeasuredPair",
    "SweepRunner",
    "shift_plan",
    "measure_pairwise",
    "measure_instance",
]

# Probes never sample beyond this many shifts of the joint period: the
# lcm of two large coprime periods can dwarf any meaningful sweep.
DEFAULT_JOINT_CAP = 1 << 20

# Below this many pairs a process pool costs more than it saves.
MIN_PARALLEL_PAIRS = 8


@dataclass(frozen=True)
class MeasuredPair:
    """Worst-case and sample TTRs for one agent pair under one algorithm.

    ``missed`` counts the shifts in the plan that never rendezvoused
    within the horizon.  On a clean run it is always zero (a miss
    raises instead); under a fault environment misses are expected —
    that loss *is* the measurement — so ``worst_ttr`` and ``stats``
    summarize the shifts that still met (``worst_ttr`` is ``-1`` when
    none did).
    """

    algorithm: str
    pair: tuple[int, int]
    worst_ttr: int
    stats: TTRStats
    missed: int = 0


def shift_plan(
    a: Schedule,
    b: Schedule,
    dense: int = 64,
    probes: int = 64,
    seed: int = 0,
    joint_cap: int = DEFAULT_JOINT_CAP,
) -> list[int]:
    """Deterministic shift schedule: signed dense prefix + seeded probes.

    Covers both wake orders: the distinct shift classes are
    ``[-period_B + 1, period_A)`` (nonnegative shifts act mod
    ``period_A``, negative ones mod ``period_B``), so the dense prefix
    alternates ``0, -1, 1, -2, 2, ...`` around zero and probes are
    drawn uniformly from the full two-sided range, each side clamped to
    ``joint_cap``.
    """
    rng = random.Random(seed)
    lo = -min(b.period - 1, joint_cap)
    hi = min(a.period, joint_cap)
    shifts = []
    for i in range(dense):
        magnitude = (i + 1) // 2
        shift = magnitude if i % 2 == 0 else -magnitude
        if lo <= shift < hi:
            shifts.append(shift)
    shifts += [rng.randrange(lo, hi) for _ in range(probes)]
    return shifts


class SweepRunner:
    """Schedule-caching, optionally parallel pair-measurement harness.

    **Caching contract.** One runner owns one schedule cache, keyed by
    :func:`~repro.core.store.store_key` — ``(channels, n, algorithm,
    seed)`` with the seed collapsed to ``-1`` for every deterministic
    algorithm — so in an instance where many agents share a channel
    set, each distinct set is built exactly once per runner, and
    reusing one runner across calls amortizes schedule construction
    over a whole table.  ``cache_hits``/``cache_misses`` expose the
    effect.  Entries are never evicted: a runner's lifetime is expected
    to be one table, not one process.

    **Store contract.** With ``store=`` (a
    :class:`~repro.core.store.ScheduleStore` or a directory path), the
    local cache's miss path goes through the store: ``drds`` schedules
    project the global sequence the store built once per ``n``, and
    every later lookup — same runner, another runner, another
    *process* — attaches it read-only instead of rebuilding.  Parallel
    ``measure_instance`` calls prewarm it in the parent before fanning
    out, so worker processes never build it; the store's
    ``builds``/``attaches`` counters certify it.

    **Sweep contract.** Every pair the runner measures (workers
    included) goes through :func:`repro.core.stream.ttr_sweep`: the
    scalar loop for tiny joint periods, the blocked kernel for
    everything else, so huge-period baselines (Jump-Stay at
    ``n >= 128``) sweep transparently.

    **Process-pool contract.** ``measure_instance`` stays serial below
    ``MIN_PARALLEL_PAIRS`` pairs or when ``workers <= 1`` — there the
    shared cache and warm numpy buffers beat process startup.  Larger
    jobs fan pairs out over a fresh ``ProcessPoolExecutor`` per call;
    each worker process keeps its *own* ``SweepRunner`` (module-global,
    reused across the tasks that land on it), so parent-side cache
    statistics only describe serial runs.  The fan-out ships store
    handles (directory paths) and picklable inputs (``Instance`` +
    algorithm name), never live ``Schedule`` objects.  Results return
    in pair order regardless of which path executed.

    **Result-cache contract.** With ``results=`` (a
    :class:`~repro.core.results.ResultStore` or a directory path),
    ``measure_pair`` consults the persistent result cache *before
    building any schedule* — a warm query costs one record read, not a
    sweep — and writes every computed measurement through after.  The
    cache key names the measurement, not how it ran (see
    :func:`repro.core.results.pair_query`), so serial and fanned-out
    runs answer each other; parallel ``measure_instance`` workers
    consult and fill the same on-disk cache.

    **Checkpoint contract.** With ``checkpoint_dir=``, every sweep
    snapshots its progress into ``<query digest>.ckpt.json`` under
    that directory (see :class:`~repro.core.stream.SweepCheckpoint`):
    an interrupted measurement resumes from the snapshot on rerun and
    the completed sweep deletes it.  Resumed profiles are bit-identical
    to uninterrupted ones.

    **Worker-budget contract.** ``workers`` sizes the process pool
    across pairs (:meth:`effective_workers`); each pair's sweep runs
    in one thread of one process.  Every split is bit-identical.

    **Environment contract.** With ``environment=`` (an
    :class:`~repro.core.environment.Environment`, or a spec string for
    :func:`~repro.core.environment.parse_environment`), every sweep the
    runner performs — serial or fanned out — runs under that fault
    model: the mask passes straight through to
    :func:`repro.core.stream.ttr_sweep`, the environment's canonical
    spec joins the result-cache query (faulted and clean measurements
    can never answer each other), and its digest joins the worker
    runner key and any checkpoint digest.  Misses stop raising and are
    counted in :attr:`MeasuredPair.missed` instead — under primary-user
    churn a lost guarantee is the observation, not a bug.
    """

    def __init__(
        self,
        workers: int | None = None,
        store: ScheduleStore | str | os.PathLike | None = None,
        results: ResultStore | str | os.PathLike | None = None,
        checkpoint_dir: str | os.PathLike | None = None,
        environment: Environment | str | None = None,
    ):
        self.workers = os.cpu_count() or 1 if workers is None else max(1, workers)
        if store is not None and not isinstance(store, ScheduleStore):
            store = ScheduleStore(store)
        self.store = store
        if results is not None and not isinstance(results, ResultStore):
            results = ResultStore(results)
        self.results = results
        self.checkpoint_dir = (
            None if checkpoint_dir is None else Path(checkpoint_dir)
        )
        if isinstance(environment, str):
            environment = parse_environment(environment)
        self.environment = environment
        self._schedules: dict[
            tuple[frozenset[int], int, str, int], Schedule
        ] = {}
        self.cache_hits = 0
        self.cache_misses = 0

    def schedule_for(
        self, channels: frozenset[int], n: int, algorithm: str, seed: int
    ) -> Schedule:
        """Build (or fetch) one agent's schedule.

        Deterministic algorithms ignore the seed, so it only
        discriminates cache entries for the randomized baseline.  The
        miss path goes through the store when one is attached.
        """
        key = store_key(channels, n, algorithm, seed)
        cached = self._schedules.get(key)
        if cached is not None:
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        if self.store is not None:
            schedule = self.store.get(channels, n, algorithm, seed)
        else:
            schedule = build_plain(channels, n, algorithm, seed)
        self._schedules[key] = schedule
        return schedule

    def prewarm(
        self,
        instance: Instance,
        algorithm: str,
        pairs: list[tuple[int, int]] | None = None,
        seed: int = 0,
        agents: list[int] | None = None,
    ) -> int:
        """Store what a sweep over ``pairs`` will share before any fan-out.

        With a store attached and ``drds``, builds or attaches the
        global sequence for ``instance.n`` here, so workers only attach
        it; a sequence the store cannot keep (memory cap or period
        limit) warns that every worker will rebuild it.  Other
        algorithms store nothing.  ``agents`` overrides the
        pair-derived agent selection.  Returns the number of distinct
        schedule keys (per-agent seeds as ``measure_pair`` uses them)
        the sweep touches.
        """
        if agents is None:
            if pairs is None:
                pairs = instance.overlapping_pairs()
            agents = sorted({index for pair in pairs for index in pair})
        keys = {
            store_key(instance.sets[i], instance.n, algorithm, seed * 1000 + i)
            for i in agents
        }
        if self.store is not None and algorithm == "drds":
            self.store.global_sequence(instance.n)
            if not self.store.contains(instance.n):
                warnings.warn(
                    "schedule store cannot keep the DRDS global sequence "
                    f"for n={instance.n} (memory cap or period limit); "
                    "workers will rebuild it per process",
                    RuntimeWarning,
                    stacklevel=2,
                )
        return len(keys)

    def measure_pair(
        self,
        instance: Instance,
        algorithm: str,
        pair: tuple[int, int],
        horizon: int,
        dense: int = 64,
        probes: int = 64,
        seed: int = 0,
    ) -> MeasuredPair:
        """Measure TTR for one overlapping pair over the shift plan.

        Raises ``AssertionError`` if any shift misses within ``horizon``
        — deterministic algorithms must never miss when the horizon
        exceeds their guarantee; the randomized baseline gets the same
        horizon and is expected to make it with high probability.
        Under an attached fault environment misses are expected, so
        they are tallied in :attr:`MeasuredPair.missed` instead of
        raising and the aggregates cover only the shifts that met.

        With a result store attached, a cached measurement is returned
        *before any schedule is built* (the warm-query fast path) and a
        computed one is written through; with a checkpoint directory,
        the sweep itself is interrupt/resumable.
        """
        with telemetry.span("runner.measure_pair"):
            i, j = pair
            query = None
            if self.results is not None or self.checkpoint_dir is not None:
                query = self.pair_query_for(
                    instance, algorithm, pair, horizon, dense, probes, seed
                )
            if self.results is not None:
                cached = self.results.get(query)
                if cached is not None:
                    return _measured_from_record(algorithm, pair, cached)
            a = self.schedule_for(
                instance.sets[i], instance.n, algorithm, seed * 1000 + i
            )
            b = self.schedule_for(
                instance.sets[j], instance.n, algorithm, seed * 1000 + j
            )
            plan = shift_plan(a, b, dense=dense, probes=probes, seed=seed)
            if not plan:
                raise ValueError("empty shift plan: need dense > 0 or probes > 0")
            checkpoint = None
            if self.checkpoint_dir is not None:
                checkpoint = SweepCheckpoint(
                    self.checkpoint_dir / f"{result_digest(query)}.ckpt.json"
                )
            profile = ttr_sweep(
                a, b, plan, horizon, checkpoint=checkpoint,
                environment=self.environment,
            )
            missed = 0
            samples = []
            for shift in plan:
                ttr = profile[shift]
                if ttr is None:
                    if self.environment is None:
                        raise AssertionError(
                            f"{algorithm} missed rendezvous within {horizon} "
                            f"slots for pair {pair} at shift {shift} "
                            f"(sets {sorted(instance.sets[i])} / "
                            f"{sorted(instance.sets[j])})"
                        )
                    missed += 1
                else:
                    samples.append(ttr)
            if samples:
                worst, stats = max(samples), summarize_ttrs(samples)
            else:
                # Every shift lost the guarantee: sentinel aggregates, the
                # miss count carries the whole story.
                worst, stats = -1, TTRStats(0, 0.0, 0.0, 0.0, -1, -1)
            measured = MeasuredPair(algorithm, pair, worst, stats, missed)
            if self.results is not None:
                self.results.put(query, _measured_record(measured))
            if checkpoint is not None:
                checkpoint.clear()
            return measured

    def pair_query_for(
        self,
        instance: Instance,
        algorithm: str,
        pair: tuple[int, int],
        horizon: int,
        dense: int = 64,
        probes: int = 64,
        seed: int = 0,
    ) -> dict:
        """Canonical result-cache query for one ``measure_pair`` call.

        The randomized baseline additionally pins the derived per-agent
        tape seeds — two pairs over the same channel sets but different
        agent indices draw different tapes and must not share a cache
        entry.  The runner's environment spec joins the query when one
        is attached (clean queries are unchanged).
        """
        i, j = pair
        query = pair_query(
            algorithm, instance.n, instance.sets[i], instance.sets[j],
            horizon, dense, probes, seed, environment=self.environment,
        )
        if algorithm == "random":
            query["agent_seeds"] = [seed * 1000 + i, seed * 1000 + j]
        return query

    def effective_workers(self, num_pairs: int) -> int:
        """Process count a job of ``num_pairs`` pairs will actually use."""
        if self.workers > 1 and num_pairs >= MIN_PARALLEL_PAIRS:
            return self.workers
        return 1

    def measure_instance(
        self,
        instance: Instance,
        algorithm: str,
        horizon: int,
        max_pairs: int | None = None,
        dense: int = 64,
        probes: int = 64,
        seed: int = 0,
    ) -> list[MeasuredPair]:
        """Measure all (or the first ``max_pairs``) overlapping pairs.

        Fans out across processes when the job is big enough; results
        are returned in pair order either way.
        """
        pairs = instance.overlapping_pairs()
        if max_pairs is not None:
            pairs = pairs[:max_pairs]
        pool_workers = self.effective_workers(len(pairs))
        if pool_workers > 1:
            store_handle = None
            if self.store is not None:
                # Build the shared global sequence once, here in the
                # parent; workers then only ever attach it.  The handle
                # carries the memory cap so worker-side stores honor it.
                self.prewarm(instance, algorithm, pairs, seed=seed)
                store_handle = (
                    str(self.store.store_dir),
                    self.store.memory_cap,
                    tuple(str(root) for root in self.store.read_roots),
                )
            results_handle = None
            if self.results is not None:
                results_handle = (
                    str(self.results.store_dir), self.results.memory_cap
                )
            checkpoint_handle = (
                None if self.checkpoint_dir is None else str(self.checkpoint_dir)
            )
            payloads = [
                (
                    instance, algorithm, pair, horizon, dense, probes, seed,
                    store_handle, results_handle, checkpoint_handle,
                    self.environment, telemetry.enabled(),
                )
                for pair in pairs
            ]
            chunk = max(1, len(payloads) // (self.workers * 4))
            with telemetry.span("runner.pool_fanout"):
                telemetry.count("runner.pool_pairs", len(pairs))
                telemetry.gauge("runner.pool_processes", pool_workers)
                with ProcessPoolExecutor(max_workers=self.workers) as pool:
                    outcomes = list(
                        pool.map(_measure_pair_task, payloads, chunksize=chunk)
                    )
            # Worker processes time their tasks on their own registries
            # and ship snapshots back alongside the results; folding
            # them in here makes one parent snapshot cover the whole
            # fanned-out sweep.
            for _, snap in outcomes:
                telemetry.merge(snap)
            return [measured for measured, _ in outcomes]
        with telemetry.span("runner.serial"):
            telemetry.count("runner.serial_pairs", len(pairs))
            return [
                self.measure_pair(
                    instance, algorithm, pair, horizon,
                    dense=dense, probes=probes, seed=seed,
                )
                for pair in pairs
            ]


def _measured_record(measured: MeasuredPair) -> dict:
    """JSON-able result-store record of one measurement."""
    stats = measured.stats
    return {
        "worst_ttr": measured.worst_ttr,
        "missed": measured.missed,
        "stats": {
            "count": stats.count,
            "mean": stats.mean,
            "median": stats.median,
            "p95": stats.p95,
            "maximum": stats.maximum,
            "minimum": stats.minimum,
        },
    }


def _measured_from_record(
    algorithm: str, pair: tuple[int, int], record: dict
) -> MeasuredPair:
    """Rehydrate a cached record into a ``MeasuredPair`` (bit-identical:
    JSON round-trips the ints and IEEE doubles exactly)."""
    stats = record["stats"]
    return MeasuredPair(
        algorithm,
        pair,
        int(record["worst_ttr"]),
        TTRStats(
            count=int(stats["count"]),
            mean=float(stats["mean"]),
            median=float(stats["median"]),
            p95=float(stats["p95"]),
            maximum=int(stats["maximum"]),
            minimum=int(stats["minimum"]),
        ),
        # Pre-environment records carry no miss count; they were all
        # clean runs, where a miss raised instead of recording.
        int(record.get("missed", 0)),
    )


# One runner per (worker process, store handle, sweep config), so the
# schedule cache — and the store attachment — survives across the tasks
# that land on that worker.
_WORKER_RUNNERS: dict[tuple, SweepRunner] = {}


def _measure_pair_task(payload: tuple) -> tuple[MeasuredPair, dict | None]:
    """Measure one pair inside a pool worker (its runner is reused).

    Returns ``(measured, telemetry_snapshot)``: when the parent fanned
    out with telemetry enabled, the worker enables its own registry,
    times the task under ``runner.worker_task``, and ships the snapshot
    back for the parent to :func:`repro.core.telemetry.merge` —
    resetting after each task so successive tasks on the same worker
    never double-count.  Telemetry-off fan-outs ship ``None``.
    """
    (
        instance, algorithm, pair, horizon, dense, probes, seed,
        store_handle, results_handle, checkpoint_handle, environment,
        telemetry_on,
    ) = payload
    runner_key = (
        store_handle, results_handle, checkpoint_handle,
        environment_digest(environment),
    )
    runner = _WORKER_RUNNERS.get(runner_key)
    if runner is None:
        store = None
        if store_handle is not None:
            store_dir, memory_cap, read_roots = store_handle
            store = ScheduleStore(
                store_dir, memory_cap=memory_cap, read_roots=read_roots
            )
        results = None
        if results_handle is not None:
            results_dir, results_cap = results_handle
            results = ResultStore(results_dir, memory_cap=results_cap)
        runner = SweepRunner(
            workers=1, store=store, results=results,
            checkpoint_dir=checkpoint_handle, environment=environment,
        )
        _WORKER_RUNNERS[runner_key] = runner
    if not telemetry_on:
        measured = runner.measure_pair(
            instance, algorithm, pair, horizon,
            dense=dense, probes=probes, seed=seed,
        )
        return measured, None
    telemetry.enable()
    telemetry.reset()
    with telemetry.span("runner.worker_task"):
        measured = runner.measure_pair(
            instance, algorithm, pair, horizon,
            dense=dense, probes=probes, seed=seed,
        )
    return measured, telemetry.snapshot()


def measure_pairwise(
    instance: Instance,
    algorithm: str,
    pair: tuple[int, int],
    horizon: int,
    dense: int = 64,
    probes: int = 64,
    seed: int = 0,
    store: ScheduleStore | str | Path | None = None,
) -> MeasuredPair:
    """Measure one pair with a throwaway serial runner (legacy API)."""
    return SweepRunner(workers=1, store=store).measure_pair(
        instance, algorithm, pair, horizon, dense=dense, probes=probes, seed=seed
    )


def measure_instance(
    instance: Instance,
    algorithm: str,
    horizon: int,
    max_pairs: int | None = None,
    dense: int = 64,
    probes: int = 64,
    seed: int = 0,
    workers: int | None = 1,
    store: ScheduleStore | str | Path | None = None,
) -> list[MeasuredPair]:
    """Measure an instance; ``workers=None`` uses every core."""
    return SweepRunner(workers=workers, store=store).measure_instance(
        instance,
        algorithm,
        horizon,
        max_pairs=max_pairs,
        dense=dense,
        probes=probes,
        seed=seed,
    )
