"""Tests for the experiment runner."""

from __future__ import annotations

import warnings

import pytest

from repro.core.schedule import CyclicSchedule
from repro.core.store import ScheduleStore
from repro.sim import runner
from repro.sim.workloads import Instance, random_subsets, single_overlap


class TestShiftPlan:
    def test_deterministic(self):
        a, b = CyclicSchedule([1, 2, 3]), CyclicSchedule([3, 2, 1])
        assert runner.shift_plan(a, b, seed=5) == runner.shift_plan(a, b, seed=5)

    def test_dense_prefix_straddles_zero(self):
        a, b = CyclicSchedule(list(range(100))), CyclicSchedule(list(range(100)))
        plan = runner.shift_plan(a, b, dense=10, probes=0)
        assert plan == [0, -1, 1, -2, 2, -3, 3, -4, 4, -5]

    def test_probes_cover_both_wake_orders(self):
        # Distinct shift classes are [-period_B + 1, period_A): negative
        # shifts (B wakes first) act mod period_B and must be sampled too.
        a, b = CyclicSchedule([1] * 50), CyclicSchedule([1] * 20)
        plan = runner.shift_plan(a, b, dense=0, probes=40, seed=1)
        assert len(plan) == 40
        assert all(-20 < s < 50 for s in plan)
        assert any(s < 0 for s in plan), "probes must cover B-wakes-first"
        assert any(s > 20 for s in plan), "probes must reach past period_B"

    def test_probes_clamped_to_joint_cap(self):
        a, b = CyclicSchedule([1] * 50), CyclicSchedule([1] * 20)
        plan = runner.shift_plan(a, b, dense=0, probes=30, seed=1, joint_cap=10)
        assert all(-10 <= s < 10 for s in plan)

    def test_dense_prefix_clamped_to_small_periods(self):
        a, b = CyclicSchedule([1, 2]), CyclicSchedule([2, 1])
        plan = runner.shift_plan(a, b, dense=10, probes=0)
        assert plan == [0, -1, 1]


class TestMeasurePairwise:
    def test_paper_algorithm_single_overlap(self):
        inst = single_overlap(16, 3, 3, seed=2)
        measured = runner.measure_pairwise(
            inst, "paper", (0, 1), horizon=50_000, dense=16, probes=16
        )
        assert measured.algorithm == "paper"
        assert measured.worst_ttr == measured.stats.maximum
        assert measured.stats.count == 32

    def test_miss_raises(self):
        # Two disjoint sets passed explicitly as a pair: runner must
        # detect the miss and raise, not silently continue.
        inst = Instance(8, [frozenset({1}), frozenset({2})], "manual")
        with pytest.raises(AssertionError, match="missed rendezvous"):
            runner.measure_pairwise(inst, "paper", (0, 1), horizon=200)

    @pytest.mark.parametrize("algorithm", ["paper", "crseq", "jump-stay", "random"])
    def test_all_algorithms_measurable(self, algorithm):
        inst = single_overlap(8, 2, 2, seed=1)
        measured = runner.measure_pairwise(
            inst, algorithm, (0, 1), horizon=100_000, dense=8, probes=8
        )
        assert measured.worst_ttr >= 0


class TestMeasureInstance:
    def test_all_pairs_measured(self):
        inst = random_subsets(16, 4, 4, seed=3)
        results = runner.measure_instance(
            inst, "paper", horizon=60_000, dense=4, probes=4
        )
        assert len(results) == len(inst.overlapping_pairs())

    def test_max_pairs_cap(self):
        inst = random_subsets(16, 8, 5, seed=4)
        results = runner.measure_instance(
            inst, "paper", horizon=60_000, max_pairs=2, dense=2, probes=2
        )
        assert len(results) == 2


class TestSweepRunner:
    def test_schedule_cache_deduplicates_builds(self):
        # 5 agents, all pairs overlapping: 10 pairs = 20 schedule
        # lookups, but only 5 distinct channel sets to build.
        inst = random_subsets(16, 8, 5, seed=4)
        engine = runner.SweepRunner(workers=1)
        results = engine.measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        assert len(results) == len(inst.overlapping_pairs())
        assert engine.cache_misses == len(inst.sets)
        assert engine.cache_hits == 2 * len(results) - engine.cache_misses

    def test_random_baseline_cache_keyed_by_seed(self):
        inst = Instance(8, [frozenset({1, 2}), frozenset({2, 3})], "manual")
        engine = runner.SweepRunner(workers=1)
        engine.measure_pair(inst, "random", (0, 1), horizon=100_000, dense=4, probes=4)
        # Same channel sets, different per-agent seeds: no false sharing.
        assert engine.cache_misses == 2
        engine.measure_pair(inst, "random", (0, 1), horizon=100_000, dense=4, probes=4)
        assert engine.cache_misses == 2
        assert engine.cache_hits == 2

    def test_parallel_matches_serial(self):
        inst = random_subsets(16, 8, 5, seed=4)  # 10 overlapping pairs
        serial = runner.SweepRunner(workers=1).measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        parallel = runner.SweepRunner(workers=2).measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        assert serial == parallel

    def test_small_jobs_stay_serial(self, monkeypatch):
        inst = random_subsets(16, 4, 3, seed=3)  # at most 3 pairs

        def boom(*args, **kwargs):  # pragma: no cover - guard only
            raise AssertionError("process pool must not start for small jobs")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", boom)
        engine = runner.SweepRunner(workers=4)
        results = engine.measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        assert len(results) == len(inst.overlapping_pairs())


class TestSweepRunnerStore:
    def test_store_accepts_directory_path(self, tmp_path):
        engine = runner.SweepRunner(workers=1, store=tmp_path)
        assert isinstance(engine.store, ScheduleStore)
        assert engine.store.store_dir == tmp_path

    def test_serial_parity_store_on_vs_off(self, tmp_path):
        inst = random_subsets(16, 8, 5, seed=4)
        plain = runner.SweepRunner(workers=1).measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        stored = runner.SweepRunner(workers=1, store=tmp_path).measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        assert plain == stored

    def test_parallel_parity_store_on_vs_off(self, tmp_path):
        inst = random_subsets(16, 8, 5, seed=4)  # 10 overlapping pairs
        plain = runner.SweepRunner(workers=2).measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        stored = runner.SweepRunner(workers=2, store=tmp_path).measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        assert plain == stored

    def test_parallel_sweep_builds_each_table_exactly_once(self, tmp_path):
        # The store's acceptance contract: one build of the DRDS global
        # sequence per sweep, in the parent — workers only attach it.
        inst = random_subsets(16, 8, 5, seed=4)  # 10 pairs, 5 distinct sets
        engine = runner.SweepRunner(workers=2, store=tmp_path)
        plain = runner.SweepRunner(workers=2).measure_instance(
            inst, "drds", horizon=60_000, dense=2, probes=2
        )
        stored = engine.measure_instance(
            inst, "drds", horizon=60_000, dense=2, probes=2
        )
        assert stored == plain
        assert (engine.store.builds, engine.store.attaches) == (1, 0)
        assert [m["n"] for m in engine.store.entries()] == [16]
        # A second sweep over the same instance builds nothing new.
        engine.measure_instance(inst, "drds", horizon=60_000, dense=2, probes=2)
        assert engine.store.builds == 1

    def test_prewarm_touches_each_distinct_key_once(self, tmp_path):
        inst = random_subsets(16, 8, 5, seed=4)
        engine = runner.SweepRunner(workers=1, store=tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a stored sequence never warns
            touched = engine.prewarm(inst, "drds")
        assert touched == len(set(inst.sets))
        assert engine.store.builds == 1
        # Prewarming again neither builds nor reads: the store remembers.
        engine.prewarm(inst, "drds")
        assert (engine.store.builds, engine.store.attaches) == (1, 0)
        # Other algorithms store nothing.
        assert engine.prewarm(inst, "crseq") == len(set(inst.sets))
        assert len(engine.store.entries()) == 1

    def test_prewarm_warns_when_working_set_exceeds_cap(self, tmp_path):
        # The DRDS global sequence at n=16 (93 KB) does not fit under a
        # tiny cap: prewarming must warn that workers will rebuild it.
        inst = random_subsets(16, 8, 5, seed=4)
        engine = runner.SweepRunner(
            workers=1, store=ScheduleStore(tmp_path, memory_cap=2048)
        )
        with pytest.warns(RuntimeWarning, match="workers will rebuild"):
            engine.prewarm(inst, "drds")

    def test_random_baseline_store_keys_by_seed(self, tmp_path):
        inst = Instance(8, [frozenset({1, 2}), frozenset({2, 3})], "manual")
        engine = runner.SweepRunner(workers=1, store=tmp_path)
        engine.measure_pair(inst, "random", (0, 1), horizon=100_000, dense=4, probes=4)
        assert engine.cache_misses == 2  # distinct per-agent seeds
        assert engine.store.entries() == []  # built in-process, never stored
        plain = runner.SweepRunner(workers=1)
        expected = plain.measure_pair(
            inst, "random", (0, 1), horizon=100_000, dense=4, probes=4
        )
        again = engine.measure_pair(
            inst, "random", (0, 1), horizon=100_000, dense=4, probes=4
        )
        assert again == expected


class TestWorkerBudget:
    """Processes go to the pair fan-out; each pair sweeps on one lane."""

    def test_big_jobs_give_processes_to_pairs(self):
        engine = runner.SweepRunner(workers=4)
        assert engine.effective_workers(runner.MIN_PARALLEL_PAIRS) == 4

    def test_small_jobs_give_lanes_to_the_pair(self):
        # A job below MIN_PARALLEL_PAIRS runs in this process, each
        # pair's sweep on the one lane every sweep runs on.
        engine = runner.SweepRunner(workers=4)
        assert engine.effective_workers(2) == 1
        assert engine.effective_workers(1) == 1

    def test_single_worker_budget_stays_serial(self):
        engine = runner.SweepRunner(workers=1)
        assert engine.effective_workers(100) == 1

    def test_stream_workers_validated(self):
        # Neither a lane count nor a tile budget is a runner argument.
        for knob in ("stream_workers", "tile_bytes"):
            with pytest.raises(TypeError, match=knob):
                runner.SweepRunner(workers=1, **{knob: 2})
        inst = random_subsets(16, 4, 3, seed=3)
        with pytest.raises(TypeError, match="stream_workers"):
            runner.SweepRunner(workers=1).measure_pair(
                inst, "paper", inst.overlapping_pairs()[0], 60_000,
                stream_workers=2,
            )

    def test_measure_instance_budgets_lanes_serially(self):
        """A small job stays serial on a multi-worker runner, and the
        results stay bit-identical."""
        inst = random_subsets(16, 4, 3, seed=3)  # below MIN_PARALLEL_PAIRS
        serial = runner.SweepRunner(workers=1).measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        budgeted = runner.SweepRunner(workers=4).measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        assert budgeted == serial


class TestSweepRunnerResults:
    def _instance(self):
        return single_overlap(16, 3, 3, seed=2)

    def test_results_accepts_directory_path(self, tmp_path):
        from repro.core.results import ResultStore

        r = runner.SweepRunner(workers=1, results=tmp_path / "results")
        assert isinstance(r.results, ResultStore)

    def test_warm_query_skips_schedule_builds(self, tmp_path):
        instance = self._instance()
        pair = instance.overlapping_pairs()[0]
        cold = runner.SweepRunner(workers=1, results=tmp_path / "results")
        first = cold.measure_pair(instance, "paper", pair, 100_000)
        assert cold.results.writes == 1
        warm = runner.SweepRunner(workers=1, results=tmp_path / "results")
        second = warm.measure_pair(instance, "paper", pair, 100_000)
        # The cached answer must be the *whole* measurement, bit for
        # bit, and must arrive before any schedule exists.
        assert second == first
        assert warm.results.hits == 1
        assert warm.cache_misses == 0, "no schedule was built for a warm query"

    def test_cache_key_separates_algorithms_and_plans(self, tmp_path):
        instance = self._instance()
        pair = instance.overlapping_pairs()[0]
        r = runner.SweepRunner(workers=1, results=tmp_path / "results")
        r.measure_pair(instance, "paper", pair, 100_000)
        r.measure_pair(instance, "zos", pair, 100_000)
        r.measure_pair(instance, "paper", pair, 100_000, dense=32)
        assert r.results.writes == 3
        assert r.results.hits == 0

    def test_random_baseline_keys_by_agent_indices(self, tmp_path):
        # Two pairs over identical channel sets but different agent
        # indices draw different random tapes: they must not share a
        # cache entry.
        sets = [frozenset({1, 2, 3})] * 3
        instance = Instance(8, sets, "clones")
        r = runner.SweepRunner(workers=1, results=tmp_path / "results")
        r.measure_pair(instance, "random", (0, 1), 100_000)
        r.measure_pair(instance, "random", (0, 2), 100_000)
        assert r.results.writes == 2
        assert r.results.hits == 0
        q01 = r.pair_query_for(instance, "random", (0, 1), 100_000)
        q02 = r.pair_query_for(instance, "random", (0, 2), 100_000)
        assert q01 != q02
        # Deterministic algorithms do not fragment on indices.
        d01 = r.pair_query_for(instance, "paper", (0, 1), 100_000)
        d02 = r.pair_query_for(instance, "paper", (0, 2), 100_000)
        assert d01 == d02

    def test_parallel_workers_fill_and_consult_the_cache(self, tmp_path):
        instance = random_subsets(16, 4, 3, seed=1)
        plain = runner.SweepRunner(workers=1).measure_instance(
            instance, "paper", 100_000
        )
        fan = runner.SweepRunner(workers=2, results=tmp_path / "results")
        cold = fan.measure_instance(instance, "paper", 100_000)
        assert cold == plain
        warm_runner = runner.SweepRunner(workers=1, results=tmp_path / "results")
        warm = warm_runner.measure_instance(instance, "paper", 100_000)
        assert warm == plain
        assert warm_runner.results.hits == len(plain)
        assert warm_runner.cache_misses == 0


class TestSweepRunnerCheckpoint:
    def test_checkpoint_dir_threads_through_and_cleans_up(self, tmp_path):
        instance = single_overlap(16, 3, 3, seed=2)
        pair = instance.overlapping_pairs()[0]
        ckpt = tmp_path / "ckpt"
        with_ckpt = runner.SweepRunner(workers=1, checkpoint_dir=ckpt)
        measured = with_ckpt.measure_pair(instance, "paper", pair, 100_000)
        plain = runner.SweepRunner(workers=1).measure_pair(
            instance, "paper", pair, 100_000
        )
        assert measured == plain
        assert list(ckpt.glob("*.ckpt.json")) == [], (
            "a completed sweep must delete its checkpoint"
        )

    def test_interrupted_measurement_resumes_bit_identical(
        self, tmp_path, monkeypatch
    ):
        from repro.core import stream as stream_module

        instance = single_overlap(16, 3, 3, seed=2)
        pair = instance.overlapping_pairs()[0]
        plain = runner.SweepRunner(workers=1).measure_pair(
            instance, "paper", pair, 100_000
        )
        ckpt = tmp_path / "ckpt"
        # 64-byte tiles of one shift row: snapshots land every few
        # slots, so the death below falls mid-sweep.
        monkeypatch.setattr(
            stream_module, "plan_tiles",
            lambda *args, **kwargs: stream_module.TilePlan(64, block_rows=1),
        )
        # Inject the interruption at the sink layer: die after two
        # snapshots, exactly like a kill mid-sweep.
        real_sink = stream_module.SweepCheckpoint
        interrupted = runner.SweepRunner(workers=1, checkpoint_dir=ckpt)

        class Dying(real_sink):
            def save(self, state):
                if self.saves >= 2:
                    raise RuntimeError("injected interruption")
                super().save(state)

        import repro.sim.runner as runner_module

        original = runner_module.SweepCheckpoint
        runner_module.SweepCheckpoint = Dying
        try:
            with pytest.raises(RuntimeError, match="injected"):
                interrupted.measure_pair(instance, "paper", pair, 100_000)
        finally:
            runner_module.SweepCheckpoint = original
        assert list(ckpt.glob("*.ckpt.json")), "interruption left no snapshot"
        resumed = runner.SweepRunner(workers=1, checkpoint_dir=ckpt).measure_pair(
            instance, "paper", pair, 100_000
        )
        assert resumed == plain
        assert list(ckpt.glob("*.ckpt.json")) == []


class TestSweepRunnerEnvironment:
    """Fault environments threaded through the measurement harness."""

    def test_spec_string_is_parsed(self):
        from repro.core.environment import FadingMisses

        r = runner.SweepRunner(workers=1, environment="fading:p=0.2,seed=3")
        assert r.environment == FadingMisses(0.2, seed=3)
        assert runner.SweepRunner(workers=1).environment is None

    def test_zero_intensity_matches_clean(self):
        from repro.core.environment import FadingMisses

        instance = single_overlap(10, 3, 3, seed=2)
        pair = instance.overlapping_pairs()[0]
        clean = runner.SweepRunner(workers=1).measure_pair(
            instance, "paper", pair, 50_000
        )
        zeroed = runner.SweepRunner(
            workers=1, environment=FadingMisses(0.0, seed=5)
        ).measure_pair(instance, "paper", pair, 50_000)
        assert zeroed == clean

    def test_misses_tolerated_and_counted(self):
        from repro.core.environment import PrimaryUserChurn

        instance = single_overlap(10, 3, 3, seed=2)
        pair = instance.overlapping_pairs()[0]
        i, j = pair
        common = tuple(sorted(instance.sets[i] & instance.sets[j]))
        # Seize every common channel in every window: nothing can meet.
        env = PrimaryUserChurn(1.0, seed=1, dwell=4, channels=common)
        measured = runner.SweepRunner(
            workers=1, environment=env
        ).measure_pair(instance, "paper", pair, 20_000)
        assert measured.missed == measured.stats.count + measured.missed > 0
        assert measured.worst_ttr == -1
        assert measured.stats.count == 0

    def test_clean_runs_still_raise_on_miss(self):
        instance = single_overlap(10, 3, 3, seed=2)
        pair = instance.overlapping_pairs()[0]
        with pytest.raises(AssertionError):
            runner.SweepRunner(workers=1).measure_pair(
                instance, "paper", pair, 2
            )

    def test_result_cache_separates_clean_and_faulted(self, tmp_path):
        from repro.core.environment import FadingMisses

        instance = single_overlap(10, 3, 3, seed=2)
        pair = instance.overlapping_pairs()[0]
        env = FadingMisses(0.4, seed=8)
        clean_runner = runner.SweepRunner(workers=1, results=tmp_path)
        fault_runner = runner.SweepRunner(
            workers=1, results=tmp_path, environment=env
        )
        clean = clean_runner.measure_pair(instance, "paper", pair, 50_000)
        faulted = fault_runner.measure_pair(instance, "paper", pair, 50_000)
        # Warm replays answer from the shared store without crossing.
        assert clean_runner.measure_pair(
            instance, "paper", pair, 50_000
        ) == clean
        assert fault_runner.measure_pair(
            instance, "paper", pair, 50_000
        ) == faulted
        assert clean_runner.results.hits == 1
        assert fault_runner.results.hits == 1
        q_clean = clean_runner.pair_query_for(instance, "paper", pair, 50_000)
        q_fault = fault_runner.pair_query_for(instance, "paper", pair, 50_000)
        from repro.core.results import result_digest

        assert result_digest(q_clean) != result_digest(q_fault)

    def test_parallel_fanout_carries_environment(self):
        from repro.core.environment import FadingMisses

        instance = random_subsets(10, 3, 8, seed=4)
        env = FadingMisses(0.3, seed=6)
        serial = runner.SweepRunner(workers=1, environment=env)
        parallel = runner.SweepRunner(workers=2, environment=env)
        horizon = 60_000
        assert parallel.measure_instance(
            instance, "paper", horizon
        ) == serial.measure_instance(instance, "paper", horizon)

    def test_measured_record_roundtrips_missed(self):
        measured = runner.MeasuredPair(
            "paper", (0, 1), -1, runner.TTRStats(0, 0.0, 0.0, 0.0, -1, -1), 5
        )
        record = runner._measured_record(measured)
        assert record["missed"] == 5
        assert runner._measured_from_record("paper", (0, 1), record) == measured
        # Pre-environment records (no "missed" key) hydrate as clean.
        del record["missed"]
        legacy = runner._measured_from_record("paper", (0, 1), record)
        assert legacy.missed == 0
