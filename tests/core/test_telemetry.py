"""Tests for the telemetry registry (:mod:`repro.core.telemetry`).

The module's three contracts each get a direct gate here:

* **zero overhead when disabled** — the disabled path hands out one
  shared no-op singleton and allocates nothing on the sweep kernel's
  hot-loop call pattern;
* **never observable by results** — telemetry-on and telemetry-off
  sweeps are bit-identical on both sweep paths (scalar loop, kernel);
* **deterministic structure** — a snapshot's names, nesting, ordering,
  call counts, and byte totals are identical across ``PYTHONHASHSEED``
  values (only the measured seconds vary).

Plus the aggregation mechanics: span nesting per thread, pool-worker
snapshot merging through ``SweepRunner``, and counter/gauge semantics.
"""

from __future__ import annotations

import gc
import json
import os
import re
import subprocess
import sys

import pytest

import repro
from repro.core import telemetry
from repro.core.schedule import CyclicSchedule
from repro.core.stream import TilePlan, ttr_sweep
from repro.core.verification import strided_shift_range
from repro.sim import runner
from repro.sim.workloads import random_subsets, single_overlap


@pytest.fixture(autouse=True)
def _clean_registry():
    """Every test starts and ends with a disabled, empty registry."""
    telemetry.disable()
    telemetry.reset()
    yield
    telemetry.disable()
    telemetry.reset()


class TestRegistryBasics:
    def test_disabled_span_is_shared_singleton(self):
        first = telemetry.span("stream.tile_assembly")
        second = telemetry.span("stream.compare")
        assert first is second
        with first as handle:
            handle.add_bytes(4096)
        snap = telemetry.snapshot()
        assert snap["spans"] == {}
        assert snap["counters"] == {}

    def test_disabled_count_and_gauge_record_nothing(self):
        telemetry.count("store.result.hits", 5)
        telemetry.gauge("runner.pool_processes", 4)
        assert telemetry.counter_value("store.result.hits") == 0
        assert telemetry.snapshot()["gauges"] == {}

    def test_enabled_spans_nest_and_aggregate(self):
        telemetry.enable()
        for _ in range(3):
            with telemetry.span("outer"):
                with telemetry.span("inner") as inner:
                    inner.add_bytes(100)
        snap = telemetry.snapshot()
        outer = snap["spans"]["outer"]
        assert outer["calls"] == 3
        inner = outer["children"]["inner"]
        assert inner["calls"] == 3
        assert inner["bytes"] == 300
        assert snap["total_seconds"] == pytest.approx(
            outer["seconds"], abs=1e-6
        )

    def test_span_records_even_when_body_raises(self):
        telemetry.enable()
        with pytest.raises(RuntimeError):
            with telemetry.span("failing.phase"):
                raise RuntimeError("boom")
        snap = telemetry.snapshot()
        assert snap["spans"]["failing.phase"]["calls"] == 1

    def test_counters_and_gauges(self):
        telemetry.enable()
        telemetry.count("events", 2)
        telemetry.count("events")
        telemetry.gauge("lanes", 4)
        telemetry.gauge("lanes", 8)
        assert telemetry.counter_value("events") == 3
        snap = telemetry.snapshot()
        assert snap["counters"] == {"events": 3}
        assert snap["gauges"] == {"lanes": 8}

    def test_reset_clears_everything(self):
        telemetry.enable()
        with telemetry.span("phase"):
            telemetry.count("events")
        telemetry.reset()
        snap = telemetry.snapshot()
        assert snap["spans"] == {}
        assert snap["counters"] == {}
        assert telemetry.total_seconds(snap) == 0.0

    def test_merge_adds_counters_and_span_totals(self):
        telemetry.enable()
        with telemetry.span("phase"):
            telemetry.count("events")
        worker_snap = telemetry.snapshot()
        telemetry.merge(worker_snap)
        telemetry.merge(None)  # tolerated and ignored
        telemetry.merge({})
        snap = telemetry.snapshot()
        assert snap["counters"]["events"] == 2
        assert snap["spans"]["phase"]["calls"] == 2

    def test_snapshot_keys_sorted_at_every_level(self):
        telemetry.enable()
        for name in ("zebra", "alpha", "mid"):
            with telemetry.span(name):
                with telemetry.span("z.child"):
                    pass
                with telemetry.span("a.child"):
                    pass
        telemetry.count("z.counter")
        telemetry.count("a.counter")
        snap = telemetry.snapshot()
        assert list(snap["spans"]) == ["alpha", "mid", "zebra"]
        for node in snap["spans"].values():
            assert list(node["children"]) == ["a.child", "z.child"]
        assert list(snap["counters"]) == ["a.counter", "z.counter"]

    def test_format_tree_renders_phases_and_counters(self):
        telemetry.enable()
        with telemetry.span("outer"):
            with telemetry.span("inner") as inner:
                inner.add_bytes(1 << 20)
        telemetry.count("events", 7)
        telemetry.gauge("lanes", 2)
        text = telemetry.format_tree(telemetry.snapshot(), wall_seconds=1.0)
        assert text.startswith("telemetry:")
        assert "(1.0000 s wall)" in text
        assert "outer" in text and "inner" in text
        assert "1.0 MiB" in text
        assert "%" in text
        assert "events" in text and "7" in text
        assert "lanes" in text

    def test_self_rows_on_a_synthetic_tree(self):
        def node(seconds, children=None):
            return {
                "calls": 1, "seconds": seconds, "bytes": 0,
                "children": children or {},
            }

        inner = node(0.5, {"c": node(0.125)})
        snap = {
            "spans": {"root": node(1.0, {"a": node(0.25), "b": inner})},
            "total_seconds": 1.0,
        }
        assert _parse_tree(telemetry.format_tree(snap)) == [
            (1, "root", 1.0),
            (2, "(self)", 0.25),
            (2, "a", 0.25),
            (2, "b", 0.5),
            (3, "(self)", 0.375),
            (3, "c", 0.125),
        ]

    def test_self_plus_children_equals_parent(self):
        """Every node with children gets a ``(self)`` row, and that row
        plus the children sums to the node, to display precision.  The
        snapshot itself stays free of self rows."""
        a = repro.build_schedule([1, 5, 9], 16, algorithm="crseq")
        b = repro.build_schedule([5, 12], 16, algorithm="crseq")
        telemetry.enable()
        with telemetry.span("outer"):
            ttr_sweep(
                a, b, range(-a.period, a.period), 4 * a.period,
                plan=TilePlan(tile_bytes=4096, block_rows=2),
            )
        snap = telemetry.snapshot()
        assert "(self)" not in json.dumps(snap)
        rows = _parse_tree(telemetry.format_tree(snap))
        checked = 0
        for index, (depth, name, seconds) in enumerate(rows):
            children = []
            for child_depth, child_name, child_seconds in rows[index + 1 :]:
                if child_depth <= depth:
                    break
                if child_depth == depth + 1:
                    children.append((child_name, child_seconds))
            if not children:
                continue
            assert children[0][0] == "(self)", (name, children)
            assert [c for c, _ in children].count("(self)") == 1
            # Each printed value is rounded to 4 decimals.
            slack = 0.5e-4 * (len(children) + 1) + 1e-9
            assert abs(sum(s for _, s in children) - seconds) <= slack, name
            checked += 1
        # outer, stream.sweep: both have children.
        assert checked >= 2


def _parse_tree(text: str) -> list[tuple[int, str, float]]:
    """``(depth, name, seconds)`` per span row of a ``format_tree`` text."""
    rows = []
    for line in text.splitlines()[1:]:
        if line in ("counters:", "gauges:"):
            break
        match = re.match(r"^( *)(\S+) .*?(\d+\.\d{4}) s", line)
        assert match, line
        rows.append((len(match.group(1)) // 2, match.group(2), float(match.group(3))))
    return rows


class TestPoolWorkerMerge:
    def test_spans_merge_across_process_pool_workers(self):
        # 10 overlapping pairs >= MIN_PARALLEL_PAIRS, so workers=2
        # genuinely fans out through the ProcessPoolExecutor.
        inst = random_subsets(16, 8, 5, seed=4)
        pairs = inst.overlapping_pairs()
        assert len(pairs) >= runner.MIN_PARALLEL_PAIRS
        telemetry.enable()
        telemetry.reset()
        engine = runner.SweepRunner(workers=2)
        results = engine.measure_instance(
            inst, "paper", horizon=60_000, dense=2, probes=2
        )
        snap = telemetry.snapshot()
        assert len(results) == len(pairs)
        # The parent records the fan-out; every worker's serialized
        # snapshot folds in as its own root lane.
        assert "runner.pool_fanout" in snap["spans"]
        worker = snap["spans"]["runner.worker_task"]
        assert worker["calls"] == len(pairs)
        assert "runner.measure_pair" in worker["children"]
        assert worker["children"]["runner.measure_pair"]["calls"] == len(pairs)
        assert snap["counters"]["runner.pool_pairs"] == len(pairs)
        assert snap["gauges"]["runner.pool_processes"] == 2

    def test_serial_path_records_without_pool(self):
        inst = random_subsets(16, 4, 3, seed=3)  # too few pairs to fan out
        telemetry.enable()
        telemetry.reset()
        engine = runner.SweepRunner(workers=4)
        engine.measure_instance(inst, "paper", horizon=60_000, dense=2, probes=2)
        snap = telemetry.snapshot()
        assert "runner.serial" in snap["spans"]
        assert "runner.pool_fanout" not in snap["spans"]
        assert snap["counters"]["runner.serial_pairs"] == len(
            inst.overlapping_pairs()
        )


class TestDisabledOverhead:
    def test_disabled_hot_loop_allocates_nothing(self):
        # The kernel's per-tile call pattern: span + add_bytes
        # + a counter bump. Warm up so every code path and cached
        # attribute exists, then measure allocated blocks around a
        # 10k-iteration burst: a single allocation per call would show
        # up 10_000x, so a near-zero delta certifies the no-op path.
        assert not telemetry.enabled()

        def hot_loop(iterations):
            for _ in range(iterations):
                with telemetry.span("stream.tile_assembly") as tile:
                    tile.add_bytes(4096)
                telemetry.count("netsim.chunks")

        hot_loop(1_000)  # warm-up
        gc.collect()
        gc.disable()
        try:
            before = sys.getallocatedblocks()
            hot_loop(10_000)
            after = sys.getallocatedblocks()
        finally:
            gc.enable()
        # The measurement itself pins a handful of blocks (the ints
        # holding the readings, the loop's range iterator); anything
        # per-call would be four orders of magnitude larger.
        assert after - before < 10


def _tiny_pair():
    """A joint period of 12 slots: ``ttr_sweep`` runs the scalar loop."""
    return CyclicSchedule([1, 2, 3, 4]), CyclicSchedule([9, 2, 9, 1, 9, 9])


def _jump_stay_pair():
    """Jump-Stay at n=16: ``ttr_sweep`` runs the kernel."""
    inst = single_overlap(16, 3, 3, seed=0)
    a = repro.build_schedule(inst.sets[0], 16, algorithm="jump-stay")
    b = repro.build_schedule(inst.sets[1], 16, algorithm="jump-stay")
    return a, b


class TestResultParity:
    @pytest.mark.parametrize("engine", ["scalar", "stream"])
    def test_on_off_bit_identical(self, engine):
        a, b = {"scalar": _tiny_pair, "stream": _jump_stay_pair}[engine]()
        shifts = list(strided_shift_range(a, b, 64))
        horizon = 4 * max(a.period, b.period)

        telemetry.disable()
        telemetry.reset()
        off = ttr_sweep(a, b, shifts, horizon)

        telemetry.enable()
        telemetry.reset()
        on = ttr_sweep(a, b, shifts, horizon)
        snap = telemetry.snapshot()
        telemetry.disable()

        assert on == off
        # The enabled run actually instrumented this path's phases and
        # recorded which path it took.
        assert any(
            name.startswith(f"{engine}.") for name in snap["spans"]
        ), snap["spans"].keys()
        path = {"scalar": "sweep.scalar", "stream": "sweep.kernel"}[engine]
        assert snap["counters"][path] == 1


# One self-contained script replayed under different PYTHONHASHSEED
# values: the snapshot's *structure* (names, nesting, ordering, call
# counts, byte totals) must be identical; only seconds may vary, so
# the script strips them before printing.
_STRUCTURE_SCRIPT = r"""
import json
import repro
from repro.core import telemetry
from repro.core.stream import ttr_sweep
from repro.core.verification import strided_shift_range
from repro.sim.workloads import single_overlap

inst = single_overlap(16, 3, 3, seed=0)
a = repro.build_schedule(inst.sets[0], 16, algorithm="jump-stay")
b = repro.build_schedule(inst.sets[1], 16, algorithm="jump-stay")
shifts = list(strided_shift_range(a, b, 64))

telemetry.enable()
telemetry.reset()
ttr_sweep(a, b, shifts, 4 * max(a.period, b.period))
telemetry.count("extra.counter", 3)
telemetry.gauge("extra.gauge", 2.0)
snap = telemetry.snapshot()

def strip_seconds(children):
    return {
        name: {
            "calls": node["calls"],
            "bytes": node["bytes"],
            "children": strip_seconds(node["children"]),
        }
        for name, node in children.items()
    }

print(json.dumps({
    "counters": snap["counters"],
    "gauges": snap["gauges"],
    "spans": strip_seconds(snap["spans"]),
}))
"""


class TestStructureDeterminism:
    def test_identical_under_hashseed_variation(self):
        outputs = []
        for hashseed in ("0", "1", "31337"):
            proc = subprocess.run(
                [sys.executable, "-c", _STRUCTURE_SCRIPT],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hashseed,
                },
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        payload = json.loads(outputs[0])
        assert "stream.sweep" in payload["spans"]
        assert payload["counters"]["extra.counter"] == 3
        # json.dumps preserves dict order: sortedness survives transit.
        assert list(payload["spans"]) == sorted(payload["spans"])
