"""Gate: disabled telemetry costs < 2% of a one-lane kernel sweep.

The telemetry layer's first contract (see :mod:`repro.core.telemetry`)
is zero overhead when disabled.  This bench certifies it on the exact
workload ``BENCH_stream_sweep`` profiles — one jump-stay pair at
``n = 128`` (``single_overlap`` k = l = 3, seed 0) swept over the
strided shift plan — by combining two measurements:

* the **per-call cost** of a disabled span (enter + ``add_bytes`` +
  exit on the shared no-op singleton), timed over a 200k-call burst;
* the **call count** an enabled run of the same sweep actually makes
  (every span occurrence, read from the enabled run's snapshot, plus
  every ``count`` / ``gauge`` call, counted at the call site — a
  counter's value sums its deltas, so it is not a call count).

Their product is the total time the disabled instrumentation adds to
the sweep; the gate holds it under 2% of the sweep's measured wall
time.  This indirect product-form is deliberate: the per-call cost is
a few tens of nanoseconds, far below run-to-run sweep variance, so
timing two sweeps and subtracting would gate on noise.

Riding along, the other two contracts on the same workload: the
enabled and disabled sweeps are bit-identical, and the enabled
snapshot shows tile assembly dominating compare — the PR 5 profile
that motivated the vectorized gather.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import repro
from repro.core import telemetry
from repro.core.stream import ttr_sweep
from repro.core.verification import strided_shift_range
from repro.sim.workloads import single_overlap

N = 128
K = L = 3
MAX_SHIFTS = 2_000
NULL_CALLS = 200_000
MAX_OVERHEAD_FRACTION = 0.02


def _sum_calls(children: dict) -> int:
    """Total span occurrences in a serialized snapshot subtree."""
    return sum(
        node["calls"] + _sum_calls(node["children"])
        for node in children.values()
    )


def _null_span_seconds(calls: int) -> float:
    """Wall time for ``calls`` disabled span + add_bytes round trips."""
    assert not telemetry.enabled()
    start = time.perf_counter()
    for _ in range(calls):
        with telemetry.span("overhead.probe") as probe:
            probe.add_bytes(0)
    return time.perf_counter() - start


def test_disabled_telemetry_overhead_under_gate(benchmark, record, monkeypatch):
    """Product-form overhead gate + parity + assembly-dominant profile."""
    instance = single_overlap(N, K, L, seed=0)
    a = repro.build_schedule(instance.sets[0], N, algorithm="jump-stay")
    b = repro.build_schedule(instance.sets[1], N, algorithm="jump-stay")
    shifts = list(strided_shift_range(a, b, MAX_SHIFTS))
    horizon = 4 * max(a.period, b.period)

    # Enabled run: the result for parity plus the instrumented call
    # census (span occurrences and counter/gauge calls the sweep makes).
    counter_calls = 0

    def counted(record_fn):
        def call(*args, **kwargs):
            nonlocal counter_calls
            counter_calls += 1
            return record_fn(*args, **kwargs)

        return call

    monkeypatch.setattr(telemetry, "count", counted(telemetry.count))
    monkeypatch.setattr(telemetry, "gauge", counted(telemetry.gauge))
    telemetry.enable()
    telemetry.reset()
    enabled_profile = ttr_sweep(a, b, shifts, horizon)
    snap = telemetry.snapshot()
    telemetry.disable()
    telemetry.reset()
    monkeypatch.undo()
    span_calls = _sum_calls(snap["spans"])
    instrumented_calls = span_calls + counter_calls

    # Disabled run: the production configuration, timed.
    def disabled_sweep():
        return ttr_sweep(a, b, shifts, horizon)

    start = time.perf_counter()
    disabled_profile = benchmark.pedantic(disabled_sweep, rounds=1, iterations=1)
    sweep_seconds = time.perf_counter() - start
    assert disabled_profile == enabled_profile, (
        "telemetry-on and telemetry-off sweeps must be bit-identical"
    )

    # Per-call cost of the no-op path, after a short warm-up.
    _null_span_seconds(1_000)
    per_call = _null_span_seconds(NULL_CALLS) / NULL_CALLS

    overhead_seconds = per_call * instrumented_calls
    overhead_fraction = overhead_seconds / sweep_seconds
    assert overhead_fraction < MAX_OVERHEAD_FRACTION, (
        f"disabled telemetry costs {100 * overhead_fraction:.2f}% of the "
        f"sweep ({instrumented_calls} calls x {per_call * 1e9:.0f} ns), "
        f"gate is {100 * MAX_OVERHEAD_FRACTION:.0f}%"
    )

    # The enabled profile must show the PR 5 shape: tile assembly
    # dominates the vectorized compare.
    sweep_node = snap["spans"]["stream.sweep"]
    assembly = sweep_node["children"]["stream.tile_assembly"]
    compare = sweep_node["children"]["stream.compare"]
    assert assembly["seconds"] >= compare["seconds"], (
        "tile assembly should dominate compare in the kernel"
    )

    payload = {
        "workload": f"single_overlap(n={N}, k=l={K}, seed=0), jump-stay",
        "shifts": len(shifts),
        "horizon": horizon,
        "sweep_seconds_disabled": round(sweep_seconds, 4),
        "instrumented_calls": instrumented_calls,
        "span_calls": span_calls,
        "counter_calls": counter_calls,
        "null_span_ns_per_call": round(per_call * 1e9, 1),
        "overhead_seconds": round(overhead_seconds, 6),
        "overhead_fraction": round(overhead_fraction, 6),
        "gate_fraction": MAX_OVERHEAD_FRACTION,
        "parity_bit_identical": True,
        "assembly_seconds": assembly["seconds"],
        "compare_seconds": compare["seconds"],
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_telemetry_overhead.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    record(
        "telemetry_overhead",
        f"Disabled-telemetry overhead (kernel sweep, n={N}, "
        f"{len(shifts)} shifts):\n"
        f"  sweep wall time        {sweep_seconds:8.3f} s\n"
        f"  instrumented calls     {instrumented_calls:8d}  "
        f"({span_calls} spans + {counter_calls} counter/gauge calls)\n"
        f"  no-op span cost        {per_call * 1e9:8.1f} ns/call\n"
        f"  implied overhead       {100 * overhead_fraction:8.3f} %  "
        f"(gate {100 * MAX_OVERHEAD_FRACTION:.0f}%)\n"
        f"  enabled profile        assembly {assembly['seconds']:.3f} s "
        f">= compare {compare['seconds']:.3f} s (bit-identical results)",
    )
