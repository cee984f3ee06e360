"""Regenerates the Section 5 beacon-protocol comparison.

Sweeps the set size ``k = |S_i| = |S_j|`` on single-overlap instances and
reports mean/max TTR over beacon seeds for

* the deterministic Theorem 3 schedule (no beacon, Omega(k^2) floor),
* the simple beacon protocol (fresh permutation per ``d log n`` bits),
* the amplified protocol (expander walk, ``O(k + log n)`` bits).

Expected shape: deterministic TTR grows ~quadratically in ``k``; the
amplified protocol grows ~linearly and dominates everything at large k.
"""

from __future__ import annotations

import statistics

import pytest

import repro
from repro.analysis import format_table
from repro.analysis.tables import scaling_exponent
from repro.beacon import (
    AmplifiedBeaconProtocol,
    BeaconSource,
    SimpleBeaconProtocol,
    beacon_first_meeting,
)
from repro.core.stream import ttr_sweep
from repro.sim.workloads import single_overlap

N = 64
KS = (2, 4, 8, 12)
BEACON_SEEDS = tuple(range(8))


def _deterministic_mean(k: int) -> float:
    instance = single_overlap(N, k, k, seed=11)
    a = repro.build_schedule(instance.sets[0], N)
    b = repro.build_schedule(instance.sets[1], N)
    profile = ttr_sweep(a, b, range(0, 4400, 401), 10**6)
    assert all(ttr is not None for ttr in profile.values())
    return statistics.mean(profile.values())


def _beacon_mean(cls, k: int) -> float:
    instance = single_overlap(N, k, k, seed=11)
    ttrs = []
    for seed in BEACON_SEEDS:
        beacon = BeaconSource(seed)
        a = cls(instance.sets[0], N, beacon)
        b = cls(instance.sets[1], N, beacon)
        ttr = beacon_first_meeting(a, b, 0, (seed * 31) % 173, 300_000)
        assert ttr is not None
        ttrs.append(ttr)
    return statistics.mean(ttrs)


@pytest.fixture(scope="module")
def sweep() -> dict[str, dict[int, float]]:
    return {
        "deterministic (paper)": {k: _deterministic_mean(k) for k in KS},
        "simple beacon": {k: _beacon_mean(SimpleBeaconProtocol, k) for k in KS},
        "amplified beacon": {
            k: _beacon_mean(AmplifiedBeaconProtocol, k) for k in KS
        },
    }


def test_beacon_ttr_sweep(benchmark, sweep, record):
    benchmark.pedantic(
        lambda: _beacon_mean(AmplifiedBeaconProtocol, 4), rounds=1, iterations=1
    )
    rows = [
        [k] + [f"{sweep[name][k]:.0f}" for name in sweep]
        for k in KS
    ]
    exponents = {
        name: scaling_exponent(list(KS), [by_k[k] for k in KS])
        for name, by_k in sweep.items()
    }
    lines = [
        f"Section 5: mean TTR vs set size k (n={N}, single overlap)",
        format_table(["k"] + list(sweep), rows),
        "",
        "fitted exponents (slope of log TTR vs log k):",
    ]
    lines += [f"  {name}: {e:+.2f}" for name, e in exponents.items()]
    record("beacon_sweep", "\n".join(lines))

    # Shape: deterministic grows super-linearly in k; amplified stays
    # near-linear and wins at the largest k.
    deterministic = sweep["deterministic (paper)"]
    amplified = sweep["amplified beacon"]
    assert exponents["deterministic (paper)"] > 1.0
    assert exponents["amplified beacon"] < 1.2
    assert amplified[KS[-1]] < deterministic[KS[-1]]


def test_beacon_bit_budgets(benchmark, record):
    """The bit-cost side of Section 5: bits consumed until rendezvous."""

    def budgets():
        k = 8
        instance = single_overlap(N, k, k, seed=11)
        rows = []
        for name, cls in (
            ("simple", SimpleBeaconProtocol),
            ("amplified", AmplifiedBeaconProtocol),
        ):
            costs = []
            for seed in BEACON_SEEDS:
                beacon = BeaconSource(seed)
                a = cls(instance.sets[0], N, beacon)
                b = cls(instance.sets[1], N, beacon)
                ttr = beacon_first_meeting(a, b, 0, 0, 300_000)
                assert ttr is not None
                # One beacon bit is broadcast per slot: bits = slots used.
                costs.append(ttr)
            rows.append([name, f"{statistics.mean(costs):.0f}", max(costs)])
        return rows

    rows = benchmark.pedantic(budgets, rounds=1, iterations=1)
    record(
        "beacon_bits",
        "beacon bits (slots) until rendezvous, k=8, n=64\n"
        + format_table(["protocol", "mean bits", "max bits"], rows),
    )
    simple_mean = float(rows[0][1])
    amplified_mean = float(rows[1][1])
    assert amplified_mean < simple_mean
