"""Regenerates Table 1, symmetric column.

Paper's claims: CRSEQ ``O(n^2)``, Jump-Stay ``O(n)``, DRDS (Gu et al.)
``O(n)``, this paper ``O(1)`` via the Section 3.2 wrapper.

Both agents share one channel set; we sweep relative wake-up shifts
densely and report the worst TTR per universe size.  The paper's
``O(1)`` is certified strictly: the wrapped schedule must meet within 12
slots at *every* tested shift, for every ``n`` — including a deep
``n = 1024`` probe where every baseline's guarantee has long blown up.
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis.tables import scaling_exponent, table1
from repro.core.stream import ttr_sweep
from repro.core.store import ScheduleStore
from repro.core.verification import max_ttr
from repro.sim.workloads import symmetric

NS = (8, 16, 32)
K = 3
ALGORITHMS = ("paper-symmetric", "jump-stay", "crseq", "drds", "zos")
_CLAIM_KEY = {"paper-symmetric": "paper"}

# Dense-universe extension: schedules come out of a shared
# ScheduleStore (DRDS's global sequence is built once per n and both
# agents project it); Jump-Stay drops out — its cubic period exceeds
# the schedule cache limit from n = 128 on.
NS_LARGE = (64, 128, 256)
ALGORITHMS_LARGE = ("paper-symmetric", "crseq", "drds", "zos")


def _worst_symmetric_ttr(algorithm: str, n: int, shifts) -> int:
    instance = symmetric(n, K, 2, seed=5)
    a = repro.build_schedule(instance.sets[0], n, algorithm=algorithm)
    b = repro.build_schedule(instance.sets[1], n, algorithm=algorithm)
    horizon = 4 * max(a.period, b.period)
    folded = [shift % max(a.period, b.period) for shift in shifts]
    return max_ttr(a, b, folded, horizon)


@pytest.fixture(scope="module")
def measured() -> dict[str, dict[int, int]]:
    result: dict[str, dict[int, int]] = {}
    for algorithm in ALGORITHMS:
        key = _CLAIM_KEY.get(algorithm, algorithm)
        result[key] = {}
        for n in NS:
            shifts = list(range(0, 600)) + list(range(600, 20_000, 97))
            result[key][n] = _worst_symmetric_ttr(algorithm, n, shifts)
    return result


def test_table1_symmetric(benchmark, measured, record):
    benchmark.pedantic(
        lambda: _worst_symmetric_ttr("paper-symmetric", 16, range(50)),
        rounds=1,
        iterations=1,
    )
    lines = [
        f"Table 1 (symmetric): worst TTR over dense shifts, |S|={K}",
        table1(measured, "symmetric", NS),
    ]
    record("table1_symmetric", "\n".join(lines))

    paper = measured["paper"]
    # O(1): constant 12 at every universe size (measured: 2).
    assert all(paper[n] <= 12 for n in NS), paper
    # Every baseline exceeds the paper's constant at the largest n.
    for name in ("crseq", "jump-stay", "drds"):
        assert measured[name][NS[-1]] > paper[NS[-1]], name
    # Jump-Stay's O(n) symmetric claim: clear growth with n.
    js_exponent = scaling_exponent(
        list(NS), [measured["jump-stay"][n] for n in NS]
    )
    assert js_exponent > 0.4, f"Jump-Stay should grow ~linearly, got {js_exponent:+.2f}"
    # Our DRDS variant has no symmetric shortcut: ~quadratic (documented).
    drds_exponent = scaling_exponent(list(NS), [measured["drds"][n] for n in NS])
    assert drds_exponent > 1.5


def test_table1_symmetric_large_universe(benchmark, record, tmp_path):
    """The symmetric column pushed to n = 64/128/256 through the store."""
    store = ScheduleStore(tmp_path / "store")

    def measure() -> dict[str, dict[int, int]]:
        result: dict[str, dict[int, int]] = {}
        for algorithm in ALGORITHMS_LARGE:
            key = _CLAIM_KEY.get(algorithm, algorithm)
            result[key] = {}
            for n in NS_LARGE:
                instance = symmetric(n, K, 2, seed=5)
                a = repro.build_schedule(
                    instance.sets[0], n, algorithm=algorithm, store=store
                )
                b = repro.build_schedule(
                    instance.sets[1], n, algorithm=algorithm, store=store
                )
                shifts = list(range(0, 600)) + list(range(600, 20_000, 97))
                folded = [s % max(a.period, b.period) for s in shifts]
                result[key][n] = max_ttr(
                    a, b, folded, 4 * max(a.period, b.period)
                )
        return result

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    stats = store.stats()
    lines = [
        f"Table 1 (symmetric) at large universes: worst TTR over dense "
        f"shifts, |S|={K} (jump-stay omitted: cubic period exceeds the "
        "schedule cache limit)",
        table1(measured, "symmetric", NS_LARGE),
        "",
        "fitted scaling exponents:",
    ]
    exponents = {
        name: scaling_exponent(list(NS_LARGE), [by_n[n] for n in NS_LARGE])
        for name, by_n in measured.items()
    }
    lines += [f"  {name}: {e:+.2f}" for name, e in exponents.items()]
    lines += [
        "",
        "note: the ~800-shift dense sample under-covers the quadratic",
        "periods at these universe sizes, so baseline exponents flatten;",
        "the guarantee-envelope table carries the bound.",
        "",
        f"schedule store: {stats['builds']} DRDS global sequences built "
        f"once (one per n, shared by both agents), {stats['attaches']} "
        f"attached, {stats['total_bytes'] / (1 << 20):.1f} MiB resident; "
        "every per-set schedule is built in-process",
    ]
    record("table1_symmetric_large_universe", "\n".join(lines))

    # O(1) survives the dense universes untouched.
    assert all(measured["paper"][n] <= 12 for n in NS_LARGE), measured["paper"]
    # Every global-sequence baseline is orders of magnitude above the
    # paper's constant at the largest universe.
    biggest = NS_LARGE[-1]
    for name in ("crseq", "drds"):
        assert measured[name][biggest] > 10 * measured["paper"][biggest], name
    # The set-size-keyed constructions stay flat in n.
    assert exponents["paper"] < 0.1 and exponents["zos"] < 0.1, exponents
    # One DRDS global sequence per n, built once; the store remembers
    # it, so the second agent neither builds nor attaches.
    assert (stats["builds"], stats["attaches"], stats["entries"]) == (
        len(NS_LARGE), 0, len(NS_LARGE)
    )


def test_symmetric_O1_deep_universe(benchmark, record):
    """The O(1) claim at n = 1024: still within 12 slots."""

    def probe() -> int:
        n = 1024
        instance = symmetric(n, 4, 2, seed=9)
        a = repro.build_schedule(instance.sets[0], n, algorithm="paper-symmetric")
        b = repro.build_schedule(instance.sets[1], n, algorithm="paper-symmetric")
        shifts = list(range(0, 300)) + [10_007, 123_456, 999_983]
        profile = ttr_sweep(a, b, shifts, 13)
        worst = 0
        for shift, ttr in profile.items():
            assert ttr is not None and ttr <= 12, (shift, ttr)
            worst = max(worst, ttr)
        return worst

    worst = benchmark.pedantic(probe, rounds=1, iterations=1)
    record(
        "table1_symmetric_deep",
        f"symmetric O(1) probe at n=1024, |S|=4: worst TTR = {worst} "
        "(bound: 12, independent of n)",
    )
