"""Regenerates Table 1, asymmetric column.

Paper's Table 1 compares *worst-case guarantees*:

    Shin-Yang-Kim (CRSEQ)   O(n^2)
    Lin-Liu-Chu-Leung (JS)  O(n^3)
    Gu-Hua-Wang-Lau (DRDS)  O(n^2)
    This paper              O(|S_i||S_j| log log n)

Each construction guarantees rendezvous within (a constant multiple of)
one period of its schedule, and the periods *are* the guarantee classes:
``3P^2``, ``3P^2(P-1)``, ``45n^2+8n`` and ``2L(n) p q`` respectively.  We
regenerate the table two ways:

1. **Guarantee envelope** — the exact period of each construction as a
   function of ``n`` at fixed set size ``k = 3``, with fitted scaling
   exponents (expected: ~2, ~3, ~2, ~0).
2. **Measured worst TTR** — exhaustive (or densely strided, for the
   cubic-period Jump-Stay) sweep over relative shifts on adversarial
   single-overlap instances.  Note for docs/BENCHMARKS.md: the projected
   baselines measure far below their guarantees on random small-``k``
   instances; the paper's contribution is the *guarantee*, which the
   envelope table captures.
"""

from __future__ import annotations

import pytest

import repro
from repro.analysis import format_table
from repro.analysis.tables import scaling_exponent, table1
from repro.core.store import ScheduleStore
from repro.core.verification import max_ttr, strided_shift_range
from repro.sim.workloads import single_overlap

NS = (8, 16, 32)
ALGORITHMS = ("paper", "crseq", "jump-stay", "drds", "zos")
K = L = 3
MAX_SHIFTS = 40_000

# The dense-universe extension (ROADMAP): DRDS's global sequence gets
# expensive here, so schedules come out of a shared ScheduleStore (the
# sequence is built once per n per bench run).  Jump-Stay's cubic period exceeds
# the schedule cache limit from n = 128 on; the sweep kernel
# (repro.core.stream) generates its tiles on demand, so every cell is
# measured the same way, and every cell's kernel profile is checked
# against the scalar ttr_for_shift on a sample of its shifts.
NS_LARGE = (64, 128, 256)
LARGE_MEASURED = ("paper", "crseq", "drds", "zos", "jump-stay")
MAX_SHIFTS_LARGE = 10_000
PARITY_STRIDE = 20  # scalar parity asserted on every 20th shift
# Scan chunk of the scalar parity probe.  Any chunk returns the first
# meeting in scan order; most probed shifts meet within a few thousand
# slots, so 4,096 wastes less generation than the 65,536 default.
PARITY_CHUNK = 4096


def _schedules(algorithm: str, n: int, seed: int):
    instance = single_overlap(n, K, L, seed=seed)
    a = repro.build_schedule(instance.sets[0], n, algorithm=algorithm)
    b = repro.build_schedule(instance.sets[1], n, algorithm=algorithm)
    return a, b


def _worst_over_shifts(a, b) -> int:
    period = max(a.period, b.period)
    stride = max(1, period // MAX_SHIFTS)
    return max_ttr(a, b, range(0, period, stride), 4 * period)


@pytest.fixture(scope="module")
def envelopes() -> dict[str, dict[int, int]]:
    result: dict[str, dict[int, int]] = {}
    for algorithm in ALGORITHMS:
        result[algorithm] = {}
        for n in NS:
            a, _ = _schedules(algorithm, n, seed=0)
            result[algorithm][n] = a.period
    return result


@pytest.fixture(scope="module")
def measured() -> dict[str, dict[int, int]]:
    result: dict[str, dict[int, int]] = {}
    for algorithm in ALGORITHMS:
        result[algorithm] = {}
        for n in NS:
            worst = 0
            for seed in (0, 1):
                a, b = _schedules(algorithm, n, seed)
                worst = max(worst, _worst_over_shifts(a, b))
            result[algorithm][n] = worst
    return result


def test_table1_guarantee_envelopes(benchmark, envelopes, record):
    benchmark.pedantic(
        lambda: _schedules("paper", 32, seed=0)[0].period, rounds=1, iterations=1
    )
    exponents = {
        algorithm: scaling_exponent(list(NS), [by_n[n] for n in NS])
        for algorithm, by_n in envelopes.items()
    }
    lines = [
        f"Table 1 (asymmetric, guarantee envelopes): period at k=l={K}",
        table1(envelopes, "asymmetric", NS),
        "",
        "fitted scaling exponents (slope of log period vs log n):",
    ]
    lines += [f"  {a}: {e:+.2f}" for a, e in exponents.items()]
    record("table1_asymmetric_envelope", "\n".join(lines))

    assert exponents["paper"] < 0.5, "paper envelope must be ~flat in n"
    assert 1.5 < exponents["crseq"] < 2.5, "CRSEQ must be ~quadratic"
    assert 2.5 < exponents["jump-stay"] < 3.5, "Jump-Stay must be ~cubic"
    assert 1.5 < exponents["drds"] < 2.5, "DRDS must be ~quadratic"
    # ZOS keys its period to the set size, not n: sub-linear in n (the
    # collision-free modulus can wiggle a prime upward between draws).
    assert exponents["zos"] < 1.0, "ZOS envelope must be ~flat in n"
    biggest = NS[-1]
    assert envelopes["paper"][biggest] < envelopes["crseq"][biggest]
    assert envelopes["crseq"][biggest] < envelopes["jump-stay"][biggest]


def test_table1_measured_worst(benchmark, measured, record):
    benchmark.pedantic(
        lambda: _worst_over_shifts(*_schedules("paper", 16, seed=0)),
        rounds=1,
        iterations=1,
    )
    lines = [
        "Table 1 (asymmetric, measured): worst TTR over exhaustive/strided "
        f"shifts, single-overlap k=l={K}",
        table1(measured, "asymmetric", NS),
        "",
        "note: projected baselines measure below their guarantees on random",
        "instances at small fixed k; the envelope table carries the bound.",
    ]
    record("table1_asymmetric_measured", "\n".join(lines))

    paper = [measured["paper"][n] for n in NS]
    # The paper's measured worst is ~flat in n (loglog growth).
    assert max(paper) <= 2 * min(paper)
    # Everyone rendezvoused (asserted inside _worst_over_shifts).


def test_table1_asymmetric_large_universe(benchmark, record, tmp_path):
    """Table 1 pushed to n = 64/128/256 through the schedule store."""
    store = ScheduleStore(tmp_path / "store")

    def build(algorithm: str, n: int):
        instance = single_overlap(n, K, L, seed=0)
        a = repro.build_schedule(instance.sets[0], n, algorithm=algorithm, store=store)
        b = repro.build_schedule(instance.sets[1], n, algorithm=algorithm, store=store)
        return a, b

    envelopes: dict[str, dict[int, int]] = {}
    for algorithm in ALGORITHMS:
        envelopes[algorithm] = {}
        for n in NS_LARGE:
            instance = single_overlap(n, K, L, seed=0)
            schedule = repro.build_schedule(
                instance.sets[0], n, algorithm=algorithm
            )
            envelopes[algorithm][n] = schedule.period

    def measure() -> dict[str, dict[int, int]]:
        result: dict[str, dict[int, int]] = {}
        for algorithm in LARGE_MEASURED:
            result[algorithm] = {}
            for n in NS_LARGE:
                a, b = build(algorithm, n)
                shifts = strided_shift_range(a, b, MAX_SHIFTS_LARGE)
                result[algorithm][n] = max_ttr(
                    a, b, shifts, 4 * max(a.period, b.period)
                )
        return result

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)

    # Every cell's kernel profile must equal the scalar reference on a
    # sample of its shifts.  Verification-only work, kept outside the
    # timed callable so the recorded wall clock stays a measurement.
    from repro.core.stream import ttr_sweep
    from repro.core.verification import ttr_for_shift

    parity_checked: list[str] = []
    for algorithm in LARGE_MEASURED:
        for n in NS_LARGE:
            a, b = build(algorithm, n)
            shifts = strided_shift_range(a, b, MAX_SHIFTS_LARGE)
            probe = list(shifts)[::PARITY_STRIDE]
            horizon = 4 * max(a.period, b.period)
            assert ttr_sweep(a, b, probe, horizon) == {
                s: ttr_for_shift(a, b, s, horizon, chunk=PARITY_CHUNK)
                for s in probe
            }, (algorithm, n)
            parity_checked.append(f"{algorithm}@{n}")

    exponents = {
        algorithm: scaling_exponent(
            list(NS_LARGE), [by_n[n] for n in NS_LARGE]
        )
        for algorithm, by_n in measured.items()
    }
    envelope_exponents = {
        algorithm: scaling_exponent(list(NS_LARGE), [by_n[n] for n in NS_LARGE])
        for algorithm, by_n in envelopes.items()
    }
    stats = store.stats()
    lines = [
        "Table 1 (asymmetric) at large universes: worst TTR over two-sided "
        f"strided shift classes (~{MAX_SHIFTS_LARGE}), single-overlap k=l={K}",
        table1(measured, "asymmetric", NS_LARGE),
        "",
        "fitted scaling exponents (measured / guarantee envelope):",
    ]
    lines += [
        f"  {a}: {exponents[a]:+.2f} / {envelope_exponents[a]:+.2f}"
        for a in LARGE_MEASURED
    ]
    lines += [
        "",
        "every cell is swept by the kernel (jump-stay's cubic period "
        "exceeds the schedule",
        "cache limit from n = 128 on, so its tiles are generated on "
        "demand); kernel/scalar",
        f"parity was asserted on every {PARITY_STRIDE}th shift of "
        f"{len(parity_checked)} algorithm@n cells: {', '.join(parity_checked)}",
        "",
        f"schedule store: {stats['builds']} DRDS global sequences built "
        f"once (one per n), {stats['attaches']} attached, "
        f"{stats['total_bytes'] / (1 << 20):.1f} MiB resident; every "
        "per-set schedule is built in-process",
    ]
    record("table1_asymmetric_large_universe", "\n".join(lines))

    import json
    from pathlib import Path

    payload = {
        "ns": list(NS_LARGE),
        "k": K,
        "workload": "single_overlap(k=l=3, seed=0)",
        "shift_classes": f"two-sided strided, ~{MAX_SHIFTS_LARGE}",
        "measured_worst_ttr": measured,
        "kernel_scalar_parity_checked": parity_checked,
        "measured_exponents": {a: round(e, 2) for a, e in exponents.items()},
        "envelope_exponents": {
            a: round(e, 2) for a, e in envelope_exponents.items()
        },
        "store": stats,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_table1_large_universe.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    # The paper's guarantee is ~flat in n even at 256; the global-sequence
    # baselines keep their polynomial envelopes.
    assert envelope_exponents["paper"] < 0.5
    assert 1.5 < envelope_exponents["crseq"] < 2.5
    assert 2.5 < envelope_exponents["jump-stay"] < 3.5
    assert 1.5 < envelope_exponents["drds"] < 2.5
    assert envelope_exponents["zos"] < 1.0
    paper = [measured["paper"][n] for n in NS_LARGE]
    assert max(paper) <= 4 * min(paper), paper
    # Jump-Stay's measured column exists at every large size now that
    # the kernel sweeps its cubic period, and its measured
    # growth stays below the cubic envelope on these instances.
    assert set(measured["jump-stay"]) == set(NS_LARGE)
    assert exponents["jump-stay"] < envelope_exponents["jump-stay"]
    # The store holds exactly one DRDS global sequence per n, each
    # built once.
    assert stats["builds"] == len(store.entries()) == len(NS_LARGE)


def test_guarantee_ratio_grows(benchmark, envelopes, record):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = [
        [
            n,
            f"{envelopes['crseq'][n] / envelopes['paper'][n]:.1f}x",
            f"{envelopes['jump-stay'][n] / envelopes['paper'][n]:.1f}x",
        ]
        for n in NS
    ]
    record(
        "table1_guarantee_gap",
        "guarantee-envelope gap vs the paper's construction (k=l=3)\n"
        + format_table(["n", "crseq/paper", "jump-stay/paper"], rows),
    )
    first, last = NS[0], NS[-1]
    assert (
        envelopes["crseq"][last] / envelopes["paper"][last]
        > envelopes["crseq"][first] / envelopes["paper"][first]
    )
