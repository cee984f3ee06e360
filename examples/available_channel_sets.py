"""Available-channel-set workloads: ZOS vs the global-sequence baselines.

The ZOS baseline (after Lin et al., arXiv:1506.00744) builds each
agent's hopping sequence from its *own* available channel set, so its
rendezvous guarantee scales with the set size ``m`` instead of the
universe size ``n`` — the same ``|S| << n`` regime the paper's
construction targets.  This example sweeps the overlap fraction ``rho``
of the new ``available_overlap`` workload and pits every registered
deterministic algorithm against the adversarial single-common-channel
family, using one shift sweep per pair.

Run:  python examples/available_channel_sets.py
"""

from __future__ import annotations

import math

import repro
from repro.analysis import format_table
from repro.baselines import DETERMINISTIC_BASELINES
from repro.core.verification import max_ttr, strided_shift_range
from repro.sim import adversarial_single_common, available_overlap

N = 64
K = 4
MAX_SHIFTS = 20_000  # stride cap, matching benchmarks/test_zos_comparison.py


def worst_ttr(algorithm: str, instance) -> int:
    worst = 0
    schedules = [
        repro.build_schedule(s, instance.n, algorithm=algorithm)
        for s in instance.sets
    ]
    for i, j in instance.overlapping_pairs():
        a, b = schedules[i], schedules[j]
        shifts = strided_shift_range(a, b, MAX_SHIFTS)
        worst = max(
            worst, max_ttr(a, b, shifts, 2 * math.lcm(a.period, b.period))
        )
    return worst


def main() -> None:
    print(f"universe n={N}, set size k={K}\n")

    print("overlap-fraction sweep (ZOS, 3 agents): worst TTR per rho")
    rows = []
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        instance = available_overlap(N, K, 3, rho=rho, seed=1)
        rows.append([rho, instance.metadata["core_size"], worst_ttr("zos", instance)])
    print(format_table(["rho", "shared core", "worst TTR"], rows))

    print("\nadversarial single-common-channel pair, every registered")
    print("deterministic algorithm (new baselines appear automatically):")
    instance = adversarial_single_common(N, K, 2, seed=2)
    rows = []
    for algorithm in ("paper",) + DETERMINISTIC_BASELINES:
        sched = repro.build_schedule(instance.sets[0], N, algorithm=algorithm)
        rows.append([algorithm, worst_ttr(algorithm, instance), f"{sched.period:,}"])
    print(format_table(["algorithm", "worst TTR", "guarantee envelope"], rows))
    print("\nZOS and the paper's schedule answer in set-size time; the")
    print("whole-universe sequences pay their n-scaled periods.")


if __name__ == "__main__":
    main()
