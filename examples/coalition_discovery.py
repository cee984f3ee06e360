"""Coalition scenario: small subsets of a large spectrum pool.

The paper's motivating deployment (Section 1.3): a large hyperspace of
channels where each coalition member operates in a small band that
overlaps its allies' bands.  With |S| << n the paper's
O(|S_i||S_j| log log n) schedule beats the O(n^2)/O(n^3) global-sequence
baselines by orders of magnitude.

This example builds a multi-band coalition, runs full-network discovery
under the paper's algorithm and under every deterministic baseline in
the registry (``repro.baselines.DETERMINISTIC_BASELINES`` — new
baselines such as ``zos`` show up here automatically), and reports how
long each needs for every overlapping pair to meet.

Run:  python examples/coalition_discovery.py
"""

from __future__ import annotations

import repro
from repro.analysis import format_table
from repro.baselines import DETERMINISTIC_BASELINES
from repro.sim import Agent, Network, coalition_bands, summarize_ttrs

# Horizons scale with each construction's guarantee envelope (its
# period), capped so the global-sequence baselines stay runnable.
HORIZON_CAP = 4_000_000


def discovery_horizon(instance, algorithm: str) -> int:
    worst_period = max(
        repro.build_schedule(channels, instance.n, algorithm=algorithm).period
        for channels in set(instance.sets)
    )
    return min(4 * worst_period, HORIZON_CAP)


def discover(instance, algorithm: str, horizon: int):
    agents = [
        Agent(
            f"{algorithm}-{i}",
            repro.build_schedule(channels, instance.n, algorithm=algorithm),
            wake_time=(37 * i) % 400,
        )
        for i, channels in enumerate(instance.sets)
    ]
    return Network(agents).run(horizon)


def main() -> None:
    n = 256  # a large pooled hyperspace
    instance = coalition_bands(
        n, band_width=10, agents_per_band=3, num_bands=5, overlap=3, seed=7
    )
    sizes = sorted(len(s) for s in instance.sets)
    print(f"universe n={n}, {instance.num_agents} agents, "
          f"set sizes {sizes[0]}..{sizes[-1]}, "
          f"{len(instance.overlapping_pairs())} overlapping pairs\n")

    rows = []
    for algorithm in ("paper",) + DETERMINISTIC_BASELINES:
        horizon = discovery_horizon(instance, algorithm)
        result = discover(instance, algorithm, horizon)
        ttrs = list(result.ttrs().values())
        stats = summarize_ttrs(ttrs) if ttrs else None
        rows.append(
            [
                algorithm,
                "yes" if result.all_discovered() else
                f"no ({len(result.unmet_pairs())} pairs missing)",
                result.discovery_time() or "-",
                stats.mean if stats else "-",
                stats.maximum if stats else "-",
            ]
        )
    print(
        format_table(
            ["algorithm", "all pairs met", "network discovery slot",
             "mean TTR", "max TTR"],
            rows,
        )
    )

    # Averages hide the story: the paper's contribution is the worst-case
    # guarantee.  Probe one cross-band pair over many relative wake-up
    # shifts (one sweep per algorithm) and report the worst TTR.
    from repro.core.stream import ttr_sweep
    from repro.sim import summarize_profile

    i, j = next(
        (i, j) for i, j in instance.overlapping_pairs() if i // 3 != j // 3
    )
    print(f"\nworst-case probe: agents {i} and {j} "
          f"({sorted(instance.sets[i])} vs {sorted(instance.sets[j])})")
    rows = []
    horizon = 200_000
    for algorithm in ("paper",) + DETERMINISTIC_BASELINES:
        a = repro.build_schedule(instance.sets[i], n, algorithm=algorithm)
        b = repro.build_schedule(instance.sets[j], n, algorithm=algorithm)
        profile = ttr_sweep(a, b, range(0, 30_000, 997), horizon)
        stats, misses = summarize_profile(profile)
        # The global-sequence guarantees only kick in within their full
        # periods (Jump-Stay's cubic ~50M slots at n=256) — a miss here
        # IS the story.
        worst: object = f">= {horizon}" if misses else stats.maximum
        rows.append([algorithm, worst, f"{a.period:,}"])
    print(format_table(
        ["algorithm", "worst TTR over sampled shifts", "guarantee envelope"],
        rows,
    ))
    print("\nWith |S| ~ 5 and n = 256 the paper's schedule guarantees"
          " ~|S_i||S_j| loglog n slots, while Jump-Stay's guarantee degrades"
          " with the O(n^3) global period — the coalition-setting gap.")


if __name__ == "__main__":
    main()
