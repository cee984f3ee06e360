"""Network-scale discovery: the vectorized core's 100 -> 10k scaling curve.

The acceptance bench for ``repro.sim.netcore``.  A ``random_subsets``
population (universe 12, k = 3, paper schedules, wake slots spread over
8) is simulated at 100, 300, 1000, 3000, and 10,000 agents.  Three
things are recorded to ``results/network_discovery.txt`` /
``results/BENCH_network_discovery.json``:

* **parity** — at the smallest population the vectorized engine's
  events are asserted bit-identical to the pairwise reference, and the
  reference is timed for the speedup column;
* **the scaling curve** — per population size: cohort count, number of
  overlapping agent pairs, time-to-full-discovery slot, slots actually
  simulated (early stop), and wall-clock seconds;
* **the tentpole gate** — the 10k-agent run (~30.9M overlapping pairs)
  must fully discover and complete within ``MAX_10K_SECONDS``.

Why this scales: agents sharing (schedule, wake, leave) collapse into
one cohort row, so 10k agents over a 12-channel universe step as a few
thousand rows, and pair accounting is combinatorial in cohort sizes
rather than quadratic in agents.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import repro
from repro.sim.agent import Agent
from repro.sim.metrics import summarize_discovery
from repro.sim.netcore import Population, simulate_population
from repro.sim.network import Network
from repro.sim.workloads import random_subsets

AGENT_COUNTS = (100, 300, 1_000, 3_000, 10_000)
UNIVERSE = 12
K = 3
WAKE_SPREAD = 8
HORIZON = 500_000
PAIRWISE_N = AGENT_COUNTS[0]  # population certified against the reference
MAX_10K_SECONDS = 60.0  # generous CI gate; ~2 s on a laptop


def _build_agents(num_agents: int) -> list[Agent]:
    """Seeded population sharing one Schedule object per distinct set."""
    instance = random_subsets(UNIVERSE, K, num_agents, seed=0)
    schedules = {}
    agents = []
    for i, channels in enumerate(instance.sets):
        if channels not in schedules:
            schedules[channels] = repro.build_schedule(channels, UNIVERSE)
        agents.append(Agent(f"agent{i}", schedules[channels], i % WAKE_SPREAD))
    return agents


def _measure(num_agents: int) -> dict:
    """One scaling-curve row: simulate and summarize ``num_agents``."""
    agents = _build_agents(num_agents)
    population = Population.from_agents(agents)
    start = time.perf_counter()
    net = simulate_population(population, HORIZON)
    seconds = time.perf_counter() - start
    stats = summarize_discovery(net.discovery_profile())
    assert net.all_discovered(), (
        f"{num_agents} agents: {net.unmet_cohort_pairs} cohort pairs unmet"
    )
    return {
        "agents": num_agents,
        "cohorts": population.num_cohorts,
        "distinct_schedules": len(population.schedules),
        "overlapping_pairs": stats.overlapping_pairs,
        "discovery_time": stats.discovery_time,
        "t50": stats.milestones[0.5],
        "t90": stats.milestones[0.9],
        "slots_simulated": net.slots_simulated,
        "seconds": round(seconds, 4),
    }


def test_network_discovery_scaling(benchmark, record):
    """Parity at 100 agents, then the recorded 100 -> 10k scaling curve."""
    small = _build_agents(PAIRWISE_N)
    start = time.perf_counter()
    reference = Network(small).run(HORIZON, engine="pairwise")
    pairwise_seconds = time.perf_counter() - start
    candidate = Network(small).run(HORIZON, engine="vectorized")
    assert candidate.events == reference.events, (
        "vectorized engine must be bit-identical to the pairwise reference"
    )

    curve = benchmark.pedantic(
        lambda: [_measure(n) for n in AGENT_COUNTS], rounds=1, iterations=1
    )

    top = curve[-1]
    assert top["agents"] == 10_000
    assert top["seconds"] < MAX_10K_SECONDS, (
        f"10k-agent discovery took {top['seconds']:.1f}s, "
        f"gate is {MAX_10K_SECONDS}s"
    )
    speedup = pairwise_seconds / max(curve[0]["seconds"], 1e-9)

    payload = {
        "workload": f"random_subsets(n={UNIVERSE}, k={K}, seed=0)",
        "algorithm": "paper",
        "wake_spread": WAKE_SPREAD,
        "horizon": HORIZON,
        "pairwise_reference": {
            "agents": PAIRWISE_N,
            "seconds": round(pairwise_seconds, 4),
            "events": len(reference.events),
            "parity_bit_identical": True,
        },
        "vectorized_vs_pairwise_speedup": round(speedup, 2),
        "curve": curve,
    }
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(exist_ok=True)
    (results_dir / "BENCH_network_discovery.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    rows = "".join(
        f"  {row['agents']:>6d} agents  {row['cohorts']:>5d} cohorts  "
        f"{row['overlapping_pairs']:>11,d} pairs  "
        f"discovery @ {row['discovery_time']:>4d}  "
        f"{row['seconds']:8.3f} s\n"
        for row in curve
    )
    record(
        "network_discovery",
        f"Full-population discovery, random_subsets(n={UNIVERSE}, k={K}), "
        f"paper schedules,\nwake slots spread over {WAKE_SPREAD}, horizon "
        f"{HORIZON:,} (early stop at full discovery):\n"
        f"{rows}"
        f"  pairwise reference at {PAIRWISE_N} agents: "
        f"{pairwise_seconds:.3f} s (vectorized {speedup:.0f}x faster, "
        "events bit-identical)",
    )
