"""Quickstart: two radios, overlapping spectrum, guaranteed rendezvous.

Builds the paper's Theorem 3 schedules for two agents with different
channel sets and wake-up times, simulates them, and prints when and where
they meet — plus the worst case over every small relative shift, compared
against the analytic bound, and a first look at the sweep kernel's tile
plan that docs/TUNING.md teaches in full.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import repro
from repro.analysis import walk_plot
from repro.core.stream import ttr_sweep
from repro.core.epoch import rendezvous_bound
from repro.core.pairwise import async_pair_string
from repro.core.ramsey import color_bits, edge_color
from repro.core.stream import TilePlan, plan_tiles
from repro.sim import Agent, Network


def main() -> None:
    n = 64  # channel universe
    alice_channels = {3, 17, 40}
    bob_channels = {17, 58}

    alice = repro.build_schedule(alice_channels, n)
    bob = repro.build_schedule(bob_channels, n)
    print(f"universe n={n}")
    print(f"alice {sorted(alice_channels)}: primes {alice.prime_pair}, "
          f"period {alice.period}")
    print(f"bob   {sorted(bob_channels)}: primes {bob.prime_pair}, "
          f"period {bob.period}")

    # --- one asynchronous run -------------------------------------------
    network = Network(
        [
            Agent("alice", alice, wake_time=0),
            Agent("bob", bob, wake_time=137),  # bob sleeps in
        ]
    )
    result = network.run(horizon=100_000)
    event = result.events[("alice", "bob")]
    print(f"\nfirst rendezvous: slot {event.time} on channel {event.channel} "
          f"(TTR {event.ttr} slots after both awake)")

    # --- worst case over shifts vs the analytic bound -------------------
    # max_ttr sweeps every shift in one pass (repro.core.stream);
    # ttr_sweep exposes the full profile when the distribution matters.
    bound = rendezvous_bound(alice, bob)
    worst = repro.max_ttr(alice, bob, range(0, 2000, 7), horizon=bound + 1)
    print(f"worst TTR over sampled shifts: {worst}  (analytic bound {bound})")

    # --- the tile plan, in one breath (full guide: docs/TUNING.md) ----
    # ttr_sweep runs the scalar loop for tiny joint periods and one
    # blocked kernel otherwise, under a tile plan auto-tuned from the L2
    # cache; no plan changes a result, so a pinned small-tile plan must
    # reproduce the default profile exactly.
    shifts = list(range(0, 2000, 7))
    default_profile = ttr_sweep(alice, bob, shifts, bound + 1)
    pinned = ttr_sweep(
        alice, bob, shifts, bound + 1,
        plan=TilePlan(tile_bytes=65536, block_rows=32),
    )
    assert pinned == default_profile, "a tile plan must never change results"
    plan = plan_tiles(len(shifts), bound + 1)
    print(
        f"a pinned 64 KiB tile plan swept the same profile "
        f"(the auto plan: tile {plan.tile_bytes >> 10} KiB, "
        f"{plan.block_rows} shifts per block)"
    )

    # --- peek inside Theorem 1 ------------------------------------------
    color = edge_color(17, 58, n)
    string = async_pair_string(color_bits(color, n))
    print("\nthe size-two schedule string R(x) for {17, 58} "
          f"(color {color}) and its walk:")
    print(walk_plot(string))


if __name__ == "__main__":
    main()
