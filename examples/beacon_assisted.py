"""Beacon-assisted rendezvous (paper Section 5).

With an ambient one-bit random beacon (e.g. GPS-derived), rendezvous
drops from Omega(|S_i||S_j|) to O(|S_i| + |S_j| + log n) — additive, not
multiplicative.  This example runs both beacon protocols against the
deterministic Theorem 3 schedule on the same instance and compares.

Run:  python examples/beacon_assisted.py
"""

from __future__ import annotations

import statistics

import repro
from repro.analysis import format_table
from repro.beacon import (
    AmplifiedBeaconProtocol,
    BeaconSource,
    SimpleBeaconProtocol,
    beacon_first_meeting,
)
from repro.core.stream import ttr_sweep
from repro.sim import single_overlap


def main() -> None:
    n = 64
    k = l = 8
    instance = single_overlap(n, k, l, seed=5)
    a_set, b_set = instance.sets
    print(f"n={n}, |S_a|={k}, |S_b|={l}, single common channel\n")

    rows = []

    # Deterministic paper schedule: worst over sampled wake offsets.
    a = repro.build_schedule(a_set, n)
    b = repro.build_schedule(b_set, n)
    det_ttrs = list(ttr_sweep(a, b, range(0, 4000, 131), 10**6).values())
    rows.append(
        ["paper (no beacon)", "0 bits",
         f"{statistics.mean(det_ttrs):.0f}", max(det_ttrs)]
    )

    # Beacon protocols: average over beacon seeds (the randomness is the
    # beacon stream, shared by both agents).
    for name, cls in (
        ("simple beacon", SimpleBeaconProtocol),
        ("amplified beacon", AmplifiedBeaconProtocol),
    ):
        ttrs = []
        bits = None
        for seed in range(25):
            beacon = BeaconSource(seed)
            pa = cls(a_set, n, beacon)
            pb = cls(b_set, n, beacon)
            ttr = beacon_first_meeting(pa, pb, 0, seed * 17 % 101, 200_000)
            assert ttr is not None
            ttrs.append(ttr)
            if bits is None:
                bits = (
                    f"{pa.window} bits/permutation"
                    if isinstance(pa, SimpleBeaconProtocol)
                    else f"{pa.burn_in} bits + 3/step"
                )
        rows.append([name, bits, f"{statistics.mean(ttrs):.0f}", max(ttrs)])

    print(format_table(["protocol", "beacon bits", "mean TTR", "max TTR"], rows))
    print(
        "\nShape check: the deterministic schedule pays ~|S_a||S_b| loglog n;"
        "\nthe amplified beacon protocol needs only ~|S_a|+|S_b|+log n slots."
    )


if __name__ == "__main__":
    main()
