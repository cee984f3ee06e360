"""AsyncETCH baseline — after Zhang, Li, Yu, Wang (ETCH, INFOCOM 2011).

ETCH ("Efficient Channel Hopping") is the asynchronous channel-hopping
family the available-set literature measures against; the ROADMAP's
baseline matrix calls for its asynchronous variant on the same
``SweepRunner`` harness as CRSEQ / Jump-Stay / DRDS / ZOS.

Construction (channels 0-indexed): let ``P`` be the smallest prime
``P > n``.  Time is divided into *frames* of ``2P + 2`` slots, each a
pilot pair followed by ETCH's signature **two identical subframes** of
``P`` slots (the duplicate subframe guarantees that a large enough
frame overlap contains one complete aligned subframe, whatever the
clock drift).  Frame ``r`` uses

* step  ``s = (r mod (P-1)) + 1`` (cycling through ``1..P-1``) and
* start ``i = (r div (P-1)) mod P``;
* pilot slot 0 — the **anchor** — plays channel ``0``;
* pilot slot 1 — the **stay** — plays channel ``s``;
* subframe slot ``j`` plays channel ``(i + j*s) mod P`` — a full orbit
  of ``Z_P``, since ``s`` is invertible.

Channels ``>= n`` remap to ``c mod n``; unavailable channels project to
``available[c mod k]`` (the same projection every global-sequence
baseline in this package uses).  The full period is
``(2P + 2) P (P - 1)``.

Why every nonempty intersection meets, for common channel ``g``: when
the relative shift leaves the two agents' frames step-distinct, the
aligned orbit pair has a unique meeting phase ``j*`` whose channel
value sweeps all of ``Z_P`` as the start loop advances — including
``g`` — while both play natively; when the steps coincide (shifts that
are multiples of ``P - 1`` frames, the case the published multi-row
argument never faces), the aligned stay slots meet on ``s`` for every
round (covering every ``g != 0`` as ``s`` cycles) and the aligned
anchor slots meet on channel ``0``.

**Documented deviation** (see docs/ARCHITECTURE.md, deviations): the
published ASYNC-ETCH achieves ``O(P^2)`` by letting each node draw one
of ``P`` distinct sequence *rows*, and its rendezvous argument needs
two rows.  This repository's model is anonymous and deterministic —
every agent derives its schedule from its channel set alone — so all
agents share one global sequence: the row index is folded into an
outer start loop (the device Jump-Stay uses) and the single pilot slot
is widened to the anchor/stay pair above, which restores coverage of
the equal-step shifts at the price of the same cubic ``O(n^3)``
envelope as Jump-Stay.  The guarantee is certified empirically by
exhaustive ``verify_guarantee`` sweeps in
``tests/baselines/test_asyncetch.py``.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.baselines.projection import ProjectedSchedule
from repro.core.primes import smallest_prime_greater_than

__all__ = [
    "AsyncETCHSchedule",
    "asyncetch_global_channel",
    "asyncetch_global_values",
    "asyncetch_period",
]


def asyncetch_period(prime: int) -> int:
    """Full AsyncETCH period for prime ``P``: ``(2P+2)`` slots per frame
    times ``P (P-1)`` frames (step inner loop, start outer loop)."""
    return (2 * prime + 2) * prime * (prime - 1)


def asyncetch_global_channel(t: int, prime: int) -> int:
    """Channel of the global AsyncETCH sequence at slot ``t`` (in ``[0, P)``)."""
    if t < 0:
        raise ValueError(f"slot must be nonnegative, got {t}")
    frame, offset = divmod(t, 2 * prime + 2)
    step = (frame % (prime - 1)) + 1
    start = (frame // (prime - 1)) % prime
    if offset == 0:  # anchor pilot
        return 0
    if offset == 1:  # stay pilot
        return step
    return (start + ((offset - 2) % prime) * step) % prime


def asyncetch_global_values(t: np.ndarray, prime: int) -> np.ndarray:
    """Global AsyncETCH channels at an arbitrary array of slot indices.

    The closed form of :func:`asyncetch_global_channel` evaluated
    elementwise over any index array — contiguous windows and
    scattered tile rows alike.
    """
    t = np.asarray(t, dtype=np.int64) % asyncetch_period(prime)
    frame, offset = np.divmod(t, 2 * prime + 2)
    step = (frame % (prime - 1)) + 1
    frame_start = (frame // (prime - 1)) % prime
    orbit = (frame_start + ((offset - 2) % prime) * step) % prime
    out = np.where(offset == 1, step, orbit)
    return np.where(offset == 0, 0, out)


class AsyncETCHSchedule(ProjectedSchedule):
    """AsyncETCH global sequence projected onto an agent's available set."""

    def __init__(self, channels: Iterable[int], n: int):
        super().__init__(channels, n)
        self.prime = smallest_prime_greater_than(n)
        self.period = asyncetch_period(self.prime)

    def global_channel(self, t: int) -> int:
        """:func:`asyncetch_global_channel` at slot ``t``, remapped mod ``n``."""
        return asyncetch_global_channel(t, self.prime) % self.n

    def global_values(self, indices: np.ndarray) -> np.ndarray:
        """:func:`asyncetch_global_values` over ``indices``, remapped mod ``n``."""
        return asyncetch_global_values(indices, self.prime) % self.n
