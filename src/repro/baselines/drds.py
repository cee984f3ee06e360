"""DRDS-style baseline — after Gu, Hua, Wang, Lau (SECON 2013).

Cited in the paper under study (Chen et al., ICDCS 2014) in Section 1.2
and Table 1.  Gu et al. achieve ``O(n^2)`` asymmetric rendezvous by
building a global sequence from a *disjoint relaxed difference set*
(DRDS) family:
one set ``D_i`` per channel ``i``, pairwise disjoint in ``Z_m`` with
``m = O(n^2)``, such that every ``d`` in ``Z_m`` can be written as a
difference of two elements of ``D_i``.  Then, for any relative shift
``delta`` between two agents, every channel ``i`` is played by both
agents simultaneously at some slot — the defining rendezvous property.

Their exact algebraic construction is not reproduced in the paper under
study, so this module uses our own closed-form DRDS family in
``Z_{45 n^2 + 8n}`` (see docs/ARCHITECTURE.md, deviations; same ``Theta(n^2)``
guarantee class, constant 45 vs. their 3, and — unlike theirs —
prime-free).  Each channel ``i < n`` owns four components:

* **block**   ``B_i = {4n i + r : r in [0, 4n)}`` — tiles ``[0, 4n^2)``;
* **stride**  ``SA_i = {4n^2 + i + 4n s : s in [i, i + 5n)}`` — the
  start offset ``i`` cancels the block position ``4n i``, so
  ``SA_i - B_i`` covers the band ``(4n^2, 24n^2)`` *drift-free for
  every channel*;
* **column**  ``M_i = {28n^2 + i + 2n a' : a' in [0, 2n+1)}``;
* **slant**   ``S_i = {32n^2 + 2n + i + (2n+1) a : a in [0, 6n)}``.

Coverage: block self-differences give ``(0, 4n)``; the stride band gives
``(4n^2, 24n^2)``, which reaches past ``m/2``, so difference-set symmetry
(``a - b`` vs ``b - a``) closes everything except the *small-difference
corner* ``±(4n, 4n^2)``.  There ``S_i - M_i = 2n(2n+1) + (2n+1)a - 2na'``
covers most values (the coprime steps ``2n`` / ``2n+1`` solve every
residue class), but the lattice corners where both ``a`` and ``a'`` hit
their range limits leave structured hole bands — roughly ``3.5 n``
differences per channel.  Those are completed by a deterministic greedy
step: for each remaining difference ``d``, the lowest free pair
``(x, x + d)`` is claimed, with incremental coverage updates so the bonus
differences of each new element shrink the remaining work; total
occupancy stays near half of ``Z_m``.

The greedy step and the FFT autocorrelation check that certifies the
result run only when the build is verified (``verify=``), which by
default is ``n <= 64`` (``_FILLER_VERIFY_LIMIT``).  Above that the
sequence is the closed-form part alone, and it is *not* a DRDS: at
``n = 128``, 126 of 128 channels miss some differences, so the
rendezvous guarantee does not hold there (ROADMAP item 2).

Channel disjointness of the closed-form part holds because each family
separates channels by residue (mod ``4n``, ``2n`` or ``2n+1``) inside its
own zone; the greedy step claims only unowned slots.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable

import numpy as np

from repro.baselines.projection import ProjectedSchedule

__all__ = [
    "DRDSSchedule",
    "build_global_sequence",
    "difference_coverage",
    "sequence_period",
]

_FILLER_VERIFY_LIMIT = 64  # verify at build time up to this universe size


def sequence_period(n: int) -> int:
    """Global sequence period ``m = 45 n^2 + 8n`` for universe size ``n``."""
    return 45 * n * n + 8 * n


def _component_indices(i: int, n: int) -> np.ndarray:
    """All slots owned by channel ``i`` in the global sequence."""
    block = 4 * n * i + np.arange(4 * n, dtype=np.int64)
    stride = 4 * n * n + i + 4 * n * np.arange(i, i + 5 * n, dtype=np.int64)
    column = 28 * n * n + i + 2 * n * np.arange(2 * n + 1, dtype=np.int64)
    slant = (
        32 * n * n
        + 2 * n
        + i
        + (2 * n + 1) * np.arange(6 * n, dtype=np.int64)
    )
    return np.concatenate([block, stride, column, slant])


def difference_coverage(elements: np.ndarray, m: int) -> np.ndarray:
    """Boolean mask over ``Z_m``: which differences ``a - b`` occur.

    Computed by FFT circular autocorrelation; counts are integers, so a
    0.5 threshold is immune to floating-point noise at these sizes.
    """
    indicator = np.zeros(m)
    indicator[np.asarray(elements) % m] = 1.0
    spectrum = np.fft.rfft(indicator)
    correlation = np.fft.irfft(spectrum * np.conj(spectrum), m)
    return correlation > 0.5


def _first_free_pair(
    owner: np.ndarray, free: np.ndarray, head: int, d: int, m: int
) -> int | None:
    """Lowest ``x`` in ``free[head:]`` with ``x`` and ``x + d`` unowned."""
    chunk = 64
    while head < free.size:
        candidates = free[head : head + chunk]
        usable = (owner[candidates] < 0) & (owner[(candidates + d) % m] < 0)
        if usable.any():
            return int(candidates[usable.argmax()])
        head += candidates.size
        chunk *= 2
    return None


def _greedy_patch(
    owner: np.ndarray,
    channel: int,
    elements: np.ndarray,
    covered: np.ndarray,
    m: int,
) -> np.ndarray:
    """Complete a channel's difference coverage with pairs of free slots.

    For each still-uncovered difference ``d`` a free pair ``(x, x + d)``
    is claimed; coverage is updated incrementally, so the *bonus*
    differences each new element forms against the existing set
    drastically shrink the number of pairs needed (measured: ~3.5
    pairs per channel per unit of ``n``, against ~2.5x that much free
    space).  Deterministic: always the lowest-index free pair.

    The patch only ever claims slots, so the free list is computed once
    per channel; each search starts at a head pointer past the claimed
    prefix and scans forward in doubling chunks until the first ``x``
    with both ``x`` and ``x + d`` still free.  Elements grow in place in
    a buffer sized for two per uncovered difference.
    """
    holes = np.flatnonzero(~covered)
    elements = np.asarray(elements, dtype=np.int64)
    size = elements.size
    grown = np.empty(size + 2 * holes.size, dtype=np.int64)
    grown[:size] = elements
    free = np.flatnonzero(owner < 0)
    head = 0
    for d in holes.tolist():
        if covered[d]:
            continue
        while head < free.size and owner[free[head]] >= 0:
            head += 1
        x = _first_free_pair(owner, free, head, d, m)
        if x is None:
            raise AssertionError(
                f"DRDS patch failed for channel {channel}: no free pair "
                f"for difference {d}"
            )
        y = (x + d) % m
        owner[x] = channel
        owner[y] = channel
        existing = grown[:size]
        for new in (x, y):
            covered[(new - existing) % m] = True
            covered[(existing - new) % m] = True
        covered[[0, d, (m - d) % m]] = True
        grown[size : size + 2] = (x, y)
        size += 2
    return grown[:size]


@functools.lru_cache(maxsize=32)
def build_global_sequence(n: int, verify: bool | None = None) -> np.ndarray:
    """Global DRDS channel sequence for universe size ``n``.

    Returns an int64 array ``w`` of length ``sequence_period(n)``; ``w[t]`` is the
    channel that *owns* slot ``t`` (unowned slots are filled with
    ``t mod n``, which does not affect the guarantee).  ``verify``
    (default ``n <= 64``) runs the greedy patch and its FFT check;
    without it the closed-form family is returned unpatched.
    """
    if n < 1:
        raise ValueError(f"universe size must be positive, got {n}")
    if verify is None:
        verify = n <= _FILLER_VERIFY_LIMIT
    m = sequence_period(n)
    owner = np.full(m, -1, dtype=np.int64)
    per_channel: list[np.ndarray] = []
    for i in range(n):
        idx = _component_indices(i, n)
        if idx.max() >= m:
            raise AssertionError(f"component overflow for channel {i}, n={n}")
        if (owner[idx] >= 0).any():
            clash = idx[owner[idx] >= 0][0]
            raise AssertionError(
                f"slot collision at {clash} between channels "
                f"{owner[clash]} and {i} (n={n})"
            )
        owner[idx] = i
        per_channel.append(idx)
    if verify:
        for i in range(n):
            mask = difference_coverage(per_channel[i], m)
            if not mask.all():
                per_channel[i] = _greedy_patch(owner, i, per_channel[i], mask, m)
                mask = difference_coverage(per_channel[i], m)
                if not mask.all():
                    raise AssertionError(
                        f"DRDS coverage incomplete for channel {i} after patch"
                    )
    sequence = owner.copy()
    filler = np.flatnonzero(sequence < 0)
    sequence[filler] = filler % n
    return sequence


class DRDSSchedule(ProjectedSchedule):
    """DRDS global sequence projected onto an agent's available set.

    ``global_sequence`` optionally supplies the global sequence as an
    externally owned array — typically a read-only memmap attached from
    a :class:`~repro.core.store.ScheduleStore`
    (:meth:`~repro.core.store.ScheduleStore.global_sequence`), so many
    channel sets and processes share one materialization instead of
    each rebuilding the ``45 n^2 + 8n``-slot construction.
    """

    def __init__(
        self,
        channels: Iterable[int],
        n: int,
        global_sequence: np.ndarray | None = None,
    ):
        super().__init__(channels, n)
        if global_sequence is None:
            global_sequence = build_global_sequence(n)
        elif len(global_sequence) != sequence_period(n):
            raise ValueError(
                f"global sequence has {len(global_sequence)} slots, "
                f"expected {sequence_period(n)} for n={n}"
            )
        self._global = global_sequence
        self.period = len(self._global)

    def global_channel(self, t: int) -> int:
        """The channel that owns slot ``t`` of the global sequence."""
        return int(self._global[t])

    def global_values(self, indices: np.ndarray) -> np.ndarray:
        """One fancy index into the (possibly memmapped) global array."""
        indices = np.asarray(indices, dtype=np.int64)
        return np.asarray(self._global)[indices % self.period]

    def channel_block(self, start: int, stop: int) -> np.ndarray:
        """A window that does not wrap is one slice of the global
        sequence, projected by one table lookup: no index array, so a
        period table costs one pass over the (possibly memmapped)
        sequence.  Wrapping windows take the gather."""
        lo = start % self.period
        if start <= stop and lo + (stop - start) <= self.period:
            return self._table.take(self._global[lo : lo + (stop - start)])
        return super().channel_block(start, stop)
