"""The shift-sweep engine: one entry point, one first-meet kernel.

The paper's asynchronous rendezvous guarantee (Section 2) quantifies
over *all* relative wake-up offsets, and its Table-1 comparison rests
on worst-case TTRs — so honest reproduction means exhaustive shift
sweeps, not samples.  :func:`ttr_sweep` answers "when do these two
schedules first coincide at relative shift ``s``?" for a whole list of
shifts at once, bit-identical to a per-shift loop over the scalar
reference :func:`repro.core.verification.ttr_for_shift`.  It has two
paths and nothing else:

* **the scalar loop** when the joint period ``lcm(period_A,
  period_B)`` is at most :data:`SCALAR_JOINT_LIMIT` slots — at that
  size any vectorized setup costs more than the whole scan;
* **the blocked kernel** otherwise (:func:`_scan_block`), checkpointed
  sweeps included.

The kernel never materializes a period table; it walks fixed-byte
``(shift-block, time-block)`` **tiles**:

* each tile's channel rows are generated *on demand* through
  :meth:`~repro.core.schedule.Schedule.channel_block` /
  :meth:`~repro.core.schedule.Schedule.channel_gather`, the chunk APIs
  every baseline implements (vectorized closed forms for the global
  sequences; slices of wrapped arrays such as memmaps; a modular index
  into the cached period array otherwise) — so a new algorithm is
  certified as soon as it implements them;
* a shift only enters the comparison through its phase-offset pair
  (``s >= 0`` acts through ``s mod period_A``, ``s < 0`` through
  ``-s mod period_B``), so shifts are deduplicated to distinct offset
  classes before any work happens (:func:`reduce_shifts`);
* tiles carry per-shift *first-meet* state: a shift row that has
  already rendezvoused retires and never costs another cell, and time
  blocks grow geometrically as rows drop out (most shifts meet early);
* the scan stops at ``lcm(period_A, period_B)`` slots even when the
  caller's horizon is larger: the joint pattern is periodic, so a
  silent joint period means no rendezvous ever — unless an aperiodic
  fault environment (:mod:`repro.core.environment`) is attached, which
  voids the periodicity argument and forces the full horizon
  (:func:`repro.core.environment.effective_horizon`).

The deduped classes split into independent **shift blocks** sized by
a :class:`TilePlan` (:func:`plan_tiles` derives rows per block and
bytes per tile from the machine's L2 cache size and the problem
shape), scanned one after another.  A tile's rows come one of three
ways:

* **consecutive** offsets (an exhaustive sweep, a dense prefix) are
  compared *in place*: the tile is the ``sliding_window_view`` of the
  one ``channel_block`` chunk generated for them, with no copy;
* other **close** offsets fancy-index that window view, which copies;
* **sparse** blocks assemble their whole ``(rows, width)`` tile in one
  vectorized ``channel_gather`` call.

Dense chunks and the fixed side's rows are compared in int16 whenever
their channel ids fit (:func:`_narrow`; ids that do not fit are never
cast, so two ids can never alias), and each row retires with one
``argmax``.  A tile's budget counts what it allocates: a view tile
with no environment costs one compare-mask byte per cell, so a group
of consecutive offsets gets 8x the rows per block; gathered and
environment-masked tiles cost 8 bytes per cell.  A sparse tile is
further narrowed to :data:`_SPARSE_TILE_BYTES` of int64 ids, under
glibc's default mmap threshold: a larger gathered array (and every
same-shaped temporary of a closed-form gather) would be mapped and
page-faulted in afresh for every tile.  Blocks touch disjoint result
rows, so every plan returns the same profile.

``tests/core/test_stream.py`` certifies the kernel against the scalar
reference across every workload generator, and
``tests/core/test_differential.py`` adds a seeded randomized safety
net over plans, environments and horizons.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import threading
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.core import telemetry
from repro.core.blobs import atomic_write
from repro.core.environment import (
    Environment,
    effective_horizon,
    environment_digest,
)
from repro.core.schedule import Schedule

__all__ = [
    "ttr_sweep",
    "reduce_shifts",
    "scatter_ttrs",
    "TilePlan",
    "plan_tiles",
    "l2_cache_bytes",
    "SweepCheckpoint",
    "SCALAR_JOINT_LIMIT",
]

#: Joint periods (lcm of the pair) at or below this go to the scalar
#: reference loop — at this size the kernel's vectorized setup costs
#: more than the whole scan.
SCALAR_JOINT_LIMIT = 64

_INITIAL_TIME_BLOCK = 256
# Budgeted bytes per cell of a gathered or environment-masked tile (an
# int64 channel id); a view tile with no environment budgets 1 (its
# compare mask).
_BYTES_PER_CELL = 8
# Bytes of int64 ids a sparse (gathered) tile may hold: half of glibc's
# default 128 KiB mmap threshold, so neither the tile nor a closed-form
# gather's same-shaped temporaries are mapped and faulted in per tile.
_SPARSE_TILE_BYTES = 1 << 16
_INT16 = np.iinfo(np.int16)

# Auto-tuner clamps: a tile below 16 KiB drowns in per-tile dispatch
# overhead; one above 8 MiB stops fitting any per-core cache level.
_MIN_TILE_BYTES = 1 << 14
_MAX_TILE_BYTES = 1 << 23
# L2 size when the sysfs cache topology is unreadable.
_FALLBACK_L2_BYTES = 1 << 20
# Leading slots of each schedule folded into a checkpoint's spec digest.
_SPEC_PROBE_SLOTS = 4096


def _parse_cache_size(text: str) -> int | None:
    """Parse a sysfs cache size string (``'2048K'``, ``'8M'``) to bytes."""
    text = text.strip().upper()
    scale = 1
    if text.endswith("K"):
        scale, text = 1 << 10, text[:-1]
    elif text.endswith("M"):
        scale, text = 1 << 20, text[:-1]
    try:
        return int(text) * scale
    except ValueError:
        return None


@functools.lru_cache(maxsize=1)
def l2_cache_bytes() -> int:
    """Best-effort L2 data-cache size of this machine, in bytes.

    Probed once from the Linux sysfs cache topology
    (``/sys/devices/system/cpu/cpu0/cache``) and memoized; platforms
    without it get a conservative 1 MiB.  Deterministic on a given
    machine — the auto-tuner's plans therefore are too.
    """
    l2 = _FALLBACK_L2_BYTES
    root = "/sys/devices/system/cpu/cpu0/cache"
    try:
        names = sorted(os.listdir(root))
    except OSError:
        names = []
    for name in names:
        if not name.startswith("index"):
            continue
        base = os.path.join(root, name)
        try:
            with open(os.path.join(base, "level")) as handle:
                level = int(handle.read())
            with open(os.path.join(base, "type")) as handle:
                kind = handle.read().strip()
            with open(os.path.join(base, "size")) as handle:
                size = _parse_cache_size(handle.read())
        except (OSError, ValueError):
            continue
        if level == 2 and kind in ("Unified", "Data") and size is not None:
            l2 = size
    return l2


@dataclass(frozen=True)
class TilePlan:
    """One resolved tiling decision for the blocked kernel.

    ``tile_bytes`` bounds the bytes of any single ``(shift, time)``
    tile; ``block_rows`` is how many deduped shift classes one
    independent block carries.  Results are invariant under every plan
    — a plan only moves wall-clock and peak memory.  Build one with
    :func:`plan_tiles` (auto-tuned) or directly (pinned, e.g. in tests
    that force degenerate shapes).
    """

    tile_bytes: int
    block_rows: int

    def __post_init__(self):
        if self.tile_bytes <= 0:
            raise ValueError(f"tile_bytes must be positive, got {self.tile_bytes}")
        if self.block_rows <= 0:
            raise ValueError(f"block_rows must be positive, got {self.block_rows}")

    @property
    def cells(self) -> int:
        """Int64 cells under ``tile_bytes``: the fixed-row cache's budget.

        A gathered or environment-masked tile holds at most this many
        cells; a view tile with no environment holds up to 8x as many
        (one compare-mask byte per cell, see :func:`_scan_block`).
        """
        return max(1, self.tile_bytes // _BYTES_PER_CELL)


def plan_tiles(
    num_offsets: int,
    horizon: int,
    tile_bytes: int | None = None,
    contiguous: bool = False,
) -> TilePlan:
    """Auto-tune a :class:`TilePlan` for one blocked scan.

    Pure arithmetic over the problem shape (``num_offsets`` deduped
    shift classes, ``horizon`` slots, and ``contiguous``: whether the
    classes are consecutive offsets scanned with no environment) and
    the machine's L2 size (the memoized :func:`l2_cache_bytes` probe)
    — no wall-clock or RNG input, so the same arguments always produce
    the same plan.

    Sizing policy, in order:

    * **tile** — ``None`` targets half the L2 cache (clamped to
      16 KiB .. 8 MiB) so the working tile stays cache-resident.  An
      explicit ``tile_bytes`` pins the budget unchanged.
    * **block rows** — the widest block one tile can hold at the first
      time block's width (fewer tiles, best vectorization).  A tile is
      budgeted by what it allocates: 8 bytes per cell (an int64 id) by
      default, 1 byte per cell (the compare mask of a copy-free window
      view) when ``contiguous`` — so a consecutive group gets
      ``tile_bytes // 256`` rows per block, 8x the gathered budget.
    """
    if num_offsets < 0:
        raise ValueError(f"num_offsets must be nonnegative, got {num_offsets}")
    if tile_bytes is None:
        tile = min(max(l2_cache_bytes() // 2, _MIN_TILE_BYTES), _MAX_TILE_BYTES)
    else:
        if tile_bytes <= 0:
            raise ValueError(f"tile_bytes must be positive, got {tile_bytes}")
        tile = int(tile_bytes)
    cells = max(1, tile // (1 if contiguous else _BYTES_PER_CELL))
    rows_cap = max(1, cells // min(_INITIAL_TIME_BLOCK, max(1, horizon)))
    return TilePlan(tile_bytes=tile, block_rows=min(rows_cap, max(1, num_offsets)))


#: Sentinel in a checkpoint's ``resolved`` arrays for a shift row whose
#: first-meet scan has not finished (``-1`` is a certified miss; ``>= 0``
#: a hit).  Never escapes into sweep results.
_UNRESOLVED = -2


class SweepCheckpoint:
    """Checkpoint sink for resumable sweeps.

    Attach one to :func:`ttr_sweep` with ``checkpoint=`` and the kernel
    snapshots its state to ``path`` at time-block boundaries: every
    retired shift row's final TTR (or certified miss) plus the resume
    cursor — the time frontier each still-live row has been scanned
    to.  Re-running the same sweep with the same sink then *resumes*:
    retired rows are answered from the snapshot, live rows rescan only
    from (at most) their recorded frontier, and the merged profile is
    bit-identical to an uninterrupted run — first-meet results are
    invariant under where the scan was cut.

    The snapshot is keyed by a spec digest (each schedule's identity,
    the deduped offset pairs, the effective horizon, the environment);
    a snapshot from a *different* sweep is ignored and overwritten,
    never merged.  A snapshot is saved at every time-block boundary,
    atomically (:func:`~repro.core.blobs.atomic_write`), so a kill
    mid-save leaves the previous valid snapshot.  ``saves`` counts
    snapshots actually written; ``clear()`` deletes the file (the
    runner calls it after a sweep completes).
    """

    def __init__(self, path: str | os.PathLike):
        self.path = Path(path)
        self.saves = 0

    def load(self) -> dict | None:
        """The last snapshot, or ``None`` when absent or unreadable."""
        try:
            state = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return None
        return state if isinstance(state, dict) else None

    def save(self, state: dict) -> None:
        """Atomically persist one snapshot (temp file + ``os.replace``)."""
        with telemetry.span("stream.checkpoint_io") as io_span:
            payload = json.dumps(state).encode()
            io_span.add_bytes(len(payload))
            atomic_write(self.path, lambda handle: handle.write(payload))
            self.saves += 1

    def clear(self) -> None:
        """Delete the snapshot file (a completed sweep needs no resume)."""
        self.path.unlink(missing_ok=True)


def _sweep_spec(
    a: Schedule,
    b: Schedule,
    unique_pairs: np.ndarray,
    horizon: int,
    environment: Environment | None = None,
) -> str:
    """Digest identifying one sweep's work items for checkpoint matching.

    Each schedule contributes its identity — period, channel set and
    its first ``_SPEC_PROBE_SLOTS`` slots — because periods alone do
    not tell pairs apart (every CRSEQ schedule at one ``n`` has the
    same period).  The environment digest is part of the spec too: a
    faulted sweep must never resume from a clean sweep's snapshot (or
    vice versa) — their first-meet frontiers describe different masks.
    """
    digest = hashlib.sha256()
    for schedule in (a, b):
        probe = schedule.channel_block(0, min(schedule.period, _SPEC_PROBE_SLOTS))
        digest.update(f"{schedule.period}|{sorted(schedule.channels)}|".encode())
        digest.update(np.ascontiguousarray(probe, dtype=np.int64).tobytes())
    digest.update(f"{horizon}|{environment_digest(environment)}|".encode())
    digest.update(np.ascontiguousarray(unique_pairs, dtype=np.int64).tobytes())
    return digest.hexdigest()[:32]


class _CheckpointRecorder:
    """Shared, lock-guarded sweep state behind one checkpoint sink.

    Owns the per-sign-group ``resolved`` / ``frontier`` arrays that a
    snapshot serializes.  ``update`` is called from the kernel at every
    time-block boundary; the lock makes each read-modify-save atomic,
    and blocks own disjoint rows, so updates never conflict on array
    contents, only on the save.
    """

    def __init__(
        self,
        sink: SweepCheckpoint,
        spec: str,
        sizes: dict[int, int],
        prior: dict | None,
    ):
        self._sink = sink
        self._spec = spec
        self._lock = threading.Lock()
        self._groups = {
            gid: {
                "resolved": np.full(size, _UNRESOLVED, dtype=np.int64),
                "frontier": np.zeros(size, dtype=np.int64),
            }
            for gid, size in sizes.items()
        }
        if prior is not None and prior.get("spec") == spec:
            for gid, size in sizes.items():
                stored = prior.get("groups", {}).get(str(gid))
                if not isinstance(stored, dict):
                    continue
                resolved = stored.get("resolved")
                frontier = stored.get("frontier")
                if (
                    isinstance(resolved, list)
                    and isinstance(frontier, list)
                    and len(resolved) == size
                    and len(frontier) == size
                ):
                    group = self._groups[gid]
                    group["resolved"] = np.asarray(resolved, dtype=np.int64)
                    group["frontier"] = np.asarray(frontier, dtype=np.int64)

    def seed(self, gid: int) -> tuple[np.ndarray, np.ndarray]:
        """Copies of one group's ``(resolved, frontier)`` resume state."""
        with self._lock:
            group = self._groups[gid]
            return group["resolved"].copy(), group["frontier"].copy()

    def update(
        self,
        gid: int,
        done_rows: np.ndarray,
        done_vals: np.ndarray,
        live_rows: np.ndarray,
        frontier: int,
    ) -> None:
        """Record one time-block boundary and snapshot it.

        ``done_rows`` retire with final values ``done_vals`` (TTR or
        ``-1`` miss); ``live_rows`` advance their frontier to
        ``frontier``.  Every call writes a snapshot through the sink.
        """
        with self._lock:
            group = self._groups[gid]
            if done_rows.size:
                group["resolved"][done_rows] = done_vals
            if live_rows.size:
                group["frontier"][live_rows] = frontier
            self._sink.save(self._serialize())

    def _serialize(self) -> dict:
        return {
            "spec": self._spec,
            "groups": {
                str(gid): {
                    "resolved": group["resolved"].tolist(),
                    "frontier": group["frontier"].tolist(),
                }
                for gid, group in sorted(self._groups.items())
            },
        }


def ttr_sweep(
    a: Schedule | np.ndarray,
    b: Schedule | np.ndarray,
    shifts: Iterable[int],
    horizon: int,
    plan: TilePlan | None = None,
    checkpoint: SweepCheckpoint | None = None,
    environment: Environment | None = None,
) -> dict[int, int | None]:
    """TTR for every relative shift, in one pass.

    Semantics are identical to calling
    :func:`repro.core.verification.ttr_for_shift` per shift: the result
    maps each shift to the first slot (counted from the later wake-up)
    where the schedules coincide, or ``None`` when no coincidence occurs
    within ``horizon`` slots.  A ``range`` of shifts stays lazy — it is
    never expanded to a list of Python ints — so an exhaustive sweep
    over :func:`~repro.core.verification.exhaustive_shift_range` pays
    only for its int64 offset ranks and the result dict.

    Joint periods up to :data:`SCALAR_JOINT_LIMIT` run the scalar loop;
    everything else — and every sweep with a ``checkpoint`` or a pinned
    ``plan`` — runs the blocked kernel described in the module
    docstring, which works at any period size.  ``plan`` pins a
    :class:`TilePlan` in place of the auto-tuned one (:func:`plan_tiles`);
    no plan changes a result.

    ``checkpoint`` attaches a :class:`SweepCheckpoint` sink: the kernel
    snapshots retired rows plus each live row's time frontier at block
    boundaries, and a rerun against an existing snapshot of the *same*
    sweep resumes instead of restarting — resumed profiles are
    bit-identical to uninterrupted ones.

    Either side may be a raw 1-D period array instead of a
    :class:`~repro.core.schedule.Schedule` — e.g. a read-only memmap
    attached from a :class:`~repro.core.store.ScheduleStore`.  An int64
    table is used as-is, never copied: the array *is* the period table,
    its length the period, and tiles are sliced straight off it.

    ``environment`` ANDs a deterministic per-slot validity mask
    (:mod:`repro.core.environment`) into every coincidence, on the TTR
    clock; its digest joins the checkpoint spec so faulted and clean
    sweeps never cross-resume, and an aperiodic mask disables the lcm
    early-stop (the scan then covers the caller's full horizon).
    """
    a = _coerce_schedule(a)
    b = _coerce_schedule(b)
    # A range stays lazy: it is zipped straight into the result and
    # reduced through ``np.arange``, never expanded to Python ints.
    if not isinstance(shifts, range):
        shifts = [int(s) for s in shifts]
    if not shifts:
        return {}
    if horizon <= 0:
        return {s: None for s in shifts}
    joint = math.lcm(a.period, b.period)
    effective = effective_horizon(horizon, joint, environment)
    telemetry.count("sweep.shifts", len(shifts))
    if joint <= SCALAR_JOINT_LIMIT and checkpoint is None and plan is None:
        # The joint pattern repeats every lcm slots, so capping the
        # scalar scan there preserves every answer (including misses) —
        # unless an aperiodic environment voids the argument, in which
        # case ``effective`` is the full horizon.
        telemetry.count("sweep.scalar")
        return _scalar_sweep(a, b, shifts, effective, environment)

    telemetry.count("sweep.kernel")
    with telemetry.span("stream.sweep"):
        with telemetry.span("stream.reduce"):
            unique_pairs, inverse = reduce_shifts(a, b, shifts)
        telemetry.count("sweep.classes", len(unique_pairs))
        # Each shift pins one side's offset to zero, so the sign groups
        # are profiled separately with the zero side as the broadcast row.
        ttrs = np.empty(len(unique_pairs), dtype=np.int64)
        negative = unique_pairs[:, 1] != 0
        recorder = None
        if checkpoint is not None:
            recorder = _CheckpointRecorder(
                checkpoint,
                _sweep_spec(a, b, unique_pairs, effective, environment),
                {0: int((~negative).sum()), 1: int(negative.sum())},
                checkpoint.load(),
            )
        groups = ((~negative, a, b, 0), (negative, b, a, 1))
        for gid, (group, var, fixed, column) in enumerate(groups):
            if not group.any():
                continue
            # Sorted and distinct: ``unique_pairs`` is in lexicographic
            # order and the other column is constant within a group.
            offsets = unique_pairs[group, column]
            group_plan = plan
            if group_plan is None:
                group_plan = plan_tiles(
                    offsets.size, effective,
                    contiguous=environment is None and _consecutive(offsets),
                )
            telemetry.gauge("sweep.block_rows", group_plan.block_rows)
            telemetry.gauge("sweep.tile_bytes", group_plan.tile_bytes)
            ttrs[group] = _scan_offsets(
                var, fixed, offsets, effective, group_plan,
                recorder=recorder, gid=gid, environment=environment,
            )
            # Free the group's offsets now: the next group's and the
            # result dict built by the scatter (the sweep's peak
            # memory) must not share the heap with them.
            del offsets
        with telemetry.span("stream.scatter"):
            return scatter_ttrs(shifts, ttrs, inverse)


def _scalar_sweep(
    a: Schedule,
    b: Schedule,
    shifts: Sequence[int],
    horizon: int,
    environment: Environment | None = None,
) -> dict[int, int | None]:
    """The scalar reference loop, one :func:`ttr_for_shift` per shift."""
    from repro.core.verification import ttr_for_shift

    with telemetry.span("scalar.sweep"):
        return {
            s: ttr_for_shift(a, b, s, horizon, environment=environment)
            for s in shifts
        }


def reduce_shifts(
    a: Schedule, b: Schedule, shifts: Sequence[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Collapse shifts to their distinct phase-offset pairs.

    A shift only enters the coincidence comparison through the offset
    pair ``(s mod period_A, 0)`` (``s >= 0``) or ``(0, -s mod
    period_B)`` (``s < 0``), so the distinct pairs are the real work
    items.  Returns ``(unique_pairs, inverse)`` with ``unique_pairs``
    in lexicographic order and ``inverse`` mapping each input shift to
    its row in ``unique_pairs``.

    One offset of every pair is zero, so a pair's lexicographic rank
    fits one int64 — ``off_b`` when ``off_a == 0``, else
    ``period_B - 1 + off_a`` — and the dedup is one 1-D sort of ranks
    rather than a sort of structured rows.  ``shifts`` may be a list,
    an int array or a ``range`` (expanded by ``np.arange``, never
    through Python ints).

    A positive-step ``range`` inside the window ``[-(period_B - 1),
    period_A - 1]`` (every sub-range of
    :func:`~repro.core.verification.exhaustive_shift_range`) needs no
    sort: each of its shifts is its own class, with rank ``-s`` for
    ``s <= 0`` and ``period_B - 1 + s`` above, so the ranks fall, then
    rise along the range, and the sorted classes are the non-positive
    part reversed followed by the positive part.
    """
    if isinstance(shifts, range):
        arr = np.arange(shifts.start, shifts.stop, shifts.step, dtype=np.int64)
        if shifts.step > 0 and shifts and (
            -b.period < shifts[0] and shifts[-1] < a.period
        ):
            return _reduce_window_range(arr)
    else:
        arr = np.asarray(shifts, dtype=np.int64)
    off_a = np.where(arr >= 0, arr, 0) % a.period
    off_b = np.where(arr < 0, -arr, 0) % b.period
    rank = np.where(off_a > 0, off_a + (b.period - 1), off_b)
    ranks, inverse = np.unique(rank, return_inverse=True)
    unique_pairs = np.zeros((ranks.size, 2), dtype=np.int64)
    upper = ranks >= b.period
    unique_pairs[upper, 0] = ranks[upper] - (b.period - 1)
    unique_pairs[~upper, 1] = ranks[~upper]
    return unique_pairs, inverse


def _reduce_window_range(arr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`reduce_shifts` of ascending distinct in-window shifts.

    The first ``m`` shifts (``s <= 0``) are the classes ``(0, -s)``,
    sorted by reversing them; the rest are ``(s, 0)``, already sorted.
    """
    m = int(np.searchsorted(arr, 0, side="right"))
    unique_pairs = np.zeros((arr.size, 2), dtype=np.int64)
    unique_pairs[:m, 1] = -arr[:m][::-1]
    unique_pairs[m:, 0] = arr[m:]
    inverse = np.arange(arr.size, dtype=np.intp)
    inverse[:m] = np.arange(m - 1, -1, -1)
    return unique_pairs, inverse


def scatter_ttrs(
    shifts: Sequence[int], ttrs: np.ndarray, inverse: np.ndarray
) -> dict[int, int | None]:
    """Scatter per-offset-pair TTRs back to the caller's shifts.

    The inverse of :func:`reduce_shifts`: ``ttrs[i]`` is the answer for
    ``unique_pairs[i]`` with ``-1`` marking a miss, and the result maps
    every input shift to its ``int`` TTR or ``None``.
    """
    scattered = ttrs[inverse]
    values = scattered.tolist()
    for i in np.flatnonzero(scattered < 0).tolist():
        values[i] = None
    return dict(zip(shifts, values))


def _coerce_schedule(x: Schedule | np.ndarray) -> Schedule:
    """Shared raw-array adapter (see :func:`repro.core.store.coerce_schedule`)."""
    from repro.core.store import coerce_schedule

    return coerce_schedule(x)


def _consecutive(offsets: np.ndarray) -> bool:
    """Whether sorted, distinct ``offsets`` form one run ``lo .. lo + n - 1``."""
    return int(offsets[-1]) - int(offsets[0]) + 1 == offsets.size


def _narrow(values: np.ndarray) -> np.ndarray:
    """``values`` as int16 when every one fits, otherwise unchanged.

    Tiles only compare channel ids for equality, so a narrower dtype
    changes no answer — as long as no id is cast that does not fit:
    the range check guarantees two distinct ids never alias, and a
    mixed int16/int64 compare is promoted by numpy.
    """
    if _INT16.min <= values.min() and values.max() <= _INT16.max:
        return values.astype(np.int16, copy=False)
    return values


class _FixedRowCache:
    """Bounded memo of the fixed side's ``(t0, t1)`` channel rows.

    Every shift block walks the same early time windows before its
    retirement schedule diverges, so the rows are shared across blocks.
    The budget (in cells, whatever the dtype) keeps late, rare,
    per-block-unique windows from accumulating.  Rows are narrowed
    like tile chunks (:func:`_narrow`).
    """

    __slots__ = ("_schedule", "_budget", "_rows", "_cached_cells")

    def __init__(self, schedule: Schedule, budget_cells: int):
        self._schedule = schedule
        self._budget = budget_cells
        self._rows: dict[tuple[int, int], np.ndarray] = {}
        self._cached_cells = 0

    def row(self, t0: int, t1: int) -> np.ndarray:
        """The fixed side's channels over ``[t0, t1)``, memoized."""
        row = self._rows.get((t0, t1))
        if row is None:
            row = _narrow(np.asarray(self._schedule.channel_block(t0, t1)))
            if self._cached_cells + row.size <= self._budget:
                self._rows[(t0, t1)] = row
                self._cached_cells += row.size
        return row


def _sparse(offsets: np.ndarray, width: int) -> bool:
    """Whether sorted, distinct ``offsets`` span more slots than their
    ``(rows, width)`` tile holds — too far apart to share one chunk."""
    return int(offsets[-1]) - int(offsets[0]) + width > offsets.size * width


def _gather_tile(
    schedule: Schedule, offsets: np.ndarray, t0: int, width: int, sparse: bool
) -> tuple[np.ndarray, int]:
    """Rows ``schedule[(off + t0) .. (off + t0 + width))`` per offset.

    ``offsets`` must be sorted ascending and distinct, and ``sparse``
    is :func:`_sparse` of them at this ``width``.  Close offsets share
    one contiguous chunk, generated, narrowed (:func:`_narrow`), and
    viewed through ``sliding_window_view``: consecutive offsets *are*
    that view, with no copy; other close offsets fancy-index it, which
    copies.  Sparse blocks assemble the whole ``(rows, width)`` index
    matrix and fetch it in a single vectorized ``channel_gather`` call
    instead of one Python call per row.

    Returns the tile and the bytes built for it: the chunk for a view,
    the copy or the gathered array otherwise.
    """
    if not sparse:
        base = int(offsets[0])
        span = int(offsets[-1]) - base + width
        chunk = _narrow(
            np.asarray(schedule.channel_block(base + t0, base + t0 + span))
        )
        windows = sliding_window_view(chunk, width)
        if _consecutive(offsets):
            return windows, chunk.nbytes
        tile = windows[offsets - base]
        return tile, tile.nbytes
    starts = offsets[:, np.newaxis] + t0
    window = np.arange(width, dtype=np.int64)[np.newaxis, :]
    tile = np.asarray(schedule.channel_gather(starts + window))
    return tile, tile.nbytes


def _scan_block(
    var: Schedule,
    offsets: np.ndarray,
    block: np.ndarray,
    horizon: int,
    tile_bytes: int,
    fixed_rows: _FixedRowCache,
    result: np.ndarray,
    start: int = 0,
    recorder: _CheckpointRecorder | None = None,
    gid: int = 0,
    environment: Environment | None = None,
) -> None:
    """The first-meet kernel: scan one independent shift block.

    ``block`` holds indices into ``offsets``/``result`` (ascending by
    offset); the scan writes only those rows of ``result``, so blocks
    compose in any order.  Per row: geometric
    time-block growth, first-meet retirement, ``-1`` for a miss.
    ``start`` is the resume cursor — slots before it were already
    scanned hit-free for every row of the block — and ``recorder``
    (with its sign-group id ``gid``) receives retirements and frontier
    advances at every time-block boundary.  ``environment`` ANDs its
    validity mask into each tile's compare (channels from the varying
    side, slots on the TTR clock).

    Each tile's width is ``tile_bytes`` over what one slot of the tile
    allocates.  A view tile with no environment allocates a one-byte
    compare mask per row plus about 8 bytes of the int64 chunk it
    views, and is capped by the larger of the two; a gathered tile, or
    one the environment's hash mask covers, is budgeted at 8 bytes per
    row.  A sparse tile is then narrowed to :data:`_SPARSE_TILE_BYTES`,
    whatever ``tile_bytes`` allows.
    """
    remaining = block
    t0 = start
    length = _INITIAL_TIME_BLOCK
    while t0 < horizon and remaining.size:
        live = offsets[remaining]
        if environment is None and _consecutive(live):
            slot_bytes = max(remaining.size, _BYTES_PER_CELL)
        else:
            slot_bytes = remaining.size * _BYTES_PER_CELL
        length = min(length, max(1, tile_bytes // slot_bytes))
        width = min(length, horizon - t0)
        # Narrowing cannot make a sparse tile dense: the span test
        # ``d > (rows - 1) * width`` only gets easier as width shrinks.
        sparse = _sparse(live, width)
        if sparse:
            width = min(width, max(1, _SPARSE_TILE_BYTES // slot_bytes))
        t1 = t0 + width
        with telemetry.span("stream.tile_assembly") as tile_span:
            rows, built = _gather_tile(var, live, t0, width, sparse)
            fixed_row = fixed_rows.row(t0, t1)
            tile_span.add_bytes(built)
        with telemetry.span("stream.compare"):
            eq = rows == fixed_row[np.newaxis, :]
        if environment is not None:
            with telemetry.span("stream.mask"):
                eq &= environment.slot_mask(rows, np.arange(t0, t1, dtype=np.int64))
        with telemetry.span("stream.retire"):
            # A row's argmax is its first hit, or 0 when it has none.
            first = eq.argmax(axis=1)
            hit = eq[np.arange(first.size), first]
            hit_rows = remaining[hit]
            if hit_rows.size:
                result[hit_rows] = t0 + first[hit]
                remaining = remaining[~hit]
        t0 = t1
        if recorder is not None:
            recorder.update(gid, hit_rows, result[hit_rows], remaining, t0)
        # Survivors are the slow rows: widen the window so the scan
        # finishes in O(log horizon) passes within the budget.
        length *= 2
    if recorder is not None and remaining.size:
        # Rows that reached the horizon hit-free are certified misses.
        recorder.update(gid, remaining, result[remaining], remaining[:0], horizon)


def _scan_offsets(
    var: Schedule,
    fixed: Schedule,
    offsets: np.ndarray,
    horizon: int,
    plan: TilePlan,
    recorder: _CheckpointRecorder | None = None,
    gid: int = 0,
    environment: Environment | None = None,
) -> np.ndarray:
    """First-coincidence slot per offset, one sign group of a sweep.

    ``var`` is the schedule whose phase varies per shift (windows start
    at ``offset``), ``fixed`` the one pinned at phase zero; ``-1``
    marks a miss within ``horizon``.  The sorted offset order is cut
    into ``plan.block_rows``-wide blocks; each block runs the kernel
    independently and writes its own disjoint result rows.

    With a ``recorder``, rows the checkpoint already resolved are
    answered from it and excluded from the scan; the surviving rows
    re-block freely and each block resumes from the smallest frontier
    among its rows — a row is never rescanned past its own first meet,
    so resumed results stay bit-identical.
    """
    num = offsets.size
    result = np.full(num, -1, dtype=np.int64)
    if num == 0:
        return result
    starts = np.zeros(num, dtype=np.int64)
    pending = np.ones(num, dtype=bool)
    if recorder is not None:
        resolved, frontier = recorder.seed(gid)
        done = resolved != _UNRESOLVED
        result[done] = resolved[done]
        pending = ~done
        starts = frontier
    # Ascending by offset so each tile's rows gather from one
    # near-contiguous chunk when possible.
    order = np.argsort(offsets, kind="stable")
    order = order[pending[order]]
    if order.size == 0:
        return result
    fixed_rows = _FixedRowCache(fixed, plan.cells)
    for lo in range(0, order.size, plan.block_rows):
        block = order[lo : lo + plan.block_rows]
        _scan_block(
            var, offsets, block, horizon, plan.tile_bytes, fixed_rows, result,
            int(starts[block].min()), recorder, gid, environment,
        )
    return result
