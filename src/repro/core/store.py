"""Shared-memory schedule store for multi-process sweeps.

The Table-1 regime the paper cares about (worst-case TTR growing
superlinearly in the universe size ``n``) is exactly where period
tables get expensive: DRDS's global sequence spans ``45 n^2 + 8n``
slots, and materializing it (:meth:`~repro.core.schedule.Schedule.period_table`)
costs a full pass over the period.  Before this module existed, every
:class:`~repro.sim.runner.SweepRunner` worker process rebuilt each
table it touched — the dominant cost of dense-universe sweeps
(``n = 128, 256``), since the sweep kernel itself is cheap per
pair.

:class:`ScheduleStore` materializes each distinct
``(channels, n, algorithm, seed)`` period table **exactly once** into a
numpy ``.npy`` file under a store directory, and hands out *read-only
memmap views* of it.  The key is the same cache key ``SweepRunner``
already uses (:func:`store_key`: the seed collapses to ``-1`` for every
deterministic algorithm), so a store can front any sweep without
changing its semantics.  Workers attach by path — attaching is a file
open plus an mmap, not a rebuild — and the OS page cache shares the
physical pages across every process on the machine.

Contracts
---------
* ``get`` returns a :class:`StoredSchedule` whose ``period_table()`` is
  the memmap itself — no copy is ever taken on the attach path, and the
  view is read-only (writing through it raises).
* ``builds`` / ``attaches`` / ``bypasses`` / ``evictions`` count what
  actually happened; benches assert "built exactly once per sweep"
  against ``builds``.
* The on-disk footprint is capped by ``memory_cap`` bytes: storing a
  new table evicts least-recently-attached entries first (mtime order).
  Tables whose period exceeds ``STORE_PERIOD_LIMIT`` — or that would
  not fit under the cap at all — bypass the store and come back as
  ordinary in-process schedules.
* Writes are atomic (temp file + ``os.replace``), so concurrent
  builders of the same key race benignly: last writer wins, both
  results are identical.
* The on-disk layout is **sharded**: tables live in digest-prefix
  subdirectories (``ab/<digest>.npy``) so no single directory listing
  grows unbounded, and legacy flat stores (``<digest>.npy`` in the
  root) keep attaching.  Extra ``read_roots`` form a multi-root read
  path — several hosts/processes can share one warm corpus (say, a
  read-only network mount) while each writes only its own primary
  root.
* The *global* DRDS sequence (one per universe size, shared by every
  channel set) is stored once as its own entry
  (:data:`GLOBAL_SEQUENCE_ALGORITHM`) and per-set DRDS tables are
  built by projecting the attached memmap — counted separately in
  ``global_builds`` / ``global_attaches`` so per-set "built exactly
  once" assertions keep their meaning.

See ``docs/ARCHITECTURE.md`` for where the store sits in the data flow
and ``docs/API.md`` for the call-level reference.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.core import telemetry
from repro.core.schedule import _CACHE_LIMIT, Schedule

__all__ = [
    "ScheduleStore",
    "StoredSchedule",
    "store_key",
    "key_digest",
    "build_plain",
    "coerce_schedule",
    "DEFAULT_MEMORY_CAP",
    "STORE_PERIOD_LIMIT",
    "GLOBAL_SEQUENCE_ALGORITHM",
    "SHARD_PREFIX_LEN",
]

#: Default cap on the total bytes of period tables kept in a store.
DEFAULT_MEMORY_CAP = 1 << 30

#: Largest period (slots) the store will materialize.  Shares the
#: schedule cache limit: beyond it no period table is ever built, and
#: the sweep kernel generates such schedules' tiles on demand.
STORE_PERIOD_LIMIT = _CACHE_LIMIT

#: Pseudo-algorithm name under which the global DRDS sequence (one per
#: universe size, independent of any channel set) is stored.
GLOBAL_SEQUENCE_ALGORITHM = "drds-global"

#: Hex digits of the digest that name a shard subdirectory.  Two digits
#: spread a large corpus over at most 256 directories, so no single
#: directory's listing grows unbounded — the layout several hosts can
#: rsync/NFS-share without directory-size pathologies.
SHARD_PREFIX_LEN = 2


def store_key(
    channels: Iterable[int], n: int, algorithm: str, seed: int = 0
) -> tuple[frozenset[int], int, str, int]:
    """Canonical schedule cache key, shared with ``SweepRunner``.

    Deterministic algorithms ignore the seed, so it collapses to ``-1``
    for everything except the randomized baseline — two agents with the
    same channel set share one entry under ``drds`` but keep separate
    tapes under ``random``.
    """
    return (
        frozenset(int(c) for c in channels),
        int(n),
        str(algorithm),
        int(seed) if algorithm == "random" else -1,
    )


def key_digest(key: tuple[frozenset[int], int, str, int]) -> str:
    """Stable 16-hex-digit digest of a :func:`store_key` — the filename stem."""
    channels, n, algorithm, seed = key
    text = f"{algorithm}|n={n}|seed={seed}|channels={sorted(channels)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_plain(
    channels: Iterable[int], n: int, algorithm: str, seed: int = 0
) -> Schedule:
    """Build a schedule directly, with no store involved.

    This is the store's miss path and the no-store path of
    ``SweepRunner`` — one place that knows how to turn a cache key back
    into a live schedule (the paper's constructions via
    :func:`repro.build_schedule`, the seeded randomized baseline via
    :func:`repro.baselines.build_baseline`).
    """
    if algorithm == "random":
        from repro.baselines import build_baseline

        return build_baseline(channels, n, "random", seed=seed)
    import repro

    return repro.build_schedule(channels, n, algorithm=algorithm)


class StoredSchedule(Schedule):
    """A schedule backed by an externally owned period table.

    Wraps a period array — typically a read-only memmap handed out by
    :class:`ScheduleStore`, but any 1-D integer array works — and
    ``period_table()`` returns the wrapped array itself (int64 input is
    used as-is; other dtypes are converted, which copies, once at
    construction).  This is also the adapter
    :func:`repro.core.stream.ttr_sweep` uses to accept raw arrays in
    place of schedule objects; when ``channels`` is not supplied it is
    derived lazily from the table, so sweep-only wrappers never scan it.
    """

    def __init__(
        self,
        table: np.ndarray,
        channels: frozenset[int] | None = None,
    ):
        table = np.atleast_1d(table)
        if table.ndim != 1 or table.size == 0:
            raise ValueError("period table must be a nonempty 1-D array")
        if table.dtype != np.int64:
            table = np.ascontiguousarray(table, dtype=np.int64)
        self._table = table
        self.period = int(table.size)
        self._channels = channels

    @property
    def channels(self) -> frozenset[int]:
        """Channels the table visits (computed on first access)."""
        if self._channels is None:
            self._channels = frozenset(int(c) for c in np.unique(self._table))
        return self._channels

    def channel_at(self, t: int) -> int:
        """Channel at local slot ``t`` — one read through the table."""
        return int(self._table[t % self.period])

    def channel_block(self, start: int, stop: int) -> np.ndarray:
        """Slice the wrapped table directly — a view when possible.

        Windows that stay inside one period come back as zero-copy
        slices; for a memmap attached from a :class:`ScheduleStore`
        that means the sweep kernel's tiles read straight off disk
        (the OS page cache shares the pages across processes).  Windows
        that wrap fall back to one modular gather.
        """
        if stop < start:
            raise ValueError(f"empty window: start={start}, stop={stop}")
        lo = start % self.period
        if lo + (stop - start) <= self.period:
            return self._table[lo : lo + (stop - start)]
        indices = np.arange(start, stop, dtype=np.int64) % self.period
        return self._table[indices]

    def channel_gather(self, indices: np.ndarray) -> np.ndarray:
        """One fancy index into the wrapped table — for a store memmap
        the touched pages come straight off disk (or the shared OS page
        cache), never the whole table."""
        indices = np.asarray(indices, dtype=np.int64)
        return self._table[indices % self.period]

    def has_warm_table(self) -> bool:
        """Always ``True``: the wrapped array *is* the period table."""
        return True

    def _period_array(self) -> np.ndarray:
        return self._table


def coerce_schedule(x: Schedule | np.ndarray) -> Schedule:
    """Wrap a raw period array as a schedule view; pass schedules through.

    The input adapter of :func:`repro.core.stream.ttr_sweep`: either
    side may be a :class:`~repro.core.schedule.Schedule` or a raw 1-D
    period array (e.g. a store memmap), and a raw array becomes a
    :class:`StoredSchedule` view over it — int64 input is never copied.
    """
    if isinstance(x, Schedule):
        return x
    return StoredSchedule(x)


class ScheduleStore:
    """Materialize-once, attach-many store of schedule period tables.

    Parameters
    ----------
    store_dir:
        Primary root.  Tables land in digest-prefix shard
        subdirectories (``<digest[:2]>/<digest>.npy`` plus a
        ``.json`` metadata sidecar); created if missing.  Handing the
        same path to another process (or another ``ScheduleStore``)
        attaches the same tables.  Pre-shard stores that kept
        ``<digest>.npy`` flat in the root keep working: the read path
        checks the sharded location first and falls back to the legacy
        flat one.
    memory_cap:
        Soft cap in bytes on the total size of stored tables; storing a
        table that would exceed it evicts least-recently-attached
        entries first.
    read_roots:
        Extra store roots searched (sharded layout, then legacy flat)
        when the primary misses — the multi-root read path that lets
        several hosts or jobs share one warm corpus (e.g. a read-only
        NFS mount) while writing locally.  Never written, never
        evicted, not listed by :meth:`entries`; builds always land in
        the primary root.
    """

    def __init__(
        self,
        store_dir: str | os.PathLike,
        memory_cap: int = DEFAULT_MEMORY_CAP,
        read_roots: Iterable[str | os.PathLike] = (),
    ):
        if memory_cap <= 0:
            raise ValueError(f"memory_cap must be positive, got {memory_cap}")
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.read_roots = tuple(Path(root) for root in read_roots)
        self.memory_cap = int(memory_cap)
        self.builds = 0
        self.attaches = 0
        self.bypasses = 0
        self.evictions = 0
        self.global_builds = 0
        self.global_attaches = 0
        self._globals: dict[int, np.ndarray] = {}

    def _bump(self, name: str) -> None:
        """Increment one counter: the instance attribute stays the
        public per-store view, and the same event lands on the process
        telemetry registry under ``store.schedule.<name>`` so one
        :func:`repro.core.telemetry.snapshot` covers every store."""
        setattr(self, name, getattr(self, name) + 1)
        telemetry.count(f"store.schedule.{name}")

    # -- lookup ----------------------------------------------------------

    def get(
        self,
        channels: Iterable[int],
        n: int,
        algorithm: str,
        seed: int = 0,
    ) -> Schedule:
        """Attach the stored table for this key, building it on first use.

        Returns a :class:`StoredSchedule` over a read-only memmap, or —
        when the table is too large to store (period above
        ``STORE_PERIOD_LIMIT`` or bigger than the whole cap) — a plain
        in-process schedule, counted in ``bypasses``.
        """
        key = store_key(channels, n, algorithm, seed)
        digest = key_digest(key)
        attached = self._try_attach(self._find_table(digest), key[0])
        if attached is not None:
            return attached

        schedule = self._build_for_store(key[0], n, algorithm, seed)
        if schedule.period > STORE_PERIOD_LIMIT:
            self._bump("bypasses")
            return schedule
        table = np.ascontiguousarray(schedule.period_table(), dtype=np.int64)
        if not self._ensure_capacity(table.nbytes):
            self._bump("bypasses")
            return schedule
        self._write(digest, key, table)
        self._bump("builds")
        attached = self._try_attach(self._table_path(digest), key[0], count=False)
        if attached is not None:
            return attached
        # Evicted by a concurrent process in the write-to-open window:
        # the in-process schedule is still correct.
        return schedule

    def contains(
        self,
        channels: Iterable[int],
        n: int,
        algorithm: str,
        seed: int = 0,
    ) -> bool:
        """Whether the table for this key is currently materialized.

        Checks the primary root (sharded and legacy flat layouts) and
        every extra read root.
        """
        return (
            self._find_table(key_digest(store_key(channels, n, algorithm, seed)))
            is not None
        )

    def global_sequence(self, n: int) -> np.ndarray:
        """The global DRDS channel sequence for universe ``n``, shared.

        The sequence spans ``45 n^2 + 8n`` slots and is *independent of
        any channel set*, so it is materialized into the store exactly
        once per universe size (as an entry under
        :data:`GLOBAL_SEQUENCE_ALGORITHM`) and attached read-only by
        every later caller — same store, another runner, another
        process.  The per-set ``drds`` tables built through ``get``
        project this shared memmap instead of rebuilding the sequence.

        Counted in ``global_builds`` / ``global_attaches``, separate
        from the per-set ``builds`` / ``attaches`` so sweeps' "built
        exactly once per distinct key" assertions keep their meaning.
        A sequence that cannot be stored (period or capacity limits)
        is built in-process; the per-set miss that needed it records
        the ``bypasses`` count, so one unstored schedule is one bypass.
        """
        cached = self._globals.get(n)
        if cached is not None:
            return cached
        key = store_key((), n, GLOBAL_SEQUENCE_ALGORITHM)
        digest = key_digest(key)
        attached = self._attach_array(self._find_table(digest))
        if attached is not None:
            self._bump("global_attaches")
            self._globals[n] = attached
            return attached
        from repro.baselines.drds import build_global_sequence

        sequence = np.ascontiguousarray(build_global_sequence(n), dtype=np.int64)
        if sequence.size > STORE_PERIOD_LIMIT or not self._ensure_capacity(
            sequence.nbytes
        ):
            # Not counted in `bypasses`: the per-set miss that needed
            # this sequence is the one bypass event (its table is
            # necessarily unstorable for the same reason).
            self._globals[n] = sequence
            return sequence
        self._write(digest, key, sequence)
        self._bump("global_builds")
        attached = self._attach_array(self._table_path(digest))
        self._globals[n] = sequence if attached is None else attached
        return self._globals[n]

    # -- inspection ------------------------------------------------------

    def entries(self) -> list[dict]:
        """Metadata of every stored table, least-recently-attached first.

        Each entry carries ``digest``, ``algorithm``, ``n``, ``seed``,
        ``channels``, ``period``, ``nbytes`` and ``last_used`` (the
        table file's mtime, refreshed on every attach).  Lists the
        *primary* root only — both the sharded layout and legacy flat
        files — since that is the capacity/eviction domain; extra read
        roots belong to whoever owns them.
        """
        rows = []
        meta_paths = sorted(self.store_dir.glob("*.json")) + sorted(
            self.store_dir.glob(f"{'[0-9a-f]' * SHARD_PREFIX_LEN}/*.json")
        )
        for meta_path in meta_paths:
            table_path = meta_path.with_suffix(".npy")
            if not table_path.exists():
                continue
            meta = json.loads(meta_path.read_text())
            meta["last_used"] = table_path.stat().st_mtime
            rows.append(meta)
        rows.sort(key=lambda m: m["last_used"])
        return rows

    def total_bytes(self) -> int:
        """Total size of all stored period tables, in bytes."""
        return sum(m["nbytes"] for m in self.entries())

    def stats(self) -> dict[str, int]:
        """Counter snapshot: builds, attaches, bypasses, evictions, entries, bytes.

        ``global_builds`` / ``global_attaches`` track the shared global
        DRDS sequence separately from the per-set table counters.
        """
        entries = self.entries()
        return {
            "builds": self.builds,
            "attaches": self.attaches,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
            "global_builds": self.global_builds,
            "global_attaches": self.global_attaches,
            "entries": len(entries),
            "total_bytes": sum(m["nbytes"] for m in entries),
        }

    # -- eviction --------------------------------------------------------

    def evict(self, digest: str) -> bool:
        """Drop one stored table by digest; returns whether it existed.

        Covers both the sharded and legacy flat layouts of the primary
        root; read roots are never touched.  Already-attached memmaps
        stay valid (the mapping holds the pages); only future ``get``
        calls rebuild.
        """
        existed = False
        for table_path in (
            self._table_path(digest),
            self.store_dir / f"{digest}.npy",
        ):
            if table_path.exists():
                existed = True
            table_path.unlink(missing_ok=True)
            table_path.with_suffix(".json").unlink(missing_ok=True)
        if existed:
            self._bump("evictions")
        return existed

    def clear(self) -> int:
        """Evict every stored table; returns how many were dropped."""
        count = 0
        for meta in self.entries():
            count += int(self.evict(meta["digest"]))
        return count

    # -- internals -------------------------------------------------------

    def _build_for_store(
        self, channels: frozenset[int], n: int, algorithm: str, seed: int
    ) -> Schedule:
        """The store's miss path: build one schedule for materialization.

        ``drds`` schedules are built over the store's shared global
        sequence (see :meth:`global_sequence`) so the expensive
        ``45 n^2 + 8n``-slot construction happens once per universe
        size, not once per channel set; everything else defers to
        :func:`build_plain`.
        """
        if algorithm == "drds":
            from repro.baselines.drds import DRDSSchedule

            return DRDSSchedule(channels, n, global_sequence=self.global_sequence(n))
        return build_plain(channels, n, algorithm, seed)

    def _attach_array(self, path: Path | None) -> np.ndarray | None:
        """mmap one stored table read-only, or None if it is (or just
        became) absent — a concurrent eviction between the existence
        check and the open must fall through to the build path, not
        raise."""
        if path is None or not path.exists():
            return None
        try:
            table = np.load(path, mmap_mode="r")
        except OSError:
            return None
        # Refresh the LRU position *after* the attach succeeded, and
        # tolerate failure separately: on a read-only root (or when a
        # concurrent eviction wins the race) the timestamp cannot be
        # updated, but the mapping is live and the attach stands —
        # discarding it here would silently rebuild a warm table.
        try:
            os.utime(path)
        except OSError:
            pass
        return table

    def _try_attach(
        self, path: Path | None, channels: frozenset[int], count: bool = True
    ) -> StoredSchedule | None:
        """Attach one per-set table as a schedule view; None if absent."""
        table = self._attach_array(path)
        if table is None:
            return None
        if count:
            self._bump("attaches")
        return StoredSchedule(table, channels)

    def _table_path(self, digest: str) -> Path:
        """Primary-root write location: the digest-prefix shard subdir."""
        return self.store_dir / digest[:SHARD_PREFIX_LEN] / f"{digest}.npy"

    def _meta_path(self, digest: str) -> Path:
        return self._table_path(digest).with_suffix(".json")

    def _find_table(self, digest: str) -> Path | None:
        """Locate one table across roots and layouts, or None.

        Search order: primary root sharded, primary root legacy flat,
        then each extra read root (sharded, then flat).  First match
        wins — a table promoted into the primary root shadows the same
        digest in any read root.
        """
        for root in (self.store_dir, *self.read_roots):
            for candidate in (
                root / digest[:SHARD_PREFIX_LEN] / f"{digest}.npy",
                root / f"{digest}.npy",
            ):
                if candidate.exists():
                    return candidate
        return None

    def _ensure_capacity(self, incoming: int) -> bool:
        """Make room for ``incoming`` bytes; False if it can never fit."""
        if incoming > self.memory_cap:
            return False
        entries = self.entries()  # least-recently-attached first
        total = sum(m["nbytes"] for m in entries)
        while total + incoming > self.memory_cap and entries:
            victim = entries.pop(0)
            if self.evict(victim["digest"]):
                total -= victim["nbytes"]
        return True

    def _write(
        self,
        digest: str,
        key: tuple[frozenset[int], int, str, int],
        table: np.ndarray,
    ) -> None:
        """Atomically persist one table and its metadata sidecar."""
        channels, n, algorithm, seed = key
        shard_dir = self._table_path(digest).parent
        shard_dir.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=shard_dir, suffix=".npy.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                np.save(handle, table)
            os.replace(tmp, self._table_path(digest))
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        meta = {
            "digest": digest,
            "algorithm": algorithm,
            "n": n,
            "seed": seed,
            "channels": sorted(channels),
            "period": int(table.size),
            "nbytes": int(table.nbytes),
        }
        fd, tmp = tempfile.mkstemp(dir=shard_dir, suffix=".json.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(meta, handle, indent=2)
            os.replace(tmp, self._meta_path(digest))
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
