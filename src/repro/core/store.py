"""Shared-memory schedule store for multi-process sweeps.

The Table-1 regime the paper cares about (worst-case TTR growing
superlinearly in the universe size ``n``) is exactly where period
tables get expensive: DRDS's global sequence spans ``45 n^2 + 8n``
slots, and materializing it (:meth:`~repro.core.schedule.Schedule.period_table`)
costs a full pass over the period.

:class:`ScheduleStore` materializes each distinct
``(channels, n, algorithm, seed)`` period table **exactly once** into a
numpy ``.npy`` file under a store directory, and hands out *read-only
memmap views* of it.  The key is the same cache key ``SweepRunner``
already uses (:func:`store_key`: the seed collapses to ``-1`` for every
deterministic algorithm), so a store can front any sweep without
changing its semantics.  Workers attach by path — a file open plus an
mmap, not a rebuild — and the OS page cache shares the physical pages
across every process on the machine.

Contracts
---------
* ``get`` returns a :class:`StoredSchedule` whose ``period_table()`` is
  the memmap itself — never a copy, and read-only.
* ``builds`` / ``attaches`` / ``bypasses`` / ``evictions`` count what
  actually happened; benches assert "built exactly once per sweep"
  against ``builds``.
* Storage follows :mod:`repro.core.blobs`: a ``.json`` sidecar, then
  the ``.npy`` table as the marker; ``memory_cap`` bounds every byte on
  disk, evicting least-recently-attached tables first; ``read_roots``
  let several hosts share one warm corpus while each writes only its
  own primary root.  Tables whose period exceeds
  ``STORE_PERIOD_LIMIT``, or that would not fit under the cap at all,
  bypass the store as ordinary in-process schedules.
* The *global* DRDS sequence (one per universe size, shared by every
  channel set) is stored once as its own entry
  (:data:`GLOBAL_SEQUENCE_ALGORITHM`) and per-set DRDS tables are
  built by projecting the attached memmap — counted separately in
  ``global_builds`` / ``global_attaches``.

See ``docs/ARCHITECTURE.md`` for where the store sits in the data flow
and ``docs/API.md`` for the call-level reference.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from repro.core import telemetry
from repro.core.blobs import BlobStore
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
]

#: Default cap on the bytes a store keeps on disk.
DEFAULT_MEMORY_CAP = 1 << 30

#: Largest period (slots) the store will materialize.  Shares the
#: schedule cache limit: beyond it no period table is ever built, and
#: the sweep kernel generates such schedules' tiles on demand.
STORE_PERIOD_LIMIT = _CACHE_LIMIT

#: Pseudo-algorithm name under which the global DRDS sequence (one per
#: universe size, independent of any channel set) is stored.
GLOBAL_SEQUENCE_ALGORITHM = "drds-global"


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

    A view over one :class:`~repro.core.blobs.BlobStore` rooted at
    ``store_dir``: each table is a ``<digest>.json`` metadata sidecar
    plus the ``<digest>.npy`` table, its marker.  ``memory_cap`` bounds
    every byte on disk, sidecars and ``.npy`` headers included.
    ``read_roots`` are searched when the primary misses (say, a
    read-only NFS corpus); builds always land in the primary root.
    """

    def __init__(
        self,
        store_dir: str | os.PathLike,
        memory_cap: int = DEFAULT_MEMORY_CAP,
        read_roots: Iterable[str | os.PathLike] = (),
    ):
        self._blobs = BlobStore(store_dir, (".json", ".npy"), memory_cap, read_roots)
        self.store_dir = self._blobs.root
        self.read_roots = self._blobs.read_roots
        self.memory_cap = self._blobs.memory_cap
        self.builds = 0
        self.attaches = 0
        self.bypasses = 0
        self.evictions = 0
        self.global_builds = 0
        self.global_attaches = 0
        self._globals: dict[int, np.ndarray] = {}

    def _bump(self, name: str, delta: int = 1) -> None:
        """Increment one counter: the instance attribute stays the
        public per-store view, and the same event lands on the process
        telemetry registry under ``store.schedule.<name>`` so one
        :func:`repro.core.telemetry.snapshot` covers every store."""
        setattr(self, name, getattr(self, name) + delta)
        telemetry.count(f"store.schedule.{name}", delta)

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
        in-process schedule, counted in ``bypasses``.  A table evicted
        by another process between lookup and attach is rebuilt.
        """
        key = store_key(channels, n, algorithm, seed)
        digest = key_digest(key)
        table = self._blobs.read(digest, _attach)
        if table is not None:
            self._bump("attaches")
            return StoredSchedule(table, key[0])
        schedule = self._build_for_store(key[0], n, algorithm, seed)
        # The period check comes first: an overlong period is never
        # materialized.
        if schedule.period > STORE_PERIOD_LIMIT or not self._put(
            digest, key, schedule.period_table()
        ):
            self._bump("bypasses")
            return schedule
        self._bump("builds")
        table = self._blobs.read(digest, _attach)
        # None: evicted by a concurrent process in the write-to-attach
        # window; the in-process schedule is still correct.
        return schedule if table is None else StoredSchedule(table, key[0])

    def contains(
        self,
        channels: Iterable[int],
        n: int,
        algorithm: str,
        seed: int = 0,
    ) -> bool:
        """Whether the table for this key is stored in any root."""
        return self._blobs.exists(key_digest(store_key(channels, n, algorithm, seed)))

    def global_sequence(self, n: int) -> np.ndarray:
        """The global DRDS channel sequence for universe ``n``, shared.

        The ``45 n^2 + 8n``-slot sequence is *independent of any channel
        set*, so it is materialized once per universe size (under
        :data:`GLOBAL_SEQUENCE_ALGORITHM`) and attached read-only by
        every later caller; per-set ``drds`` tables project it.
        Counted in ``global_builds`` / ``global_attaches``, apart from
        the per-set counters.  A sequence that cannot be stored is
        built in-process; the per-set miss that needed it is the one
        ``bypasses`` event.
        """
        cached = self._globals.get(n)
        if cached is not None:
            return cached
        key = store_key((), n, GLOBAL_SEQUENCE_ALGORITHM)
        digest = key_digest(key)
        sequence = self._blobs.read(digest, _attach)
        if sequence is not None:
            self._bump("global_attaches")
        else:
            from repro.baselines.drds import build_global_sequence

            sequence = np.ascontiguousarray(build_global_sequence(n), dtype=np.int64)
            if sequence.size <= STORE_PERIOD_LIMIT and self._put(digest, key, sequence):
                self._bump("global_builds")
                attached = self._blobs.read(digest, _attach)
                if attached is not None:
                    sequence = attached
        self._globals[n] = sequence
        return sequence

    # -- inspection ------------------------------------------------------

    def entries(self) -> list[dict]:
        """Metadata of every primary-root table, least-recently-attached first.

        Each entry carries ``digest``, ``algorithm``, ``n``, ``seed``,
        ``channels`` and ``period`` from the sidecar, plus ``nbytes``
        (bytes on disk) and ``last_used`` (the table file's mtime,
        refreshed on every attach).
        """
        rows = []
        for digest, nbytes, last_used in self._blobs.lru():
            try:
                meta = json.loads(self._blobs.path(digest, ".json").read_bytes())
            except (OSError, ValueError):
                continue
            meta.update(digest=digest, nbytes=nbytes, last_used=last_used)
            rows.append(meta)
        return rows

    def total_bytes(self) -> int:
        """Bytes on disk in the primary root: tables, headers and sidecars."""
        return self._blobs.usage()[1]

    def stats(self) -> dict[str, int]:
        """Counter snapshot: builds, attaches, bypasses, evictions, entries, bytes.

        ``global_builds`` / ``global_attaches`` track the shared global
        DRDS sequence separately from the per-set table counters.
        """
        entries, total_bytes = self._blobs.usage()
        return {
            "builds": self.builds,
            "attaches": self.attaches,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
            "global_builds": self.global_builds,
            "global_attaches": self.global_attaches,
            "entries": entries,
            "total_bytes": total_bytes,
        }

    # -- eviction --------------------------------------------------------

    def evict(self, digest: str) -> bool:
        """Drop one primary-root table by digest; returns whether it existed.

        Leftovers of a killed write go too.  Attached memmaps stay valid
        (the mapping holds the pages); only future ``get`` calls rebuild.
        """
        existed = self._blobs.evict(digest)
        if existed:
            self._bump("evictions")
        return existed

    def clear(self) -> int:
        """Evict every table and leftover; returns how many tables were dropped."""
        return sum(self.evict(digest) for digest in self._blobs.scan())

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

    def _put(
        self,
        digest: str,
        key: tuple[frozenset[int], int, str, int],
        table: np.ndarray,
    ) -> bool:
        """Store one table and its sidecar; False if it can never fit the cap.

        The cap counts the bytes the files will take: the sidecar, the
        ``.npy`` header and the table itself.
        """
        channels, n, algorithm, seed = key
        table = np.ascontiguousarray(table, dtype=np.int64)
        meta = json.dumps(
            {"digest": digest, "algorithm": algorithm, "n": n, "seed": seed,
             "channels": sorted(channels), "period": int(table.size)},
            indent=2,
        ).encode()
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, np.lib.format.header_data_from_array_1_0(table)
        )
        evicted = self._blobs.put(
            digest,
            len(meta) + header.tell() + table.nbytes,
            {
                ".json": lambda handle: handle.write(meta),
                ".npy": lambda handle: np.save(handle, table),
            },
        )
        if evicted:
            self._bump("evictions", evicted)
        return evicted is not None


def _attach(path: Path) -> np.ndarray:
    """mmap one stored table read-only."""
    return np.load(path, mmap_mode="r")
