"""Shared-memory schedule store for multi-process sweeps.

The only schedule data expensive to rebuild is DRDS's global sequence:
``45 n^2 + 8n`` slots per universe size, built by a construction that
takes seconds at ``n = 64`` and is shared by every channel set (each
agent's schedule projects it).  Every other per-set schedule, DRDS's
projections included, is cheap to build in-process, and the sweep
kernel reads its rows on demand through ``channel_block`` /
``channel_gather``.

:class:`ScheduleStore` therefore keeps one kind of record: the global
DRDS sequence, one per ``n``, as a numpy ``.npy`` file under a store
directory, handed out as a *read-only memmap*.  Workers attach by path —
a file open plus an mmap, not a rebuild — and the OS page cache shares
the physical pages across every process on the machine.

Contracts
---------
* ``get`` builds every per-set schedule in-process: ``drds`` over
  :meth:`ScheduleStore.global_sequence`, everything else through
  :func:`build_plain`.  Answers are identical to the no-store path.
* ``builds`` / ``attaches`` / ``evictions`` count global-sequence
  records: stored after a build, attached from disk, evicted.
* A record's digest folds in the digest of the source that builds it
  (:func:`~repro.core.blobs.source_digest` of ``baselines/drds.py``),
  so a changed construction misses instead of attaching a stale
  sequence.
* Storage follows :mod:`repro.core.blobs`: a ``.json`` sidecar, then
  the ``.npy`` sequence as the marker; ``memory_cap`` bounds every byte
  on disk, evicting least-recently-attached records first;
  ``read_roots`` let several hosts share one warm corpus while each
  writes only its own primary root.  A sequence longer than
  ``STORE_PERIOD_LIMIT``, or too large for the cap, stays in-process.

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
from repro.core.blobs import BlobStore, source_digest
from repro.core.schedule import _CACHE_LIMIT, Schedule

__all__ = [
    "ScheduleStore",
    "StoredSchedule",
    "store_key",
    "sequence_digest",
    "build_plain",
    "coerce_schedule",
    "DEFAULT_MEMORY_CAP",
    "STORE_PERIOD_LIMIT",
    "GLOBAL_SEQUENCE_ALGORITHM",
]

#: Default cap on the bytes a store keeps on disk.
DEFAULT_MEMORY_CAP = 1 << 30

#: Longest global sequence (slots) the store will write.  Shares the
#: schedule cache limit.
STORE_PERIOD_LIMIT = _CACHE_LIMIT

#: Name recorded in the sidecar of a stored global DRDS sequence.
GLOBAL_SEQUENCE_ALGORITHM = "drds-global"

#: The package source that builds the global DRDS sequence.
_SEQUENCE_SOURCE = "baselines/drds.py"


def store_key(
    channels: Iterable[int], n: int, algorithm: str, seed: int = 0
) -> tuple[frozenset[int], int, str, int]:
    """Canonical schedule cache key, used by ``SweepRunner``.

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


def sequence_digest(n: int) -> str:
    """Stable 16-hex-digit name of the stored global sequence for ``n``.

    Folds in the digest of the source that builds the sequence, so an
    edited construction names a new record.
    """
    text = f"{GLOBAL_SEQUENCE_ALGORITHM}|n={n}|source={source_digest(_SEQUENCE_SOURCE)}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build_plain(
    channels: Iterable[int], n: int, algorithm: str, seed: int = 0
) -> Schedule:
    """Build a schedule directly, with no store involved.

    The no-store path of ``SweepRunner`` and the store's path for every
    algorithm but ``drds`` — one place that knows how to turn a cache
    key back into a live schedule (the paper's constructions via
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

    Wraps a period array — a plain array or a read-only memmap; any 1-D
    integer array works — and ``period_table()`` returns the wrapped
    array itself (int64 input is used as-is; other dtypes are
    converted, which copies, once at construction).  This is the
    adapter :func:`repro.core.stream.ttr_sweep` uses to accept raw
    arrays in place of schedule objects; when ``channels`` is not
    supplied it is derived lazily from the table, so sweep-only
    wrappers never scan it.
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
        slices; for a memmap that means the sweep kernel's tiles read
        straight off disk (the OS page cache shares the pages across
        processes).  Windows that wrap fall back to one modular gather.
        """
        if stop < start:
            raise ValueError(f"empty window: start={start}, stop={stop}")
        lo = start % self.period
        if lo + (stop - start) <= self.period:
            return self._table[lo : lo + (stop - start)]
        indices = np.arange(start, stop, dtype=np.int64) % self.period
        return self._table[indices]

    def channel_gather(self, indices: np.ndarray) -> np.ndarray:
        """One fancy index into the wrapped table — for a memmap the
        touched pages come straight off disk (or the shared OS page
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
    period array (e.g. a memmap), and a raw array becomes a
    :class:`StoredSchedule` view over it — int64 input is never copied.
    """
    if isinstance(x, Schedule):
        return x
    return StoredSchedule(x)


class ScheduleStore:
    """Build-once, attach-many store of global DRDS sequences.

    A view over one :class:`~repro.core.blobs.BlobStore` rooted at
    ``store_dir``: each record is a ``<digest>.json`` metadata sidecar
    plus the ``<digest>.npy`` sequence, its marker.  ``memory_cap``
    bounds every byte on disk, sidecars and ``.npy`` headers included.
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
        self.evictions = 0
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
        """Build one agent's schedule in-process.

        ``drds`` projects the store's global sequence for ``n`` (see
        :meth:`global_sequence`); every other algorithm is
        :func:`build_plain`.  Nothing per set is read or written.
        """
        if algorithm == "drds":
            from repro.baselines.drds import DRDSSchedule

            return DRDSSchedule(channels, n, global_sequence=self.global_sequence(n))
        return build_plain(channels, n, algorithm, seed)

    def global_sequence(self, n: int) -> np.ndarray:
        """The global DRDS channel sequence for universe ``n``, shared.

        Attached read-only when a root holds it; otherwise built, stored
        and attached.  Remembered per store instance, so each ``n`` is
        looked up once.  A sequence that cannot be stored (longer than
        ``STORE_PERIOD_LIMIT`` or larger than the cap) is kept
        in-process and counted nowhere.
        """
        cached = self._globals.get(n)
        if cached is not None:
            return cached
        digest = sequence_digest(n)
        sequence = self._blobs.read(digest, _attach)
        if sequence is not None:
            self._bump("attaches")
        else:
            from repro.baselines.drds import build_global_sequence

            sequence = np.ascontiguousarray(build_global_sequence(n), dtype=np.int64)
            if sequence.size <= STORE_PERIOD_LIMIT and self._put(digest, n, sequence):
                self._bump("builds")
                # None: evicted by a concurrent process in the
                # write-to-attach window; the built array is still right.
                attached = self._blobs.read(digest, _attach)
                if attached is not None:
                    sequence = attached
        self._globals[n] = sequence
        return sequence

    def contains(self, n: int) -> bool:
        """Whether any root holds the global sequence for universe ``n``."""
        return self._blobs.exists(sequence_digest(n))

    # -- inspection ------------------------------------------------------

    def entries(self) -> list[dict]:
        """Metadata of every primary-root record, least-recently-attached first.

        Each entry carries its sidecar's keys (``algorithm``, ``n``,
        ``period`` and ``source`` for a record this code writes), plus
        ``digest``, ``nbytes`` (bytes on disk), ``last_used`` (the
        ``.npy`` file's mtime, refreshed on every attach) and ``live``:
        whether it is the global sequence of its ``n`` under today's
        source, the one record kind a lookup reads.  A stale record
        (an older format, or a sequence an edited ``baselines/drds.py``
        no longer builds) is read by nothing until the cap or
        :meth:`evict` removes it.
        """
        rows = []
        for digest, nbytes, last_used in self._blobs.lru():
            try:
                meta = json.loads(self._blobs.path(digest, ".json").read_bytes())
            except (OSError, ValueError):
                continue
            if not isinstance(meta, dict):
                continue
            n = meta.get("n")
            meta.update(
                digest=digest,
                nbytes=nbytes,
                last_used=last_used,
                live=meta.get("algorithm") == GLOBAL_SEQUENCE_ALGORITHM
                and isinstance(n, int)
                and digest == sequence_digest(n),
            )
            rows.append(meta)
        return rows

    def total_bytes(self) -> int:
        """Bytes on disk in the primary root: sequences, headers and sidecars."""
        return self._blobs.usage()[1]

    def stats(self) -> dict[str, int]:
        """Counter snapshot: builds, attaches, evictions, entries, bytes."""
        entries, total_bytes = self._blobs.usage()
        return {
            "builds": self.builds,
            "attaches": self.attaches,
            "evictions": self.evictions,
            "entries": entries,
            "total_bytes": total_bytes,
        }

    # -- eviction --------------------------------------------------------

    def evict(self, digest: str) -> bool:
        """Drop one primary-root record by digest; returns whether it existed.

        Leftovers of a killed write go too.  Attached memmaps stay valid
        (the mapping holds the pages); only later lookups rebuild.
        """
        existed = self._blobs.evict(digest)
        if existed:
            self._bump("evictions")
        return existed

    def clear(self) -> int:
        """Evict every record and leftover; returns how many records were dropped."""
        return sum(self.evict(digest) for digest in self._blobs.scan())

    # -- internals -------------------------------------------------------

    def _put(self, digest: str, n: int, sequence: np.ndarray) -> bool:
        """Store one sequence and its sidecar; False if it can never fit the cap.

        The cap counts the bytes the files will take: the sidecar, the
        ``.npy`` header and the sequence itself.
        """
        meta = json.dumps(
            {"digest": digest, "algorithm": GLOBAL_SEQUENCE_ALGORITHM, "n": n,
             "period": int(sequence.size), "source": source_digest(_SEQUENCE_SOURCE)},
            indent=2,
        ).encode()
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, np.lib.format.header_data_from_array_1_0(sequence)
        )
        evicted = self._blobs.put(
            digest,
            len(meta) + header.tell() + sequence.nbytes,
            {
                ".json": lambda handle: handle.write(meta),
                ".npy": lambda handle: np.save(handle, sequence),
            },
        )
        if evicted:
            self._bump("evictions", evicted)
        return evicted is not None


def _attach(path: Path) -> np.ndarray:
    """mmap one stored sequence read-only."""
    return np.load(path, mmap_mode="r")
