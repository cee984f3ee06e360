"""The storage layer under both persistent stores.

:class:`~repro.core.store.ScheduleStore` and
:class:`~repro.core.results.ResultStore` are thin views over one
:class:`BlobStore`.  A *record* is a set of files named by its digest,
``<root>/<digest[:2]>/<digest><suffix>``:

* **marker rule** — the last suffix is the record's *marker*, written
  after the other files, so a record exists exactly when its marker
  does.  A killed write leaves the old record or none; its leftovers
  count on disk and are evicted first.
* **atomic files** — every file goes through :func:`atomic_write`, and
  no write touches another record's file, so concurrent writers never
  lose one another's records.
* **one byte cap** — ``memory_cap`` bounds every byte of the primary
  root; a write first evicts least-recently-used records (marker mtime,
  refreshed on every read) until it fits.
* **read roots** — searched after the primary; never written, evicted
  or listed.

Capacity and listings come from :meth:`BlobStore.scan`, one stat-only
``os.scandir`` pass: a few microseconds per stored record, paid on
every write and every ``stats()``.

:func:`source_digest` names the code behind a record: a key that folds
it in changes when that code does.  Like the rest of this module it
imports no numpy.
"""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from collections.abc import Callable, Iterable, Mapping
from pathlib import Path
from typing import BinaryIO, TypeVar

__all__ = ["BlobStore", "atomic_write", "source_digest", "SHARD_PREFIX_LEN"]

#: Hex digits of the digest that name a record's shard directory: at
#: most 256 directories, so no one listing grows unbounded.
SHARD_PREFIX_LEN = 2

_T = TypeVar("_T")

#: The ``repro`` package directory, against which source names resolve.
_PACKAGE_ROOT = Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def source_digest(*names: str) -> str:
    """16-hex-digit digest of the named package source files.

    ``names`` are paths relative to the ``repro`` package, e.g.
    ``source_digest("baselines/drds.py")``; each file's name and bytes
    are hashed in the order given.  Memoized per process: the files are
    read once.
    """
    digest = hashlib.sha256()
    for name in names:
        digest.update(name.encode() + b"\0")
        digest.update((_PACKAGE_ROOT / name).read_bytes())
    return digest.hexdigest()[:16]


def atomic_write(path: Path, write: Callable[[BinaryIO], object]) -> None:
    """Replace ``path`` with the bytes ``write(handle)`` produces.

    The bytes go to a ``*.tmp`` file beside ``path`` that ``os.replace``
    renames over it, so readers see the old file or the new one, never
    a torn one.  A failed write removes its temp file and re-raises.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp, path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise


def _listdir(path: str | os.PathLike) -> list[os.DirEntry]:
    """Entries of one directory; none once it is gone."""
    try:
        with os.scandir(path) as entries:
            return list(entries)
    except FileNotFoundError:
        return []


class BlobStore:
    """Digest-named records in one primary root plus read-only roots.

    ``root`` (created if missing) is the only root written, evicted,
    listed and capped.  ``suffixes`` are a record's file suffixes in
    write order, the marker last.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        suffixes: Iterable[str],
        memory_cap: int,
        read_roots: Iterable[str | os.PathLike] = (),
    ):
        if memory_cap <= 0:
            raise ValueError(f"memory_cap must be positive, got {memory_cap}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.suffixes = tuple(suffixes)
        self.marker = self.suffixes[-1]
        self.memory_cap = int(memory_cap)
        self.read_roots = tuple(Path(r) for r in read_roots)

    def path(self, digest: str, suffix: str, root: Path | None = None) -> Path:
        """Where one file of a record lives (the primary root by default)."""
        base = self.root if root is None else root
        return base / digest[:SHARD_PREFIX_LEN] / f"{digest}{suffix}"

    def exists(self, digest: str) -> bool:
        """Whether any root holds the record, i.e. its marker file."""
        return any(
            self.path(digest, self.marker, root).exists()
            for root in (self.root, *self.read_roots)
        )

    def read(self, digest: str, load: Callable[[Path], _T]) -> _T | None:
        """``load`` the record's marker from the first root that has it.

        A marker that is absent, vanishes mid-read (a concurrent
        eviction) or fails to parse falls through to the next root;
        ``None`` when no root holds a readable record.  A read refreshes
        the marker's mtime (the LRU position); on a read-only root that
        fails and the read still stands.
        """
        for root in (self.root, *self.read_roots):
            path = self.path(digest, self.marker, root)
            try:
                value = load(path)
            except (OSError, ValueError):
                continue
            try:
                os.utime(path)
            except OSError:
                pass
            return value
        return None

    def put(
        self,
        digest: str,
        nbytes: int,
        writes: Mapping[str, Callable[[BinaryIO], object]],
    ) -> int | None:
        """Store one record whose files take ``nbytes`` on disk.

        ``writes`` maps each suffix to a function writing that file to a
        binary handle.  First evicts leftovers, then least-recently-used
        records, until the root fits ``memory_cap`` with this record in
        it (its own old files are replaced, so they do not count).
        Returns how many records were evicted, or ``None``, writing
        nothing, when the record exceeds the cap.
        """
        if nbytes > self.memory_cap:
            return None
        records = self.scan()
        records.pop(digest, None)
        excess = sum(size for size, _ in records.values()) + nbytes - self.memory_cap
        evicted = 0
        if excess > 0:
            for victim in _lru_order(records):
                if excess <= 0:
                    break
                evicted += self.evict(victim)
                excess -= records[victim][0]
        for suffix in self.suffixes:
            atomic_write(self.path(digest, suffix), writes[suffix])
        return evicted

    def evict(self, digest: str) -> bool:
        """Delete every primary-root file of ``digest``, leftovers included.

        The marker goes first, so the record vanishes at once.  Returns
        whether a record (a marker) existed.
        """
        try:
            self.path(digest, self.marker).unlink()
            existed = True
        except FileNotFoundError:
            existed = False
        for suffix in self.suffixes[:-1]:
            self.path(digest, suffix).unlink(missing_ok=True)
        return existed

    def clear(self) -> int:
        """Evict every record and leftover; returns how many records there were."""
        return sum(self.evict(digest) for digest in self.scan())

    def scan(self) -> dict[str, list]:
        """``{digest: [bytes on disk, marker mtime or None]}`` of the primary root.

        Stats every record file and reads none.  ``None`` marks the
        leftovers of a killed write.  Files matching no suffix, such as
        the ``*.tmp`` files of writes in flight, are skipped.
        """
        records: dict[str, list] = {}
        for shard in _listdir(self.root):
            if len(shard.name) != SHARD_PREFIX_LEN or not shard.is_dir():
                continue
            for entry in _listdir(shard.path):
                digest, dot, rest = entry.name.partition(".")
                suffix = dot + rest
                if suffix not in self.suffixes:
                    continue
                try:
                    stat = entry.stat()
                except FileNotFoundError:  # evicted mid-scan
                    continue
                record = records.setdefault(digest, [0, None])
                record[0] += stat.st_size
                if suffix == self.marker:
                    record[1] = stat.st_mtime
        return records

    def usage(self) -> tuple[int, int]:
        """``(records, bytes on disk)`` of the primary root, leftovers included."""
        records = self.scan().values()
        return (
            sum(mtime is not None for _, mtime in records),
            sum(size for size, _ in records),
        )

    def lru(self) -> list[tuple[str, int, float]]:
        """``(digest, bytes, last_used)`` of every record, least recently used first."""
        records = self.scan()
        return [
            (digest, records[digest][0], records[digest][1])
            for digest in _lru_order(records)
            if records[digest][1] is not None
        ]


def _lru_order(records: dict[str, list]) -> list[str]:
    """Digests in eviction order: leftovers first, then oldest marker mtime."""
    return sorted(
        records,
        key=lambda digest: (records[digest][1] is not None, records[digest][1] or 0.0),
    )
