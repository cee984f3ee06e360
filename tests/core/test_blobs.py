"""One contract suite for both persistent stores.

``ScheduleStore`` and ``ResultStore`` are views over one
:class:`repro.core.blobs.BlobStore`; every check here runs against both
views through the parametrized ``view`` fixture.  View-specific
behaviour (memmap attach, source-keyed digests, query digests,
environment keys) stays in ``test_store.py`` and ``test_results.py``.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.core import blobs
from repro.core.results import ResultStore, pair_query, result_digest
from repro.core.store import ScheduleStore, sequence_digest


class _ScheduleView:
    """Records are global DRDS sequences, one per universe size.

    Record ``i`` is the sequence for ``n = 2 + i``, so records grow
    with ``i``: the byte caps below are sums of the records they must
    hold.
    """

    marker = ".npy"
    sidecars = (".json",)
    writes_per_process = 10

    def open(self, root, **kwargs):
        return ScheduleStore(root, **kwargs)

    def digest(self, i):
        return sequence_digest(2 + i)

    def put(self, store, i):
        store.global_sequence(2 + i)

    def hit(self, store, i):
        """Read record ``i``; whether it came from storage.

        A store remembers the sequences it has handed out, so the read
        goes through a fresh view of the same roots.
        """
        fresh = ScheduleStore(
            store.store_dir, store.memory_cap, store.read_roots
        )
        sequence = fresh.global_sequence(2 + i)
        if fresh.attaches == 0:
            return False
        assert isinstance(sequence, np.memmap)
        return True

    def contains(self, store, i):
        return store.contains(2 + i)

    def evict(self, store, i):
        return store.evict(self.digest(i))


class _ResultView:
    """Records are measurements of same-length queries."""

    marker = ".json"
    sidecars = ()
    writes_per_process = 200

    def open(self, root, **kwargs):
        return ResultStore(root, **kwargs)

    def _query(self, i):
        return pair_query("zos", 64, [1, 5, 100 + i], [5, 12], 10_000, 64, 64, 0)

    def digest(self, i):
        return result_digest(self._query(i))

    def put(self, store, i):
        store.put(self._query(i), {"worst_ttr": 1000 + i})

    def hit(self, store, i):
        value = store.get(self._query(i))
        if value is None:
            return False
        assert value == {"worst_ttr": 1000 + i}
        return True

    def contains(self, store, i):
        return store.get(self._query(i)) is not None

    def evict(self, store, i):
        return store.invalidate(self._query(i))


@pytest.fixture(params=[_ScheduleView(), _ResultView()], ids=["schedule", "result"])
def view(request):
    return request.param


def _files(root: Path) -> list[Path]:
    return sorted(p for p in root.rglob("*") if p.is_file())


def _disk_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in _files(root))


def _record_bytes(view, scratch: Path, *indices: int) -> int:
    """Bytes the records ``indices`` take on disk together."""
    store = view.open(scratch)
    for i in indices:
        view.put(store, i)
    return _disk_bytes(scratch)


def _marker(view, root: Path, i: int) -> Path:
    digest = view.digest(i)
    return root / digest[: blobs.SHARD_PREFIX_LEN] / f"{digest}{view.marker}"


class TestContract:
    def test_records_persist_across_instances(self, view, tmp_path):
        view.put(view.open(tmp_path), 0)
        fresh = view.open(tmp_path)
        assert view.contains(fresh, 0)
        assert view.hit(fresh, 0)
        assert not view.contains(fresh, 1)

    def test_record_files_are_named_by_digest(self, view, tmp_path):
        view.put(view.open(tmp_path), 0)
        digest = view.digest(0)
        assert all(p.parent == tmp_path / digest[:2] for p in _files(tmp_path))
        assert all(p.name.startswith(digest) for p in _files(tmp_path))
        assert _marker(view, tmp_path, 0) in _files(tmp_path)

    def test_read_refreshes_lru_position(self, view, tmp_path):
        cap = _record_bytes(view, tmp_path / "probe", 0, 2)
        store = view.open(tmp_path / "store", memory_cap=cap)
        view.put(store, 0)
        view.put(store, 1)
        os.utime(_marker(view, tmp_path / "store", 0), (1, 1))
        os.utime(_marker(view, tmp_path / "store", 1), (2, 2))
        assert view.hit(store, 0)  # record 0 is now the most recent
        view.put(store, 2)
        assert store.evictions == 1
        assert view.contains(store, 0)
        assert not view.contains(store, 1)
        assert view.contains(store, 2)

    def test_read_stands_when_lru_touch_fails(self, view, tmp_path, monkeypatch):
        # A read-only root rejects the utime that refreshes the LRU
        # position; the read itself must still succeed.
        store = view.open(tmp_path)
        view.put(store, 0)

        def denied(*args, **kwargs):
            raise PermissionError("read-only root")

        monkeypatch.setattr(os, "utime", denied)
        assert view.hit(store, 0)

    def test_lru_is_shared_by_instances_on_one_directory(self, view, tmp_path):
        # The LRU lives in the files: B's read of the oldest record must
        # count as recency for A's next eviction.
        cap = _record_bytes(view, tmp_path / "probe", 0, 2)
        a = view.open(tmp_path / "store", memory_cap=cap)
        view.put(a, 0)
        view.put(a, 1)
        os.utime(_marker(view, tmp_path / "store", 0), (1, 1))
        os.utime(_marker(view, tmp_path / "store", 1), (2, 2))
        b = view.open(tmp_path / "store", memory_cap=cap)
        assert view.hit(b, 0)
        view.put(a, 2)
        assert view.contains(a, 0)
        assert not view.contains(a, 1)

    def test_cap_bounds_bytes_on_disk(self, view, tmp_path):
        cap = _record_bytes(view, tmp_path / "probe", 1, 2)
        root = tmp_path / "store"
        store = view.open(root, memory_cap=cap)
        view.put(store, 0)
        view.put(store, 1)
        assert store.evictions == 0
        assert store.total_bytes() == _disk_bytes(root) == _record_bytes(
            view, tmp_path / "pair", 0, 1
        )
        view.put(store, 2)
        assert store.evictions == 1
        assert store.total_bytes() == _disk_bytes(root) <= cap

    def test_record_larger_than_cap_is_not_stored(self, view, tmp_path):
        size = _record_bytes(view, tmp_path / "probe", 0)
        store = view.open(tmp_path / "store", memory_cap=size - 1)
        view.put(store, 0)
        assert not view.contains(store, 0)
        assert _files(tmp_path / "store") == []

    def test_evict_and_clear(self, view, tmp_path):
        store = view.open(tmp_path)
        for i in range(3):
            view.put(store, i)
        assert view.evict(store, 0)
        assert not view.evict(store, 0)
        assert not view.contains(store, 0)
        assert store.clear() == 2
        assert _files(tmp_path) == []
        assert store.stats()["entries"] == 0

    def test_stats_count_every_byte_and_no_temp_file(self, view, tmp_path):
        store = view.open(tmp_path)
        view.put(store, 0)
        view.put(store, 1)
        # A write in flight elsewhere: its temp file is not a record.
        shard = _marker(view, tmp_path, 0).parent
        (shard / "tmp1234.tmp").write_bytes(b"x" * 100)
        stats = store.stats()
        assert stats["entries"] == 2
        on_disk = _disk_bytes(tmp_path) - 100
        assert stats["total_bytes"] == store.total_bytes() == on_disk

    def test_dropped_store_is_freed_at_once(self, view, tmp_path):
        # No reference cycle keeps a view alive until the next garbage
        # collection, so the memmaps it holds unmap as soon as it goes.
        store = view.open(tmp_path)
        view.put(store, 0)
        ref = weakref.ref(store)
        gc.disable()
        try:
            del store
            assert ref() is None
        finally:
            gc.enable()

    def test_cap_must_be_positive(self, view, tmp_path):
        for cap in (0, -1):
            with pytest.raises(ValueError, match="memory_cap"):
                view.open(tmp_path, memory_cap=cap)

    def test_concurrent_writers_lose_nothing(self, view, tmp_path):
        count = view.writes_per_process

        def write(start):
            store = view.open(tmp_path)
            for i in range(start, start + count):
                view.put(store, i)

        context = multiprocessing.get_context("fork")
        writers = [
            context.Process(target=write, args=(w * count,)) for w in range(4)
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=120)
        assert not any(writer.is_alive() for writer in writers)
        assert [writer.exitcode for writer in writers] == [0] * 4
        store = view.open(tmp_path)
        assert store.stats()["entries"] == 4 * count
        assert all(view.contains(store, i) for i in range(4 * count))

    def test_killed_write_leaves_old_record_or_none(self, view, tmp_path, monkeypatch):
        real_write = blobs.atomic_write
        killed = []

        def dying_marker_write(path, write):
            if path.name.endswith(view.marker) and not killed:
                killed.append(path)
                # The marker is written last: the other files are down.
                stem = path.name[: -len(view.marker)]
                assert all((path.parent / (stem + s)).exists() for s in view.sidecars)

                def torn(handle):
                    handle.write(b"torn")
                    raise OSError("killed mid-write")

                return real_write(path, torn)
            return real_write(path, write)

        cap = _record_bytes(view, tmp_path / "probe", 0, 2)
        root = tmp_path / "store"
        store = view.open(root, memory_cap=cap)
        view.put(store, 0)
        monkeypatch.setattr(blobs, "atomic_write", dying_marker_write)
        with pytest.raises(OSError, match="killed"):
            view.put(store, 1)
        assert killed
        assert view.hit(store, 0)
        assert not view.contains(store, 1)
        # Leftovers of the killed write are on the books, and only they.
        assert store.total_bytes() == _disk_bytes(root)
        assert store.stats()["entries"] == 1
        # Under the cap, the leftover goes before any record.
        os.utime(_marker(view, root, 0), (1, 1))
        view.put(store, 2)
        assert store.evictions == 0
        assert view.contains(store, 0) and view.contains(store, 2)
        assert store.total_bytes() == _disk_bytes(root) == cap
        # clear() removes a leftover too.
        roomy = view.open(root)
        killed.clear()
        with pytest.raises(OSError, match="killed"):
            view.put(roomy, 3)
        assert roomy.clear() == 2
        assert _files(root) == []


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "sub" / "f.bin"
        blobs.atomic_write(path, lambda handle: handle.write(b"old"))
        blobs.atomic_write(path, lambda handle: handle.write(b"new"))
        assert path.read_bytes() == b"new"
        assert _files(tmp_path) == [path]

    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "f.bin"
        blobs.atomic_write(path, lambda handle: handle.write(b"old"))

        def torn(handle):
            handle.write(b"partial")
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            blobs.atomic_write(path, torn)
        assert path.read_bytes() == b"old"
        assert _files(tmp_path) == [path]
