"""Tests for the shared-memory schedule store."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro
from repro.core.blobs import SHARD_PREFIX_LEN
from repro.core.stream import ttr_sweep
from repro.core.store import (
    STORE_PERIOD_LIMIT,
    ScheduleStore,
    StoredSchedule,
    key_digest,
    store_key,
)


def _attach_probe(payload: tuple) -> tuple:
    """Worker-side probe: attach from the store and describe the view."""
    store_dir, channels, n, algorithm = payload
    store = ScheduleStore(store_dir)
    schedule = store.get(channels, n, algorithm)
    table = schedule.period_table()
    return (
        isinstance(table, np.memmap),
        getattr(table, "filename", None),
        bool(table.flags.writeable),
        store.builds,
        store.attaches,
        int(table[:16].sum()),
    )


class TestStoreKey:
    def test_deterministic_algorithms_collapse_seed(self):
        assert store_key([1, 2], 8, "drds", 5) == store_key([2, 1], 8, "drds", 9)

    def test_random_keeps_seed(self):
        assert store_key([1, 2], 8, "random", 5) != store_key([1, 2], 8, "random", 9)

    def test_digest_separates_algorithms_seeds_universes_sets(self):
        # Cache-key collisions would silently serve one algorithm's
        # table to another: every axis must change the digest.
        digests = {
            key_digest(store_key(*spec))
            for spec in (
                ([1, 2], 8, "drds", 0),
                ([1, 2], 8, "crseq", 0),
                ([1, 2], 16, "drds", 0),
                ([1, 3], 8, "drds", 0),
                ([1, 2], 8, "random", 0),
                ([1, 2], 8, "random", 1),
            )
        }
        assert len(digests) == 6


class TestStoredSchedule:
    def test_wraps_without_copy(self):
        table = np.array([3, 1, 4, 1, 5], dtype=np.int64)
        schedule = StoredSchedule(table)
        assert schedule.period_table() is table
        assert schedule.period == 5
        assert schedule.channels == {1, 3, 4, 5}
        assert schedule.channel_at(7) == 4

    def test_rejects_empty_and_2d(self):
        with pytest.raises(ValueError):
            StoredSchedule(np.empty(0, dtype=np.int64))
        with pytest.raises(ValueError):
            StoredSchedule(np.zeros((2, 2), dtype=np.int64))


class TestScheduleStore:
    def test_build_then_attach(self, tmp_path):
        store = ScheduleStore(tmp_path)
        first = store.get([1, 5, 9], 16, "drds")
        second = store.get([1, 5, 9], 16, "drds")
        assert (store.builds, store.attaches) == (1, 1)
        assert np.array_equal(first.period_table(), second.period_table())

    def test_attach_is_readonly_memmap_of_store_file(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.get([1, 5], 16, "crseq")
        attached = store.get([1, 5], 16, "crseq")
        table = attached.period_table()
        assert isinstance(table, np.memmap)
        assert not table.flags.writeable
        digest = key_digest(store_key([1, 5], 16, "crseq"))
        shard = tmp_path / digest[:SHARD_PREFIX_LEN]
        assert str(table.filename) == str(shard / f"{digest}.npy")
        with pytest.raises(ValueError):
            table[0] = 99

    def test_tables_match_plain_builds(self, tmp_path):
        store = ScheduleStore(tmp_path)
        for algorithm in ("paper", "crseq", "drds", "zos"):
            stored = store.get([2, 7, 11], 16, algorithm)
            plain = repro.build_schedule([2, 7, 11], 16, algorithm=algorithm)
            assert stored.period == plain.period, algorithm
            assert np.array_equal(
                stored.period_table(), plain.period_table()
            ), algorithm

    def test_random_entries_keyed_by_seed(self, tmp_path):
        store = ScheduleStore(tmp_path)
        a = store.get([1, 2], 8, "random", seed=0)
        b = store.get([1, 2], 8, "random", seed=1)
        assert store.builds == 2
        assert not np.array_equal(a.period_table(), b.period_table())

    def test_ttr_sweep_parity_with_plain_schedules(self, tmp_path):
        store = ScheduleStore(tmp_path)
        a = store.get([1, 5, 9], 16, "drds")
        b = store.get([5, 12], 16, "drds")
        plain_a = repro.build_schedule([1, 5, 9], 16, algorithm="drds")
        plain_b = repro.build_schedule([5, 12], 16, algorithm="drds")
        shifts = range(-40, 40)
        expected = ttr_sweep(plain_a, plain_b, shifts, 50_000)
        assert ttr_sweep(a, b, shifts, 50_000) == expected
        # Raw arrays (the externally-owned-table path) behave the same.
        assert ttr_sweep(a.period_table(), b.period_table(), shifts, 50_000) == expected

    def test_build_schedule_store_passthrough(self, tmp_path):
        store = ScheduleStore(tmp_path)
        schedule = repro.build_schedule([1, 5], 16, algorithm="crseq", store=store)
        assert isinstance(schedule, StoredSchedule)
        assert store.builds == 1
        again = repro.build_schedule([1, 5], 16, algorithm="crseq", store=store)
        assert store.attaches == 1
        assert np.array_equal(schedule.period_table(), again.period_table())

    def test_eviction_under_memory_cap(self, tmp_path):
        # crseq at n=16: period 3*17^2 = 867 slots = 6936 bytes/table.
        store = ScheduleStore(tmp_path, memory_cap=15_000)
        store.get([1, 2], 16, "crseq")
        store.get([3, 4], 16, "crseq")
        assert len(store.entries()) == 2
        store.get([5, 6], 16, "crseq")  # exceeds the cap: evict the LRU
        assert store.evictions == 1
        assert len(store.entries()) == 2
        assert store.total_bytes() <= 15_000
        assert not store.contains([1, 2], 16, "crseq")
        assert store.contains([5, 6], 16, "crseq")

    def test_attach_refreshes_lru_position(self, tmp_path):
        store = ScheduleStore(tmp_path, memory_cap=15_000)
        store.get([1, 2], 16, "crseq")
        store.get([3, 4], 16, "crseq")
        store.get([1, 2], 16, "crseq")  # attach: now most recently used
        store.get([5, 6], 16, "crseq")
        assert store.contains([1, 2], 16, "crseq")
        assert not store.contains([3, 4], 16, "crseq")

    def test_oversized_table_bypasses_store(self, tmp_path):
        store = ScheduleStore(tmp_path, memory_cap=1_000)
        schedule = store.get([1, 2], 16, "crseq")  # 6936 bytes > cap
        assert store.bypasses == 1
        assert store.builds == 0
        assert len(store.entries()) == 0
        assert not isinstance(schedule, StoredSchedule)
        assert schedule.period == 867

    def test_overlong_period_is_never_materialized(self, tmp_path, monkeypatch):
        import repro.core.store as store_module

        monkeypatch.setattr(store_module, "STORE_PERIOD_LIMIT", 100)
        store = ScheduleStore(tmp_path)
        schedule = store.get([1, 2], 16, "crseq")  # period 867 > 100
        assert store.bypasses == 1
        assert not schedule.has_warm_table()
        assert store.entries() == []

    def test_period_limit_is_schedule_cache_limit(self):
        from repro.core.schedule import _CACHE_LIMIT

        assert STORE_PERIOD_LIMIT == _CACHE_LIMIT

    def test_evict_and_clear(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.get([1, 2], 16, "crseq")
        store.get([3, 4], 16, "crseq")
        digest = key_digest(store_key([1, 2], 16, "crseq"))
        assert store.evict(digest)
        assert not store.evict(digest)
        assert store.clear() == 1
        assert store.entries() == []

    def test_stats_snapshot(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.get([1, 2], 16, "crseq")
        store.get([1, 2], 16, "crseq")
        stats = store.stats()
        assert stats["builds"] == 1
        assert stats["attaches"] == 1
        assert stats["entries"] == 1
        # Every byte on disk counts: the table, its .npy header, the sidecar.
        on_disk = sum(p.stat().st_size for p in tmp_path.rglob("*") if p.is_file())
        assert stats["total_bytes"] == on_disk > 867 * 8

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            ScheduleStore(tmp_path, memory_cap=0)

    def test_concurrent_eviction_falls_through_to_build(self, tmp_path, monkeypatch):
        # TOCTOU: another process may evict between the existence check
        # and the open — the attach must fall through to a rebuild, not
        # kill the sweep.
        store = ScheduleStore(tmp_path)
        store.get([1, 2], 16, "crseq")
        real_load = np.load

        def vanished(*args, **kwargs):
            monkeypatch.setattr(np, "load", real_load)  # only the first open
            raise FileNotFoundError("evicted concurrently")

        monkeypatch.setattr(np, "load", vanished)
        schedule = store.get([1, 2], 16, "crseq")
        assert schedule.period == 867
        assert store.builds == 2  # rebuilt instead of raising


class TestShardedLayout:
    def test_tables_land_in_digest_prefix_subdirs(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.get([1, 5], 16, "crseq")
        digest = key_digest(store_key([1, 5], 16, "crseq"))
        shard = tmp_path / digest[:SHARD_PREFIX_LEN]
        assert (shard / f"{digest}.npy").exists()
        assert (shard / f"{digest}.json").exists()
        assert not (tmp_path / f"{digest}.npy").exists()
        assert [m["digest"] for m in store.entries()] == [digest]

    def test_read_roots_attach_without_building(self, tmp_path):
        warm = ScheduleStore(tmp_path / "warm")
        corpus = warm.get([1, 5], 16, "crseq")
        local = ScheduleStore(tmp_path / "local", read_roots=[tmp_path / "warm"])
        attached = local.get([1, 5], 16, "crseq")
        assert (local.builds, local.attaches) == (0, 1)
        assert np.array_equal(attached.period_table(), corpus.period_table())
        # Read roots are lookup-only: nothing was copied or promoted
        # into the primary root, and entries() does not list them.
        assert local.entries() == []
        # A miss everywhere builds into the *primary* root only.
        local.get([3, 4], 16, "crseq")
        assert local.builds == 1
        assert not warm.contains([3, 4], 16, "crseq")
        assert local.contains([3, 4], 16, "crseq")

    def test_attach_survives_failed_lru_touch(self, tmp_path, monkeypatch):
        # Read-only roots (NFS corpus) reject the utime that refreshes
        # the LRU position; the successful mmap must stand regardless.
        import os as _os

        store = ScheduleStore(tmp_path)
        store.get([1, 5], 16, "crseq")

        def denied(*args, **kwargs):
            raise PermissionError("read-only root")

        monkeypatch.setattr(_os, "utime", denied)
        attached = store.get([1, 5], 16, "crseq")
        assert isinstance(attached.period_table(), np.memmap)
        assert (store.builds, store.attaches) == (1, 1)

    def test_shared_directory_attach_updates_lru_for_all_stores(self, tmp_path):
        # Two processes (modeled as two stores) share one directory.
        # B's attach of the oldest entry must register as recency for
        # A's later eviction pass — the LRU lives in the files, not in
        # either store's memory.
        a = ScheduleStore(tmp_path, memory_cap=15_000)  # fits two tables
        a.get([1, 2], 16, "crseq")
        a.get([3, 4], 16, "crseq")
        b = ScheduleStore(tmp_path, memory_cap=15_000)
        b.get([1, 2], 16, "crseq")  # attach: [1,2] is now globally warm
        a.get([5, 6], 16, "crseq")  # A must evict [3,4], not B's [1,2]
        assert a.contains([1, 2], 16, "crseq")
        assert not a.contains([3, 4], 16, "crseq")


class TestCrossProcess:
    def test_workers_attach_same_file_without_building(self, tmp_path):
        # The whole point of the store: a table built once in this
        # process is *attached* by other processes as a read-only memmap
        # of the same file — never copied, never rebuilt.
        store = ScheduleStore(tmp_path)
        parent = store.get([1, 5, 9], 32, "drds")
        assert store.builds == 1
        payload = (str(tmp_path), (1, 5, 9), 32, "drds")
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            results = list(pool.map(_attach_probe, [payload] * 2))
        parent_table = parent.period_table()
        for is_memmap, filename, writeable, builds, attaches, checksum in results:
            assert is_memmap, "worker view must be a memmap, not a copy"
            assert str(filename) == str(parent_table.filename), "same backing file"
            assert not writeable
            assert builds == 0, "workers must never rebuild a stored table"
            assert attaches == 1
            assert checksum == int(parent_table[:16].sum())
