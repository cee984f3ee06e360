"""Tests for the shared-memory schedule store."""

from __future__ import annotations

import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import repro
from repro.baselines.drds import DRDSSchedule, build_global_sequence
from repro.cli import _ALGORITHMS
from repro.core.blobs import SHARD_PREFIX_LEN, source_digest
from repro.core.stream import ttr_sweep
from repro.core.store import (
    GLOBAL_SEQUENCE_ALGORITHM,
    STORE_PERIOD_LIMIT,
    ScheduleStore,
    StoredSchedule,
    build_plain,
    sequence_digest,
    store_key,
)


def _files(root) -> list:
    return sorted(p for p in root.rglob("*") if p.is_file())


def _attach_probe(payload: tuple) -> tuple:
    """Worker-side probe: attach from the store and describe the view."""
    store_dir, channels, n = payload
    store = ScheduleStore(store_dir)
    schedule = store.get(channels, n, "drds")
    sequence = store.global_sequence(n)
    return (
        isinstance(sequence, np.memmap),
        getattr(sequence, "filename", None),
        bool(sequence.flags.writeable),
        store.builds,
        store.attaches,
        int(schedule.channel_block(0, 16).sum()),
    )


class TestStoreKey:
    def test_deterministic_algorithms_collapse_seed(self):
        assert store_key([1, 2], 8, "drds", 5) == store_key([2, 1], 8, "drds", 9)

    def test_random_keeps_seed(self):
        assert store_key([1, 2], 8, "random", 5) != store_key([1, 2], 8, "random", 9)

    def test_sequence_digest_separates_universes_and_sources(self, monkeypatch):
        import repro.core.store as store_module

        digests = {sequence_digest(n) for n in (8, 9, 16, 128)}
        assert len(digests) == 4
        monkeypatch.setattr(store_module, "source_digest", lambda *names: "0" * 16)
        assert sequence_digest(16) not in digests


class TestSourceDigest:
    def test_digest_follows_file_bytes_and_names(self, tmp_path, monkeypatch):
        from repro.core import blobs

        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        monkeypatch.setattr(blobs, "_PACKAGE_ROOT", tmp_path)
        source_digest.cache_clear()
        try:
            first = source_digest("a.py")
            assert len(first) == 16
            # Same bytes under another name, and the pair, differ.
            assert source_digest("b.py") != first
            assert source_digest("a.py", "b.py") != first
            # Memoized: an edit shows in a fresh process, not this one.
            (tmp_path / "a.py").write_text("x = 2\n")
            assert source_digest("a.py") == first
            source_digest.cache_clear()
            assert source_digest("a.py") != first
        finally:
            source_digest.cache_clear()

    def test_imports_no_numpy(self):
        # The result cache will key by this digest on paths that must
        # not import numpy: load the module file on its own and check.
        import subprocess
        import sys

        from repro.core import blobs

        code = (
            "import importlib.util, sys\n"
            f"spec = importlib.util.spec_from_file_location('b', {blobs.__file__!r})\n"
            "module = importlib.util.module_from_spec(spec)\n"
            "spec.loader.exec_module(module)\n"
            "print(module.source_digest('baselines/drds.py'))\n"
            "assert 'numpy' not in sys.modules\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        ).stdout
        assert out.strip() == source_digest("baselines/drds.py")


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
        store.get([2, 7], 16, "drds")  # same n: the remembered sequence
        assert (store.builds, store.attaches) == (1, 0)
        fresh = ScheduleStore(tmp_path)
        second = fresh.get([1, 5, 9], 16, "drds")
        assert (fresh.builds, fresh.attaches) == (0, 1)
        assert np.array_equal(first.period_table(), second.period_table())

    def test_attach_is_readonly_memmap_of_store_file(self, tmp_path):
        ScheduleStore(tmp_path).global_sequence(16)
        sequence = ScheduleStore(tmp_path).global_sequence(16)
        assert isinstance(sequence, np.memmap)
        assert not sequence.flags.writeable
        digest = sequence_digest(16)
        shard = tmp_path / digest[:SHARD_PREFIX_LEN]
        assert str(sequence.filename) == str(shard / f"{digest}.npy")
        assert np.array_equal(sequence, build_global_sequence(16))
        with pytest.raises(ValueError):
            sequence[0] = 99

    def test_tables_match_plain_builds(self, tmp_path):
        # Every CLI algorithm: the store's schedule is the plain one,
        # in its period table and in a window that wraps the period.
        # Only drds leaves a record, one per n.
        store = ScheduleStore(tmp_path)
        for n in (16, 33):
            channels = [1, 5, 9, n - 2]
            for algorithm in _ALGORITHMS:
                stored = store.get(channels, n, algorithm, seed=3)
                plain = build_plain(channels, n, algorithm, seed=3)
                assert stored.period == plain.period, (algorithm, n)
                assert np.array_equal(
                    stored.period_table(), plain.period_table()
                ), (algorithm, n)
                start = plain.period - 7
                assert np.array_equal(
                    stored.channel_block(start, start + 40),
                    plain.channel_block(start, start + 40),
                ), (algorithm, n)
        assert sorted((m["algorithm"], m["n"]) for m in store.entries()) == [
            (GLOBAL_SEQUENCE_ALGORITHM, 16), (GLOBAL_SEQUENCE_ALGORITHM, 33),
        ]
        assert len(_files(tmp_path)) == 4  # two sidecars, two sequences

    def test_random_entries_keyed_by_seed(self, tmp_path):
        store = ScheduleStore(tmp_path)
        a = store.get([1, 2], 8, "random", seed=0)
        b = store.get([1, 2], 8, "random", seed=1)
        assert not np.array_equal(a.period_table(), b.period_table())
        assert np.array_equal(
            a.period_table(), build_plain([1, 2], 8, "random", 0).period_table()
        )
        assert store.entries() == []

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
        schedule = repro.build_schedule([1, 5], 16, algorithm="drds", store=store)
        assert isinstance(schedule, DRDSSchedule)
        assert store.builds == 1
        again = repro.build_schedule(
            [1, 5], 16, algorithm="drds", store=ScheduleStore(tmp_path)
        )
        plain = repro.build_schedule([1, 5], 16, algorithm="drds")
        assert np.array_equal(schedule.period_table(), plain.period_table())
        assert np.array_equal(again.period_table(), plain.period_table())
        crseq = repro.build_schedule([1, 5], 16, algorithm="crseq", store=store)
        assert crseq.period == 867
        assert store.builds == 1

    def test_eviction_under_memory_cap(self, tmp_path):
        # Sequences at n = 8, 9, 10: 23.6, 29.8 and 36.8 KB; the cap fits
        # the last two but not all three.
        store = ScheduleStore(tmp_path, memory_cap=70_000)
        store.global_sequence(8)
        store.global_sequence(9)
        assert len(store.entries()) == 2
        store.global_sequence(10)  # exceeds the cap: evict the LRU
        assert store.evictions == 1
        assert len(store.entries()) == 2
        assert store.total_bytes() <= 70_000
        assert not store.contains(8)
        assert store.contains(10)

    def test_attach_refreshes_lru_position(self, tmp_path):
        import os

        store = ScheduleStore(tmp_path, memory_cap=70_000)
        store.global_sequence(8)
        store.global_sequence(9)
        for age, n in enumerate((8, 9), start=1):
            digest = sequence_digest(n)
            os.utime(tmp_path / digest[:SHARD_PREFIX_LEN] / f"{digest}.npy", (age, age))
        ScheduleStore(tmp_path).global_sequence(8)  # attach: now most recent
        store.global_sequence(10)
        assert store.contains(8)
        assert not store.contains(9)

    def test_oversized_table_bypasses_store(self, tmp_path):
        store = ScheduleStore(tmp_path, memory_cap=1_000)
        schedule = store.get([1, 2], 16, "drds")  # 93 KB sequence > cap
        assert (store.builds, store.attaches) == (0, 0)
        assert _files(tmp_path) == []
        assert not isinstance(store.global_sequence(16), np.memmap)
        assert schedule.period == 11_648
        assert np.array_equal(
            schedule.period_table(),
            repro.build_schedule([1, 2], 16, algorithm="drds").period_table(),
        )

    def test_overlong_period_is_never_materialized(self, tmp_path, monkeypatch):
        import repro.core.store as store_module

        monkeypatch.setattr(store_module, "STORE_PERIOD_LIMIT", 100)
        store = ScheduleStore(tmp_path)
        schedule = store.get([1, 2], 16, "drds")  # period 11648 > 100
        assert store.builds == 0
        assert not schedule.has_warm_table()
        assert store.entries() == []

    def test_period_limit_is_schedule_cache_limit(self):
        from repro.core.schedule import _CACHE_LIMIT

        assert STORE_PERIOD_LIMIT == _CACHE_LIMIT

    def test_stats_snapshot(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.get([1, 2], 16, "drds")
        store.get([1, 2], 16, "crseq")
        ScheduleStore(tmp_path).global_sequence(16)
        stats = store.stats()
        assert stats == {
            "builds": 1,
            "attaches": 0,
            "evictions": 0,
            "entries": 1,
            "total_bytes": store.total_bytes(),
        }
        # Every byte on disk counts: the sequence, its .npy header, the sidecar.
        on_disk = sum(p.stat().st_size for p in _files(tmp_path))
        assert stats["total_bytes"] == on_disk > 11_648 * 8

    def test_concurrent_eviction_falls_through_to_build(self, tmp_path, monkeypatch):
        # TOCTOU: another process may evict between the existence check
        # and the open — the attach must fall through to a rebuild, not
        # kill the sweep.
        ScheduleStore(tmp_path).global_sequence(16)
        real_load = np.load

        def vanished(*args, **kwargs):
            monkeypatch.setattr(np, "load", real_load)  # only the first open
            raise FileNotFoundError("evicted concurrently")

        monkeypatch.setattr(np, "load", vanished)
        store = ScheduleStore(tmp_path)
        schedule = store.get([1, 2], 16, "drds")
        assert schedule.period == 11_648
        assert (store.builds, store.attaches) == (1, 0)  # rebuilt instead of raising

    def test_changed_source_misses_and_real_source_still_attaches(
        self, tmp_path, monkeypatch
    ):
        import repro.core.store as store_module

        ScheduleStore(tmp_path).global_sequence(16)
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "source_digest", lambda *names: "f" * 16)
            edited = ScheduleStore(tmp_path)
            edited.global_sequence(16)
            assert (edited.builds, edited.attaches) == (1, 0)
        real = ScheduleStore(tmp_path)
        real.global_sequence(16)
        assert (real.builds, real.attaches) == (0, 1)
        assert sorted(m["source"] for m in real.entries()) == sorted(
            ["f" * 16, source_digest("baselines/drds.py")]
        )


class TestStaleRecords:
    def _write(self, root, digest, meta, array) -> None:
        shard = root / digest[:SHARD_PREFIX_LEN]
        shard.mkdir(parents=True, exist_ok=True)
        (shard / f"{digest}.json").write_text(json.dumps(meta))
        np.save(shard / f"{digest}.npy", array)

    def test_entries_tell_stale_records_from_live(self, tmp_path, monkeypatch):
        import repro.core.store as store_module

        # A per-set period table in the format stores wrote before they
        # kept only global sequences.
        table = build_plain([1, 5], 16, "crseq").period_table()
        self._write(
            tmp_path,
            "0123456789abcdef",
            {"digest": "0123456789abcdef", "algorithm": "crseq", "n": 16,
             "seed": -1, "channels": [1, 5], "period": int(table.size)},
            table,
        )
        # A sidecar missing every key.
        self._write(tmp_path, "fedcba9876543210", {}, np.zeros(4, dtype=np.int64))
        # A global sequence stored under another source digest.
        with monkeypatch.context() as patch:
            patch.setattr(store_module, "source_digest", lambda *names: "f" * 16)
            old = sequence_digest(8)
            ScheduleStore(tmp_path).global_sequence(8)
        ScheduleStore(tmp_path).global_sequence(8)
        live = {m["digest"]: m["live"] for m in ScheduleStore(tmp_path).entries()}
        assert live == {
            "0123456789abcdef": False,
            "fedcba9876543210": False,
            old: False,
            sequence_digest(8): True,
        }


class TestShardedLayout:
    def test_tables_land_in_digest_prefix_subdirs(self, tmp_path):
        store = ScheduleStore(tmp_path)
        store.global_sequence(16)
        digest = sequence_digest(16)
        shard = tmp_path / digest[:SHARD_PREFIX_LEN]
        assert (shard / f"{digest}.npy").exists()
        assert (shard / f"{digest}.json").exists()
        assert not (tmp_path / f"{digest}.npy").exists()
        [entry] = store.entries()
        assert entry["digest"] == digest
        assert (entry["algorithm"], entry["n"], entry["period"]) == (
            GLOBAL_SEQUENCE_ALGORITHM, 16, 11_648
        )

    def test_read_roots_attach_without_building(self, tmp_path):
        warm = ScheduleStore(tmp_path / "warm")
        corpus = warm.get([1, 5], 16, "drds")
        local = ScheduleStore(tmp_path / "local", read_roots=[tmp_path / "warm"])
        attached = local.get([1, 5], 16, "drds")
        assert (local.builds, local.attaches) == (0, 1)
        assert np.array_equal(attached.period_table(), corpus.period_table())
        # Read roots are lookup-only: nothing was copied or promoted
        # into the primary root, and entries() does not list them.
        assert local.entries() == []
        # A miss everywhere builds into the *primary* root only.
        local.global_sequence(8)
        assert local.builds == 1
        assert not warm.contains(8)
        assert local.contains(8)


class TestCrossProcess:
    def test_workers_attach_same_file_without_building(self, tmp_path):
        # The whole point of the store: a sequence built once in this
        # process is *attached* by other processes as a read-only memmap
        # of the same file — never copied, never rebuilt.
        store = ScheduleStore(tmp_path)
        parent = store.get([1, 5, 9], 32, "drds")
        assert store.builds == 1
        sequence = store.global_sequence(32)
        payload = (str(tmp_path), (1, 5, 9), 32)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=2, mp_context=context) as pool:
            results = list(pool.map(_attach_probe, [payload] * 2))
        for is_memmap, filename, writeable, builds, attaches, checksum in results:
            assert is_memmap, "worker view must be a memmap, not a copy"
            assert str(filename) == str(sequence.filename), "same backing file"
            assert not writeable
            assert builds == 0, "workers must never rebuild a stored sequence"
            assert attaches == 1
            assert checksum == int(parent.channel_block(0, 16).sum())
