"""Tests for the persistent result cache."""

from __future__ import annotations

import json

import pytest

from repro.core.blobs import SHARD_PREFIX_LEN
from repro.core.results import (
    DEFAULT_RESULT_CAP,
    ResultStore,
    pair_query,
    result_digest,
)


def _query(tag: int = 0, algorithm: str = "drds") -> dict:
    return pair_query(algorithm, 64, [1, 5, tag + 9], [5, 12], 10_000, 64, 64, 0)


def _value(tag: int = 0) -> dict:
    return {"worst_ttr": 100 + tag, "stats": {"count": 128, "mean": 7.5 + tag}}


class TestQueryDigest:
    def test_query_canonicalizes_channel_order(self):
        scrambled = pair_query("drds", 64, [9, 1, 5], [12, 5], 10_000, 64, 64, 0)
        assert scrambled == _query()
        assert result_digest(scrambled) == result_digest(_query())

    def test_digest_ignores_key_insertion_order(self):
        reversed_keys = dict(reversed(list(_query().items())))
        assert result_digest(reversed_keys) == result_digest(_query())

    def test_every_axis_changes_the_digest(self):
        base = _query()
        variants = [
            dict(base, algorithm="zos"),
            dict(base, n=128),
            dict(base, set_a=[1, 5]),
            dict(base, set_b=[5, 13]),
            dict(base, horizon=20_000),
            dict(base, dense=32),
            dict(base, probes=32),
            dict(base, seed=1),
        ]
        digests = {result_digest(q) for q in [base, *variants]}
        assert len(digests) == len(variants) + 1


class TestResultStore:
    def test_miss_then_hit(self, tmp_path):
        store = ResultStore(tmp_path)
        assert store.get(_query()) is None
        store.put(_query(), _value())
        assert store.get(_query()) == _value()
        assert (store.hits, store.misses, store.writes) == (1, 1, 1)

    def test_records_persist_across_instances(self, tmp_path):
        ResultStore(tmp_path).put(_query(), _value())
        fresh = ResultStore(tmp_path)
        assert fresh.get(_query()) == _value()
        assert (fresh.hits, fresh.writes) == (1, 0)

    def test_shard_file_named_by_digest_prefix(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_query(), _value())
        digest = result_digest(_query())
        path = tmp_path / digest[:SHARD_PREFIX_LEN] / f"{digest}.json"
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [path]
        record = json.loads(path.read_text())
        assert record == {"digest": digest, "query": _query(), "value": _value()}

    def test_put_replaces_same_digest(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_query(), _value(0))
        store.put(_query(), _value(1))
        assert store.get(_query()) == _value(1)
        assert len(store.entries()) == 1

    def test_invalidate(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_query(0), _value(0))
        store.put(_query(1), _value(1))
        assert store.invalidate(_query(0))
        assert not store.invalidate(_query(0))
        assert store.invalidations == 1
        assert store.get(_query(0)) is None
        assert store.get(_query(1)) == _value(1)

    def test_corrupt_lines_degrade_to_misses(self, tmp_path):
        # A record written by a non-atomic external tool, or one filed
        # under the wrong digest, is a miss, never a wrong answer.
        store = ResultStore(tmp_path)
        store.put(_query(0), _value(0))
        store.put(_query(1), _value(1))
        digest = result_digest(_query(0))
        path = tmp_path / digest[:SHARD_PREFIX_LEN] / f"{digest}.json"
        path.write_text('{"truncated-by-a-non-atomic')
        assert store.get(_query(0)) is None
        other = result_digest(_query(1))
        (tmp_path / other[:SHARD_PREFIX_LEN] / f"{other}.json").replace(path)
        assert store.get(_query(0)) is None
        assert store.misses == 2
        store.put(_query(0), _value(0))
        assert store.get(_query(0)) == _value(0)

    def test_eviction_under_byte_cap(self, tmp_path):
        store = ResultStore(tmp_path, memory_cap=2_000)
        queries = [_query(tag) for tag in range(20)]
        for tag, query in enumerate(queries):
            store.put(query, _value(tag))
        assert store.evictions > 0
        assert 0 < store.total_bytes() <= 2_000
        # The newest record never evicts its own shard mid-write.
        assert store.get(queries[-1]) == _value(19)

    def test_hit_refreshes_lru_position(self, tmp_path):
        import os

        store = ResultStore(tmp_path)
        store.put(_query(0), _value(0))
        store.put(_query(1), _value(1))
        # Backdate both records past the filesystem's timestamp
        # granularity, then hit record 0: the hit must leave it newest.
        for path in tmp_path.rglob("*.json"):
            os.utime(path, (1, 1))
        store.get(_query(0))
        assert store.entries()[-1]["digest"] == result_digest(_query(0))

    def test_clear_and_stats(self, tmp_path):
        store = ResultStore(tmp_path)
        store.put(_query(0), _value(0))
        store.put(_query(1), _value(1))
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["writes"] == 2
        assert stats["total_bytes"] == store.total_bytes()
        assert store.clear() == 2
        assert store.entries() == []

    def test_counters_read_no_file_and_stats_add_the_scan(
        self, tmp_path, monkeypatch
    ):
        from repro.core.blobs import BlobStore

        store = ResultStore(tmp_path)
        store.put(_query(0), _value(0))
        store.get(_query(0))
        store.get(_query(1))
        scanned = []
        original = BlobStore.scan
        monkeypatch.setattr(
            BlobStore, "scan", lambda blobs: scanned.append(1) or original(blobs)
        )
        counters = store.counters()
        assert scanned == []
        assert counters == {
            "hits": 1, "misses": 1, "writes": 1, "invalidations": 0,
            "evictions": 0,
        }
        stats = store.stats()
        assert scanned == [1]
        assert stats == {**counters, "entries": 1, "total_bytes": store.total_bytes()}

    def test_rejects_nonpositive_cap(self, tmp_path):
        with pytest.raises(ValueError):
            ResultStore(tmp_path, memory_cap=0)

    def test_default_cap(self, tmp_path):
        assert ResultStore(tmp_path).memory_cap == DEFAULT_RESULT_CAP


class TestEnvironmentKeys:
    """Faulted queries and their clean twins must never collide."""

    @staticmethod
    def _twins():
        """A clean query and a faulted twin whose digests share a shard.

        Shard directories are named by digest prefix, so most
        environment seeds land the two records in different ones;
        scanning seeds for a prefix match pins the adversarial case —
        both records in one shard directory — deterministically.
        """
        from repro.core.environment import FadingMisses

        clean = _query()
        prefix = result_digest(clean)[:SHARD_PREFIX_LEN]
        for seed in range(100_000):
            env = FadingMisses(0.25, seed=seed)
            faulted = pair_query(
                "drds", 64, [1, 5, 9], [5, 12], 10_000, 64, 64, 0,
                environment=env,
            )
            if result_digest(faulted)[:SHARD_PREFIX_LEN] == prefix:
                return clean, faulted
        raise AssertionError("no shard-colliding seed found")

    def test_clean_query_omits_environment_key(self):
        from repro.core.environment import FadingMisses

        clean = pair_query("drds", 64, [1, 5, 9], [5, 12], 10_000, 64, 64, 0)
        assert "environment" not in clean
        faulted = pair_query(
            "drds", 64, [1, 5, 9], [5, 12], 10_000, 64, 64, 0,
            environment=FadingMisses(0.25, seed=1),
        )
        assert faulted["environment"]["kind"] == "fading"
        assert result_digest(clean) != result_digest(faulted)

    def test_same_shard_twins_never_cross_answer(self, tmp_path):
        clean, faulted = self._twins()
        shard = result_digest(clean)[:SHARD_PREFIX_LEN]
        assert result_digest(faulted)[:SHARD_PREFIX_LEN] == shard
        store = ResultStore(tmp_path)
        store.put(clean, {"worst_ttr": 111, "missed": 0})
        store.put(faulted, {"worst_ttr": 999, "missed": 7})
        assert [p.name for p in tmp_path.iterdir()] == [shard]  # co-resident
        assert store.get(clean) == {"worst_ttr": 111, "missed": 0}
        assert store.get(faulted) == {"worst_ttr": 999, "missed": 7}

    def test_eviction_counters_with_both_present(self, tmp_path):
        clean, faulted = self._twins()
        store = ResultStore(tmp_path, memory_cap=1_200)
        store.put(clean, _value(0))
        store.put(faulted, _value(1))
        assert store.evictions == 0
        # Fill with unrelated records until cold ones evict; whichever
        # twins survive stay answerable, and evicted ones are misses.
        import os

        for path in tmp_path.rglob("*.json"):
            os.utime(path, (1, 1))
        evicted_before = store.evictions
        for tag in range(2, 30):
            store.put(_query(tag), _value(tag))
        assert store.evictions > evicted_before
        assert store.total_bytes() <= 1_200
        stats = store.stats()
        assert stats["evictions"] == store.evictions
        assert stats["writes"] == 30
        survivors = {
            record["digest"] for record in store.entries()
        }
        for query, value in ((clean, _value(0)), (faulted, _value(1))):
            if result_digest(query) in survivors:
                assert store.get(query) == value
            else:
                assert store.get(query) is None
