"""Persistent, content-addressed cache of sweep measurements.

The repo's headline numbers are *repeat queries*: the same
``(algorithm, n, channel sets, shift plan)`` cell is recomputed by
every benchmark, example, and CI smoke that touches it.  The schedule
store (:mod:`repro.core.store`) already removed repeated period-table
construction; this module removes the repeated *sweep* — a measurement,
once computed, is answered from disk in microseconds.

:class:`ResultStore` keys each measurement by a canonical digest of its
knob-invariant inputs (see :func:`pair_query` / :func:`result_digest`)
and persists records as JSON lines in digest-prefix **shards** under a
store directory.  The design mirrors the schedule store's discipline:

* **content addressing** — the key is the query itself, canonically
  JSON-encoded with sorted keys and sorted channel lists, hashed with
  SHA-256.  Tile budgets and lane/worker counts are deliberately
  *excluded*: no sweep knob changes a result, so a result computed
  under one configuration answers a query made under any other.
* **atomic shards** — a record lands in shard file
  ``<digest[:2]>.jsonl``; shard rewrites go through a temp file plus
  ``os.replace``, so concurrent writers race benignly (last writer
  wins, and both were computing identical values).
* **counters** — ``hits`` / ``misses`` / ``writes`` / ``invalidations``
  / ``evictions`` count what actually happened; the serve CLI and the
  service-cache benchmark assert against them.
* **LRU byte cap** — the on-disk footprint is capped by ``memory_cap``
  bytes; writing into a full store evicts least-recently-*read* shards
  first (shard-file mtime order, refreshed on every hit), never the
  shard being written.

``SweepRunner`` (:mod:`repro.sim.runner`) consults an attached result
store before building any schedule and writes through after computing;
``python -m repro serve`` is the query front end.  See
``docs/ARCHITECTURE.md`` (serving layer) and ``docs/API.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from collections.abc import Iterable
from pathlib import Path

from repro.core import telemetry

__all__ = [
    "ResultStore",
    "pair_query",
    "result_digest",
    "DEFAULT_RESULT_CAP",
    "SHARD_PREFIX_LEN",
]

#: Default cap on the total bytes of result shards kept in a store.
#: Records are a few hundred bytes each, so 64 MiB holds on the order
#: of a hundred thousand measurements.
DEFAULT_RESULT_CAP = 1 << 26

#: Hex digits of the digest that name a shard file: 2 digits spread
#: records over at most 256 shards, matching the schedule store's
#: digest-prefix subdirectory layout.
SHARD_PREFIX_LEN = 2


def pair_query(
    algorithm: str,
    n: int,
    set_a: Iterable[int],
    set_b: Iterable[int],
    horizon: int,
    dense: int,
    probes: int,
    seed: int,
    environment=None,
) -> dict:
    """Canonical query dict for one pairwise worst-TTR measurement.

    Carries exactly the knob-invariant inputs that determine the
    measurement: the algorithm, universe size, both channel sets
    (sorted — agent order within the pair does not matter to the
    sweep's *inputs*, but the two sets are kept positional because the
    shift plan is signed: positive shifts delay agent B), and the shift
    plan parameters (``dense``/``probes``/``seed``) plus ``horizon``.
    Engine name, tile bytes, and worker counts are excluded on purpose:
    results are bit-identical across all of them.

    ``environment`` (an :class:`~repro.core.environment.Environment`)
    joins the query as its canonical spec when present; a clean query
    omits the key entirely, so digests of pre-environment records are
    unchanged and a faulted measurement can never answer a clean query
    (or vice versa).
    """
    query = {
        "kind": "measure_pair",
        "algorithm": str(algorithm),
        "n": int(n),
        "set_a": sorted(int(c) for c in set_a),
        "set_b": sorted(int(c) for c in set_b),
        "horizon": int(horizon),
        "dense": int(dense),
        "probes": int(probes),
        "seed": int(seed),
    }
    if environment is not None:
        query["environment"] = environment.spec()
    return query


def result_digest(query: dict) -> str:
    """Stable hex digest of a canonical query dict.

    The digest of the sorted-keys JSON encoding — two dicts with the
    same contents produce the same digest regardless of insertion
    order.  The first :data:`SHARD_PREFIX_LEN` digits pick the shard.
    """
    text = json.dumps(query, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class ResultStore:
    """Persistent JSON-lines cache of measurement results.

    Parameters
    ----------
    store_dir:
        Directory holding the ``<prefix>.jsonl`` shard files; created
        if missing.  Handing the same path to another process (or
        another ``ResultStore``) shares the same records.
    memory_cap:
        Soft cap in bytes on the total size of shard files; writing
        into a full store evicts least-recently-read shards first.
    """

    def __init__(
        self,
        store_dir: str | os.PathLike,
        memory_cap: int = DEFAULT_RESULT_CAP,
    ):
        if memory_cap <= 0:
            raise ValueError(f"memory_cap must be positive, got {memory_cap}")
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self.memory_cap = int(memory_cap)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalidations = 0
        self.evictions = 0

    def _bump(self, name: str) -> None:
        """Increment one counter: the instance attribute stays the
        public per-store view, and the same event lands on the process
        telemetry registry under ``store.result.<name>`` — namespaced
        apart from the schedule store's counters, so the two stores'
        identically named events (``evictions``) never collide in one
        :func:`repro.core.telemetry.snapshot`."""
        setattr(self, name, getattr(self, name) + 1)
        telemetry.count(f"store.result.{name}")

    # -- lookup ----------------------------------------------------------

    def get(self, query: dict) -> dict | None:
        """The cached value for ``query``, or ``None`` on a miss.

        A hit refreshes the containing shard's LRU position (its file
        mtime) and bumps ``hits``; a miss bumps ``misses``.
        """
        digest = result_digest(query)
        path = self._shard_path(digest)
        record = self._read_shard(path).get(digest)
        if record is None:
            self._bump("misses")
            return None
        self._bump("hits")
        try:
            os.utime(path)  # refresh LRU position
        except OSError:
            pass  # shard evicted/read-only mid-hit: the value stands
        return record["value"]

    def put(self, query: dict, value: dict) -> None:
        """Write one result through to disk (last writer wins).

        The record joins its digest-prefix shard atomically (temp file
        plus ``os.replace``); an existing record under the same digest
        is replaced.  Evicts least-recently-read *other* shards first
        when the store is over its byte cap.
        """
        digest = result_digest(query)
        path = self._shard_path(digest)
        records = self._read_shard(path)
        records[digest] = {"digest": digest, "query": query, "value": value}
        payload = "".join(
            json.dumps(records[key], sort_keys=True) + "\n"
            for key in sorted(records)
        )
        self._ensure_capacity(len(payload.encode()), keep=path.name)
        fd, tmp = tempfile.mkstemp(dir=self.store_dir, suffix=".jsonl.tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(payload)
            os.replace(tmp, path)
        except BaseException:
            Path(tmp).unlink(missing_ok=True)
            raise
        self._bump("writes")

    def invalidate(self, query: dict) -> bool:
        """Drop one cached result by query; returns whether it existed.

        The explicit cache-busting hook for when an algorithm
        implementation changes underneath stored measurements.
        """
        digest = result_digest(query)
        path = self._shard_path(digest)
        records = self._read_shard(path)
        if digest not in records:
            return False
        del records[digest]
        if records:
            payload = "".join(
                json.dumps(records[key], sort_keys=True) + "\n"
                for key in sorted(records)
            )
            fd, tmp = tempfile.mkstemp(dir=self.store_dir, suffix=".jsonl.tmp")
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp, path)
            except BaseException:
                Path(tmp).unlink(missing_ok=True)
                raise
        else:
            path.unlink(missing_ok=True)
        self._bump("invalidations")
        return True

    # -- inspection ------------------------------------------------------

    def entries(self) -> list[dict]:
        """Every stored record, shard by shard (least-recently-read first)."""
        rows: list[dict] = []
        for path in self._shards():
            rows.extend(self._read_shard(path).values())
        return rows

    def total_bytes(self) -> int:
        """Total size of all shard files, in bytes."""
        return sum(path.stat().st_size for path in self._shards())

    def clear(self) -> int:
        """Drop every shard; returns how many records were removed."""
        count = len(self.entries())
        for path in self._shards():
            path.unlink(missing_ok=True)
        return count

    def stats(self) -> dict[str, int]:
        """Counter snapshot: hits, misses, writes, invalidations, evictions, entries, bytes."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
            "entries": len(self.entries()),
            "total_bytes": self.total_bytes(),
        }

    # -- internals -------------------------------------------------------

    def _shards(self) -> list[Path]:
        """Shard files, least-recently-read (oldest mtime) first."""
        paths = [p for p in self.store_dir.glob("*.jsonl") if p.is_file()]
        paths.sort(key=lambda p: p.stat().st_mtime)
        return paths

    def _shard_path(self, digest: str) -> Path:
        return self.store_dir / f"{digest[:SHARD_PREFIX_LEN]}.jsonl"

    def _read_shard(self, path: Path) -> dict[str, dict]:
        """Records of one shard by digest; corrupt lines are skipped.

        A half-written line can only come from a non-atomic external
        writer; skipping it degrades to a cache miss, never a wrong
        answer.
        """
        try:
            text = path.read_text()
        except OSError:
            return {}
        records: dict[str, dict] = {}
        for line in text.splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                records[record["digest"]] = record
            except (ValueError, KeyError, TypeError):
                continue
        return records

    def _ensure_capacity(self, incoming: int, keep: str) -> None:
        """Evict cold shards until ``incoming`` bytes fit under the cap.

        ``keep`` names the shard being rewritten: it never evicts (its
        old size is about to be replaced, and evicting it would lose
        the sibling records being carried over).
        """
        shards = [p for p in self._shards() if p.name != keep]
        total = sum(p.stat().st_size for p in shards)
        while total + incoming > self.memory_cap and shards:
            victim = shards.pop(0)
            try:
                size = victim.stat().st_size
                victim.unlink()
            except OSError:
                continue
            total -= size
            self._bump("evictions")
