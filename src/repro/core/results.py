"""Persistent, content-addressed cache of sweep measurements.

The repo's headline numbers are *repeat queries*: the same
``(algorithm, n, channel sets, shift plan)`` cell is recomputed by
every benchmark, example, and CI smoke that touches it.  The schedule
store (:mod:`repro.core.store`) already removed repeated period-table
construction; this module removes the repeated *sweep* — a measurement,
once computed, is answered from disk in microseconds.

:class:`ResultStore` keys each measurement by a canonical digest of its
knob-invariant inputs (see :func:`pair_query` / :func:`result_digest`)
and keeps each record as one ``<digest[:2]>/<digest>.json`` file on the
storage layer both stores share (:mod:`repro.core.blobs`):

* **content addressing** — the key is the query itself, canonically
  JSON-encoded with sorted keys and sorted channel lists, hashed with
  SHA-256.  Worker counts are deliberately *excluded*: no split of
  the work changes a result, so a result computed under one
  configuration answers a query made under any other.
* **one file per record** — a ``put`` writes only its own file, so
  concurrent writers (every pool worker of a ``SweepRunner``) never
  lose one another's records.  A record that fails to parse, or whose
  stored digest differs, is a miss, never a wrong answer.
* **counters** — ``hits`` / ``misses`` / ``writes`` / ``invalidations``
  / ``evictions`` count what actually happened; :meth:`ResultStore.counters`
  reads them without touching disk (the serve CLI reports them per
  query) and the service-cache benchmark asserts against them.
* **LRU byte cap** — ``memory_cap`` bounds every byte on disk,
  evicting least-recently-*read* records first.

``SweepRunner`` (:mod:`repro.sim.runner`) consults an attached result
store before building any schedule and writes through after computing;
``python -m repro serve`` is the query front end.  See
``docs/ARCHITECTURE.md`` (serving layer) and ``docs/API.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections.abc import Iterable

from repro.core import telemetry
from repro.core.blobs import BlobStore

__all__ = [
    "ResultStore",
    "pair_query",
    "result_digest",
    "DEFAULT_RESULT_CAP",
]

#: Default cap on the bytes a result store keeps on disk.  Records are
#: a few hundred bytes each, so 64 MiB holds on the order of a hundred
#: thousand measurements.
DEFAULT_RESULT_CAP = 1 << 26


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
    Worker counts are excluded on purpose: results are bit-identical
    across them.

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
    order.  The first :data:`~repro.core.blobs.SHARD_PREFIX_LEN`
    digits pick the record's shard directory.
    """
    text = json.dumps(query, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class ResultStore:
    """Persistent cache of measurement results, one JSON file per record.

    A view over one :class:`~repro.core.blobs.BlobStore` rooted at
    ``store_dir`` (created if missing; another process or instance on
    the same path shares its records).  ``memory_cap`` bounds every
    byte on disk, evicting least-recently-read records first.
    """

    def __init__(
        self,
        store_dir: str | os.PathLike,
        memory_cap: int = DEFAULT_RESULT_CAP,
    ):
        self._blobs = BlobStore(store_dir, (".json",), memory_cap)
        self.store_dir = self._blobs.root
        self.memory_cap = self._blobs.memory_cap
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.invalidations = 0
        self.evictions = 0

    def _bump(self, name: str, delta: int = 1) -> None:
        """Increment one counter: the instance attribute stays the
        public per-store view, and the same event lands on the process
        telemetry registry under ``store.result.<name>`` — namespaced
        apart from the schedule store's counters, so the two stores'
        identically named events (``evictions``) never collide in one
        :func:`repro.core.telemetry.snapshot`."""
        setattr(self, name, getattr(self, name) + delta)
        telemetry.count(f"store.result.{name}", delta)

    # -- lookup ----------------------------------------------------------

    def get(self, query: dict) -> dict | None:
        """The cached value for ``query``, or ``None`` on a miss.

        Reads one record file.  A hit refreshes the record's LRU
        position (its file mtime) and bumps ``hits``; a miss — no
        record, one that fails to parse, or one stored under another
        digest — bumps ``misses``.
        """
        digest = result_digest(query)
        record = self._blobs.read(digest, _load_json)
        if not isinstance(record, dict) or record.get("digest") != digest:
            self._bump("misses")
            return None
        self._bump("hits")
        return record["value"]

    def put(self, query: dict, value: dict) -> None:
        """Write one result through to disk (last writer wins).

        The record replaces its own file atomically and touches no
        other.  Evicts least-recently-read records first when the store
        would exceed its byte cap; a record larger than the whole cap
        is not stored.
        """
        digest = result_digest(query)
        payload = json.dumps(
            {"digest": digest, "query": query, "value": value}, sort_keys=True
        ).encode()
        evicted = self._blobs.put(
            digest, len(payload), {".json": lambda handle: handle.write(payload)}
        )
        if evicted:
            self._bump("evictions", evicted)
        if evicted is not None:
            self._bump("writes")

    def invalidate(self, query: dict) -> bool:
        """Drop one cached result by query; returns whether it existed.

        The explicit cache-busting hook for when an algorithm
        implementation changes underneath stored measurements.
        """
        if not self._blobs.evict(result_digest(query)):
            return False
        self._bump("invalidations")
        return True

    # -- inspection ------------------------------------------------------

    def entries(self) -> list[dict]:
        """Every stored record, least-recently-read first."""
        rows = []
        for digest, _, _ in self._blobs.lru():
            try:
                rows.append(_load_json(self._blobs.path(digest, ".json")))
            except (OSError, ValueError):
                continue
        return rows

    def total_bytes(self) -> int:
        """Bytes on disk of every stored record."""
        return self._blobs.usage()[1]

    def clear(self) -> int:
        """Drop every record; returns how many were removed."""
        return self._blobs.clear()

    def counters(self) -> dict[str, int]:
        """This instance's counters: hits, misses, writes, invalidations, evictions.

        Touches no file, so a caller that reports per query (``serve``)
        adds no I/O to a hit.
        """
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "invalidations": self.invalidations,
            "evictions": self.evictions,
        }

    def stats(self) -> dict[str, int]:
        """:meth:`counters` plus ``entries`` and ``total_bytes`` on disk.

        The two sizes come from one directory scan that stats every
        record file and parses none.
        """
        entries, total_bytes = self._blobs.usage()
        return {**self.counters(), "entries": entries, "total_bytes": total_bytes}


def _load_json(path) -> object:
    """Parse one JSON file."""
    return json.loads(path.read_bytes())
