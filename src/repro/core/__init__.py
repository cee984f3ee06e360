"""Core constructions of the paper (Sections 2-3) and their substrates.

Submodules
----------
bitstrings
    Walk toolkit: balanced / Catalan / t-maximal predicates, rotations.
knuth
    Balanced encoding ``K(x)``.
catalan
    The maps ``U``, ``M`` and the headline ``R(z)`` of Theorem 1.
ramsey
    2-Ramsey edge coloring of the linear poset (Lemma 2).
pairwise
    Size-two schedules (Theorem 1), synchronous and asynchronous.
primes, crt
    Number-theoretic substrates for Theorem 3.
epoch
    The general n-schedule (Theorem 3).
symmetric
    The O(1) symmetric-case wrapper (Section 3.2).
schedule
    Schedule abstractions shared by all constructions.
verification
    Executable rendezvous-time definitions (Section 2), plus the
    degradation-report mode that certifies which shift classes keep
    the meeting guarantee under a fault environment.
environment
    Deterministic, seeded fault-injection layer: primary-user churn,
    fading misses, and asymmetric sensing expressed as vectorized
    per-slot validity masks that every sweep path applies
    bit-identically.
stream
    The shift-sweep engine: ``ttr_sweep`` runs the scalar reference loop
    for tiny joint periods and one blocked first-meet kernel otherwise,
    with tiles generated on demand (any period size), an L2-aware
    tile planner (``plan_tiles``), sparse tiles kept under the mmap
    threshold, and resumable checkpoints.
blobs
    The storage layer under both persistent stores: one file set per
    digest, atomic writes with a marker file written last, one
    on-disk byte cap with LRU eviction, lookup-only read roots, and
    ``source_digest`` to key a record by the code that builds it.
store
    Shared-memory schedule store: the global DRDS sequence, built once
    per universe size and attached as a read-only memmap by every
    sweep process (multi-root read path); per-set schedules are built
    in-process over it.
results
    Persistent result cache: whole sweep measurements keyed by a
    content digest of their knob-invariant inputs, served back in
    microseconds — the database layer behind ``python -m repro serve``.
telemetry
    Process-local observability registry: named counters, gauges, and
    nested timing spans that every hot path reports into — zero
    overhead when disabled, never observable by results, surfaced as
    ``--telemetry text|json`` on the CLIs (``docs/OBSERVABILITY.md``).
"""

from repro.core.environment import (
    AsymmetricSensing,
    ComposedEnvironment,
    Environment,
    FadingMisses,
    PrimaryUserChurn,
    compose,
    environment_digest,
    parse_environment,
)
from repro.core.epoch import EpochSchedule, rendezvous_bound
from repro.core.pairwise import (
    async_period,
    pair_schedule_async,
    pair_schedule_sync,
    sync_period,
)
from repro.core.schedule import (
    ConstantSchedule,
    CyclicSchedule,
    FunctionSchedule,
    Schedule,
)
from repro.core.results import ResultStore
from repro.core.store import ScheduleStore, StoredSchedule
from repro.core.stream import SweepCheckpoint
from repro.core.symmetric import SymmetricWrappedSchedule

__all__ = [
    "EpochSchedule",
    "rendezvous_bound",
    "async_period",
    "sync_period",
    "pair_schedule_async",
    "pair_schedule_sync",
    "Schedule",
    "CyclicSchedule",
    "ConstantSchedule",
    "FunctionSchedule",
    "SymmetricWrappedSchedule",
    "ScheduleStore",
    "StoredSchedule",
    "ResultStore",
    "SweepCheckpoint",
    "Environment",
    "FadingMisses",
    "PrimaryUserChurn",
    "AsymmetricSensing",
    "ComposedEnvironment",
    "compose",
    "environment_digest",
    "parse_environment",
]
