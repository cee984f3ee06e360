"""Deterministic blind rendezvous in cognitive radio networks.

Reproduction of Chen, Russell, Samanta, Sundaram (ICDCS 2014,
arXiv:1401.7313): deterministic channel-hopping schedules guaranteeing
that any two agents with overlapping channel sets meet in
``O(|S_i||S_j| log log n)`` slots, asynchronously and anonymously.

Quickstart
----------
>>> import repro
>>> alice = repro.build_schedule([3, 7, 11], n=16)
>>> bob = repro.build_schedule([7, 9], n=16)
>>> ttr = repro.first_rendezvous(alice, bob, wake_a=0, wake_b=5, horizon=10_000)
>>> ttr is not None
True

See ``examples/`` for full scenarios, ``docs/ARCHITECTURE.md`` for the
layer map and data flow, and ``docs/API.md`` for the public-surface
reference.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.core import (
    ConstantSchedule,
    CyclicSchedule,
    EpochSchedule,
    FunctionSchedule,
    Schedule,
    ScheduleStore,
    StoredSchedule,
    SymmetricWrappedSchedule,
    async_period,
    pair_schedule_async,
    pair_schedule_sync,
    rendezvous_bound,
    sync_period,
)
from repro.core.stream import ttr_sweep
from repro.core.verification import (
    first_rendezvous,
    max_ttr,
    ttr_for_shift,
    ttr_profile,
    verify_guarantee,
)

__version__ = "1.0.0"

__all__ = [
    "build_schedule",
    "EpochSchedule",
    "SymmetricWrappedSchedule",
    "Schedule",
    "CyclicSchedule",
    "ConstantSchedule",
    "FunctionSchedule",
    "ScheduleStore",
    "StoredSchedule",
    "pair_schedule_async",
    "pair_schedule_sync",
    "async_period",
    "sync_period",
    "rendezvous_bound",
    "first_rendezvous",
    "ttr_for_shift",
    "ttr_profile",
    "ttr_sweep",
    "max_ttr",
    "verify_guarantee",
    "__version__",
]


def build_schedule(
    channels: Iterable[int],
    n: int,
    algorithm: str = "paper",
    store: ScheduleStore | None = None,
) -> Schedule:
    """Build a channel-hopping schedule for one agent.

    Parameters
    ----------
    channels:
        The agent's available channels, a subset of ``range(n)``.
    n:
        Universe size (shared by all agents in a deployment).
    algorithm:
        ``"paper"`` — Theorem 3 asynchronous schedule (default);
        ``"paper-sync"`` — Theorem 3 synchronous variant;
        ``"paper-symmetric"`` — Theorem 3 wrapped per Section 3.2 for
        O(1) symmetric rendezvous;
        ``"crseq"`` / ``"jump-stay"`` / ``"drds"`` / ``"zos"`` /
        ``"random"`` — baselines from :mod:`repro.baselines`
        (see :data:`repro.baselines.BASELINE_NAMES`).
    store:
        Optional :class:`ScheduleStore`.  When given, ``"drds"``
        projects the global sequence stored once per ``n`` (attached
        read-only by every later process) instead of rebuilding it;
        every other algorithm builds in-process as without a store.
    """
    if store is not None:
        return store.get(channels, n, algorithm)
    if algorithm == "paper":
        return EpochSchedule(channels, n, asynchronous=True)
    if algorithm == "paper-sync":
        return EpochSchedule(channels, n, asynchronous=False)
    if algorithm == "paper-symmetric":
        return SymmetricWrappedSchedule(EpochSchedule(channels, n, asynchronous=True))
    from repro import baselines

    return baselines.build_baseline(channels, n, algorithm)
