"""Baseline rendezvous algorithms from the paper's Table 1 (Section 1.2).

========================  =======================  =================
Algorithm                 Asymmetric guarantee     Symmetric
========================  =======================  =================
``random``                ``O(k l log n)`` (whp)   ``O(k^2 log n)``
``crseq`` (Shin et al.)   ``O(n^2)``               ``O(n^2)``
``jump-stay`` (Lin et     ``O(n^3)``               ``O(n)``
al.)
``drds`` (after Gu et     ``O(n^2)``               measured
al.)
``zos`` (after Lin et     ``O~(m^3)`` in ``m``,    measured
al. 2015)                 free of ``n``
``async-etch`` (after     ``O(n^3)`` anonymized    measured
Zhang et al. 2011)
========================  =======================  =================

The paper's construction (``repro.core``) achieves
``O(|S_i||S_j| log log n)`` asymmetric and ``O(1)`` symmetric.  ZOS is
the available-channel-set baseline: its period and guarantee scale with
the set size ``m = |S|`` rather than the universe size ``n``, making it
the fair comparison point in the paper's ``|S| << n`` regime.

Registry contract: every name in :data:`BASELINE_NAMES` is accepted by
:func:`build_baseline`, by :func:`repro.build_schedule`, by the
``python -m repro`` CLI's ``--algorithm`` flag, and by
:class:`repro.sim.SweepRunner` — adding an entry to :data:`_BUILDERS`
propagates it everywhere, benchmarks and examples included.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.baselines.asyncetch import AsyncETCHSchedule
from repro.baselines.crseq import CRSEQSchedule
from repro.baselines.drds import DRDSSchedule
from repro.baselines.jump_stay import JumpStaySchedule
from repro.baselines.random_schedule import RandomSchedule
from repro.baselines.zos import ZOSSchedule
from repro.core.schedule import Schedule

__all__ = [
    "AsyncETCHSchedule",
    "CRSEQSchedule",
    "JumpStaySchedule",
    "DRDSSchedule",
    "RandomSchedule",
    "ZOSSchedule",
    "build_baseline",
    "BASELINE_NAMES",
    "DETERMINISTIC_BASELINES",
]

_BUILDERS = {
    "crseq": lambda channels, n, seed: CRSEQSchedule(channels, n),
    "jump-stay": lambda channels, n, seed: JumpStaySchedule(channels, n),
    "drds": lambda channels, n, seed: DRDSSchedule(channels, n),
    "zos": lambda channels, n, seed: ZOSSchedule(channels, n),
    "async-etch": lambda channels, n, seed: AsyncETCHSchedule(channels, n),
    "random": lambda channels, n, seed: RandomSchedule(channels, n, seed=seed),
}

BASELINE_NAMES = tuple(_BUILDERS)

#: Baselines with a worst-case guarantee (everything but ``random``) —
#: the set examples and benchmarks iterate when certifying rendezvous.
DETERMINISTIC_BASELINES = tuple(n for n in BASELINE_NAMES if n != "random")


def build_baseline(
    channels: Iterable[int], n: int, algorithm: str, seed: int = 0
) -> Schedule:
    """Instantiate a baseline schedule by name (see :data:`BASELINE_NAMES`)."""
    builder = _BUILDERS.get(algorithm)
    if builder is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {BASELINE_NAMES} "
            "or a 'paper*' variant handled by repro.build_schedule"
        )
    return builder(channels, n, seed)
