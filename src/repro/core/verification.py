"""Rendezvous verification engine (paper Section 2 definitions).

Implements the paper's synchronous and asynchronous rendezvous-time
definitions as executable checks:

* ``sigma_A`` and ``sigma_B`` rendezvous *synchronously* in time ``T`` if
  some ``t <= T`` has ``sigma_A(t) == sigma_B(t)``;
* they rendezvous *asynchronously* in time ``T`` if for all wake-ups
  ``tA, tB`` there is ``max(tA,tB) <= t <= max(tA,tB) + T`` with
  ``sigma_A(t - tA) == sigma_B(t - tB)``.

Only the relative shift ``tB - tA`` matters, so the asynchronous checks
sweep shifts.  For two cyclic schedules a nonnegative shift only acts
through its phase mod ``period_A`` and a negative one mod ``period_B``,
so checking the ``period_A + period_B - 1`` shift classes of
:func:`exhaustive_shift_range` is *exhaustive* — the tests use this to
certify guarantees, not just sample them.

All scans are vectorized over numpy windows.  Multi-shift queries
(``ttr_profile``, ``max_ttr``, ``verify_guarantee``) go through
:func:`repro.core.stream.ttr_sweep`, which sweeps every shift in one
pass; ``ttr_for_shift`` remains the independent scalar reference every
sweep path is certified against.

Every entry point accepts an ``environment``
(:mod:`repro.core.environment`): a deterministic per-slot validity mask
that drops coincidences lost to primary-user churn, fading, or sensing
error.  The mask is evaluated on the TTR clock (slots since the later
wake-up), and the scalar path here is the reference the masked sweep
kernel is parity-certified against.
:func:`degradation_report` is the guarantee-under-fault view: instead
of a bare bool it reports which shift classes lost the meeting
guarantee and how far TTRs inflated.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from repro.core import stream
from repro.core.environment import Environment
from repro.core.schedule import Schedule

__all__ = [
    "first_rendezvous",
    "ttr_for_shift",
    "ttr_profile",
    "max_ttr",
    "exhaustive_shift_range",
    "strided_shift_range",
    "verify_guarantee",
    "DegradationReport",
    "degradation_report",
]


def first_rendezvous(
    a: Schedule,
    b: Schedule,
    wake_a: int,
    wake_b: int,
    horizon: int,
    chunk: int = 1 << 16,
    environment: Environment | None = None,
) -> int | None:
    """Slots until rendezvous measured from ``max(wake_a, wake_b)``.

    Scans global time ``t`` from the later wake-up in vectorized chunks;
    returns ``None`` when no coincidence occurs within ``horizon`` slots.
    With an ``environment``, a coincidence only counts when the mask
    keeps its ``(channel, slots-since-later-wake)`` cell.
    """
    if wake_a < 0 or wake_b < 0:
        raise ValueError("wake-up times must be nonnegative")
    start = max(wake_a, wake_b)
    for lo in range(start, start + horizon, chunk):
        hi = min(lo + chunk, start + horizon)
        window_a = a.materialize(lo - wake_a, hi - wake_a)
        window_b = b.materialize(lo - wake_b, hi - wake_b)
        eq = window_a == window_b
        if environment is not None:
            eq = eq & environment.slot_mask(
                window_a, np.arange(lo - start, hi - start, dtype=np.int64)
            )
        hits = np.nonzero(eq)[0]
        if hits.size:
            return lo - start + int(hits[0])
    return None


def ttr_for_shift(
    a: Schedule,
    b: Schedule,
    shift: int,
    horizon: int,
    chunk: int = 1 << 16,
    environment: Environment | None = None,
) -> int | None:
    """TTR when ``b`` wakes ``shift`` slots after ``a`` (negative: before).

    ``chunk`` tunes the scan granularity: small chunks suit exhaustive
    shift sweeps where most hits come early.  ``environment`` applies a
    per-slot validity mask on the TTR clock (see
    :mod:`repro.core.environment`).
    """
    if shift >= 0:
        return first_rendezvous(
            a, b, 0, shift, horizon, chunk=chunk, environment=environment
        )
    return first_rendezvous(
        a, b, -shift, 0, horizon, chunk=chunk, environment=environment
    )


def ttr_profile(
    a: Schedule,
    b: Schedule,
    shifts: Iterable[int],
    horizon: int,
    environment: Environment | None = None,
) -> dict[int, int | None]:
    """TTR for each relative shift; ``None`` marks a miss within horizon.

    One :func:`repro.core.stream.ttr_sweep` pass, with or without an
    ``environment`` mask.
    """
    return stream.ttr_sweep(a, b, shifts, horizon, environment=environment)


def exhaustive_shift_range(a: Schedule, b: Schedule) -> range:
    """Shifts that cover *all* joint behaviours of two cyclic schedules.

    A nonnegative shift ``s`` (B wakes later) only enters the
    comparison through the phase offset ``s mod period_A``; a negative
    one through ``-s mod period_B`` (see :mod:`repro.core.stream`).  So
    ``range(-period_B + 1, period_A)`` hits every distinct joint
    behaviour of both signs exactly once — ``period_A + period_B - 1``
    shifts, instead of the ``lcm(period_A, period_B)`` a naive full
    lattice period would sweep.
    """
    return range(-b.period + 1, a.period)


def strided_shift_range(a: Schedule, b: Schedule, max_shifts: int) -> range:
    """The exhaustive shift classes, strided down to ``~max_shifts``.

    The deterministic fallback when a full certification over
    ``period_A + period_B - 1`` shift classes is too expensive (the
    quadratic/cubic global-sequence baselines at large ``n``): same
    covering order, every ``stride``-th class.  ``max_shifts`` large
    enough degenerates to :func:`exhaustive_shift_range`.
    """
    if max_shifts < 1:
        raise ValueError(f"max_shifts must be positive, got {max_shifts}")
    stride = -(-(a.period + b.period - 1) // max_shifts)
    return range(-b.period + 1, a.period, stride)


def max_ttr(
    a: Schedule,
    b: Schedule,
    shifts: Iterable[int],
    horizon: int,
    environment: Environment | None = None,
) -> int:
    """Maximum TTR over the given shifts.

    Raises ``AssertionError`` if any shift misses within the horizon —
    callers that expect guaranteed rendezvous should size the horizon
    above the theoretical bound (under an ``environment``, prefer
    :func:`degradation_report`: losing shifts is the object of study
    there, not an error).
    """
    worst = -1
    for shift, ttr in ttr_profile(
        a, b, shifts, horizon, environment=environment
    ).items():
        if ttr is None:
            raise AssertionError(
                f"no rendezvous within horizon {horizon} at shift {shift}"
            )
        worst = max(worst, ttr)
    return worst


def verify_guarantee(
    a: Schedule,
    b: Schedule,
    bound: int,
    shifts: Iterable[int] | None = None,
    environment: Environment | None = None,
) -> tuple[bool, int, int | None]:
    """Check that every tested shift rendezvouses within ``bound`` slots.

    Returns ``(ok, worst_ttr, failing_shift)``.  With ``shifts=None`` the
    exhaustive shift range is used (exact certification for cyclic
    schedules).  The sweeps go through
    :func:`repro.core.stream.ttr_sweep`, whose kernel never tables a
    period, so this certification works at any period size.
    ``environment`` checks the guarantee under a
    fault mask; when the question is *which* shifts lost it and by how
    much, use :func:`degradation_report` instead.
    """
    if shifts is None:
        shifts = exhaustive_shift_range(a, b)
    worst = -1
    shift_iter = iter(shifts)
    while True:
        pending = [s for _, s in zip(range(4096), shift_iter)]
        if not pending:
            return True, worst, None
        profile = stream.ttr_sweep(
            a, b, pending, bound + 1, environment=environment
        )
        for shift in pending:
            ttr = profile[shift]
            if ttr is None or ttr > bound:
                return False, worst, shift
            worst = max(worst, ttr)


@dataclass(frozen=True)
class DegradationReport:
    """How a rendezvous guarantee degrades under a fault environment.

    Derived from two profiles over the same shifts — clean and masked —
    both truncated at ``bound + 1`` slots.  A shift *survives* when its
    masked TTR exists and stays within ``bound``; ``lost_shifts`` lists
    the rest.  Inflation is measured per surviving shift as
    ``(faulted + 1) / (clean + 1)`` (the +1 keeps slot-0 meetings
    finite) and summarized by its mean and max; ``faulted_worst`` is
    ``None`` when no shift survived.  Reports are plain data, built
    from sweep profiles that are bit-identical under every tile plan,
    so the report is too.
    """

    bound: int
    environment_digest: str
    total_shifts: int
    survived: int
    lost_shifts: tuple[int, ...]
    clean_worst: int
    faulted_worst: int | None
    inflation_mean: float
    inflation_max: float

    @property
    def survival_fraction(self) -> float:
        """Fraction of tested shifts that kept the bounded guarantee."""
        return self.survived / self.total_shifts if self.total_shifts else 1.0

    @property
    def ok(self) -> bool:
        """Whether the guarantee survived on every tested shift."""
        return not self.lost_shifts

    def to_dict(self) -> dict:
        """JSON-able view (the CLI degradation mode prints this)."""
        return {
            "bound": self.bound,
            "environment_digest": self.environment_digest,
            "total_shifts": self.total_shifts,
            "survived": self.survived,
            "survival_fraction": self.survival_fraction,
            "lost_shifts": list(self.lost_shifts),
            "clean_worst": self.clean_worst,
            "faulted_worst": self.faulted_worst,
            "inflation_mean": self.inflation_mean,
            "inflation_max": self.inflation_max,
            "ok": self.ok,
        }


def degradation_report(
    a: Schedule,
    b: Schedule,
    bound: int,
    environment: Environment | None,
    shifts: Iterable[int] | None = None,
) -> DegradationReport:
    """Measure guarantee survival and TTR inflation under a fault mask.

    The degradation mode of :func:`verify_guarantee`: instead of a bare
    bool it sweeps the same shifts twice — once clean, once under
    ``environment`` — and reports which shift classes lost the
    ``bound``-slot meeting guarantee plus the TTR inflation
    distribution over the survivors.  ``shifts=None`` uses the
    exhaustive shift range (exact certification); ``environment=None``
    degenerates to a report with every shift surviving at inflation
    1.0.
    """
    from repro.core.environment import environment_digest as _env_digest

    if bound < 0:
        raise ValueError(f"bound must be nonnegative, got {bound}")
    if shifts is None:
        shifts = exhaustive_shift_range(a, b)
    shift_list = [int(s) for s in shifts]
    clean = stream.ttr_sweep(a, b, shift_list, bound + 1)
    faulted = stream.ttr_sweep(
        a, b, shift_list, bound + 1, environment=environment
    )
    lost: list[int] = []
    survivors: list[int] = []
    clean_worst = -1
    faulted_worst: int | None = None
    inflations: list[float] = []
    for shift in shift_list:
        c = clean[shift]
        if c is not None and c <= bound:
            clean_worst = max(clean_worst, c)
        f = faulted[shift]
        if f is None or f > bound:
            lost.append(shift)
            continue
        survivors.append(shift)
        faulted_worst = f if faulted_worst is None else max(faulted_worst, f)
        if c is not None and c <= bound:
            inflations.append((f + 1) / (c + 1))
    return DegradationReport(
        bound=bound,
        environment_digest=_env_digest(environment),
        total_shifts=len(shift_list),
        survived=len(survivors),
        lost_shifts=tuple(sorted(lost)),
        clean_worst=clean_worst,
        faulted_worst=faulted_worst,
        inflation_mean=sum(inflations) / len(inflations) if inflations else 0.0,
        inflation_max=max(inflations, default=0.0),
    )
