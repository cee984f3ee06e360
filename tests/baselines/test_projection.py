"""The projection lookup table vs the membership-test projection it replaced.

Every global-sequence baseline projects its universe-wide ids onto the
agent's set through one int64 table per schedule.  The reference below
is the projection the table replaced (a membership test, a modulo, a
fancy index and a select over every id); the table must answer exactly
what it answers, and every baseline's ``global_values`` must stay
inside its table, so a lookup can never wrap a negative id or read past
the end.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.baselines import BASELINE_NAMES
from repro.baselines.projection import ProjectedSchedule, projection_table
from repro.core.primes import smallest_prime_at_least


def _reference_projection(raw, sorted_channels):
    """Owned ids pass through; any other id ``c`` plays ``available[c mod k]``."""
    available = np.asarray(sorted_channels, dtype=np.int64)
    raw = np.asarray(raw, dtype=np.int64)
    native = np.isin(raw, available)
    return np.where(native, raw, available[raw % available.size])


def _projected_schedules(channels, n):
    """Every registered baseline that is a projected global sequence."""
    schedules = {}
    for name in BASELINE_NAMES:
        schedule = repro.build_schedule(channels, n, algorithm=name)
        if isinstance(schedule, ProjectedSchedule):
            schedules[name] = schedule
    return schedules


def _subclasses(cls):
    found = set()
    for sub in cls.__subclasses__():
        found |= {sub} | _subclasses(sub)
    return found


class TestProjectionTable:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_ids_match_reference(self, seed):
        """1-D, 2-D and empty id arrays, ids from ``n`` up to CRSEQ's prime."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 130))
        size = smallest_prime_at_least(n)
        k = 1 if seed % 4 == 0 else int(rng.integers(1, min(n, 7) + 1))
        channels = rng.choice(n, size=k, replace=False)
        if seed % 2:
            channels[0] = n - 1  # an owned channel next to the ids >= n
        sorted_channels = tuple(sorted({int(c) for c in channels}))
        table = projection_table(sorted_channels, size)
        assert table.dtype == np.int64 and table.shape == (size,)
        for ids in (
            np.arange(size, dtype=np.int64),
            rng.integers(0, size, size=int(rng.integers(1, 500))),
            rng.integers(0, size, size=(7, 33)),
            rng.integers(n, size, size=50) if size > n else np.array([n - 1]),
            np.empty(0, dtype=np.int64),
            np.empty((3, 0), dtype=np.int64),
        ):
            got = table.take(ids)
            expected = _reference_projection(ids, sorted_channels)
            assert got.dtype == np.int64
            assert got.shape == expected.shape
            np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize(
        "channels, n", [((1, 5, 9), 16), ((1, 5, 63), 64), ((4,), 8)]
    )
    def test_schedules_project_like_reference(self, channels, n):
        """Each baseline's gather is its global values, projected as the
        reference projects them, over tiles that reach ids ``>= n``."""
        rng = np.random.default_rng(n)
        for name, schedule in _projected_schedules(channels, n).items():
            indices = np.concatenate(
                [np.arange(4096), rng.integers(0, schedule.period, size=4096)]
            ).reshape(2, -1)
            expected = _reference_projection(
                schedule.global_values(indices), schedule.sorted_channels
            )
            got = schedule.channel_gather(indices)
            assert got.dtype == np.int64, name
            np.testing.assert_array_equal(got, expected, err_msg=name)


class TestGlobalValuesContract:
    def test_every_projected_baseline_is_registered(self):
        """The contract tests below reach every subclass through the registry."""
        covered = {type(s) for s in _projected_schedules((1, 5, 9), 16).values()}
        assert covered == _subclasses(ProjectedSchedule)

    @pytest.mark.parametrize("n", [16, 33, 64])
    def test_global_values_fill_their_table(self, n):
        """Over a whole period, ``global_values`` returns ids in
        ``[0, id_bound)`` and reaches ``id_bound - 1``: the table is
        neither too short for a lookup nor wider than the sequence
        (CRSEQ's ids reach its prime, past ``n``)."""
        for name, schedule in _projected_schedules((1, 5, 9), n).items():
            values = schedule.global_values(np.arange(schedule.period, dtype=np.int64))
            assert values.min() == 0, name
            assert values.max() == schedule.id_bound - 1, name
            assert schedule._table.shape == (schedule.id_bound,), name
