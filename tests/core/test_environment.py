"""Fault-injection environments: masks, digests, parity, degradation.

The environment layer's whole value rests on four properties, each
pinned here:

(a) zero-intensity environments are **byte-identical** to no
    environment on every sweep path — the masked code path is always
    exercised, and an all-true mask must change nothing;
(b) the sweep kernel (default plan, and a pinned narrow-block plan)
    matches the scalar reference under every fault family on every
    workload generator the library ships;
(c) primary-user churn confined to channels *outside* a pair's common
    set never changes any TTR — faults off the rendezvous channels are
    invisible to the guarantee;
(d) environment digests are order-insensitive for commutative
    compositions and distinct otherwise.

Plus the acceptance gate: ``degradation_report`` is bit-identical
across tile budgets, and its lost shifts match the
scalar reference, for all three families on all eight workload
generators; the whole layer is process-deterministic (replayed under
explicit ``PYTHONHASHSEED`` variation).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.environment import (
    AsymmetricSensing,
    ComposedEnvironment,
    FadingMisses,
    PrimaryUserChurn,
    compose,
    effective_horizon,
    environment_digest,
    hash_uniform,
    parse_environment,
)
from repro.core import stream as stream_module
from repro.core.stream import TilePlan, ttr_sweep
from repro.core.verification import (
    degradation_report,
    exhaustive_shift_range,
    ttr_for_shift,
)
from repro.sim.workloads import (
    adversarial_single_common,
    available_overlap,
    coalition_bands,
    nested,
    random_subsets,
    single_overlap,
    symmetric,
    whitespace,
)

# All eight workload generators, sized so every engine (the scalar
# reference included) sweeps them in test time.
WORKLOADS = {
    "random_subsets": lambda: random_subsets(12, 3, 3, seed=1),
    "single_overlap": lambda: single_overlap(12, 3, 3, seed=2),
    "symmetric": lambda: symmetric(12, 3, 2, seed=3),
    "coalition_bands": lambda: coalition_bands(
        24, band_width=6, agents_per_band=2, num_bands=2, overlap=2, seed=4
    ),
    "whitespace": lambda: whitespace(12, 3, incumbent_load=0.6, seed=5),
    "nested": lambda: nested(12, [2, 4], seed=6),
    "available_overlap": lambda: available_overlap(12, 3, 3, 0.5, seed=7),
    "adversarial_single_common": lambda: adversarial_single_common(
        12, 3, 3, seed=8
    ),
}

ENVIRONMENTS = {
    "fading": FadingMisses(0.2, seed=3),
    "pu-churn": PrimaryUserChurn(0.3, seed=5, dwell=16),
    "sensing": AsymmetricSensing(0.25, seed=7, side="b"),
}

SHIFTS = list(range(-30, 90)) + [997, -733]


def _pair_schedules(kind, algorithm="paper"):
    instance = WORKLOADS[kind]()
    i, j = instance.overlapping_pairs()[0]
    a = repro.build_schedule(instance.sets[i], instance.n, algorithm=algorithm)
    b = repro.build_schedule(instance.sets[j], instance.n, algorithm=algorithm)
    return a, b


def _scalar(a, b, shifts, horizon, environment=None):
    return {
        s: ttr_for_shift(a, b, s, horizon, environment=environment)
        for s in shifts
    }


def _all_engines(a, b, shifts, horizon, environment):
    """Profiles from the scalar reference and two kernel configurations
    (the default plan, and a pinned narrow-block plan)."""
    return {
        "scalar": _scalar(a, b, shifts, horizon, environment),
        "kernel": ttr_sweep(a, b, shifts, horizon, environment=environment),
        "pinned": ttr_sweep(
            a, b, shifts, horizon, environment=environment,
            plan=TilePlan(tile_bytes=4096, block_rows=7),
        ),
    }


class TestHashUniform:
    def test_deterministic_and_uniform(self):
        slots = np.arange(20_000, dtype=np.int64)
        u1 = hash_uniform(0xABCD, slots)
        u2 = hash_uniform(0xABCD, slots)
        np.testing.assert_array_equal(u1, u2)
        assert 0.0 <= u1.min() and u1.max() < 1.0
        assert abs(float(u1.mean()) - 0.5) < 0.01

    def test_key_and_coordinates_matter(self):
        slots = np.arange(64, dtype=np.int64)
        assert not np.array_equal(
            hash_uniform(1, slots), hash_uniform(2, slots)
        )
        assert not np.array_equal(
            hash_uniform(1, slots), hash_uniform(1, slots + 1)
        )

    def test_negative_coordinates_wrap_deterministically(self):
        vals = hash_uniform(7, np.array([-1, -2], dtype=np.int64))
        again = hash_uniform(7, np.array([-1, -2], dtype=np.int64))
        np.testing.assert_array_equal(vals, again)


class TestZeroIntensity:
    """Property (a): zero intensity == no environment, byte-identical."""

    ZEROS = {
        "fading": FadingMisses(0.0, seed=9),
        "pu-churn": PrimaryUserChurn(0.0, seed=9, dwell=8),
        "sensing": AsymmetricSensing(0.0, seed=9, side="a"),
        "composed": compose(
            FadingMisses(0.0), PrimaryUserChurn(0.0), AsymmetricSensing(0.0)
        ),
    }

    @pytest.mark.parametrize("name", sorted(ZEROS))
    @pytest.mark.parametrize("kind", ["random_subsets", "whitespace"])
    def test_all_engines_match_clean(self, name, kind):
        a, b = _pair_schedules(kind)
        horizon = 4 * max(a.period, b.period)
        clean = _scalar(a, b, SHIFTS, horizon)
        for engine, profile in _all_engines(
            a, b, SHIFTS, horizon, self.ZEROS[name]
        ).items():
            assert profile == clean, (name, engine)

    def test_zero_mask_is_all_true(self):
        grid_c = np.arange(8, dtype=np.int64)[:, None]
        grid_s = np.arange(256, dtype=np.int64)[None, :]
        for env in self.ZEROS.values():
            assert bool(np.all(env.slot_mask(grid_c, grid_s)))


class TestEngineParityUnderEnvironments:
    """Property (b): every kernel configuration agrees with the scalar
    reference under every fault family, on all eight workload
    generators."""

    @pytest.mark.parametrize("family", sorted(ENVIRONMENTS))
    @pytest.mark.parametrize("kind", sorted(WORKLOADS))
    def test_parity(self, kind, family):
        a, b = _pair_schedules(kind)
        env = ENVIRONMENTS[family]
        horizon = 4 * max(a.period, b.period)
        profiles = _all_engines(a, b, SHIFTS, horizon, env)
        reference = profiles.pop("scalar")
        for engine, profile in profiles.items():
            assert profile == reference, (kind, family, engine)

    def test_parity_under_composition(self):
        a, b = _pair_schedules("single_overlap")
        env = compose(
            FadingMisses(0.1, seed=1), PrimaryUserChurn(0.2, seed=2, dwell=8)
        )
        horizon = 4 * max(a.period, b.period)
        profiles = _all_engines(a, b, SHIFTS, horizon, env)
        reference = profiles.pop("scalar")
        for engine, profile in profiles.items():
            assert profile == reference, engine

    def test_faulted_ttr_never_beats_clean(self):
        """Masks only remove coincidences: faulted TTR >= clean TTR."""
        a, b = _pair_schedules("symmetric")
        horizon = 4 * max(a.period, b.period)
        clean = _scalar(a, b, SHIFTS, horizon)
        for env in ENVIRONMENTS.values():
            faulted = ttr_sweep(a, b, SHIFTS, horizon, environment=env)
            for shift in SHIFTS:
                if faulted[shift] is not None:
                    assert clean[shift] is not None
                    assert faulted[shift] >= clean[shift]


class TestChurnOutsideCommonSet:
    """Property (c): churn confined off the common channels is invisible."""

    @pytest.mark.parametrize(
        "kind", ["random_subsets", "adversarial_single_common", "nested"]
    )
    def test_ttr_unchanged(self, kind):
        instance = WORKLOADS[kind]()
        i, j = instance.overlapping_pairs()[0]
        a = repro.build_schedule(instance.sets[i], instance.n)
        b = repro.build_schedule(instance.sets[j], instance.n)
        common = instance.sets[i] & instance.sets[j]
        outside = tuple(sorted(set(range(instance.n)) - common))
        assert outside, "workload left no channels outside the common set"
        # rate=1.0: every scoped channel is busy in every window — the
        # strongest possible churn that still avoids the common set.
        env = PrimaryUserChurn(1.0, seed=11, dwell=4, channels=outside)
        horizon = 4 * max(a.period, b.period)
        clean = _scalar(a, b, SHIFTS, horizon)
        for engine, profile in _all_engines(
            a, b, SHIFTS, horizon, env
        ).items():
            assert profile == clean, engine

    def test_churn_on_common_channel_does_change_something(self):
        """Sanity check that the scoping (not a dead mask) carried (c)."""
        instance = WORKLOADS["adversarial_single_common"]()
        i, j = instance.overlapping_pairs()[0]
        a = repro.build_schedule(instance.sets[i], instance.n)
        b = repro.build_schedule(instance.sets[j], instance.n)
        common = tuple(sorted(instance.sets[i] & instance.sets[j]))
        env = PrimaryUserChurn(1.0, seed=11, dwell=4, channels=common)
        horizon = 4 * max(a.period, b.period)
        faulted = ttr_sweep(a, b, SHIFTS, horizon, environment=env)
        assert all(ttr is None for ttr in faulted.values())


class TestDigests:
    """Property (d): order-insensitive for commutative compositions,
    distinct otherwise."""

    def test_composition_order_insensitive(self):
        f = FadingMisses(0.1, seed=1)
        c = PrimaryUserChurn(0.2, seed=2, dwell=8)
        s = AsymmetricSensing(0.3, seed=3)
        assert compose(f, c).digest() == compose(c, f).digest()
        assert compose(f, c, s).digest() == compose(s, f, c).digest()
        assert compose(f, compose(c, s)).digest() == compose(f, c, s).digest()

    def test_distinct_parameters_distinct_digests(self):
        base = FadingMisses(0.1, seed=1)
        assert base.digest() != FadingMisses(0.1, seed=2).digest()
        assert base.digest() != FadingMisses(0.2, seed=1).digest()
        assert (
            PrimaryUserChurn(0.1).digest()
            != PrimaryUserChurn(0.1, channels=(3,)).digest()
        )
        assert (
            AsymmetricSensing(0.1, side="a").digest()
            != AsymmetricSensing(0.1, side="b").digest()
        )

    def test_families_never_collide(self):
        digests = {env.digest() for env in ENVIRONMENTS.values()}
        assert len(digests) == len(ENVIRONMENTS)

    def test_composition_distinct_from_parts(self):
        f = FadingMisses(0.1, seed=1)
        c = PrimaryUserChurn(0.2, seed=2)
        assert compose(f, c).digest() not in (f.digest(), c.digest())

    def test_none_digest_is_empty(self):
        assert environment_digest(None) == ""
        assert environment_digest(FadingMisses(0.1)) != ""

    def test_spec_equality_and_hash(self):
        assert FadingMisses(0.25, seed=4) == FadingMisses(0.25, seed=4)
        assert FadingMisses(0.25, seed=4) != FadingMisses(0.25, seed=5)
        assert hash(FadingMisses(0.25, seed=4)) == hash(
            FadingMisses(0.25, seed=4)
        )


class TestParseEnvironment:
    def test_single_family(self):
        env = parse_environment("pu-churn:rate=0.1,seed=7")
        assert env == PrimaryUserChurn(0.1, seed=7)

    def test_composition_and_channels(self):
        env = parse_environment(
            "fading:p=0.05+pu-churn:rate=0.2,dwell=32,channels=1/4/9"
        )
        assert isinstance(env, ComposedEnvironment)
        assert env == compose(
            FadingMisses(0.05),
            PrimaryUserChurn(0.2, dwell=32, channels=(1, 4, 9)),
        )

    def test_sensing_side(self):
        assert parse_environment("sensing:p=0.2,side=a") == AsymmetricSensing(
            0.2, side="a"
        )

    def test_none_spellings(self):
        assert parse_environment(None) is None
        assert parse_environment("") is None
        assert parse_environment("none") is None

    @pytest.mark.parametrize(
        "bad",
        [
            "gremlins:p=0.1",
            "fading:p",
            "fading:p=abc",
            "pu-churn:rate=0.1,channels=x/y",
            "fading:wat=1",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_environment(bad)

    def test_validation_ranges(self):
        with pytest.raises(ValueError):
            FadingMisses(1.5)
        with pytest.raises(ValueError):
            PrimaryUserChurn(0.5, dwell=0)
        with pytest.raises(ValueError):
            AsymmetricSensing(0.5, side="c")
        with pytest.raises(ValueError):
            ComposedEnvironment([])


class TestEffectiveHorizon:
    def test_clean_clamps_to_joint(self):
        assert effective_horizon(10_000, 960, None) == 960
        assert effective_horizon(500, 960, None) == 500

    def test_aperiodic_forces_full_horizon(self):
        assert effective_horizon(10_000, 960, FadingMisses(0.1)) == 10_000
        assert (
            effective_horizon(10_000, 960, PrimaryUserChurn(0.1)) == 10_000
        )

    def test_periodic_mask_clamps_to_joint_lcm(self):
        # Static sensing masks have period 1: the clean early-stop holds.
        assert (
            effective_horizon(10_000, 960, AsymmetricSensing(0.1)) == 960
        )

    def test_composed_period(self):
        static = compose(AsymmetricSensing(0.1), AsymmetricSensing(0.1, side="a"))
        assert static.period == 1
        assert compose(AsymmetricSensing(0.1), FadingMisses(0.1)).period is None

    def test_periodic_miss_is_a_true_miss(self):
        """The period-1 early-stop is sound: a sensing mask that kills
        the only common channel misses at every horizon."""
        a = repro.build_schedule({0, 1}, 8)
        b = repro.build_schedule({1, 2}, 8)
        # Find a seed whose side-b error set swallows channel 1.
        seed = next(
            s
            for s in range(64)
            if not AsymmetricSensing(0.5, seed=s).slot_mask(
                np.array([1]), np.array([0])
            )[0]
        )
        env = AsymmetricSensing(0.5, seed=seed)
        short = ttr_sweep(a, b, [0, 3], 10_000, environment=env)
        assert short == {0: None, 3: None}
        assert short == _scalar(a, b, [0, 3], 10_000, env)


class TestDegradationCertification:
    """Acceptance gate: reports bit-identical across tile budgets, with
    lost shifts matching the scalar reference, for all three families
    on all eight workload generators."""

    @pytest.mark.parametrize("family", sorted(ENVIRONMENTS))
    @pytest.mark.parametrize("kind", sorted(WORKLOADS))
    def test_report_identical_across_engines(self, kind, family, monkeypatch):
        a, b = _pair_schedules(kind, algorithm="zos")
        env = ENVIRONMENTS[family]
        bound = 3 * max(a.period, b.period)
        reports = [degradation_report(a, b, bound, env)]
        # A 32 KiB L2 gives the planner's smallest tiles, 16 KiB.
        monkeypatch.setattr(stream_module, "l2_cache_bytes", lambda: 1 << 15)
        reports.append(degradation_report(a, b, bound, env))
        assert reports[0] == reports[1], (kind, family)
        assert reports[0].environment_digest == env.digest()
        shifts = list(exhaustive_shift_range(a, b))
        assert reports[0].total_shifts == len(shifts)
        faulted = _scalar(a, b, shifts, bound + 1, env)
        assert reports[0].lost_shifts == tuple(
            sorted(s for s, t in faulted.items() if t is None or t > bound)
        )

    def test_report_accounting(self):
        a, b = _pair_schedules("single_overlap")
        env = FadingMisses(0.3, seed=11)
        report = degradation_report(a, b, 2 * max(a.period, b.period), env)
        assert report.survived + len(report.lost_shifts) == report.total_shifts
        assert 0.0 <= report.survival_fraction <= 1.0
        assert report.ok == (not report.lost_shifts)
        assert report.inflation_max >= report.inflation_mean >= (
            1.0 if report.survived else 0.0
        )
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["survival_fraction"] == report.survival_fraction

    def test_zero_intensity_report_is_perfect(self):
        a, b = _pair_schedules("symmetric")
        bound = 2 * max(a.period, b.period)
        report = degradation_report(a, b, bound, FadingMisses(0.0))
        assert report.survival_fraction == 1.0
        assert report.lost_shifts == ()
        assert report.inflation_max == 1.0
        assert report.faulted_worst == report.clean_worst


# One self-contained script replayed under different PYTHONHASHSEED
# values: everything the environment layer derives from Python-level
# hashing would diverge here if any crept in.
_DETERMINISM_SCRIPT = r"""
import hashlib, json
import numpy as np
import repro
from repro.core.environment import (
    AsymmetricSensing, FadingMisses, PrimaryUserChurn, compose,
    parse_environment,
)
from repro.core.results import pair_query, result_digest
from repro.core.verification import degradation_report

env = compose(
    FadingMisses(0.15, seed=3),
    PrimaryUserChurn(0.2, seed=5, dwell=16, channels=(1, 4)),
    AsymmetricSensing(0.1, seed=7, side="a"),
)
grid = env.slot_mask(
    np.arange(16, dtype=np.int64)[:, None],
    np.arange(4096, dtype=np.int64)[None, :],
)
mask_digest = hashlib.sha256(np.ascontiguousarray(grid).tobytes()).hexdigest()

query = pair_query(
    "paper", 12, [1, 2, 5], [2, 5, 9], 5000, 32, 32, 0, environment=env
)
a = repro.build_schedule({1, 2, 5}, 12)
b = repro.build_schedule({2, 5, 9}, 12)
report = degradation_report(a, b, 2000, FadingMisses(0.3, seed=11))
print(json.dumps({
    "mask": mask_digest,
    "env": env.digest(),
    "parsed": parse_environment("fading:p=0.05+pu-churn:rate=0.1").digest(),
    "query": result_digest(query),
    "report": report.to_dict(),
}, sort_keys=True))
"""


class TestProcessDeterminism:
    def test_identical_under_hashseed_variation(self):
        outputs = []
        for hashseed in ("0", "1", "31337"):
            proc = subprocess.run(
                [sys.executable, "-c", _DETERMINISM_SCRIPT],
                capture_output=True,
                text=True,
                env={
                    **os.environ,
                    "PYTHONHASHSEED": hashseed,
                },
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1] == outputs[2]
        payload = json.loads(outputs[0])
        assert payload["env"] and payload["query"] and payload["mask"]
