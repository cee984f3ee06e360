"""Randomized differential harness: ``ttr_sweep`` vs the scalar loop.

Two sweep paths (the scalar loop and the blocked kernel), pinned tile
plans, three fault-environment families and short horizons span more execution configurations than a hand-enumerated
parity matrix covers.  This harness draws random points from that space
— (algorithm, workload, environment, configuration, shift set, horizon)
— and asserts the resulting TTR profile is **bit-identical** to the
scalar reference loop (:func:`repro.core.verification.ttr_for_shift`),
the one implementation simple enough to trust by inspection.

The case generator is a plain seeded ``random.Random`` program — no
external property-testing dependency — so every case is replayable from
its integer seed alone:

* ``REPRO_DIFFERENTIAL_CASES`` (default ``60``) sets how many random
  cases run; CI turns it up to 200+.
* ``REPRO_DIFFERENTIAL_SEED`` (default ``0``) offsets the seed stream,
  so nightly runs can walk fresh territory while any failure stays
  reproducible: the failing test's parametrized id *is* the case seed.
* ``differential_corpus.json`` is the regression corpus: seeds that
  once found bugs (or pin especially gnarly configurations) replay on
  every run, first, forever.  Each entry records what its seed draws —
  engine, algorithm, tile plan, environment family, horizon length and
  shift count, the properties its note relies on — so a change to the
  generator that silently re-targets a seed fails
  ``test_corpus_is_well_formed``.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

import pytest

import repro
from repro.core.environment import parse_environment
from repro.core.schedule import CyclicSchedule
from repro.core.stream import TilePlan, ttr_sweep
from repro.core.verification import ttr_for_shift
from repro.sim import workloads

CASES = int(os.environ.get("REPRO_DIFFERENTIAL_CASES", "60"))
SEED_BASE = int(os.environ.get("REPRO_DIFFERENTIAL_SEED", "0"))

CORPUS_PATH = Path(__file__).with_name("differential_corpus.json")

#: ``cyclic`` cycles through the sorted channel set: joint periods of a
#: few slots, so ``auto`` draws reach the scalar loop too.
ALGORITHMS = ("paper", "crseq", "jump-stay", "drds", "zos", "cyclic")

WORKLOADS = (
    lambda rng: workloads.random_subsets(
        rng.choice((8, 12, 16)), rng.randint(3, 5), 3, seed=rng.randint(0, 999)
    ),
    lambda rng: workloads.single_overlap(
        rng.choice((12, 16)), rng.randint(2, 4), rng.randint(2, 4),
        seed=rng.randint(0, 999),
    ),
    lambda rng: workloads.symmetric(
        rng.choice((8, 16)), rng.randint(2, 4), 2, seed=rng.randint(0, 999)
    ),
    lambda rng: workloads.nested(16, [2, rng.randint(3, 5)], seed=rng.randint(0, 999)),
)

ENVIRONMENTS = (
    lambda rng: None,
    lambda rng: parse_environment(f"fading:p=0.1,seed={rng.randint(0, 99)}"),
    lambda rng: parse_environment(f"pu-churn:rate=0.08,seed={rng.randint(0, 99)}"),
    lambda rng: parse_environment(f"sensing:p=0.15,seed={rng.randint(0, 99)}"),
    lambda rng: parse_environment(
        f"fading:p=0.05,seed={rng.randint(0, 99)}"
        f"+pu-churn:rate=0.05,seed={rng.randint(0, 99)}"
    ),
)

#: ``auto``: ``ttr_sweep`` as callers use it (the scalar loop for tiny
#: joint periods, the kernel otherwise); ``kernel``: the kernel under a
#: pinned :class:`TilePlan`.
ENGINE_CONFIGS = ("auto", "kernel")


def _draw_case(rng: random.Random) -> dict:
    """One random execution configuration, fully determined by ``rng``."""
    algorithm = rng.choice(ALGORITHMS)
    instance = rng.choice(WORKLOADS)(rng)
    pairs = instance.overlapping_pairs()
    if not pairs:
        # Degenerate draw (no overlapping pair): fall back to the
        # guaranteed-overlap generator so every seed yields a case.
        instance = workloads.single_overlap(16, 3, 3, seed=rng.randint(0, 999))
        pairs = instance.overlapping_pairs()
    engine = rng.choice(ENGINE_CONFIGS)
    environment = rng.choice(ENVIRONMENTS)(rng)
    plan = None
    if engine == "kernel":
        plan = TilePlan(
            tile_bytes=rng.choice((1 << 14, 1 << 16)),
            block_rows=rng.choice((1, 2, 7, 64)),  # 1: fully degenerate
        )
    return {
        "algorithm": algorithm,
        "instance": instance,
        "pair": pairs[0],
        "engine": engine,
        "environment": environment,
        "plan": plan,
        "num_shifts": rng.randint(6, 20),
        "short_horizon": rng.random() < 0.3,
        "rng": rng,
    }


def _schedules(case: dict) -> tuple:
    instance = case["instance"]
    rng = case["rng"]
    a, b = (
        CyclicSchedule(sorted(instance.sets[k]))
        if case["algorithm"] == "cyclic"
        else repro.build_schedule(instance.sets[k], instance.n, case["algorithm"])
        for k in case["pair"]
    )
    lo, hi = -b.period + 1, a.period
    shifts = [rng.randrange(lo, hi) for _ in range(case["num_shifts"])]
    shifts += [0, lo, hi - 1, rng.randrange(lo, hi) * 7]  # dupes welcome
    if case["short_horizon"]:
        horizon = rng.randint(1, 60)
    else:
        horizon = min(4 * max(a.period, b.period), 30_000)
    return a, b, shifts, horizon


def _run_case(seed: int) -> None:
    """Draw the case for ``seed``, execute it, and assert bit-parity."""
    case = _draw_case(random.Random(seed))
    env = case["environment"]
    a, b, shifts, horizon = _schedules(case)
    label = (
        f"seed={seed} engine={case['engine']} algo={case['algorithm']} "
        f"plan={case['plan']} env={'yes' if env else 'no'}"
    )
    expected = {
        s: ttr_for_shift(a, b, s, horizon, environment=env) for s in shifts
    }
    got = ttr_sweep(a, b, shifts, horizon, plan=case["plan"], environment=env)
    assert got == expected, label


def _corpus_entries() -> list[dict]:
    return json.loads(CORPUS_PATH.read_text())


@pytest.mark.parametrize(
    "entry",
    _corpus_entries(),
    ids=lambda entry: f"seed{entry['seed']}",
)
def test_regression_corpus_replays(entry):
    """Seeds that pin past counterexamples and gnarly configurations."""
    _run_case(entry["seed"])


@pytest.mark.parametrize("seed", range(SEED_BASE, SEED_BASE + CASES))
def test_random_differential_case(seed):
    """A fresh random point in the execution-configuration space."""
    _run_case(seed)


def _environment_family(environment) -> str | None:
    """``None``, one fault kind, or composed kinds joined by ``+``."""
    if environment is None:
        return None
    spec = environment.spec()
    return "+".join(sorted(part["kind"] for part in spec.get("parts", [spec])))


def _corpus_record(seed: int) -> dict:
    """What a seed draws, in the corpus entries' own fields."""
    case = _draw_case(random.Random(seed))
    plan = case["plan"]
    _, _, shifts, _ = _schedules(case)
    return {
        "engine": case["engine"],
        "algorithm": case["algorithm"],
        "plan": None if plan is None else {
            "tile_bytes": plan.tile_bytes, "block_rows": plan.block_rows
        },
        "environment": _environment_family(case["environment"]),
        "horizon": "short" if case["short_horizon"] else "long",
        "shifts": len(shifts),
    }


def test_corpus_is_well_formed():
    entries = _corpus_entries()
    assert entries, "regression corpus must never be empty"
    for entry in entries:
        assert isinstance(entry["seed"], int)
        assert entry["note"]
        drawn = _corpus_record(entry["seed"])
        pinned = {key: entry[key] for key in drawn}
        assert drawn == pinned, (
            f"seed {entry['seed']} now draws {drawn}; its note no longer holds"
        )
    seeds = [entry["seed"] for entry in entries]
    assert len(seeds) == len(set(seeds)), "duplicate corpus seeds"
