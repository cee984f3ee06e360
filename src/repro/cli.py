"""Command-line interface.

A small operational surface over the library, for a user who wants
numbers without writing Python:

    python -m repro schedule --channels 3,17,40 --universe 64 --slots 20
    python -m repro rendezvous --a 3,17,40 --b 17,58 --universe 64
    python -m repro bound --k 3 --l 4 --universe 64
    python -m repro simulate --agents 3,17,40/17,58/3,58 --universe 64
    python -m repro netsim --workload random_subsets --universe 12 --k 3 --agents 5000
    python -m repro netsim --workload random_subsets --universe 12 --agents 600 --certify 50
    python -m repro netsim --workload whitespace --universe 24 --agents 2000 --churn 0.2 --json
    python -m repro sweep --agents 3,17,40/17,58/3,58 --universe 64
    python -m repro sweep --agents ... --universe 64 --store-dir .schedules --store-cap 1000000
    python -m repro sweep --agents ... --universe 64 --checkpoint-dir .ckpt --resume
    python -m repro sweep --agents ... --universe 64 --environment pu-churn:rate=0.1,seed=7
    python -m repro sweep --agents ... --universe 64 --environment fading:p=0.05 --degradation 4000
    python -m repro sweep --agents ... --universe 64 --telemetry text
    python -m repro serve --a 3,17,40 --b 17,58 --universe 64 --results-dir .results
    python -m repro serve --a ... --b ... --universe 64 --results-dir .results --json
    python -m repro store prewarm --agents ... --universe 64 --store-dir .schedules
    python -m repro store inspect --store-dir .schedules
    python -m repro store evict --store-dir .schedules --all
    python -m repro walk --bits 110100

Each subcommand prints plain text; exit code 0 on success, 2 on usage
errors (argparse convention).

:func:`build_parser` registers every subcommand, with its arguments,
from one table (``_COMMANDS``: help line, add-arguments function,
handler).  :func:`main` builds that parser once per process, on its
first call, so a process answering many ``serve`` queries pays for the
build once.  ``serve`` reports the result cache's counters, which read
no file: a cache hit reads its one record and lists no directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import time
from collections.abc import Sequence
from pathlib import Path

import repro
from repro.analysis import format_table, walk_plot
from repro.core import bounds, telemetry
from repro.core.environment import (
    FadingMisses,
    PrimaryUserChurn,
    environment_digest,
    parse_environment,
)
from repro.core.results import ResultStore, result_digest
from repro.core.store import ScheduleStore
from repro.core.verification import degradation_report, ttr_for_shift
from repro.sim import (
    Agent,
    Instance,
    Network,
    Population,
    SweepRunner,
    channel_contention,
    simulate_population,
    summarize_discovery,
)
from repro.sim import workloads as _workloads
from repro.sim.netcore import DEFAULT_CHUNK
from repro.sim.network import ENGINES as _SIM_ENGINES

__all__ = ["main", "build_parser"]

from repro.baselines import BASELINE_NAMES

_ALGORITHMS = ("paper", "paper-sync", "paper-symmetric") + BASELINE_NAMES


def _parse_channels(text: str) -> list[int]:
    try:
        channels = [int(part) for part in text.split(",") if part != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad channel list {text!r}") from exc
    if not channels:
        raise argparse.ArgumentTypeError("channel list is empty")
    return channels


def _parse_agents(text: str) -> list[list[int]]:
    return [_parse_channels(part) for part in text.split("/")]


def _parse_environment_arg(text: str):
    """A fault-environment spec (``family:key=value,...`` joined by '+')."""
    try:
        return parse_environment(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


#: Workload generators the ``netsim`` subcommand can instantiate.
_NETSIM_WORKLOADS = (
    "random_subsets",
    "symmetric",
    "available_overlap",
    "adversarial_single_common",
    "whitespace",
)


def _parse_fraction(text: str) -> float:
    """A probability in ``[0, 1]``."""
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected a fraction, got {text!r}"
        ) from exc
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"fraction must be in [0, 1], got {value}"
        )
    return value


def _add_telemetry_arg(parser: argparse.ArgumentParser) -> None:
    """Attach the shared ``--telemetry`` flag to one subcommand parser.

    ``text`` prints the hierarchical phase tree
    (:func:`repro.core.telemetry.format_tree`) after the command's
    normal output; ``json`` prints one sorted-keys JSON object —
    ``{"telemetry": <snapshot>, "wall_seconds": ...}`` — as the *last*
    stdout line, so scripts can ``tail -n 1`` it (the BENCH-json-style
    shape ``docs/OBSERVABILITY.md`` documents).  Results are
    bit-identical with and without the flag.
    """
    parser.add_argument(
        "--telemetry",
        choices=("text", "json"),
        default=None,
        help="print a phase-timing tree after the run: 'text' renders "
        "it human-readable, 'json' emits one JSON object as the last "
        "output line; results are identical either way",
    )


def _schedule_args(schedule: argparse.ArgumentParser) -> None:
    schedule.add_argument("--channels", type=_parse_channels, required=True)
    schedule.add_argument("--universe", type=int, required=True)
    schedule.add_argument("--algorithm", choices=_ALGORITHMS, default="paper")
    schedule.add_argument("--slots", type=int, default=32)


def _rendezvous_args(rendezvous: argparse.ArgumentParser) -> None:
    rendezvous.add_argument("--a", type=_parse_channels, required=True)
    rendezvous.add_argument("--b", type=_parse_channels, required=True)
    rendezvous.add_argument("--universe", type=int, required=True)
    rendezvous.add_argument("--algorithm", choices=_ALGORITHMS, default="paper")
    rendezvous.add_argument("--shift", type=int, default=0)
    rendezvous.add_argument("--horizon", type=int, default=1_000_000)


def _bound_args(bound: argparse.ArgumentParser) -> None:
    bound.add_argument("--k", type=int, required=True)
    bound.add_argument("--l", type=int, required=True)
    bound.add_argument("--universe", type=int, required=True)


def _simulate_args(simulate: argparse.ArgumentParser) -> None:
    simulate.add_argument(
        "--agents",
        type=_parse_agents,
        required=True,
        help="channel sets separated by '/', e.g. 1,2/2,3/3,4",
    )
    simulate.add_argument("--universe", type=int, required=True)
    simulate.add_argument("--algorithm", choices=_ALGORITHMS, default="paper")
    simulate.add_argument("--horizon", type=int, default=200_000)
    simulate.add_argument("--wake-stagger", type=int, default=13)


def _netsim_args(netsim: argparse.ArgumentParser) -> None:
    netsim.add_argument(
        "--workload",
        choices=_NETSIM_WORKLOADS,
        default="random_subsets",
        help="channel-set generator for the population",
    )
    netsim.add_argument("--universe", type=int, required=True)
    netsim.add_argument(
        "--agents",
        type=int,
        required=True,
        metavar="N",
        help="population size (number of radios)",
    )
    netsim.add_argument(
        "--k",
        type=int,
        default=3,
        help="channel-set size for the subset workloads",
    )
    netsim.add_argument(
        "--rho",
        type=_parse_fraction,
        default=0.5,
        help="overlap fraction for the available_overlap workload",
    )
    netsim.add_argument("--algorithm", choices=_ALGORITHMS, default="paper")
    netsim.add_argument("--horizon", type=int, default=500_000)
    netsim.add_argument(
        "--wake-spread",
        type=int,
        default=16,
        help="wake slots drawn uniformly from [0, spread); 0 wakes "
        "everyone at slot 0",
    )
    netsim.add_argument(
        "--churn",
        type=_parse_fraction,
        default=0.0,
        help="fraction of agents that leave mid-simulation (seeded)",
    )
    netsim.add_argument(
        "--churn-window",
        type=int,
        default=10_000,
        help="a leaving agent departs within this many slots of waking",
    )
    netsim.add_argument("--seed", type=int, default=0)
    netsim.add_argument(
        "--engine",
        choices=_SIM_ENGINES,
        default="vectorized",
        help="simulation engine: the vectorized cohort-columnar core "
        "(default), the pairwise reference loop, or auto dispatch on "
        "population size",
    )
    netsim.add_argument(
        "--chunk",
        type=int,
        default=DEFAULT_CHUNK,
        help="slots materialized per time chunk",
    )
    netsim.add_argument(
        "--certify",
        type=int,
        default=0,
        metavar="K",
        help="also run both engines over the first K agents — clean AND "
        "under seeded fading/churn masks — and require bit-identical "
        "events (parity spot-check)",
    )
    netsim.add_argument(
        "--environment",
        type=_parse_environment_arg,
        default=None,
        metavar="SPEC",
        help="fault environment for the whole simulation, e.g. "
        "'pu-churn:rate=0.1,seed=7' or 'fading:p=0.05+sensing:p=0.1'",
    )
    netsim.add_argument(
        "--store-dir",
        default=None,
        help="optional schedule store: the DRDS global sequence is "
        "stored once and attached as a read-only memmap",
    )
    netsim.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the summary as one JSON object instead of plain text",
    )
    _add_telemetry_arg(netsim)


def _sweep_args(sweep: argparse.ArgumentParser) -> None:
    sweep.add_argument(
        "--agents",
        type=_parse_agents,
        required=True,
        help="channel sets separated by '/', e.g. 1,2/2,3/3,4",
    )
    sweep.add_argument("--universe", type=int, required=True)
    sweep.add_argument("--algorithm", choices=_ALGORITHMS, default="paper")
    sweep.add_argument("--horizon", type=int, default=1_000_000)
    sweep.add_argument("--dense", type=int, default=64)
    sweep.add_argument("--probes", type=int, default=64)
    sweep.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process count for the pair fan-out; 0 means one per core",
    )
    sweep.add_argument(
        "--store-dir",
        default=None,
        help="shared schedule store: the DRDS global sequence is stored "
        "here once and attached (read-only memmap) by every process",
    )
    sweep.add_argument(
        "--store-cap",
        type=int,
        default=None,
        help="byte cap on the schedule store's on-disk footprint "
        "(least-recently-attached records are evicted first); "
        "requires --store-dir",
    )
    sweep.add_argument(
        "--read-root",
        action="append",
        default=None,
        dest="read_roots",
        metavar="DIR",
        help="extra schedule-store root(s) consulted read-only before "
        "building a sequence (repeatable); requires --store-dir",
    )
    sweep.add_argument(
        "--results-dir",
        default=None,
        help="persistent result cache: repeat sweeps answer pair "
        "measurements from disk instead of recomputing",
    )
    sweep.add_argument(
        "--checkpoint-dir",
        default=None,
        help="snapshot sweep progress here so an interrupted sweep can "
        "resume; completed sweeps clean up after themselves",
    )
    sweep.add_argument(
        "--resume",
        action="store_true",
        help="resume from checkpoints left in --checkpoint-dir by an "
        "interrupted run (without this flag stale checkpoints are "
        "discarded and the sweep starts fresh)",
    )
    sweep.add_argument(
        "--environment",
        type=_parse_environment_arg,
        default=None,
        metavar="SPEC",
        help="fault environment applied to every sweep, e.g. "
        "'pu-churn:rate=0.1,seed=7' or 'fading:p=0.05+sensing:p=0.1'; "
        "misses stop failing the sweep and are reported per pair",
    )
    sweep.add_argument(
        "--degradation",
        type=int,
        default=None,
        metavar="BOUND",
        help="degradation-report mode: instead of the TTR table, emit "
        "one JSON report per pair of which exhaustive shift classes "
        "keep the BOUND-slot guarantee under --environment, with the "
        "TTR inflation distribution",
    )
    _add_telemetry_arg(sweep)


def _serve_args(serve: argparse.ArgumentParser) -> None:
    serve.add_argument("--a", type=_parse_channels, required=True)
    serve.add_argument("--b", type=_parse_channels, required=True)
    serve.add_argument("--universe", type=int, required=True)
    serve.add_argument("--algorithm", choices=_ALGORITHMS, default="paper")
    serve.add_argument("--horizon", type=int, default=1_000_000)
    serve.add_argument("--dense", type=int, default=64)
    serve.add_argument("--probes", type=int, default=64)
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument(
        "--results-dir",
        required=True,
        help="result-cache directory (created if missing); repeat "
        "queries under the same directory are served from disk",
    )
    serve.add_argument(
        "--store-dir",
        default=None,
        help="optional schedule store backing cold computes",
    )
    serve.add_argument(
        "--read-root",
        action="append",
        default=None,
        dest="read_roots",
        metavar="DIR",
        help="extra schedule-store root(s) consulted read-only "
        "(repeatable); requires --store-dir",
    )
    serve.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit the answer as one JSON object instead of plain text",
    )
    _add_telemetry_arg(serve)


def _store_args(store: argparse.ArgumentParser) -> None:
    store_sub = store.add_subparsers(dest="action", required=True)

    prewarm = store_sub.add_parser(
        "prewarm", help="store the DRDS global sequence ahead of a sweep"
    )
    prewarm.add_argument(
        "--agents",
        type=_parse_agents,
        required=True,
        help="channel sets separated by '/', e.g. 1,2/2,3/3,4",
    )
    prewarm.add_argument("--universe", type=int, required=True)
    prewarm.add_argument("--algorithm", choices=_ALGORITHMS, default="paper")
    prewarm.add_argument("--store-dir", required=True)

    inspect = store_sub.add_parser("inspect", help="list stored global sequences")
    inspect.add_argument("--store-dir", required=True)

    evict = store_sub.add_parser("evict", help="drop stored global sequences")
    evict.add_argument("--store-dir", required=True)
    group = evict.add_mutually_exclusive_group(required=True)
    group.add_argument("--digest", action="append", help="digest(s) to drop")
    group.add_argument("--all", action="store_true", help="drop every entry")


def _walk_args(walk: argparse.ArgumentParser) -> None:
    walk.add_argument("--bits", required=True)


def _cmd_schedule(args: argparse.Namespace) -> int:
    try:
        sched = repro.build_schedule(args.channels, args.universe, args.algorithm)
    except ValueError as exc:
        print(f"schedule failed: {exc}")
        return 1
    slots = [sched.channel_at(t) for t in range(args.slots)]
    print(f"algorithm: {args.algorithm}")
    print(f"channels:  {sorted(set(args.channels))}")
    print(f"period:    {sched.period}")
    print("slots:     " + " ".join(str(c) for c in slots))
    return 0


def _cmd_rendezvous(args: argparse.Namespace) -> int:
    try:
        a = repro.build_schedule(args.a, args.universe, args.algorithm)
        b = repro.build_schedule(args.b, args.universe, args.algorithm)
    except ValueError as exc:
        print(f"rendezvous failed: {exc}")
        return 1
    common = sorted(a.channels & b.channels)
    print(f"common channels: {common or 'none'}")
    ttr = ttr_for_shift(a, b, args.shift, args.horizon)
    if ttr is None:
        print(f"no rendezvous within {args.horizon} slots")
        return 1
    print(f"TTR at shift {args.shift}: {ttr} slots")
    if args.algorithm == "paper":
        analytic = bounds.theorem3_async_bound(
            len(a.channels), len(b.channels), args.universe
        )
        print(f"analytic bound: {analytic} slots")
    return 0


def _cmd_bound(args: argparse.Namespace) -> int:
    k, l, n = args.k, args.l, args.universe
    rows = [
        ["paper (Thm 3, async)", bounds.theorem3_async_bound(k, l, n)],
        ["paper (Thm 3, sync)", bounds.theorem3_sync_bound(k, l, n)],
        ["paper symmetric (3.2)", bounds.symmetric_wrapper_bound()],
        ["crseq envelope", bounds.crseq_bound(n)],
        ["jump-stay envelope", bounds.jump_stay_bound(n)],
        ["drds envelope", bounds.drds_bound(n)],
        ["random, expected", f"{bounds.randomized_expected_ttr(k, l):.0f}"],
    ]
    print(format_table(["guarantee", "slots"], rows))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    try:
        agents = [
            Agent(
                f"agent{i}",
                repro.build_schedule(channels, args.universe, args.algorithm),
                wake_time=args.wake_stagger * i,
            )
            for i, channels in enumerate(args.agents)
        ]
    except ValueError as exc:
        print(f"simulate failed: {exc}")
        return 1
    result = Network(agents).run(args.horizon)
    rows = [
        [f"{pair[0]}-{pair[1]}", event.time, event.channel, event.ttr]
        for pair, event in sorted(result.events.items())
    ]
    print(format_table(["pair", "slot", "channel", "TTR"], rows))
    unmet = result.unmet_pairs()
    if unmet:
        print(f"\nunmet overlapping pairs: {unmet}")
        return 1
    print(f"\nall overlapping pairs met by slot {result.discovery_time()}")
    return 0


def _netsim_population(args: argparse.Namespace) -> list[Agent]:
    """Build the seeded agent population for one ``netsim`` invocation.

    One schedule is built per *distinct* channel set and shared across
    the agents drawing it (DRDS over the store's global sequence when
    ``--store-dir`` is given), so the vectorized core's cohort grouping
    builds each schedule exactly once.  Wake and departure slots come
    from one seeded RNG, making the whole population a pure function of
    the arguments.
    """
    if args.agents < 1:
        raise ValueError(f"need at least one agent, got {args.agents}")
    if args.churn_window < 1:
        raise ValueError(
            f"churn window must be positive, got {args.churn_window}"
        )
    if args.workload == "random_subsets":
        instance = _workloads.random_subsets(
            args.universe, args.k, args.agents, seed=args.seed
        )
    elif args.workload == "symmetric":
        instance = _workloads.symmetric(
            args.universe, args.k, args.agents, seed=args.seed
        )
    elif args.workload == "available_overlap":
        instance = _workloads.available_overlap(
            args.universe, args.k, args.agents, args.rho, seed=args.seed
        )
    elif args.workload == "adversarial_single_common":
        instance = _workloads.adversarial_single_common(
            args.universe, args.k, args.agents, seed=args.seed
        )
    else:
        instance = _workloads.whitespace(
            args.universe, args.agents, seed=args.seed
        )
    store = None if args.store_dir is None else ScheduleStore(args.store_dir)
    schedules: dict[frozenset[int], object] = {}
    rng = random.Random(args.seed)
    agents = []
    for i, channels in enumerate(instance.sets):
        schedule = schedules.get(channels)
        if schedule is None:
            schedule = repro.build_schedule(
                channels, args.universe, args.algorithm, store=store
            )
            schedules[channels] = schedule
        wake = rng.randrange(args.wake_spread) if args.wake_spread > 0 else 0
        leave = None
        if args.churn > 0 and rng.random() < args.churn:
            leave = wake + 1 + rng.randrange(args.churn_window)
        agents.append(Agent(f"agent{i}", schedule, wake, leave))
    return agents


def _cmd_netsim(args: argparse.Namespace) -> int:
    try:
        agents = _netsim_population(args)
        network = Network(agents)
        engine = network.resolve_engine(args.engine)
        contention: list[dict[str, int]] = []
        start = time.perf_counter()
        if engine == "vectorized":
            population = Population.from_agents(agents)
            net = simulate_population(
                population,
                args.horizon,
                chunk=args.chunk,
                environment=args.environment,
            )
            profile = net.discovery_profile()
            cohorts = population.num_cohorts
            distinct = len(population.schedules)
            slots = net.slots_simulated
            contention = channel_contention(net, top=3)
        else:
            result = network.run(
                args.horizon,
                chunk=args.chunk,
                engine=engine,
                environment=args.environment,
            )
            profile = result.discovery_profile()
            cohorts = distinct = None
            slots = args.horizon
        seconds = time.perf_counter() - start
        stats = summarize_discovery(profile)
        parity = None
        if args.certify > 0:
            # Certification must cover the masked paths too: a fault
            # mask rides a different branch of both engines, so clean
            # parity alone would leave it uncertified.
            sample = Network(agents[: args.certify])
            probes = [
                ("clean", None),
                ("fading", FadingMisses(0.2, seed=args.seed)),
                ("pu-churn", PrimaryUserChurn(0.3, seed=args.seed, dwell=64)),
            ]
            if args.environment is not None:
                probes.append(("requested", args.environment))
            checks: dict[str, bool] = {}
            events = 0
            for label, probe_env in probes:
                reference = sample.run(
                    args.horizon,
                    chunk=args.chunk,
                    engine="pairwise",
                    environment=probe_env,
                )
                candidate = sample.run(
                    args.horizon,
                    chunk=args.chunk,
                    engine="vectorized",
                    environment=probe_env,
                )
                checks[label] = candidate.events == reference.events
                if label == "clean":
                    events = len(reference.events)
            parity = {
                "agents": len(sample.agents),
                "events": events,
                "identical": all(checks.values()),
                "checks": checks,
            }
    except ValueError as exc:
        print(f"netsim failed: {exc}")
        return 1
    coverage = (
        100.0 * stats.met_pairs / stats.overlapping_pairs
        if stats.overlapping_pairs
        else 100.0
    )
    if args.as_json:
        print(
            json.dumps(
                {
                    "workload": args.workload,
                    "universe": args.universe,
                    "algorithm": args.algorithm,
                    "seed": args.seed,
                    "engine": engine,
                    "environment": environment_digest(args.environment) or None,
                    "agents": len(agents),
                    "cohorts": cohorts,
                    "distinct_schedules": distinct,
                    "overlapping_pairs": stats.overlapping_pairs,
                    "met_pairs": stats.met_pairs,
                    "discovery_time": stats.discovery_time,
                    "milestones": {
                        f"{q:g}": slot for q, slot in stats.milestones.items()
                    },
                    "slots_simulated": slots,
                    "horizon": args.horizon,
                    "contention": contention,
                    "parity": parity,
                    "seconds": round(seconds, 4),
                },
                sort_keys=True,
            )
        )
    else:
        print(f"workload:  {args.workload} (universe {args.universe}, seed {args.seed})")
        line = f"agents:    {len(agents)}"
        if cohorts is not None:
            line += f" ({cohorts} cohorts, {distinct} distinct schedules)"
        print(line)
        print(f"algorithm: {args.algorithm}")
        print(f"engine:    {engine}")
        if args.environment is not None:
            print(f"environment: {environment_digest(args.environment)}")
        print(
            f"overlapping pairs: {stats.overlapping_pairs} "
            f"({stats.met_pairs} met, {coverage:.1f}%)"
        )
        if stats.discovery_time is not None:
            print(f"full discovery: slot {stats.discovery_time}")
        else:
            print(f"full discovery: not reached within {args.horizon} slots")
        milestones = " | ".join(
            f"{q:.0%} @ {'-' if slot is None else slot}"
            for q, slot in stats.milestones.items()
            if q < 1.0
        )
        print(f"milestones: {milestones}")
        print(f"slots simulated: {slots} / {args.horizon}")
        for row in contention:
            print(
                f"channel {row['channel']}: {row['contended_slots']} "
                f"contended slots, {row['colocated_pairs']} co-located pairs"
            )
        if parity is not None:
            verdict = "bit-identical" if parity["identical"] else "MISMATCH"
            masked = ", ".join(
                label for label in parity["checks"] if label != "clean"
            )
            print(
                f"parity: {parity['agents']}-agent subsample {verdict} "
                f"across engines ({parity['events']} events; "
                f"clean + masked: {masked})"
            )
        print(f"wall time: {seconds:.2f} s")
    if parity is not None and not parity["identical"]:
        return 1
    return 0 if stats.discovery_time is not None else 1


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.store_cap is not None and args.store_dir is None:
        print("sweep failed: --store-cap requires --store-dir")
        return 2
    if args.read_roots and args.store_dir is None:
        print("sweep failed: --read-root requires --store-dir")
        return 2
    if args.resume and args.checkpoint_dir is None:
        print("sweep failed: --resume requires --checkpoint-dir")
        return 2
    if args.degradation is not None and args.environment is None:
        print("sweep failed: --degradation requires --environment")
        return 2
    store = None
    if args.store_dir is not None:
        store_kwargs = {"read_roots": args.read_roots or ()}
        if args.store_cap is not None:
            store_kwargs["memory_cap"] = args.store_cap
        store = ScheduleStore(args.store_dir, **store_kwargs)
    if args.checkpoint_dir is not None and not args.resume:
        # A fresh (non---resume) run must not silently adopt another
        # run's partial progress: discard whatever snapshots remain.
        for stale in Path(args.checkpoint_dir).glob("*.ckpt.json"):
            stale.unlink()
    runner = SweepRunner(
        workers=args.workers or None,
        store=store,
        results=args.results_dir,
        checkpoint_dir=args.checkpoint_dir,
        environment=args.environment,
    )
    try:
        instance = Instance(
            args.universe, [frozenset(s) for s in args.agents], "cli"
        )
        if args.degradation is not None:
            return _sweep_degradation(args, runner, instance)
        measured = runner.measure_instance(
            instance,
            args.algorithm,
            args.horizon,
            dense=args.dense,
            probes=args.probes,
        )
    except (AssertionError, ValueError) as exc:
        print(f"sweep failed: {exc}")
        return 1
    faulted = args.environment is not None
    rows = [
        [
            f"{m.pair[0]}-{m.pair[1]}",
            m.worst_ttr,
            round(m.stats.mean, 2),
            round(m.stats.p95, 2),
            m.stats.count,
        ]
        + ([m.missed] if faulted else [])
        for m in measured
    ]
    print(f"algorithm: {args.algorithm}")
    if faulted:
        print(f"environment: {environment_digest(args.environment)}")
    header = ["pair", "worst TTR", "mean", "p95", "shifts"]
    if faulted:
        header.append("missed")
    print(format_table(header, rows))
    missed = runner.cache_misses
    reused = runner.cache_hits
    # Pool workers keep their own caches, so parent-side stats only
    # describe serial runs.
    cache_note = (
        f"{missed} cache misses, {reused} cache hits, "
        if missed + reused
        else ""
    )
    used = runner.effective_workers(len(measured))
    print(
        f"\n{len(measured)} overlapping pairs swept "
        f"({cache_note}"
        f"{used} worker{'s' if used != 1 else ''})"
    )
    if runner.store is not None:
        s = runner.store.stats()
        print(
            f"store {runner.store.store_dir} (DRDS global sequences): "
            f"{s['builds']} built, {s['attaches']} attached, "
            f"{s['entries']} entries ({s['total_bytes'] / 1024:.0f} KiB)"
        )
    if runner.results is not None:
        print(_result_cache_line(runner.results, runner.results.stats()))
    return 0


def _sweep_degradation(
    args: argparse.Namespace, runner: SweepRunner, instance: Instance
) -> int:
    """Emit one JSON degradation report per overlapping pair.

    Shift classes are exhaustive (each pair's full guarantee range),
    so the survival fraction is exact, not sampled.
    """
    reports = []
    for i, j in instance.overlapping_pairs():
        a = runner.schedule_for(instance.sets[i], instance.n, args.algorithm, i)
        b = runner.schedule_for(instance.sets[j], instance.n, args.algorithm, j)
        report = degradation_report(a, b, args.degradation, args.environment)
        row = report.to_dict()
        row["pair"] = [i, j]
        reports.append(row)
    print(
        json.dumps(
            {
                "mode": "degradation",
                "algorithm": args.algorithm,
                "bound": args.degradation,
                "environment": args.environment.spec(),
                "environment_digest": environment_digest(args.environment),
                "pairs": reports,
            },
            sort_keys=True,
        )
    )
    return 0 if all(row["ok"] for row in reports) else 1


def _result_cache_line(results: ResultStore, counters: dict[str, int]) -> str:
    """One-line summary of a result cache, shared by handlers.

    ``counters`` is :meth:`ResultStore.counters` or, where one directory
    scan per run is affordable, :meth:`ResultStore.stats`, whose
    ``entries`` and ``total_bytes`` the line then reports too.
    """
    line = (
        f"result cache {results.store_dir}: {counters['hits']} hits, "
        f"{counters['misses']} misses, {counters['writes']} writes"
    )
    if "entries" in counters:
        line += (
            f", {counters['entries']} entries "
            f"({counters['total_bytes'] / 1024:.1f} KiB)"
        )
    return line


def _cmd_serve(args: argparse.Namespace) -> int:
    """Answer one pair query from the result cache, computing on a miss.

    The reported counters are :meth:`ResultStore.counters`, never
    :meth:`ResultStore.stats`: a hit reads one record file and scans
    no directory, and a miss scans once, in its write's cap check.
    """
    if args.read_roots and args.store_dir is None:
        print("serve failed: --read-root requires --store-dir")
        return 2
    results = ResultStore(args.results_dir)
    store = None
    if args.store_dir is not None:
        store = ScheduleStore(args.store_dir, read_roots=args.read_roots or ())
    runner = SweepRunner(workers=1, store=store, results=results)
    hits_before = results.hits
    try:
        instance = Instance(
            args.universe, [frozenset(args.a), frozenset(args.b)], "serve"
        )
        request_start = time.perf_counter()
        measured = runner.measure_pair(
            instance,
            args.algorithm,
            (0, 1),
            args.horizon,
            dense=args.dense,
            probes=args.probes,
            seed=args.seed,
        )
    except (AssertionError, ValueError) as exc:
        print(f"serve failed: {exc}")
        return 1
    latency = time.perf_counter() - request_start
    source = "cache hit" if results.hits > hits_before else "computed"
    query = runner.pair_query_for(
        instance, args.algorithm, (0, 1), args.horizon,
        dense=args.dense, probes=args.probes, seed=args.seed,
    )
    if args.as_json:
        print(
            json.dumps(
                {
                    "digest": result_digest(query),
                    "query": query,
                    "worst_ttr": measured.worst_ttr,
                    "stats": {
                        "count": measured.stats.count,
                        "mean": measured.stats.mean,
                        "median": measured.stats.median,
                        "p95": measured.stats.p95,
                        "maximum": measured.stats.maximum,
                        "minimum": measured.stats.minimum,
                    },
                    "source": source,
                    "latency_seconds": round(latency, 6),
                    "cache": results.counters(),
                },
                sort_keys=True,
            )
        )
        return 0
    common = sorted(frozenset(args.a) & frozenset(args.b))
    print(f"algorithm: {args.algorithm}")
    print(f"common channels: {common}")
    print(f"worst TTR: {measured.worst_ttr} slots (source: {source})")
    print(f"latency: {latency * 1000:.1f} ms")
    print(
        f"mean {measured.stats.mean:.2f}, p95 {measured.stats.p95:.2f} "
        f"over {measured.stats.count} shifts"
    )
    print(_result_cache_line(results, results.counters()))
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    store = ScheduleStore(args.store_dir)
    if args.action == "prewarm":
        # The runner's prewarm is the one `sweep` runs before a fan-out,
        # so a prewarmed store is attached, never rebuilt, by the sweep
        # that follows.
        runner = SweepRunner(workers=1, store=store)
        try:
            instance = Instance(
                args.universe, [frozenset(s) for s in args.agents], "cli"
            )
            runner.prewarm(
                instance,
                args.algorithm,
                agents=list(range(instance.num_agents)),
            )
            periods = [
                runner.schedule_for(channels, instance.n, args.algorithm, i).period
                for i, channels in enumerate(instance.sets)
            ]
        except (AssertionError, ValueError) as exc:
            print(f"prewarm failed: {exc}")
            return 1
        for i, (channels, period) in enumerate(zip(args.agents, periods)):
            print(f"agent{i} {sorted(set(channels))}: period {period}")
        if args.algorithm != "drds":
            print(
                f"\n{args.algorithm} schedules are built in-process; "
                "the store keeps only DRDS global sequences"
            )
        s = store.stats()
        print(
            f"\nstore {store.store_dir}: {s['builds']} built, "
            f"{s['attaches']} already present, {s['entries']} entries "
            f"({s['total_bytes'] / 1024:.0f} KiB)"
        )
        return 0
    if args.action == "inspect":
        entries = store.entries()
        rows = [
            [
                m["digest"],
                m.get("n", "-"),
                m.get("period", "-"),
                f"{m['nbytes'] / 1024:.0f}",
                "yes" if m["live"] else "no",
            ]
            for m in entries
        ]
        print(format_table(["digest", "n", "period", "KiB", "live"], rows))
        live = sum(m["live"] for m in entries)
        print(
            f"\n{len(entries)} entries ({live} live), "
            f"{store.total_bytes() / 1024:.0f} KiB total"
        )
        return 0
    if args.all:
        print(f"evicted {store.clear()} entries")
        return 0
    missing = [d for d in args.digest if not store.evict(d)]
    for digest in missing:
        print(f"no such entry: {digest}")
    print(f"evicted {len(args.digest) - len(missing)} entries")
    return 1 if missing else 0


def _cmd_walk(args: argparse.Namespace) -> int:
    print(walk_plot(args.bits))
    return 0


#: Subcommand -> (help line, add-arguments function, handler), in ``--help`` order.
_COMMANDS = {
    "schedule": ("print an agent's hopping schedule", _schedule_args, _cmd_schedule),
    "rendezvous": (
        "when do two agents meet, and what is the bound",
        _rendezvous_args,
        _cmd_rendezvous,
    ),
    "bound": ("print the analytic guarantees", _bound_args, _cmd_bound),
    "simulate": ("multi-agent discovery simulation", _simulate_args, _cmd_simulate),
    "netsim": (
        "network-scale discovery simulation over a generated workload",
        _netsim_args,
        _cmd_netsim,
    ),
    "sweep": (
        "pairwise TTR sweep over relative wake-up shifts",
        _sweep_args,
        _cmd_sweep,
    ),
    "serve": (
        "answer one pair's worst-TTR query from the result cache, "
        "computing and storing on a miss",
        _serve_args,
        _cmd_serve,
    ),
    "store": (
        "manage a shared schedule store (prewarm / inspect / evict)",
        _store_args,
        _cmd_store,
    ),
    "walk": ("ASCII walk plot of a bit string", _walk_args, _cmd_walk),
}


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the whole ``repro`` command line.

    Every subcommand is registered with all of its arguments.  Each call
    builds a fresh parser; :func:`main` builds one per process and
    parses every command line with it.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Deterministic blind rendezvous (Chen et al., ICDCS 2014)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, add_arguments, _) in _COMMANDS.items():
        add_arguments(sub.add_parser(name, help=help_line))
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's parser, built by the first :func:`main` call.

    ``parse_args`` leaves a parser unchanged, so one parser serves any
    number of command lines.  It is built on first use rather than at
    import, which keeps the build out of ``import repro.cli``.
    """
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    """Parse arguments and dispatch to the subcommand handler.

    Every call parses with the same parser (:func:`_parser`), so a
    process that calls ``main`` many times builds it once.

    When the subcommand accepts ``--telemetry`` and it was given, the
    process telemetry registry is enabled around the handler and the
    phase tree is printed after the command's own output — as
    human-readable text or as one JSON object on the final stdout line
    (see :func:`repro.core.telemetry.format_tree`).  The registry is
    reset first and disabled after, so back-to-back ``main`` calls in
    one process never bleed telemetry into each other.
    """
    args = _parser().parse_args(argv)
    _, _, handler = _COMMANDS[args.command]
    mode = getattr(args, "telemetry", None)
    if mode is None:
        return handler(args)
    telemetry.reset()
    telemetry.enable()
    wall_start = time.perf_counter()
    try:
        code = handler(args)
    finally:
        wall = time.perf_counter() - wall_start
        snapshot = telemetry.snapshot()
        telemetry.disable()
        telemetry.reset()
        if mode == "json":
            print(
                json.dumps(
                    {"telemetry": snapshot, "wall_seconds": round(wall, 4)},
                    sort_keys=True,
                )
            )
        else:
            print(telemetry.format_tree(snapshot, wall_seconds=wall))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
