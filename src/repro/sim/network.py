"""Discrete-time multi-agent rendezvous simulator.

Simulates the paper's model directly: a global slotted clock, agents that
wake at arbitrary slots (and may leave — churn) while following their
deterministic schedules, and pairwise rendezvous whenever two awake
agents access the same channel in the same slot.

:class:`Network` is a thin facade over two engines producing
bit-identical events:

* ``engine="pairwise"`` — the certification reference: an
  ``O(num_pairs * horizon)`` loop comparing materialized agent windows,
  kept deliberately simple (it only skips agents with no pending pair).
* ``engine="vectorized"`` — the network-scale core
  (:mod:`repro.sim.netcore`): the whole population stepped as numpy
  cohort columns with bitset per-slot detection, built for thousands
  of agents.
* ``engine="auto"`` — pairwise below
  :data:`AUTO_VECTORIZE_MIN_AGENTS` agents, vectorized from there up.

The split mirrors the verification stack, where the scalar
``ttr_for_shift`` certifies the sweep kernel: the slow loop stays
verbatim as the reference and the fast path must match it exactly
(``tests/sim/test_netcore.py``).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.environment import Environment
from repro.sim.agent import ASLEEP, Agent
from repro.sim.events import RendezvousEvent
from repro.sim.metrics import DiscoveryProfile

__all__ = ["Network", "SimulationResult", "ENGINES", "AUTO_VECTORIZE_MIN_AGENTS"]

#: Engine names accepted by :meth:`Network.run`.
ENGINES = ("auto", "pairwise", "vectorized")

#: Population size at which ``engine="auto"`` switches to the
#: vectorized core: below it the pairwise loop's simplicity wins,
#: above it the cohort-columnar scan does.
AUTO_VECTORIZE_MIN_AGENTS = 64


class SimulationResult:
    """First-rendezvous events per overlapping pair, plus derived metrics."""

    def __init__(
        self,
        agents: Sequence[Agent],
        events: dict[tuple[str, str], RendezvousEvent],
        horizon: int,
    ):
        self.agents = list(agents)
        self.events = events
        self.horizon = horizon

    def overlapping_pairs(self) -> list[tuple[str, str]]:
        """All pairs that share a channel (and hence must eventually meet)."""
        pairs = []
        for i, a in enumerate(self.agents):
            for b in self.agents[i + 1 :]:
                if a.overlaps(b):
                    pairs.append(tuple(sorted((a.name, b.name))))
        return pairs

    def met_pairs(self) -> list[tuple[str, str]]:
        """Pairs that rendezvoused within the horizon, sorted by name."""
        return sorted(self.events)

    def unmet_pairs(self) -> list[tuple[str, str]]:
        """Overlapping pairs that did not meet within the horizon."""
        return [p for p in self.overlapping_pairs() if p not in self.events]

    def all_discovered(self) -> bool:
        """Whether every overlapping pair met within the horizon."""
        return not self.unmet_pairs()

    def discovery_time(self) -> int | None:
        """Global slot by which every overlapping pair has met (or None)."""
        if not self.all_discovered():
            return None
        if not self.events:
            return 0
        return max(e.time for e in self.events.values())

    def ttrs(self) -> dict[tuple[str, str], int]:
        """Per-pair time-to-rendezvous (slots after both agents woke)."""
        return {pair: e.ttr for pair, e in self.events.items()}

    def discovery_profile(self) -> DiscoveryProfile:
        """First-meet times (weight 1 each) for the population metrics.

        The pairwise-engine counterpart of
        :meth:`repro.sim.netcore.NetResult.discovery_profile`: feed it
        to :func:`~repro.sim.metrics.summarize_discovery` or
        :func:`~repro.sim.metrics.discovery_throughput`.
        """
        times = np.sort(
            np.array([e.time for e in self.events.values()], dtype=np.int64)
        )
        return DiscoveryProfile(
            times=times,
            weights=np.ones(times.size, dtype=np.int64),
            overlapping_pairs=len(self.overlapping_pairs()),
        )


class Network:
    """A set of agents sharing a slotted spectrum (engine facade)."""

    def __init__(self, agents: Sequence[Agent]):
        names = [a.name for a in agents]
        if len(set(names)) != len(names):
            raise ValueError("agent names must be unique")
        self.agents = list(agents)

    def resolve_engine(self, engine: str) -> str:
        """Map an engine request to the concrete engine ``run`` will use."""
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}; expected one of {ENGINES}"
            )
        if engine == "auto":
            if len(self.agents) >= AUTO_VECTORIZE_MIN_AGENTS:
                return "vectorized"
            return "pairwise"
        return engine

    def run(
        self,
        horizon: int,
        chunk: int = 1 << 14,
        engine: str = "auto",
        environment: Environment | None = None,
    ) -> SimulationResult:
        """Simulate ``horizon`` slots; record each pair's first rendezvous.

        Both engines produce bit-identical events; see the module
        docstring for the dispatch rule.  ``chunk`` bounds the slot
        window materialized at once on either path.  ``environment``
        (:class:`~repro.core.environment.Environment`) runs the whole
        simulation under a fault mask on the global clock: a
        coincidence only becomes a rendezvous on a mask-validated
        ``(channel, slot)`` cell, identically on both engines.
        """
        if horizon <= 0:
            raise ValueError(f"horizon must be positive, got {horizon}")
        if self.resolve_engine(engine) == "vectorized":
            return self._run_vectorized(horizon, chunk, environment)
        return self._run_pairwise(horizon, chunk, environment)

    def _run_pairwise(
        self,
        horizon: int,
        chunk: int,
        environment: Environment | None = None,
    ) -> SimulationResult:
        """The certification reference: compare each pending pair's windows.

        Complexity ``O(num_pairs * horizon)`` with numpy constant factors;
        windows are processed in chunks to bound memory, and only agents
        still holding a pending pair are materialized each chunk.
        """
        pending: set[tuple[int, int]] = set()
        for i in range(len(self.agents)):
            for j in range(i + 1, len(self.agents)):
                if self.agents[i].overlaps(self.agents[j]):
                    pending.add((i, j))
        events: dict[tuple[str, str], RendezvousEvent] = {}
        for start in range(0, horizon, chunk):
            if not pending:
                break
            stop = min(start + chunk, horizon)
            windows = {
                i: self.agents[i].materialize_global(start, stop)
                for i in sorted({index for pair in pending for index in pair})
            }
            if environment is not None:
                slots = np.arange(start, stop, dtype=np.int64)
            for i, j in sorted(pending):
                row_i, row_j = windows[i], windows[j]
                eq = (row_i == row_j) & (row_i != ASLEEP)
                if environment is not None:
                    eq = eq & environment.slot_mask(row_i, slots)
                hits = np.nonzero(eq)[0]
                if hits.size == 0:
                    continue
                t = start + int(hits[0])
                a, b = self.agents[i], self.agents[j]
                key = tuple(sorted((a.name, b.name)))
                events[key] = RendezvousEvent(
                    time=t,
                    first=key[0],
                    second=key[1],
                    channel=int(row_i[hits[0]]),
                    ttr=t - max(a.wake_time, b.wake_time),
                )
                pending.discard((i, j))
        return SimulationResult(self.agents, events, horizon)

    def _run_vectorized(
        self,
        horizon: int,
        chunk: int,
        environment: Environment | None = None,
    ) -> SimulationResult:
        """Run the columnar core and expand cohort events to pair events."""
        from repro.sim.netcore import Population, simulate_population

        population = Population.from_agents(self.agents)
        result = simulate_population(
            population, horizon, chunk=chunk, environment=environment
        )
        events: dict[tuple[str, str], RendezvousEvent] = {}
        for ai, bi, t, channel in result.iter_agent_events():
            a, b = self.agents[ai], self.agents[bi]
            key = tuple(sorted((a.name, b.name)))
            events[key] = RendezvousEvent(
                time=t,
                first=key[0],
                second=key[1],
                channel=channel,
                ttr=t - max(a.wake_time, b.wake_time),
            )
        return SimulationResult(self.agents, events, horizon)
