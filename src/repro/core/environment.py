"""Deterministic fault-injection environments for dynamic spectrum.

Every engine in this repo so far measures rendezvous on a *static*
spectrum: each agent draws its available set once and the channel is
usable forever after.  The paper's cognitive-radio setting is defined
by the opposite — primary users seize and release channels mid-sequence,
deep fades swallow individual slots, and sensing errors make one radio's
picture of the spectrum disagree with the truth.  This module models
those perturbations *after* schedule construction, as a layer the sweep
and simulation engines consult per slot:

* an :class:`Environment` maps a ``(channel, slot)`` grid to a boolean
  **validity mask** — ``True`` means a coincidence on that channel at
  that slot counts as a rendezvous, ``False`` means the slot is lost
  (primary user on the channel, a fade, a sensing miss);
* three fault families implement it: :class:`PrimaryUserChurn` (seeded
  busy windows per channel — a primary user holds the channel for a
  dwell of slots at a time), :class:`FadingMisses` (per-slot Bernoulli
  loss applied to otherwise-coincident slots), and
  :class:`AsymmetricSensing` (a static per-channel missense: one side's
  sensed set silently disagrees with ground truth, so the channel never
  yields a rendezvous);
* :class:`ComposedEnvironment` ANDs any number of masks together, and
  :func:`parse_environment` builds any of the above from a CLI spec
  string such as ``"pu-churn:rate=0.1,seed=7+fading:p=0.05"``.

**Determinism.**  Masks are pure functions of ``(channel, slot)`` and
the environment's own parameters, computed through a vectorized
splitmix64-style integer hash (:func:`hash_uniform`) — no RNG state, no
Python ``hash()``, so the same spec produces the same mask in every
process, under every ``PYTHONHASHSEED``, on every code path.  That
purity is what lets the sweep kernel apply an environment as *one
extra masked compare per tile* and stay
bit-identical with the scalar reference
(:func:`repro.core.verification.ttr_for_shift` with ``environment=``).

**Clocks.**  The pairwise sweeps evaluate the mask on the TTR
clock — slots counted from the later wake-up — which keeps the shared
shift deduplication (:func:`repro.core.stream.reduce_shifts`) valid:
two shifts collapsing to the same phase-offset pair see identical
channel windows *and* identical mask rows.  The population simulators
(:mod:`repro.sim.netcore`, :mod:`repro.sim.network`) evaluate the same
mask on the global simulation clock.  Both engines of each layer agree
with each other; the two layers deliberately model different clocks
(see ``docs/ARCHITECTURE.md``, environment layer).

**Identity.**  Every environment has a canonical :meth:`~Environment.spec`
dict and a :meth:`~Environment.digest` derived from it; result caches
and sweep checkpoints fold the digest into their keys so faulted and
clean measurements can never collide.  Composition digests are
order-insensitive: masks compose by AND, which commutes.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "Environment",
    "PrimaryUserChurn",
    "FadingMisses",
    "AsymmetricSensing",
    "ComposedEnvironment",
    "compose",
    "parse_environment",
    "environment_digest",
    "effective_horizon",
    "hash_uniform",
    "ENVIRONMENT_KINDS",
]

#: Spec names accepted by :func:`parse_environment`, mapped to families.
ENVIRONMENT_KINDS = ("pu-churn", "fading", "sensing")

# Family salts: distinct integer keys folded into the hash stream so two
# families with identical (seed, channel, slot) inputs draw independent
# uniforms.
_SALT_FADING = 0x66616465  # "fade"
_SALT_CHURN = 0x63687572  # "chur"
_SALT_SENSING = 0x73656E73  # "sens"

_U64 = np.uint64


def _bit_mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer: avalanche one uint64 array in place.

    Array-only on purpose — numpy integer *array* arithmetic wraps
    modulo ``2**64`` silently, which is exactly the splitmix64 contract
    (scalar numpy ints would warn on overflow).
    """
    x = x + _U64(0x9E3779B97F4A7C15)
    x = (x ^ (x >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> _U64(27))) * _U64(0x94D049BB133111EB)
    return x ^ (x >> _U64(31))


def hash_uniform(key: int, *parts: "np.ndarray | int") -> np.ndarray:
    """Deterministic uniforms in ``[0, 1)`` from integer coordinates.

    Folds ``key`` and each broadcastable integer array in ``parts``
    through the splitmix64 finalizer and maps the final 53 bits to a
    ``float64`` in ``[0, 1)``.  A pure function of its arguments:
    process-independent, ``PYTHONHASHSEED``-immune, and identical on
    every engine — the primitive every fault family draws from.
    Negative coordinates (e.g. the :data:`~repro.sim.agent.ASLEEP`
    sentinel) wrap to distinct uint64 values, deterministically.
    """
    # At least 1-d throughout: numpy wraps array overflow silently (the
    # splitmix64 contract) but would warn on 0-d scalar paths.
    acc = _bit_mix(np.full(1, _U64(key & 0xFFFFFFFFFFFFFFFF)))
    for part in parts:
        arr = np.asarray(part)
        acc = _bit_mix(acc ^ arr.astype(_U64))
    return (acc >> _U64(11)) * 2.0**-53


def environment_digest(environment: "Environment | None") -> str:
    """Stable hex digest of an environment (empty string for ``None``).

    The digest of the sorted-keys JSON encoding of
    :meth:`Environment.spec` — the same canonicalization the result
    cache applies to queries, so any two environments with equal specs
    share a digest and any parameter difference separates them.
    """
    if environment is None:
        return ""
    text = json.dumps(environment.spec(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def effective_horizon(horizon: int, joint: int, environment: "Environment | None") -> int:
    """How many slots a first-meet scan must cover to be exhaustive.

    Clean scans stop at the joint period ``joint = lcm(Pa, Pb)``: the
    coincidence pattern repeats, so a silent joint period proves a miss.
    An environment breaks that argument unless its own mask is periodic
    — :attr:`Environment.period` ``None`` (aperiodic) forces the full
    ``horizon``; a finite period clamps at ``lcm(joint, period)``.
    Every engine calls this one helper, so the early-stop decision can
    never diverge across them.
    """
    if environment is None:
        return min(horizon, joint)
    period = environment.period
    if period is None:
        return horizon
    return min(horizon, math.lcm(joint, period))


class Environment:
    """A deterministic per-slot validity mask over ``(channel, slot)``.

    Subclasses implement :meth:`slot_mask` as a pure vectorized function
    and :meth:`spec` as a canonical JSON-able identity.  The base class
    derives the digest, composition, and equality from those.
    """

    #: Mask period in slots (``None``: aperiodic — no early-stop), as a
    #: class default; subclasses with periodic masks override it.
    period: int | None = None

    def slot_mask(
        self, channels: np.ndarray, slots: np.ndarray
    ) -> np.ndarray:
        """Boolean validity over the broadcast of ``channels`` x ``slots``.

        ``True`` cells keep a coincidence; ``False`` cells lose it.  The
        arrays broadcast like any numpy pair (a ``(rows, width)`` channel
        tile against a ``(width,)`` slot row is the engines' shape), and
        the result may be a read-only broadcast view — callers combine
        it with ``&``, never mutate it.
        """
        raise NotImplementedError

    def spec(self) -> dict:
        """Canonical JSON-able identity of this environment."""
        raise NotImplementedError

    def digest(self) -> str:
        """Stable hex digest of :meth:`spec` (see :func:`environment_digest`)."""
        return environment_digest(self)

    def intensity(self) -> float:
        """The family's headline fault-intensity knob, for reports."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        """Spec equality: two environments are equal iff their masks are."""
        if not isinstance(other, Environment):
            return NotImplemented
        return self.spec() == other.spec()

    def __hash__(self) -> int:
        """Hash of the canonical digest (stable across processes)."""
        return hash(self.digest())


@dataclass(frozen=True, eq=False)
class FadingMisses(Environment):
    """Per-slot Bernoulli loss: each slot independently fades with ``p``.

    Models small-scale fading deep enough to swallow a whole slot: when
    a slot fades, *no* channel yields a rendezvous in it (the fade is a
    property of the slot, not of one channel — see the deviations note
    in ``docs/ARCHITECTURE.md``).  The draw is
    ``hash_uniform(seed, slot) >= p``, so ``p = 0`` keeps every slot
    (and is byte-identical to no environment) and ``p = 1`` loses all.
    """

    p: float
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"fading probability must be in [0, 1], got {self.p}")

    def slot_mask(self, channels: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Valid where the slot's uniform clears ``p`` (channel-blind)."""
        channels = np.asarray(channels)
        slots = np.asarray(slots)
        keep = hash_uniform(_SALT_FADING, _U64(self.seed & 0xFFFFFFFFFFFFFFFF), slots) >= self.p
        shape = np.broadcast_shapes(channels.shape, keep.shape)
        return np.broadcast_to(keep, shape)

    def spec(self) -> dict:
        """Canonical identity: ``{kind, p, seed}``."""
        return {"kind": "fading", "p": float(self.p), "seed": int(self.seed)}

    def intensity(self) -> float:
        """The per-slot miss probability ``p``."""
        return float(self.p)


@dataclass(frozen=True, eq=False)
class PrimaryUserChurn(Environment):
    """Primary users seize channels for whole dwell windows at a time.

    Time divides into windows of ``dwell`` slots; in each window every
    channel is independently busy with probability ``rate`` (drawn from
    ``hash_uniform(seed, channel, window)``), and a busy channel yields
    no rendezvous for the whole window — the PU occupies the medium, so
    the loss hits *both* agents.  ``channels`` restricts the churn to a
    subset of the spectrum (``None``: every channel can be seized),
    which is what makes the guarantee-preservation property testable:
    churn confined outside a pair's common channels can never change
    any TTR.
    """

    rate: float
    seed: int = 0
    dwell: int = 64
    channels: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"churn rate must be in [0, 1], got {self.rate}")
        if self.dwell <= 0:
            raise ValueError(f"dwell must be positive, got {self.dwell}")
        if self.channels is not None:
            object.__setattr__(
                self, "channels", tuple(sorted({int(c) for c in self.channels}))
            )

    def slot_mask(self, channels: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Valid where the channel's dwell window is PU-free (or unscoped)."""
        channels = np.asarray(channels)
        slots = np.asarray(slots)
        windows = slots // self.dwell
        busy = (
            hash_uniform(
                _SALT_CHURN, _U64(self.seed & 0xFFFFFFFFFFFFFFFF), channels, windows
            )
            < self.rate
        )
        if self.channels is not None:
            scoped = np.isin(channels, np.asarray(self.channels, dtype=np.int64))
            busy = busy & scoped
        return ~busy

    def spec(self) -> dict:
        """Canonical identity: ``{kind, rate, seed, dwell, channels}``."""
        return {
            "kind": "pu-churn",
            "rate": float(self.rate),
            "seed": int(self.seed),
            "dwell": int(self.dwell),
            "channels": None if self.channels is None else list(self.channels),
        }

    def intensity(self) -> float:
        """The per-window busy probability ``rate``."""
        return float(self.rate)


@dataclass(frozen=True, eq=False)
class AsymmetricSensing(Environment):
    """Static sensing error: one side's sensed set disagrees with truth.

    Each channel is independently mis-sensed with probability ``p``
    (drawn once from ``hash_uniform(seed, channel, side)`` — no time
    input, so the error is static and the mask has period 1).  A
    mis-sensed channel never yields a rendezvous: the ``side`` agent
    believes it unavailable and never listens there.  ``side`` names
    which agent mis-senses (``"a"`` or ``"b"``); it feeds the hash, so
    the two sides draw independent error sets and their digests differ.
    """

    p: float
    seed: int = 0
    side: str = "b"

    #: Static per-channel masks repeat every slot.
    period: int | None = 1

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"sensing error must be in [0, 1], got {self.p}")
        if self.side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', got {self.side!r}")

    def slot_mask(self, channels: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """Valid where the channel is sensed correctly (slot-blind)."""
        channels = np.asarray(channels)
        slots = np.asarray(slots)
        side_key = 1 if self.side == "a" else 2
        keep = (
            hash_uniform(
                _SALT_SENSING,
                _U64(self.seed & 0xFFFFFFFFFFFFFFFF),
                channels,
                _U64(side_key),
            )
            >= self.p
        )
        shape = np.broadcast_shapes(keep.shape, slots.shape)
        return np.broadcast_to(keep, shape)

    def spec(self) -> dict:
        """Canonical identity: ``{kind, p, seed, side}``."""
        return {
            "kind": "sensing",
            "p": float(self.p),
            "seed": int(self.seed),
            "side": self.side,
        }

    def intensity(self) -> float:
        """The per-channel missense probability ``p``."""
        return float(self.p)


class ComposedEnvironment(Environment):
    """The AND of several environments: a slot survives every fault.

    Masks compose commutatively (boolean AND), so the canonical spec
    sorts the parts — ``compose(x, y)`` and ``compose(y, x)`` share one
    digest, while any difference in the parts themselves separates the
    digests.  Nested compositions flatten on construction.
    """

    def __init__(self, parts: Sequence[Environment]):
        flat: list[Environment] = []
        for part in parts:
            if isinstance(part, ComposedEnvironment):
                flat.extend(part.parts)
            else:
                flat.append(part)
        if not flat:
            raise ValueError("composition needs at least one environment")
        self.parts: tuple[Environment, ...] = tuple(flat)

    @property
    def period(self) -> int | None:  # type: ignore[override]
        """lcm of the parts' periods; ``None`` if any part is aperiodic."""
        joint = 1
        for part in self.parts:
            if part.period is None:
                return None
            joint = math.lcm(joint, part.period)
        return joint

    def slot_mask(self, channels: np.ndarray, slots: np.ndarray) -> np.ndarray:
        """AND of every part's mask over the broadcast grid."""
        mask = self.parts[0].slot_mask(channels, slots)
        for part in self.parts[1:]:
            mask = mask & part.slot_mask(channels, slots)
        return mask

    def spec(self) -> dict:
        """Canonical identity: parts sorted by their canonical encoding."""
        encoded = sorted(
            self.parts,
            key=lambda p: json.dumps(p.spec(), sort_keys=True, separators=(",", ":")),
        )
        return {"kind": "composed", "parts": [p.spec() for p in encoded]}

    def intensity(self) -> float:
        """The strongest part's intensity (reporting convenience)."""
        return max(part.intensity() for part in self.parts)


def compose(*environments: Environment) -> Environment:
    """AND environments together; a single argument passes through."""
    if len(environments) == 1:
        return environments[0]
    return ComposedEnvironment(environments)


def _parse_value(key: str, text: str) -> object:
    """One ``key=value`` operand: channel lists, ints, floats, or sides."""
    if key == "channels":
        try:
            return tuple(int(part) for part in text.split("/") if part != "")
        except ValueError as exc:
            raise ValueError(
                f"bad channels list {text!r} (use '/'-separated ints)"
            ) from exc
    if key == "side":
        return text
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError as exc:
        raise ValueError(f"bad value {text!r} for {key!r}") from exc


_FAMILY_BUILDERS = {
    "fading": FadingMisses,
    "pu-churn": PrimaryUserChurn,
    "sensing": AsymmetricSensing,
}


def parse_environment(text: str | None) -> Environment | None:
    """Build an environment from a CLI spec string.

    Grammar: ``family:key=value,key=value`` terms joined by ``+`` into
    a composition; families are :data:`ENVIRONMENT_KINDS`.  Examples::

        pu-churn:rate=0.1,seed=7
        fading:p=0.05
        sensing:p=0.2,side=a
        fading:p=0.1+pu-churn:rate=0.2,dwell=32,channels=1/4/9

    ``None``, the empty string, and ``"none"`` mean no environment.
    Raises ``ValueError`` on unknown families or malformed operands.
    """
    if text is None or text.strip() in ("", "none"):
        return None
    parts: list[Environment] = []
    for term in text.split("+"):
        name, _, body = term.partition(":")
        name = name.strip()
        builder = _FAMILY_BUILDERS.get(name)
        if builder is None:
            raise ValueError(
                f"unknown environment {name!r}; expected one of "
                f"{ENVIRONMENT_KINDS}"
            )
        kwargs = {}
        for item in body.split(","):
            if not item.strip():
                continue
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"expected key=value in {term!r}, got {item!r}")
            kwargs[key.strip()] = _parse_value(key.strip(), value.strip())
        try:
            parts.append(builder(**kwargs))
        except TypeError as exc:
            raise ValueError(f"bad parameters for {name!r}: {exc}") from exc
    return compose(*parts)
