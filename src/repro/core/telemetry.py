"""Unified telemetry layer: counters, gauges, and nested timing spans.

Every hot path in the stack — the sweep paths, the runner's
pair fan-out, the schedule/result stores, the network simulator — used
to answer "where did the time go?" with ad-hoc private counters or not
at all.  This module is the one process-local registry they all report
into, designed around three contracts:

* **Zero overhead when disabled.**  Telemetry is off by default.  A
  disabled :func:`span` returns one shared no-op singleton (no
  allocation, no clock read, no lock) and a disabled :func:`count` /
  :func:`gauge` returns after a single flag test — the sweep kernel's
  tile loop pays a few nanoseconds per call, certified under 2% of the
  intra-pair benchmark by ``benchmarks/test_telemetry_overhead.py``
  and allocation-free by ``tests/core/test_telemetry.py``.
* **Never observable by results.**  Instrumented code calls the same
  functions whether telemetry is on or off — it never branches on the
  flag — and no wall-clock value ever feeds a digest, cache key, or
  sweep result.  Telemetry-on and telemetry-off runs are certified
  bit-identical on both sweep paths.
* **Deterministic structure.**  A :func:`snapshot` sorts every key, so
  two runs of the same work produce the same names in the same order
  (only the measured durations differ) — immune to ``PYTHONHASHSEED``,
  mergeable across processes, and diffable across machines.

Spans nest: ``with span("runner.measure_pair"): ... with
span("stream.sweep"): ...`` builds a tree per thread (each thread keeps
its own stack; a span opened on a thread with an empty stack becomes
its own root).  Durations come from the monotonic
``perf_counter_ns`` clock; ``add_bytes`` attributes throughput to a
span (the sweep kernel credits each tile's bytes to
``stream.tile_assembly``).  Pool workers serialize their registry with
:func:`snapshot` and the parent folds it in with :func:`merge` — the
``SweepRunner`` does exactly that, so one snapshot covers a whole
multi-process sweep.

Surface: ``python -m repro sweep|serve|netsim --telemetry text|json``
prints the phase tree (see :func:`format_tree`), and
``docs/OBSERVABILITY.md`` documents the span taxonomy and how benches
should consume snapshots.
"""

from __future__ import annotations

import threading
import time

__all__ = [
    "enable",
    "disable",
    "enabled",
    "span",
    "count",
    "gauge",
    "counter_value",
    "snapshot",
    "reset",
    "merge",
    "format_tree",
    "total_seconds",
]


class _NullSpan:
    """The shared no-op span handed out while telemetry is disabled.

    One module-level instance serves every disabled ``span()`` call:
    entering, exiting, and ``add_bytes`` do nothing and allocate
    nothing, so disabled instrumentation costs one function call and
    one flag test per site.
    """

    __slots__ = ()

    def __enter__(self):
        """Return self; nothing is recorded."""
        return self

    def __exit__(self, exc_type, exc, tb):
        """Never swallow exceptions; nothing is recorded."""
        return False

    def add_bytes(self, nbytes):
        """Ignore throughput attribution while disabled."""
        return None


_NULL_SPAN = _NullSpan()


class _Node:
    """One aggregated span node: call count, duration, bytes, children."""

    __slots__ = ("calls", "ns", "bytes", "children")

    def __init__(self):
        self.calls = 0
        self.ns = 0
        self.bytes = 0
        self.children: dict[str, _Node] = {}


class _SpanTimer:
    """Live timing context for one enabled ``span()`` call.

    ``__enter__`` pushes the span name onto the calling thread's stack
    (so spans opened inside it become children) and reads the
    monotonic clock; ``__exit__`` pops, computes the duration, and
    folds ``(calls, ns, bytes)`` into the registry tree under the
    captured path.  Exceptions propagate — a failed phase still
    records the time it consumed.
    """

    __slots__ = ("_registry", "_name", "_bytes", "_start", "_path")

    def __init__(self, registry: "Telemetry", name: str):
        self._registry = registry
        self._name = name
        self._bytes = 0
        self._start = 0
        self._path: tuple[str, ...] = ()

    def add_bytes(self, nbytes: int) -> None:
        """Attribute ``nbytes`` of throughput to this span occurrence."""
        self._bytes += int(nbytes)

    def __enter__(self):
        """Push onto the thread's span stack and start the clock."""
        stack = self._registry._stack()
        stack.append(self._name)
        self._path = tuple(stack)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        """Stop the clock, pop the stack, and record into the tree."""
        elapsed = time.perf_counter_ns() - self._start
        stack = self._registry._stack()
        if stack and stack[-1] == self._name:
            stack.pop()
        self._registry._record(self._path, elapsed, self._bytes)
        return False


class Telemetry:
    """Process-local registry of counters, gauges, and span trees.

    One module-level instance backs the functional API below; tests
    may construct private registries.  All mutation is lock-guarded so
    threads aggregate safely; reads via :meth:`snapshot` take the same lock and therefore see a
    consistent tree.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._root = _Node()

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[str]:
        """The calling thread's span-name stack (created on first use)."""
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def _record(self, path: tuple[str, ...], ns: int, nbytes: int) -> None:
        """Fold one finished span occurrence into the tree."""
        with self._lock:
            node = self._root
            for name in path:
                child = node.children.get(name)
                if child is None:
                    child = _Node()
                    node.children[name] = child
                node = child
            node.calls += 1
            node.ns += ns
            node.bytes += nbytes

    def count(self, name: str, delta: int = 1) -> None:
        """Add ``delta`` to the named monotonic counter."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + int(delta)

    def gauge(self, name: str, value: float) -> None:
        """Set the named gauge to ``value`` (last writer wins)."""
        with self._lock:
            self._gauges[name] = value

    def counter_value(self, name: str) -> int:
        """Current value of one counter (0 when never bumped)."""
        with self._lock:
            return self._counters.get(name, 0)

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-able state: sorted counters, gauges, and the span tree.

        Keys appear in sorted order at every level, so the *structure*
        (names, nesting, ordering, call counts) is deterministic across
        runs and ``PYTHONHASHSEED`` values — only the measured
        ``seconds`` vary.  ``total_seconds`` sums the root spans'
        durations (roots opened on other threads may overlap in wall
        time; see ``docs/OBSERVABILITY.md``).
        """
        with self._lock:
            spans = _serialize_children(self._root)
            return {
                "counters": {k: self._counters[k] for k in sorted(self._counters)},
                "gauges": {k: self._gauges[k] for k in sorted(self._gauges)},
                "spans": spans,
                "total_seconds": round(
                    sum(node["seconds"] for node in spans.values()), 6
                ),
            }

    def reset(self) -> None:
        """Drop every counter, gauge, and span (open spans still record).

        Also clears the *calling thread's* span stack: a forked pool
        worker inherits the parent's stack (the parent is typically
        inside its fan-out span at fork time), and without the clear
        the worker's spans would nest under a phantom parent that
        varies with the multiprocessing start method.
        """
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._root = _Node()
        self._stack().clear()

    def merge(self, snap: dict | None) -> None:
        """Fold a serialized snapshot (e.g. from a pool worker) in.

        Counters and span calls/seconds/bytes add; gauges overwrite
        (last writer wins).  ``None`` and empty snapshots are accepted
        and ignored, so callers can merge unconditionally.
        """
        if not snap:
            return
        with self._lock:
            for name, value in snap.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + int(value)
            for name, value in snap.get("gauges", {}).items():
                self._gauges[name] = value
            _merge_children(self._root, snap.get("spans", {}))


def _serialize_children(node: _Node) -> dict:
    """Children of one node as sorted JSON-able dicts (recursive)."""
    out = {}
    for name in sorted(node.children):
        child = node.children[name]
        out[name] = {
            "calls": child.calls,
            "seconds": round(child.ns / 1e9, 6),
            "bytes": child.bytes,
            "children": _serialize_children(child),
        }
    return out


def _merge_children(node: _Node, spans: dict) -> None:
    """Add serialized span subtrees into a live node (recursive)."""
    for name, payload in spans.items():
        child = node.children.get(name)
        if child is None:
            child = _Node()
            node.children[name] = child
        child.calls += int(payload.get("calls", 0))
        child.ns += int(round(float(payload.get("seconds", 0.0)) * 1e9))
        child.bytes += int(payload.get("bytes", 0))
        _merge_children(child, payload.get("children", {}))


_REGISTRY = Telemetry()
_ENABLED = False


def enable() -> None:
    """Turn telemetry on: spans time, counters and gauges record."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn telemetry off: every call becomes a near-free no-op.

    Recorded state is kept (``reset()`` drops it), so a snapshot taken
    after disabling still describes the instrumented window.
    """
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether the registry is currently recording."""
    return _ENABLED


def span(name: str):
    """Context manager timing one occurrence of the named phase.

    Disabled: returns the shared no-op singleton — no allocation, no
    clock read.  Enabled: returns a :class:`_SpanTimer` that nests
    under the innermost open span on the calling thread and aggregates
    ``(calls, seconds, bytes)`` under its path in the registry tree.
    Use dotted names (``"stream.tile_assembly"``) so roots group by
    subsystem; see ``docs/OBSERVABILITY.md`` for the taxonomy.
    """
    if not _ENABLED:
        return _NULL_SPAN
    return _SpanTimer(_REGISTRY, name)


def count(name: str, delta: int = 1) -> None:
    """Bump the named counter by ``delta`` (no-op while disabled)."""
    if not _ENABLED:
        return
    _REGISTRY.count(name, delta)


def gauge(name: str, value: float) -> None:
    """Set the named gauge (no-op while disabled)."""
    if not _ENABLED:
        return
    _REGISTRY.gauge(name, value)


def counter_value(name: str) -> int:
    """Read one counter's current value (works disabled too)."""
    return _REGISTRY.counter_value(name)


def snapshot() -> dict:
    """Serialize the process registry (see :meth:`Telemetry.snapshot`)."""
    return _REGISTRY.snapshot()


def reset() -> None:
    """Clear the process registry's counters, gauges, and spans."""
    _REGISTRY.reset()


def merge(snap: dict | None) -> None:
    """Fold a worker snapshot into the process registry."""
    _REGISTRY.merge(snap)


def total_seconds(snap: dict) -> float:
    """Sum of a snapshot's root-span durations (its ``total_seconds``)."""
    return float(snap.get("total_seconds", 0.0))


def _format_bytes(nbytes: int) -> str:
    """Human-readable byte count for the text tree."""
    if nbytes >= 1 << 30:
        return f"{nbytes / (1 << 30):.1f} GiB"
    if nbytes >= 1 << 20:
        return f"{nbytes / (1 << 20):.1f} MiB"
    if nbytes >= 1 << 10:
        return f"{nbytes / (1 << 10):.1f} KiB"
    return f"{nbytes} B"


def _format_row(
    depth: int, name: str, calls: str, seconds: float, parent_seconds: float
) -> str:
    """One text-tree row: name, calls column, seconds, share of parent."""
    share = ""
    if parent_seconds > 0:
        share = f"  {100.0 * seconds / parent_seconds:5.1f}%"
    return (
        f"{'  ' * depth}{name:<{max(1, 36 - 2 * depth)}} "
        f"{calls:>13} {seconds:>10.4f} s{share}"
    )


def _format_node(
    lines: list[str], name: str, node: dict, depth: int, parent_seconds: float
) -> None:
    """Append one span row (and its children) to the text tree.

    A node with children gets a ``(self)`` row first: its seconds minus
    its children's, so self plus children always equals the node.
    """
    calls = f"{node['calls']:>7} call{'s' if node['calls'] != 1 else ' '}"
    throughput = f"  {_format_bytes(node['bytes'])}" if node["bytes"] else ""
    lines.append(
        _format_row(depth, name, calls, node["seconds"], parent_seconds)
        + throughput
    )
    children = node["children"]
    if children:
        # Snapshot seconds are rounded to microseconds, so a self time
        # within rounding of zero can come out a hair negative.
        own = node["seconds"] - sum(child["seconds"] for child in children.values())
        lines.append(
            _format_row(depth + 1, "(self)", "", max(own, 0.0), node["seconds"])
        )
    for child_name, child in children.items():
        _format_node(lines, child_name, child, depth + 1, node["seconds"])


def format_tree(snap: dict, wall_seconds: float | None = None) -> str:
    """Render a snapshot as the hierarchical phase tree, with shares.

    Each row shows calls, seconds, the share of its parent's time
    (root rows: share of ``wall_seconds`` when given), and byte
    throughput where recorded; every node with children leads them
    with a ``(self)`` row, so no share of a parent goes unattributed.
    Counters and gauges follow the tree.  This is the ``--telemetry
    text`` output of the CLIs; the snapshot itself carries no self
    rows.
    """
    lines: list[str] = []
    total = total_seconds(snap)
    header = f"telemetry: {total:.4f} s in spans"
    if wall_seconds is not None:
        header += f" ({wall_seconds:.4f} s wall)"
    lines.append(header)
    parent = wall_seconds if wall_seconds else total
    for name, node in snap.get("spans", {}).items():
        _format_node(lines, name, node, 1, parent or 0.0)
    counters = snap.get("counters", {})
    if counters:
        lines.append("counters:")
        for name, value in counters.items():
            lines.append(f"  {name:<44} {value}")
    gauges = snap.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        for name, value in gauges.items():
            lines.append(f"  {name:<44} {value}")
    return "\n".join(lines)
