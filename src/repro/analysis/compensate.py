"""Measurement-overhead compensation.

KTAU knows how much its own instrumentation costs (Table 4's per-
operation cycles, tracked live by the measurement system).  TAU's
analysis tools can *compensate*: subtract the estimated measurement cost
from each event so profiles approximate what an uninstrumented run would
have shown.  This module implements that estimate for decoded KTAU
profiles.

Each entry/exit event of count *n* carries approximately
``n * (mean_start + mean_stop)`` cycles of overhead in its exclusive
time; nested events additionally inherit their direct children's
overhead in their *inclusive* time.  Without per-instance call-path data
the child correction uses the call-graph edges when available and
degrades gracefully (exclusive-only correction) when not.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.overhead import OverheadModel
from repro.core.wire import TaskProfileDump

#: Table 4 means, used as the per-operation estimate.
START_MEAN = OverheadModel.START[1]
STOP_MEAN = OverheadModel.STOP[1]


def estimated_overhead_cycles(count: int) -> int:
    """Expected measurement cost of ``count`` entry/exit pairs."""
    return int(count * (START_MEAN + STOP_MEAN))


def compensate(dump: TaskProfileDump) -> TaskProfileDump:
    """A copy of ``dump`` with estimated measurement overhead removed.

    Exclusive times lose their own events' cost; inclusive times lose
    their own cost plus (via call-graph edges, when recorded) the cost of
    everything beneath them.
    """
    out = TaskProfileDump(pid=dump.pid, comm=dump.comm)
    out.groups = dict(dump.groups)
    out.atomic = dict(dump.atomic)
    out.counters = dict(dump.counters)
    out.context_pairs = dict(dump.context_pairs)
    out.edges = dict(dump.edges)
    out.pmc = dump.pmc  # PMCs measure work done, not overhead: pass through

    # descendant event counts per event, from the (folded) call graph
    children: dict[str, set[str]] = {}
    for (parent, child), (_count, _incl) in dump.edges.items():
        if parent.startswith("K:"):
            children.setdefault(parent[2:], set()).add(child)

    def descendant_count(name: str, seen: frozenset[str]) -> int:
        total = 0
        for child in children.get(name, ()):
            if child in seen:
                continue
            count = dump.perf.get(child, (0, 0, 0))[0]
            total += count + descendant_count(child, seen | {child})
        return total

    for name, (count, incl, excl) in dump.perf.items():
        own = estimated_overhead_cycles(count)
        below = estimated_overhead_cycles(
            descendant_count(name, frozenset({name})))
        out.perf[name] = (count,
                          max(0, incl - own - below),
                          max(0, excl - own))
    return out


def total_estimated_overhead_s(dump: TaskProfileDump, hz: float) -> float:
    """Total estimated measurement cost carried by one profile."""
    pairs = sum(count for (count, _i, _e) in dump.perf.values())
    return estimated_overhead_cycles(pairs) / hz
