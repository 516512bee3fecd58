"""Counter-integrated performance views (the §6 PMU dimension).

Time-only views cannot distinguish a *slow* kernel path from a
*cache-hostile* one: both show large exclusive times.  With the
simulated PMCs threaded through the wire format
(:class:`repro.core.wire.TaskProfileDump` carries per-event inclusive
counter deltas plus per-task lifetime totals), this module derives the
rate views that make the distinction visible:

* :func:`counter_rate_table` — per-(node, path) IPC and L2
  miss-per-kilocycle rows aggregated over every process on each node
  (the counter analogue of the kernel-wide time view);
* :func:`merged_time_counter_view` — one process's profile with time
  and counter columns side by side, per event;
* :func:`node_counter_totals` — per-node lifetime PMC totals;
* :func:`render_counter_table` / :func:`counters_to_doc` — terminal and
  canonical-JSON output.

Everything here consumes decoded profile dumps (``node -> pid -> dump``
as harvested into :class:`repro.analysis.profiles.JobData
.node_profiles`) and is purely derivational — no simulation imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.render import ascii_table
from repro.core.wire import TaskProfileDump


@dataclass(frozen=True)
class CounterRow:
    """Aggregated counters for one kernel path on one node."""

    node: str
    event: str
    count: int
    cycles: int
    insn: int
    l2_misses: int
    pgf_minor: int
    pgf_major: int

    @property
    def ipc(self) -> float:
        """Instructions retired per cycle inside this path."""
        return self.insn / self.cycles if self.cycles else 0.0

    @property
    def miss_per_kcycle(self) -> float:
        """L2 misses per kilocycle inside this path."""
        return self.l2_misses * 1000.0 / self.cycles if self.cycles else 0.0


@dataclass(frozen=True)
class MergedEventRow:
    """One event's time and counter columns, side by side."""

    event: str
    count: int
    incl_s: float
    excl_s: float
    #: executed cycles inside the event per the PMC model (None when the
    #: counters build option was off)
    pmc_cycles: Optional[int]
    ipc: Optional[float]
    miss_per_kcycle: Optional[float]
    pgf: Optional[int]


def counter_rate_table(node_profiles: dict[str, dict[int, TaskProfileDump]],
                       min_cycles: int = 0) -> list[CounterRow]:
    """Per-(node, path) counter aggregates over all processes.

    Rows are sorted by descending miss rate (the interesting anomalies
    first), ties broken by (node, event) for determinism.  ``min_cycles``
    drops paths whose executed-cycle total is too small for a meaningful
    rate (a handful of cycles makes any ratio noise).
    """
    agg: dict[tuple[str, str], list[int]] = {}
    for node, profiles in node_profiles.items():
        for dump in profiles.values():
            for name, entry in dump.counters.items():
                _count, cycles, insn, l2, minflt, majflt = entry
                bucket = agg.setdefault((node, name), [0, 0, 0, 0, 0, 0])
                bucket[0] += entry[0]
                bucket[1] += cycles
                bucket[2] += insn
                bucket[3] += l2
                bucket[4] += minflt
                bucket[5] += majflt
    rows = [CounterRow(node, event, *vals)
            for (node, event), vals in agg.items()
            if vals[1] >= min_cycles]
    rows.sort(key=lambda r: (-r.miss_per_kcycle, r.node, r.event))
    return rows


def merged_time_counter_view(dump: TaskProfileDump, hz: float
                             ) -> list[MergedEventRow]:
    """Per-event merged time+counter profile for one process.

    Every perf event appears (sorted by descending exclusive time); the
    counter columns are ``None`` for events without counter samples —
    including every event of a counters-off build, so the merged view
    degrades to the plain time view.
    """
    rows: list[MergedEventRow] = []
    for name, (count, incl, excl) in sorted(
            dump.perf.items(), key=lambda kv: (-kv[1][2], kv[0])):
        entry = dump.counters.get(name)
        if entry is None:
            rows.append(MergedEventRow(name, count, incl / hz, excl / hz,
                                       None, None, None, None))
        else:
            _c, cycles, insn, l2, minflt, majflt = entry
            rows.append(MergedEventRow(
                name, count, incl / hz, excl / hz, cycles,
                insn / cycles if cycles else 0.0,
                l2 * 1000.0 / cycles if cycles else 0.0,
                minflt + majflt))
    return rows


def node_counter_totals(node_profiles: dict[str, dict[int, TaskProfileDump]]
                        ) -> dict[str, tuple[int, int, int, int, int]]:
    """Per-node lifetime PMC totals summed over all processes.

    Uses the per-task ``pmc`` block (all executed cycles, user *and*
    kernel), not the per-event counter profile (kernel spans only) —
    this is the node-wide denominator for cluster-level miss-rate
    comparisons.  Nodes with no PMC data are omitted.
    """
    out: dict[str, tuple[int, int, int, int, int]] = {}
    for node, profiles in node_profiles.items():
        total = [0, 0, 0, 0, 0]
        seen = False
        for dump in profiles.values():
            if dump.pmc is None:
                continue
            seen = True
            for i, v in enumerate(dump.pmc):
                total[i] += v
        if seen:
            out[node] = tuple(total)
    return out


def render_counter_table(rows: list[CounterRow], top: int = 20,
                         title: str = "per-(node, path) counter rates") -> str:
    """Terminal table of the hottest counter rows."""
    return ascii_table(
        ("node", "path", "count", "kcycles", "ipc", "l2/kcycle", "pgf"),
        [(r.node, r.event, r.count, r.cycles // 1000, r.ipc,
          r.miss_per_kcycle, r.pgf_minor + r.pgf_major)
         for r in rows[:top]],
        title=title)


def counters_to_doc(node_profiles: dict[str, dict[int, TaskProfileDump]],
                    top: int = 50) -> dict:
    """Canonical-JSON-ready document of the counter views.

    Floats are rounded to fixed precision so the document is byte-stable
    under :func:`repro.analysis.export.canonical_json`.
    """
    rows = counter_rate_table(node_profiles)
    totals = node_counter_totals(node_profiles)
    return {
        "paths": [{
            "node": r.node,
            "event": r.event,
            "count": r.count,
            "cycles": r.cycles,
            "insn": r.insn,
            "l2_misses": r.l2_misses,
            "pgf_minor": r.pgf_minor,
            "pgf_major": r.pgf_major,
            "ipc": round(r.ipc, 6),
            "miss_per_kcycle": round(r.miss_per_kcycle, 6),
        } for r in rows[:top]],
        "node_totals": {
            node: {
                "cycles": vals[0],
                "insn": vals[1],
                "l2_misses": vals[2],
                "pgf_minor": vals[3],
                "pgf_major": vals[4],
                "ipc": round(vals[1] / vals[0], 6) if vals[0] else 0.0,
                "miss_per_kcycle":
                    round(vals[2] * 1000.0 / vals[0], 6) if vals[0] else 0.0,
            } for node, vals in sorted(totals.items())
        },
    }
