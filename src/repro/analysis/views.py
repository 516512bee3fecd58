"""Kernel-wide and process-centric views (ParaProf-style aggregations).

* :func:`kernel_wide_view` — Figure 2-A: per-node kernel activity
  aggregated across every process on the node.
* :func:`node_process_view` — Figures 2-B and 7: per-process kernel
  activity on one node, exposing which processes (application ranks,
  daemons, kernel threads) contributed.
* :func:`group_breakdown` — activity of one process rolled up by
  instrumentation group.
* :func:`interval_view` — the delta between two consecutive KTAUD
  snapshots, turning lifetime totals into per-interval rates (what an
  *online* monitor renders, instead of bars that only ever grow).
* :func:`pmc_interval_view` — the counter-dimension sibling: per-pid
  lifetime PMC deltas between snapshots, with the same pid-churn reset
  tolerance.
"""

from __future__ import annotations

from typing import Optional

from repro.core.wire import TaskProfileDump


def kernel_wide_view(node_profiles: dict[str, dict[int, TaskProfileDump]],
                     hz: float, events: tuple[str, ...] | None = None
                     ) -> dict[str, dict[str, float]]:
    """``node -> event -> seconds`` aggregated over all processes.

    ``events`` filters to specific instrumentation points (e.g. the
    scheduling pair to spot the perturbed node in Figure 2-A); ``None``
    aggregates everything.
    """
    out: dict[str, dict[str, float]] = {}
    for node, profiles in node_profiles.items():
        agg: dict[str, float] = {}
        for dump in profiles.values():
            for name, (count, incl, excl) in dump.perf.items():
                if events is not None and name not in events:
                    continue
                agg[name] = agg.get(name, 0.0) + excl / hz
        out[node] = agg
    return out


def node_process_view(profiles: dict[int, TaskProfileDump], hz: float,
                      comms: dict[int, str] | None = None,
                      include_voluntary_wait: bool = False
                      ) -> dict[int, tuple[str, float]]:
    """``pid -> (comm, activity seconds)`` for one node.

    "Activity" is the sum of exclusive kernel times over all events.
    Voluntary scheduling (``schedule_vol``) is excluded by default: it
    measures time a process chose to sleep, which would make every idle
    daemon's bar as long as the run.  Involuntary scheduling *is*
    included — preemption is execution-contention, and it is exactly what
    makes the interference process and the mutually-preempting LU tasks
    stand out in Figures 2-B and 7 while the real daemons' bars stay
    "minuscule".
    """
    out: dict[int, tuple[str, float]] = {}
    for pid, dump in profiles.items():
        total = 0
        for name, (_c, _i, excl) in dump.perf.items():
            if not include_voluntary_wait and name == "schedule_vol":
                continue
            total += excl
        comm = dump.comm or (comms or {}).get(pid, "?")
        out[pid] = (comm, total / hz)
    return out


def interval_view(prev: Optional[dict[int, TaskProfileDump]],
                  curr: dict[int, TaskProfileDump]
                  ) -> dict[int, dict[str, tuple[int, int, int]]]:
    """Per-pid, per-event ``(count, incl, excl)`` deltas between snapshots.

    ``prev`` and ``curr`` are two consecutive per-node profile extractions
    (:attr:`repro.core.clients.ktaud.KtaudSnapshot.profiles`); the result
    is what happened *during* the interval.  ``prev=None`` (the first
    snapshot) yields the full lifetime totals.

    Tolerates counter resets from pid churn: a pid absent from ``prev``,
    or whose per-event count went *backwards* (the pid exited and was
    reused by a new process), contributes its current totals rather than
    a negative delta.  Pids present only in ``prev`` (exited, snapshot
    taken without zombies) simply drop out.  Zero deltas are omitted, so
    an idle interval is an empty dict.
    """
    out: dict[int, dict[str, tuple[int, int, int]]] = {}
    for pid, dump in curr.items():
        before = prev.get(pid) if prev is not None else None
        deltas: dict[str, tuple[int, int, int]] = {}
        for name, (count, incl, excl) in dump.perf.items():
            b = before.perf.get(name, (0, 0, 0)) if before is not None \
                else (0, 0, 0)
            if count < b[0]:  # counter reset: exited pid, id reused
                b = (0, 0, 0)
            delta = (count - b[0], incl - b[1], excl - b[2])
            if any(delta):
                deltas[name] = delta
        if deltas:
            out[pid] = deltas
    return out


def pmc_interval_view(prev: Optional[dict[int, TaskProfileDump]],
                      curr: dict[int, TaskProfileDump]
                      ) -> dict[int, tuple[int, int, int, int, int]]:
    """Per-pid lifetime-PMC deltas between two consecutive snapshots.

    Each delta is ``(cycles, instructions, l2_misses, minflt, majflt)``
    executed during the interval.  Mirrors :func:`interval_view`'s
    counter-reset tolerance: a pid whose *cycle* counter went backwards
    was reused by a fresh process, so its current totals are taken as
    the delta instead of producing negative counters.  Pids without PMC
    data (counters build option off) and all-zero deltas are omitted.
    """
    out: dict[int, tuple[int, int, int, int, int]] = {}
    for pid, dump in curr.items():
        if dump.pmc is None:
            continue
        before = prev.get(pid) if prev is not None else None
        b = before.pmc if before is not None and before.pmc is not None \
            else (0, 0, 0, 0, 0)
        if dump.pmc[0] < b[0]:  # counter reset: exited pid, id reused
            b = (0, 0, 0, 0, 0)
        delta = tuple(c - p for c, p in zip(dump.pmc, b))
        if any(delta):
            out[pid] = delta
    return out


def group_breakdown(dump: TaskProfileDump, hz: float) -> dict[str, float]:
    """``group -> exclusive seconds`` for one process."""
    out: dict[str, float] = {}
    for name, (count, incl, excl) in dump.perf.items():
        group = dump.groups.get(name, "?")
        out[group] = out.get(group, 0.0) + excl / hz
    return out
