"""Merged user/kernel profile construction (Figure 2-D and friends).

Given one process's TAU (user) profile and its KTAU (kernel) profile with
context attribution, build the integrated view the paper shows:

* kernel routines (schedule, system calls, interrupts...) appear as
  first-class rows alongside user routines;
* each user routine's exclusive time is reduced by the kernel time that
  ran under it, yielding the "true" exclusive time in the combined
  user/kernel call stack.

The per-(user-routine, kernel-event) attribution comes from KTAU's
merge support (``context_pairs``); cycle counts from both
layers share the node TSC, so the subtraction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.wire import TaskProfileDump
from repro.tau.profiler import TauProfileDump


@dataclass(frozen=True)
class MergedRow:
    """One routine in the merged profile."""

    name: str
    layer: str  # "user" or "kernel"
    count: int
    incl_cycles: int
    excl_cycles: int  # for user rows: the "true" exclusive time


def kernel_time_by_user_context(kdump: TaskProfileDump) -> dict[str, int]:
    """Total kernel exclusive cycles attributed to each user routine."""
    per_ctx: dict[str, int] = {}
    for (ctx, _event), (_count, excl) in kdump.context_pairs.items():
        per_ctx[ctx] = per_ctx.get(ctx, 0) + excl
    return per_ctx


def merged_profile(udump: TauProfileDump, kdump: TaskProfileDump) -> list[MergedRow]:
    """Build the integrated user/kernel profile for one process.

    Returns rows sorted by descending exclusive time, mixing both layers —
    the data behind the paired-bar comparison of Figure 2-D (the caller
    renders the TAU-only view directly from ``udump``).
    """
    rows: list[MergedRow] = []
    kernel_under_ctx = kernel_time_by_user_context(kdump)
    for name, (count, incl, excl) in udump.perf.items():
        true_excl = excl - kernel_under_ctx.get(name, 0)
        rows.append(MergedRow(name=name, layer="user", count=count,
                              incl_cycles=incl, excl_cycles=max(0, true_excl)))
    for name, (count, incl, excl) in kdump.perf.items():
        rows.append(MergedRow(name=name, layer="kernel", count=count,
                              incl_cycles=incl, excl_cycles=excl))
    rows.sort(key=lambda r: -r.excl_cycles)
    return rows


def rows_to_doc(rows: list[MergedRow], hz: float, top: int = 5) -> dict[str, float]:
    """Compact JSON-able summary of the top merged rows.

    ``"<layer>:<routine>" -> exclusive milliseconds``, largest first —
    the annotation format the integrated timeline exporter attaches to a
    rank's summary span when no event trace was recorded.
    """
    return {f"{row.layer}:{row.name}": round(row.excl_cycles / hz * 1e3, 3)
            for row in rows[:top]}


def kernel_callgroups_in_context(kdump: TaskProfileDump, user_ctx: str) -> dict[str, tuple[int, int]]:
    """Kernel activity inside one user routine, grouped by KTAU group.

    Returns ``group -> (calls, exclusive cycles)`` for the kernel events
    whose user context was ``user_ctx`` — the data behind Figure 4
    ("MPI_Recv's kernel call groups") and Figure 9 (TCP calls inside the
    Sweep3D compute phase).
    """
    out: dict[str, tuple[int, int]] = {}
    for (ctx, event), (count, excl) in kdump.context_pairs.items():
        if ctx != user_ctx:
            continue
        group = kdump.groups.get(event, "")
        calls, cycles = out.get(group, (0, 0))
        out[group] = (calls + count, cycles + excl)
    return out


def kernel_events_in_context(kdump: TaskProfileDump, user_ctx: str,
                             events: tuple[str, ...]) -> tuple[int, int]:
    """(calls, exclusive cycles) of specific kernel events inside a user routine."""
    calls = 0
    cycles = 0
    for (ctx, event), (count, excl) in kdump.context_pairs.items():
        if ctx == user_ctx and event in events:
            calls += count
            cycles += excl
    return calls, cycles
