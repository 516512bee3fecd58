"""Closed forms of the §6 extensions for a summed kernel span-chain call.

:meth:`repro.core.measurement.Ktau.record` sums a live chain call in one
step.  The profile terms live there; this module holds what the PMC,
call-graph and tracing extensions add, as per-chain terms computed once
(:func:`extension_terms`) and applied per call (:func:`add_extensions`).
A chain has enclosing levels, opened once per call, around repeated
levels, opened once per value (a *pass*); each pass's spans close
innermost first, then the enclosing ones.  Every result equals the
per-event path's, in the same order.
"""

from __future__ import annotations

from operator import add
from typing import Optional, Sequence

from repro.core.tracebuf import TraceKind, TraceRecord


def extension_terms(build, plan, split: int, head_cycles: int,
                    step: int) -> Optional[tuple]:
    """The ``(pmc, parents, trace)`` terms of ``plan`` (a laid-out chain:
    ``levels`` with ``point``, ``cycles`` and ``rates``, ``event_ids``,
    ``atomic_id``) whose first ``split`` levels enclose the repeated
    ones, each ``None`` when ``build`` leaves its extension out, or
    ``None`` when it has none.  Rows follow the closes: repeated levels
    innermost first, then enclosing.

    * ``pmc``: the enclosing and repeated levels' total ``(cycles, insn,
      l2)`` advances, and per close ``(c0, i0, l0, c1, i1, l1)``: its
      entry-to-exit delta is ``c0 + n * c1`` (and so on).
    * ``parents``: each close's call-graph parent, ``None`` for the
      outermost level, whose parent encloses the call.
    * ``trace``: the enclosing and the repeated levels' ``(offset,
      event_id)`` entries, outermost first; the atomic's ID; the repeated
      and the enclosing levels' exits, innermost first; the first pass's
      offset and the pass length.
    """
    if not (build.counters or build.callgraph or build.tracing):
        return None
    levels, event_ids = plan.levels, plan.event_ids
    pmc = parents = trace = None
    if build.counters:
        # What TaskCounters.advance adds for each span on its own.
        own = [(level.cycles, int(level.cycles * level.rates.ipc),
                int(level.cycles * level.rates.l2_miss_per_kcycle) // 1000)
               for level in levels]

        def inward_sums(rows):  # innermost first
            sums, total = [], (0, 0, 0)
            for row in reversed(rows):
                total = tuple(map(add, total, row))
                sums.append(total)
            return sums

        body_sums, head_sums = inward_sums(own[split:]), inward_sums(
            own[:split])
        body_total = body_sums[-1]
        head_total = head_sums[-1] if head_sums else (0, 0, 0)
        pmc = ((*head_total, *body_total),
               [(0, 0, 0, *sums) for sums in body_sums]
               + [(*sums, *body_total) for sums in head_sums])
    if build.callgraph:
        parent_of = [None] + [f"K:{level.point.name}"
                              for level in levels[:-1]]
        parents = parent_of[split:][::-1] + parent_of[:split][::-1]
    if build.tracing:
        offsets, offset = [], 0
        for i, level in enumerate(levels):
            if i == split:  # a pass's offsets are from its start
                offset = 0
            offsets.append(offset)
            offset += level.cycles
        entries = list(zip(offsets, event_ids))
        trace = (entries[:split], entries[split:], plan.atomic_id,
                 event_ids[split:][::-1], event_ids[:split][::-1],
                 head_cycles, step)
    return pmc, parents, trace


def add_extensions(data, terms: tuple, closes: list, t: int, end: int,
                   values: Optional[Sequence[int]], name_of) -> int:
    """Apply ``terms`` to task ``data`` for one summed call from ``t`` to
    ``end`` whose ``closes`` are ``(event_id, count, incl, excl)``
    (``name_of`` names an event ID): advance its PMCs and counter profile,
    add its call-graph edges and append its trace records.  Returns
    ``end``, as the int the call's last trace records share if any."""
    pmc, parents, trace = terms
    n = 1 if values is None else len(values)
    counters = data.counters
    if pmc is not None and counters is not None:
        (hc, hi, hl, bc, bi, bl), rows = pmc
        counters.cycles += hc + n * bc
        counters.insn_retired += hi + n * bi
        counters.l2_misses += hl + n * bl
        stats_of = data.counter_profile
        for (event_id, times, _, _), (c0, i0, l0, c1, i1, l1) in zip(closes,
                                                                      rows):
            cycles, insn, l2 = c0 + n * c1, i0 + n * i1, l0 + n * l1
            stats = stats_of.get(event_id)
            if stats is None:
                stats_of[event_id] = [times, cycles, insn, l2, 0, 0]
            else:
                stats[0] += times
                stats[1] += cycles
                stats[2] += insn
                stats[3] += l2
    if parents is not None:
        # The outermost span's parent is whatever encloses the call.
        if data.stack:
            outer = f"K:{name_of(data.stack[-1].event_id)}"
        elif data.user_context is not None:
            outer = f"U:{data.user_context}"
        else:
            outer = ""
        graph = data.callgraph
        for (event_id, times, incl, _), parent in zip(closes, parents):
            key = (outer if parent is None else parent, event_id)
            edge = graph.get(key)
            if edge is None:
                graph[key] = [times, incl]
            else:
                edge[0] += times
                edge[1] += incl
    if trace is None or data.trace is None:
        return end
    # Records that share a stamp share its int, as in the per-event path,
    # since the ring keeps them until a drain.
    head_entries, entries, atomic_id, exits, head_exits, start, step = trace
    records = [TraceRecord(t + offset if offset else t, event_id,
                           TraceKind.ENTRY)
               for offset, event_id in head_entries]
    stop = t + start
    for value in values if values is not None else (None,):
        base, stop = stop, stop + step
        records += [TraceRecord(base + offset if offset else base, event_id,
                                TraceKind.ENTRY)
                    for offset, event_id in entries]
        if atomic_id is not None:
            records.append(TraceRecord(stop, atomic_id, TraceKind.ATOMIC,
                                       value))
        records += [TraceRecord(stop, event_id, TraceKind.EXIT)
                    for event_id in exits]
    records += [TraceRecord(stop, event_id, TraceKind.EXIT)
                for event_id in head_exits]
    data.trace.extend(records)
    return stop
