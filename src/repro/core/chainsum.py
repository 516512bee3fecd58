"""Closed forms of a summed kernel span-chain call.

:meth:`repro.core.measurement.Ktau.record` sums a live chain call in one
step.  :func:`layout` lays a chain out once per pass length, in one pass
over its levels: the profile terms of its closes and what the PMC,
call-graph and tracing extensions add.  :func:`add_extensions` applies
the extensions' terms per call.  A chain has enclosing levels, opened
once per call, around repeated levels, opened once per value (a
*pass*); each pass's spans close innermost first, then the enclosing
ones.  Every result equals the per-event path's, in the same order.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.core.tracebuf import ATOMIC, ENTRY, EXIT


def layout(build, plan, step_cycles: Optional[int]) -> tuple:
    """The terms of a summed call of ``plan`` (a laid-out chain:
    ``levels`` with ``point``, ``cycles`` and ``rates``, ``event_ids``,
    ``atomic``, ``atomic_id``) for ``step_cycles``: ``(closes,
    head_cycles, step, draws, extras)``.  With ``step_cycles`` every
    level repeats and a pass is that long; without, the leaf repeats
    inside the levels enclosing it and a pass is the leaf's own cycles.

    * ``closes``: per close, innermost first, ``(event_id, enclosing,
      incl, excl)``.  A call of ``n`` passes closes a repeated level
      ``n`` times, adding ``n * incl`` and ``n * excl``, and an
      enclosing level once, adding ``incl + n * step`` and ``excl``.
    * ``head_cycles``: the enclosing levels' own cycles; ``step``: the
      pass's length.
    * ``draws``: the counts of enclosing levels, repeated levels and
      atomics, which give the draw order.
    * ``extras``: ``None`` when ``build`` has no extension, else
      ``(pmc, parents, trace)``, each ``None`` when ``build`` leaves its
      extension out.  ``pmc``: per close ``(c0, i0, l0, c1, i1, l1)``,
      its entry-to-exit ``(cycles, insn, l2)`` delta being ``c0 + n *
      c1`` (and so on); the outermost close's is the call's advance.
      ``parents``: per close its call-graph parent, ``None`` for the
      outermost level, whose parent encloses the call.  ``trace``: the
      enclosing and the repeated levels' ``(offset, event_id)`` entries,
      outermost first; the atomic's ID; the repeated and the enclosing
      levels' exits, innermost first; ``head_cycles`` and ``step``.
    """
    levels, event_ids = plan.levels, plan.event_ids
    split = 0 if step_cycles is not None else len(levels) - 1
    step = levels[-1].cycles if step_cycles is None else step_cycles
    # Entry offsets: an enclosing level's from the call's start, a
    # repeated level's from its pass's start.
    offsets, offset = [], 0
    for i, level in enumerate(levels):
        if i == split:
            head_cycles, offset = offset, 0
        offsets.append(offset)
        offset += level.cycles
    closes, pmc, parents = [], [], []
    inner, child_incl = (0, 0, 0), 0
    for i in reversed(range(len(levels))):
        level = levels[i]
        cycles = level.cycles
        if i == split - 1:  # past the repeated levels: their pass's total
            body, inner = inner, (0, 0, 0)
        # What TaskCounters.advance adds for each span on its own, summed
        # over the span and those inside it.
        inner = (inner[0] + cycles, inner[1] + int(cycles * level.rates.ipc),
                 inner[2] + int(cycles * level.rates.l2_miss_per_kcycle)
                 // 1000)
        if i < split:
            closes.append((event_ids[i], True, head_cycles - offsets[i],
                           cycles))
            pmc.append((*inner, *body))
        else:
            incl = step - offsets[i]
            closes.append((event_ids[i], False, incl,
                           max(incl - child_incl, 0)))
            child_incl = incl
            pmc.append((0, 0, 0, *inner))
        parents.append(f"K:{levels[i - 1].point.name}" if i else None)
    extras = None
    if build.counters or build.callgraph or build.tracing:
        entries = list(zip(offsets, event_ids))
        extras = (pmc if build.counters else None,
                  parents if build.callgraph else None,
                  (entries[:split], entries[split:], plan.atomic_id,
                   event_ids[split:][::-1], event_ids[:split][::-1],
                   head_cycles, step) if build.tracing else None)
    return (closes, head_cycles, step,
            (split, len(levels) - split, int(plan.atomic is not None)),
            extras)


def add_extensions(data, terms: tuple, closes: list, t: int,
                   values: Optional[Sequence[int]], name_of) -> None:
    """Apply ``terms`` (a :func:`layout`'s ``extras``) to task ``data``
    for one summed call starting at ``t`` whose ``closes`` are
    ``(event_id, count, incl, excl)`` (``name_of`` names an event ID):
    advance its PMCs and counter profile, add its call-graph edges and
    append its trace records."""
    rows, parents, trace = terms
    n = 1 if values is None else len(values)
    counters = data.counters
    if rows is not None and counters is not None:
        hc, hi, hl, bc, bi, bl = rows[-1]
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
        return
    # One flat list of the call's record words, written with one extend.
    head_entries, entries, atomic_id, exits, head_exits, start, step = trace
    words: list[int] = []
    for offset, event_id in head_entries:
        words += (t + offset, event_id, ENTRY, 0)
    stop = t + start
    for value in values if values is not None else (None,):
        base, stop = stop, stop + step
        for offset, event_id in entries:
            words += (base + offset, event_id, ENTRY, 0)
        if atomic_id is not None:
            words += (stop, atomic_id, ATOMIC, value)
        for event_id in exits:
            words += (stop, event_id, EXIT, 0)
    for event_id in head_exits:
        words += (stop, event_id, EXIT, 0)
    data.trace.extend(words)
