"""Merged user/kernel trace timelines (Figure 2-E's Vampir view).

TAU application traces and KTAU kernel traces for the same process share
the node's hardware timer, so merging is a timestamp-ordered interleave.
The payoff view in the paper is "kernel-level activity within a
user-space MPI_Send()": the send's kernel implementation
(``sys_writev → sock_sendmsg → tcp_sendmsg``) plus *unrelated* bottom-half
work (``do_softirq``/TCP receive processing) that happened to run in the
process's context during the call.
"""

from __future__ import annotations

from repro.core.tracebuf import ATOMIC, ENTRY, EXIT
from repro.core.wire import TraceDump
from repro.tau.profiler import TauProfileDump


#: One event in a merged timeline, a plain tuple: ``(cycles, name,
#: layer, is_entry, value, atomic)``, where ``layer`` is ``"user"`` or
#: ``"kernel"``, ``value`` is an atomic record's payload (else 0) and
#: ``atomic`` marks a kernel atomic record (neither an entry nor an
#: exit).  Readers unpack it by position.  It holds no object the cyclic
#: collector tracks, so CPython stops tracking it, and a long timeline
#: adds nothing to the collector's full passes.
TimelineEvent = tuple[int, str, str, bool, int, bool]


#: Ordering of same-timestamp events that preserves nesting, by
#: ``(layer, is_entry)``.  Kernel events nest inside user events, so at an
#: equal timestamp the correct interval order is: kernel exits, user
#: exits, user entries, kernel entries.  A kernel trace alone is not
#: sorted by ``(cycles, rank)`` (a zero-length span's entry and exit
#: share a stamp and swap), so the merge sorts rather than interleaving
#: the two streams.
_TIE_RANK = {("kernel", False): 0, ("user", False): 1,
             ("user", True): 2, ("kernel", True): 3}


def merge_traces(udump: TauProfileDump,
                 ktrace: TraceDump) -> list[TimelineEvent]:
    """Interleave one process's user and kernel traces by timestamp.

    One sort over ``(cycles, tie rank, seq, *event fields)`` rows, where
    ``seq`` is the event's position in the user-then-kernel
    concatenation: the stable sort by ``(cycles, tie rank)``, with no
    Python key calls.  Each row's tail is the :data:`TimelineEvent`.
    """
    user_rank = (_TIE_RANK["user", False], _TIE_RANK["user", True])
    kernel_rank = tuple(_TIE_RANK["kernel", kind == ENTRY]
                        for kind in (ENTRY, EXIT, ATOMIC))
    rows = [(cycles, user_rank[is_entry], seq,
             cycles, name, "user", is_entry, 0, False)
            for seq, (cycles, name, is_entry) in enumerate(udump.trace)]
    entry, atomic = ENTRY, ATOMIC
    rows += [(cycles, kernel_rank[kind], seq,
              cycles, name, "kernel", kind == entry, value, kind == atomic)
             for seq, (cycles, name, kind, value)
             in enumerate(ktrace.records, len(rows))]
    rows.sort()
    return [row[3:] for row in rows]


def events_within(merged: list[TimelineEvent], routine: str,
                  occurrence: int = 0) -> list[TimelineEvent]:
    """The slice of a merged timeline inside one occurrence of a user routine.

    Returns every event between the ``occurrence``-th entry of ``routine``
    and its matching exit — the exact window Figure 2-E zooms into for
    ``MPI_Send()``.
    """
    depth = 0
    seen = 0
    start = end = None
    for i, (_c, name, layer, is_entry, _v, _a) in enumerate(merged):
        if layer != "user" or name != routine:
            continue
        if is_entry:
            if depth == 0:
                if seen == occurrence:
                    start = i
                seen += 1
            depth += 1
        else:
            depth -= 1
            if depth == 0 and start is not None and end is None:
                end = i
                break
    if start is None or end is None:
        return []
    return merged[start:end + 1]


def render_timeline(events: list[TimelineEvent], hz: float,
                    width: int = 78) -> str:
    """A text rendering of a merged timeline (indented by nesting; an
    atomic shows its value at the depth it fired in)."""
    if not events:
        return "(empty timeline)\n"
    t0 = events[0][0]
    lines = []
    depth = 0
    for cycles, name, layer, is_entry, value, atomic in events:
        if not is_entry and not atomic and depth > 0:
            depth -= 1
        stamp_us = (cycles - t0) / hz * 1e6
        tag = "U" if layer == "user" else "K"
        if atomic:
            label = f"* {name} = {value}"
        else:
            label = f"{'>' if is_entry else '<'} {name}"
        lines.append(f"{stamp_us:10.2f}us {tag} {'  ' * depth}{label}"[:width])
        if is_entry:
            depth += 1
    return "\n".join(lines) + "\n"
