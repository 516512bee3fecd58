"""Per-task circular trace buffers.

When tracing is configured, KTAU attaches a fixed-size circular buffer to
each process; entries are ``(cycles, event_id, kind, value)`` records,
plain tuples of ints in wire-field order: ``cycles`` is the node-local
TSC timestamp, ``event_id`` indexes the node's event-mapping table,
``kind`` is one of :data:`ENTRY`, :data:`EXIT` and :data:`ATOMIC`, and
``value`` carries the atomic-event payload (zero for entry/exit
records).  CPython's cyclic collector stops tracking a tuple that holds
only ints, so buffered records add nothing to its full passes.  If
user-space (KTAUD or a self-tracing client) does not drain the buffer fast
enough, the oldest records are overwritten and *lost* — the paper calls
this out explicitly, and tests exercise it.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

#: Record kinds, as the plain ints records carry.  Not enum members: a
#: member is an object the collector tracks, so every tuple holding one
#: would stay tracked too.
ENTRY, EXIT, ATOMIC = 0, 1, 2

#: One record: ``(cycles, event_id, kind, value)``.
Record = tuple[int, int, int, int]


class TraceOverflowError(RuntimeError):
    """Strict-mode sanitizer: a trace record was overwritten unread.

    Record loss is legal KTAU behaviour (the paper calls it out), but a
    client that *believes* it drains fast enough can opt into strict mode
    to be told the moment that belief is wrong, instead of silently
    producing a trace with holes.
    """


class TraceBuffer:
    """Fixed-capacity circular buffer of trace records.

    ``drain`` returns and removes the buffered records in order;
    ``lost_count`` reports how many records were overwritten before being
    read (cumulative).  With ``strict=True`` an overwrite raises
    :class:`TraceOverflowError` instead of silently losing the record.
    """

    def __init__(self, capacity: int, strict: bool = False):
        if capacity <= 0:
            raise ValueError("trace buffer capacity must be positive")
        self.capacity = capacity
        self.strict = strict
        self._buf: deque[Record] = deque(maxlen=capacity)
        self.lost_count = 0  # cumulative records overwritten unread
        self.total_records = 0  # cumulative records ever written

    def append(self, record: Record) -> None:
        if len(self._buf) == self.capacity:
            if self.strict:
                raise TraceOverflowError(
                    f"trace buffer overflow: capacity {self.capacity} "
                    f"reached, oldest record would be lost unread "
                    f"(total written: {self.total_records})")
            self.lost_count += 1
        self._buf.append(record)
        self.total_records += 1

    def extend(self, records: list[Record]) -> None:
        """Append ``records`` in order: the ring drops and counts exactly
        the records that appending them one by one would."""
        if self.strict:
            for record in records:
                self.append(record)
            return
        self.lost_count += max(0, len(self._buf) + len(records)
                               - self.capacity)
        self._buf.extend(records)
        self.total_records += len(records)

    def __len__(self) -> int:
        return len(self._buf)

    def peek(self) -> list[Record]:
        """Buffered records oldest-first, without removing them."""
        return list(self._buf)

    def drain(self) -> list[Record]:
        """Remove and return all buffered records, oldest-first."""
        out = list(self._buf)
        self._buf.clear()
        return out

    def __iter__(self) -> Iterator[Record]:
        return iter(self.peek())
