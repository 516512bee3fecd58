"""Per-task circular trace buffers.

When tracing is configured, KTAU attaches a fixed-size circular buffer to
each process; entries are (timestamp, event, kind, value) records.  If
user-space (KTAUD or a self-tracing client) does not drain the buffer fast
enough, the oldest records are overwritten and *lost* — the paper calls
this out explicitly, and tests exercise it.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from typing import Iterator


class TraceKind(enum.IntEnum):
    """Record types in a KTAU trace."""

    ENTRY = 0
    EXIT = 1
    ATOMIC = 2


@dataclass(frozen=True)
class TraceRecord:
    """One trace-buffer record.

    ``cycles`` is the node-local TSC timestamp; ``event_id`` indexes the
    node's event-mapping table; ``value`` carries the atomic-event payload
    (zero for entry/exit records).
    """

    cycles: int
    event_id: int
    kind: TraceKind
    value: int = 0


class TraceOverflowError(RuntimeError):
    """Strict-mode sanitizer: a trace record was overwritten unread.

    Record loss is legal KTAU behaviour (the paper calls it out), but a
    client that *believes* it drains fast enough can opt into strict mode
    to be told the moment that belief is wrong, instead of silently
    producing a trace with holes.
    """


class TraceBuffer:
    """Fixed-capacity circular buffer of :class:`TraceRecord`.

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
        self._buf: deque[TraceRecord] = deque(maxlen=capacity)
        self.lost_count = 0  # cumulative records overwritten unread
        self.total_records = 0  # cumulative records ever written

    def append(self, record: TraceRecord) -> None:
        if len(self._buf) == self.capacity:
            if self.strict:
                raise TraceOverflowError(
                    f"trace buffer overflow: capacity {self.capacity} "
                    f"reached, oldest record would be lost unread "
                    f"(total written: {self.total_records})")
            self.lost_count += 1
        self._buf.append(record)
        self.total_records += 1

    def __len__(self) -> int:
        return len(self._buf)

    def peek(self) -> list[TraceRecord]:
        """Buffered records oldest-first, without removing them."""
        return list(self._buf)

    def drain(self) -> list[TraceRecord]:
        """Remove and return all buffered records, oldest-first."""
        out = list(self._buf)
        self._buf.clear()
        return out

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.peek())
