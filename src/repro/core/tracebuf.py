"""Per-task circular trace buffers.

When tracing is configured, KTAU attaches a fixed-size circular buffer to
each process; entries are ``(cycles, event_id, kind, value)`` records in
wire-field order: ``cycles`` is the node-local TSC timestamp,
``event_id`` indexes the node's event-mapping table, ``kind`` is one of
:data:`ENTRY`, :data:`EXIT` and :data:`ATOMIC`, and ``value`` carries the
atomic-event payload (zero for entry/exit records).  As in the kernel,
the buffer holds binary records, not objects: one flat ``array('Q')``
of :data:`WORDS` unsigned 64-bit words per record, so a buffered record
costs 32 bytes and nothing the cyclic collector sees.  If user-space
(KTAUD or a self-tracing client) does not drain the buffer fast enough,
the oldest records are overwritten and *lost* — the paper calls this out
explicitly, and tests exercise it.
"""

from __future__ import annotations

from array import array
from typing import Iterator, Sequence

#: Record kinds, as the plain ints records carry.  Not enum members: a
#: member is an object the collector tracks, so every tuple holding one
#: would stay tracked too.
ENTRY, EXIT, ATOMIC = 0, 1, 2

#: One record: ``(cycles, event_id, kind, value)``.
Record = tuple[int, int, int, int]

#: Words per record in the buffer's flat array.
WORDS = 4


class TraceOverflowError(RuntimeError):
    """Strict-mode sanitizer: a trace record was overwritten unread.

    Record loss is legal KTAU behaviour (the paper calls it out), but a
    client that *believes* it drains fast enough can opt into strict mode
    to be told the moment that belief is wrong, instead of silently
    producing a trace with holes.
    """


class TraceBuffer:
    """Fixed-capacity circular buffer of trace records.

    The buffer holds the newest ``capacity`` records written since the
    last drain.  ``drain`` removes them and returns their words, oldest
    first; ``lost_count`` reports how many records were overwritten
    before being read (cumulative).  With ``strict=True`` an overwrite
    raises :class:`TraceOverflowError` instead of silently losing the
    record.

    Overwritten records are cut from the front of the array only once it
    holds twice ``capacity``, so a write costs amortised constant time
    and the array never holds more than ``2 * capacity`` records.  What
    the buffer returns and counts depends only on the record counts.
    """

    def __init__(self, capacity: int, strict: bool = False):
        if capacity <= 0:
            raise ValueError("trace buffer capacity must be positive")
        self.capacity = capacity
        self.strict = strict
        self._words = array("Q")
        self._full = capacity * WORDS  # words in a full buffer
        self.lost_count = 0  # cumulative records overwritten unread
        self.total_records = 0  # cumulative records ever written

    def _overflow(self) -> TraceOverflowError:
        return TraceOverflowError(
            f"trace buffer overflow: capacity {self.capacity} "
            f"reached, oldest record would be lost unread "
            f"(total written: {self.total_records})")

    def append(self, cycles: int, event_id: int, kind: int,
               value: int) -> None:
        """Write one record's four words."""
        words = self._words
        if len(words) >= self._full:
            if self.strict:
                raise self._overflow()
            self.lost_count += 1
            words.extend((cycles, event_id, kind, value))
            if len(words) >= 2 * self._full:
                del words[:-self._full]
        else:
            words.extend((cycles, event_id, kind, value))
        self.total_records += 1

    def extend(self, words: Sequence[int]) -> None:
        """Write whole records given as one flat sequence of their words,
        in order: the buffer drops and counts exactly the records that
        appending them one by one would, and a strict buffer raises at
        the same record."""
        n = len(words) // WORDS
        held = len(self)
        if held + n > self.capacity:
            if self.strict:
                fit = self.capacity - held
                self._words.extend(words[:fit * WORDS])
                self.total_records += fit
                raise self._overflow()
            self.lost_count += held + n - self.capacity
        self._words.extend(words)
        self.total_records += n
        if len(self._words) >= 2 * self._full:
            del self._words[:-self._full]

    def __len__(self) -> int:
        return min(len(self._words) // WORDS, self.capacity)

    def _live(self) -> array:
        """The buffered records' words: the array itself, or a copy of
        its newest ``capacity`` records once it holds more."""
        words = self._words
        return words[-self._full:] if len(words) > self._full else words

    def peek(self) -> list[Record]:
        """Buffered records oldest-first, as tuples, without removing
        them."""
        it = iter(self._live())
        return list(zip(it, it, it, it))

    def event_ids(self) -> array:
        """The buffered records' event IDs, oldest-first."""
        start = max(0, len(self._words) - self._full)
        return self._words[start + 1::WORDS]

    def drain(self) -> array:
        """Remove all buffered records and return their words,
        oldest-first."""
        words = self._live()
        self._words = array("Q")
        return words

    def __iter__(self) -> Iterator[Record]:
        return iter(self.peek())
