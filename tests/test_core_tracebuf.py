"""Tests for the circular trace buffer."""

import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.tracebuf import (ATOMIC, ENTRY, EXIT, WORDS, TraceBuffer,
                                 TraceOverflowError)


def rec(i):
    return (i, i % 7, ENTRY, 0)


def flat(records):
    """Records as the flat word list ``TraceBuffer.extend`` takes."""
    return [word for record in records for word in record]


def stamps(words):
    """The cycles column of drained words."""
    return list(words[0::WORDS])


class TestTraceBuffer:
    def test_append_and_drain_in_order(self):
        buf = TraceBuffer(8)
        for i in range(5):
            buf.append(*rec(i))
        assert stamps(buf.drain()) == [0, 1, 2, 3, 4]
        assert len(buf) == 0

    def test_overwrite_loses_oldest(self):
        buf = TraceBuffer(3)
        for i in range(5):
            buf.append(*rec(i))
        assert buf.lost_count == 2
        assert stamps(buf.drain()) == [2, 3, 4]

    def test_peek_does_not_consume(self):
        buf = TraceBuffer(4)
        buf.append(*rec(1))
        assert len(buf.peek()) == 1
        assert len(buf) == 1

    def test_drain_then_refill(self):
        buf = TraceBuffer(2)
        buf.append(*rec(0))
        buf.drain()
        buf.append(*rec(1))
        buf.append(*rec(2))
        buf.append(*rec(3))  # one lost
        assert buf.lost_count == 1
        assert stamps(buf.drain()) == [2, 3]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceBuffer(0)

    def test_total_records_counts_everything(self):
        buf = TraceBuffer(2)
        for i in range(10):
            buf.append(*rec(i))
        assert buf.total_records == 10


def test_allocation_does_not_scale_with_capacity():
    """A large buffer costs memory only for the records it holds."""
    records = [rec(i) for i in range(100)]
    tracemalloc.start()
    try:
        buf = TraceBuffer(65_536)
        for r in records:
            buf.append(*r)
        allocated, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(buf) == 100
    assert allocated < 16 * 1024


@given(capacity=st.integers(1, 32),
       bursts=st.lists(st.tuples(st.integers(0, 80), st.booleans()),
                       max_size=6))
def test_property_last_capacity_records_survive(capacity, bursts):
    """Across bursts of appends, some followed by a drain, the buffer
    always holds the most recent undrained records up to its capacity,
    in order, and accounts for every overwrite."""
    buf = TraceBuffer(capacity)
    model, lost, written = [], 0, 0
    for n, drain in bursts:
        for _ in range(n):
            buf.append(*rec(written))
            model.append(written)
            written += 1
        lost += max(0, len(model) - capacity)
        model = model[-capacity:]
        assert [r[0] for r in buf.peek()] == model
        assert buf.lost_count == lost
        if drain:
            assert stamps(buf.drain()) == model
            assert len(buf) == 0
            model = []
    assert buf.total_records == written


@given(capacity=st.integers(1, 16), strict=st.booleans(),
       bursts=st.lists(st.integers(0, 40), max_size=5))
def test_property_extend_matches_appends(capacity, strict, bursts):
    """``extend`` keeps, drops and counts exactly the records that one
    ``append`` per record would, and a strict ring raises at the same
    record."""
    one, block = TraceBuffer(capacity, strict), TraceBuffer(capacity, strict)
    written = 0
    for n in bursts:
        records = [rec(written + i) for i in range(n)]
        written += n
        errors = []
        for write in (lambda: [one.append(*r) for r in records],
                      lambda: block.extend(flat(records))):
            try:
                write()
                errors.append(None)
            except TraceOverflowError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]
        assert (one.peek(), one.lost_count, one.total_records) == \
            (block.peek(), block.lost_count, block.total_records)
        if errors[0] is not None:
            break


class RefRing:
    """Reference model: a deque of record tuples, written one by one."""

    def __init__(self, capacity, strict):
        self.capacity, self.strict = capacity, strict
        self.records = deque(maxlen=capacity)
        self.lost_count = self.total_records = 0

    def append(self, record):
        if len(self.records) == self.capacity:
            if self.strict:
                raise TraceOverflowError(
                    f"trace buffer overflow: capacity {self.capacity} "
                    f"reached, oldest record would be lost unread "
                    f"(total written: {self.total_records})")
            self.lost_count += 1
        self.records.append(record)
        self.total_records += 1

    def extend(self, records):
        for record in records:
            self.append(record)

    def drain(self):
        out = list(self.records)
        self.records.clear()
        return out


WORD = st.integers(0, 2**64 - 1)
RECORDS = st.lists(st.tuples(WORD, st.integers(0, 2**32 - 1),
                             st.sampled_from((ENTRY, EXIT, ATOMIC)), WORD),
                   max_size=20)
OPS = st.lists(st.one_of(st.tuples(st.just("append"), RECORDS),
                         st.tuples(st.just("extend"), RECORDS),
                         st.tuples(st.sampled_from(("peek", "drain", "len")),
                                   st.just([]))),
               max_size=40)


def _attempt(write):
    try:
        write()
    except TraceOverflowError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(capacity=st.sampled_from((1, 3, 8)), strict=st.booleans(), ops=OPS)
def test_property_matches_reference_deque(capacity, strict, ops):
    """Random append/extend/peek/drain/len sequences, past the point
    where the array trims its overwritten records: the packed buffer
    returns and counts exactly what a deque of tuples does, and a strict
    buffer raises the same error at the same record."""
    buf, ref = TraceBuffer(capacity, strict), RefRing(capacity, strict)
    for op, records in ops:
        if op == "append":
            for record in records:
                assert _attempt(lambda: buf.append(*record)) == \
                    _attempt(lambda: ref.append(record))
        elif op == "extend":
            assert _attempt(lambda: buf.extend(flat(records))) == \
                _attempt(lambda: ref.extend(records))
        elif op == "drain":
            words = buf.drain()
            assert list(zip(*[iter(words)] * WORDS)) == ref.drain()
        elif op == "peek":
            assert buf.peek() == list(ref.records)
        assert len(buf) == len(ref.records)
        assert (buf.lost_count, buf.total_records) == \
            (ref.lost_count, ref.total_records)
    assert buf.peek() == list(ref.records)
    assert list(buf.event_ids()) == [r[1] for r in ref.records]


@pytest.mark.parametrize("capacity", [1, 3, 8, 100])
def test_storage_stays_within_twice_capacity(capacity):
    """Writing 10x capacity, one record and bursts at a time, never
    leaves more than 2x capacity records' words in the array."""
    buf = TraceBuffer(capacity)
    written = 0
    while written < 10 * capacity:
        burst = [rec(written + i) for i in range(1 + written % 5)]
        if written % 2:
            buf.extend(flat(burst))
        else:
            for record in burst:
                buf.append(*record)
        written += len(burst)
        assert len(buf._words) <= 2 * capacity * WORDS
    assert buf.total_records == written
    assert buf.lost_count == written - capacity
    assert stamps(buf.drain()) == list(range(written - capacity, written))
