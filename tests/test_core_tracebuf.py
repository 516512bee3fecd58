"""Tests for the circular trace buffer."""

import tracemalloc

import pytest
from hypothesis import given, strategies as st

from repro.core.tracebuf import ENTRY, TraceBuffer, TraceOverflowError


def rec(i):
    return (i, i % 7, ENTRY, 0)


class TestTraceBuffer:
    def test_append_and_drain_in_order(self):
        buf = TraceBuffer(8)
        for i in range(5):
            buf.append(rec(i))
        assert [r[0] for r in buf.drain()] == [0, 1, 2, 3, 4]
        assert len(buf) == 0

    def test_overwrite_loses_oldest(self):
        buf = TraceBuffer(3)
        for i in range(5):
            buf.append(rec(i))
        assert buf.lost_count == 2
        assert [r[0] for r in buf.drain()] == [2, 3, 4]

    def test_peek_does_not_consume(self):
        buf = TraceBuffer(4)
        buf.append(rec(1))
        assert len(buf.peek()) == 1
        assert len(buf) == 1

    def test_drain_then_refill(self):
        buf = TraceBuffer(2)
        buf.append(rec(0))
        buf.drain()
        buf.append(rec(1))
        buf.append(rec(2))
        buf.append(rec(3))  # one lost
        assert buf.lost_count == 1
        assert [r[0] for r in buf.drain()] == [2, 3]

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TraceBuffer(0)

    def test_total_records_counts_everything(self):
        buf = TraceBuffer(2)
        for i in range(10):
            buf.append(rec(i))
        assert buf.total_records == 10


def test_allocation_does_not_scale_with_capacity():
    """A large buffer costs memory only for the records it holds."""
    records = [rec(i) for i in range(100)]
    tracemalloc.start()
    try:
        buf = TraceBuffer(65_536)
        for r in records:
            buf.append(r)
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
            buf.append(rec(written))
            model.append(written)
            written += 1
        lost += max(0, len(model) - capacity)
        model = model[-capacity:]
        assert [r[0] for r in buf.peek()] == model
        assert buf.lost_count == lost
        if drain:
            assert [r[0] for r in buf.drain()] == model
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
        for write in (lambda: [one.append(r) for r in records],
                      lambda: block.extend(records)):
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
