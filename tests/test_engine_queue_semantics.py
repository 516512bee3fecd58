"""Queue-semantics equivalence tests for the engine.

The engine's dispatch order contract is ascending ``(time, seq)`` with
FIFO ties.  These tests pin the engine to that contract by replaying
randomized workloads against a minimal reference heap and demanding
identical logs, and by exercising same-time ties and ``until``
boundaries directly.
"""

import random
from heapq import heappop, heappush

import pytest

from repro.sim.engine import Engine


class _ReferenceHeap:
    """The engine's semantics reduced to their essence: a binary heap of
    ``(time, seq, tag)`` with lazy-deleted cancels."""

    def __init__(self):
        self.now = 0
        self.q = []
        self.seq = 0
        self.log = []
        self.dead = set()

    def schedule_at(self, t, tag):
        self.seq += 1
        heappush(self.q, (t, self.seq, tag))

    def run(self, until=None):
        while self.q and (until is None or self.q[0][0] <= until):
            t, _seq, tag = heappop(self.q)
            if tag in self.dead:
                continue
            self.now = t
            self.log.append((t, tag))
        if until is not None and self.now < until:
            self.now = until


@pytest.mark.parametrize("seed", range(6))
def test_randomized_equivalence_vs_reference_heap(seed):
    """Random schedule/cancel/run(until=) workloads must produce logs
    identical to the reference heap — same events, same order, same
    observed clock values.

    The delay palette spans same-time ties (0), dense near-future
    traffic, and far-future events (``1 << 40``).
    """
    rng = random.Random(seed)
    ref = _ReferenceHeap()
    eng = Engine()
    log = []
    handles = {}
    t_cursor = 0
    for i in range(8000):
        r = rng.random()
        if r < 0.55:
            delay = rng.choice(
                [0, 1, 7, 100, 1000, 50_000, 10_000_000, 1 << 40])
            t = eng.now + delay
            tag = i
            handles[tag] = eng.schedule(
                delay, lambda tag=tag: log.append((eng.now, tag)))
            ref.schedule_at(t, tag)
        elif r < 0.7 and handles:
            tag = rng.choice(list(handles))
            h = handles.pop(tag)
            if h.active and h.fn is not None:
                h.cancel()
                ref.dead.add(tag)
        elif r < 0.85:
            t_cursor = max(eng.now, t_cursor) + rng.choice(
                [10, 10_000, 100_000_000])
            eng.run(until=t_cursor)
            ref.run(until=t_cursor)
            assert eng.now == ref.now
            assert log == ref.log
    eng.run_until_idle()
    ref.run()
    assert log == ref.log
    assert eng.pending == 0


def test_same_timestamp_fifo_spanning_lane_and_bucket():
    """FIFO ties must hold even when the tied events are scheduled from
    different contexts: some up-front, some mid-run."""
    engine = Engine()
    order = []
    t = 5000
    engine.schedule_at(t, lambda: order.append("a"))
    engine.schedule_at(t, lambda: order.append("b"))

    def inject():
        # scheduled mid-run, after a, b and c: must fire after them
        engine.schedule_at(t, lambda: order.append("d"))

    engine.schedule_at(t - 1, inject)
    engine.schedule_at(t, lambda: order.append("c"))
    engine.run_until_idle()
    assert order == ["a", "b", "c", "d"]


def test_cancel_then_reschedule_same_time():
    engine = Engine()
    order = []
    first = engine.schedule(100, lambda: order.append("first"))
    first.cancel()
    engine.schedule_at(100, lambda: order.append("second"))
    engine.run_until_idle()
    assert order == ["second"]
    assert engine.now == 100
    assert engine.events_cancelled == 1


def test_run_until_boundary_is_exact():
    engine = Engine()
    fired = []
    engine.schedule_at(100, lambda: fired.append(100))
    engine.schedule_at(101, lambda: fired.append(101))
    engine.run(until=100)
    assert fired == [100]  # inclusive boundary
    assert engine.now == 100
    engine.run(until=100)  # re-running to the same bound is a no-op
    assert fired == [100]
    engine.run(until=101)
    assert fired == [100, 101]


def test_run_until_segments_resume_mid_bucket():
    """Stopping at an ``until`` between queued events must leave the
    remaining entries intact for the next run."""
    engine = Engine()
    fired = []
    for t in range(16, 25):
        engine.schedule_at(t, lambda t=t: fired.append(t))
    engine.run(until=20)
    assert fired == [16, 17, 18, 19, 20]
    engine.run(until=24)
    assert fired == list(range(16, 25))
