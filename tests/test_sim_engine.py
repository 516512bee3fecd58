"""Tests for the discrete-event engine."""

import pytest

from repro.sim.engine import Engine


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.schedule(30, lambda: fired.append("c"))
    engine.schedule(10, lambda: fired.append("a"))
    engine.schedule(20, lambda: fired.append("b"))
    engine.run_until_idle()
    assert fired == ["a", "b", "c"]
    assert engine.now == 30


def test_simultaneous_events_fifo():
    engine = Engine()
    fired = []
    for i in range(5):
        engine.schedule(100, lambda i=i: fired.append(i))
    engine.run_until_idle()
    assert fired == [0, 1, 2, 3, 4]


def test_clock_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.schedule(42, lambda: seen.append(engine.now))
    engine.run_until_idle()
    assert seen == [42]


def test_cancelled_event_does_not_fire():
    engine = Engine()
    fired = []
    handle = engine.schedule(10, lambda: fired.append("x"))
    engine.schedule(5, lambda: fired.append("y"))
    handle.cancel()
    engine.run_until_idle()
    assert fired == ["y"]
    assert not handle.active


def test_cancel_is_idempotent():
    engine = Engine()
    handle = engine.schedule(10, lambda: None)
    handle.cancel()
    handle.cancel()
    engine.run_until_idle()


def test_schedule_in_past_rejected():
    engine = Engine()
    engine.schedule(10, lambda: None)
    engine.run_until_idle()
    with pytest.raises(ValueError):
        engine.schedule_at(5, lambda: None)


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.schedule(-1, lambda: None)


def test_run_until_respects_boundary():
    engine = Engine()
    fired = []
    engine.schedule(10, lambda: fired.append(10))
    engine.schedule(50, lambda: fired.append(50))
    engine.run(until=30)
    assert fired == [10]
    assert engine.now == 30  # advanced to the boundary
    engine.run_until_idle()
    assert fired == [10, 50]


def test_run_until_advances_clock_when_queue_drains():
    engine = Engine()
    engine.schedule(5, lambda: None)
    engine.run(until=100)
    assert engine.now == 100


def test_stop_prevents_clock_fast_forward():
    engine = Engine()
    engine.schedule(5, engine.stop)
    engine.schedule(50, lambda: None)
    engine.run(until=1000)
    assert engine.now == 5  # stopped; not fast-forwarded to 1000


def test_events_scheduled_during_run_fire():
    engine = Engine()
    fired = []

    def first():
        engine.schedule(10, lambda: fired.append("second"))

    engine.schedule(1, first)
    engine.run_until_idle()
    assert fired == ["second"]
    assert engine.now == 11


def test_zero_delay_event_fires_at_now():
    engine = Engine()
    times = []
    engine.schedule(7, lambda: engine.schedule(0, lambda: times.append(engine.now)))
    engine.run_until_idle()
    assert times == [7]


def test_run_until_fires_only_due_events():
    engine = Engine()
    fired = []
    for i in range(10):
        engine.schedule(i + 1, lambda i=i: fired.append(i))
    engine.run(until=3)
    assert fired == [0, 1, 2]
    assert engine.pending == 7


def test_pending_counts_active_events_only():
    engine = Engine()
    h1 = engine.schedule(10, lambda: None)
    engine.schedule(20, lambda: None)
    assert engine.pending == 2
    h1.cancel()
    assert engine.pending == 1


@pytest.mark.parametrize("until", [None, 100])
def test_pending_is_exact_inside_callbacks(until):
    engine = Engine()
    seen = []
    for i in range(3):
        engine.schedule(i + 1, lambda: seen.append(
            (engine.pending, engine.events_processed)))
    engine.run(until=until)
    assert seen == [(2, 1), (1, 2), (0, 3)]


def test_events_processed_counter():
    engine = Engine()
    for i in range(4):
        engine.schedule(i + 1, lambda: None)
    engine.run_until_idle()
    assert engine.events_processed == 4


def test_pending_consistent_after_fire_and_cancel():
    engine = Engine()
    handles = [engine.schedule(i + 1, lambda: None) for i in range(6)]
    engine.run(until=2)
    assert engine.pending == 4
    handles[0].cancel()  # already fired: inert, must not change pending
    assert engine.pending == 4
    handles[2].cancel()
    handles[5].cancel()
    assert engine.pending == 2
    engine.run_until_idle()
    assert engine.pending == 0
    assert engine.events_processed == 4


def test_cancel_after_fire_is_harmless():
    engine = Engine()
    fired = []
    handle = engine.schedule(1, lambda: fired.append(1))
    engine.run_until_idle()
    before = engine.pending
    handle.cancel()
    handle.cancel()
    assert engine.pending == before == 0


def test_cancelled_far_future_events_never_fire():
    engine = Engine()
    fired = []
    keep = engine.schedule(50_000_000, lambda: fired.append("kept"))
    doomed = [engine.schedule(1_000_000 + i, lambda: fired.append("doomed"))
              for i in range(1000)]
    for handle in doomed:
        handle.cancel()
    assert engine.pending == 1
    assert engine.events_cancelled == 1000
    engine.run(until=100)
    assert engine.pending == 1
    engine.run_until_idle()
    assert fired == ["kept"]
    assert engine.now == 50_000_000
    assert engine.pending == 0
    assert engine.events_cancelled == 1000
    assert keep.active


def test_held_handle_is_never_recycled():
    engine = Engine()
    held = engine.schedule(1, lambda: None)
    engine.run_until_idle()
    # The caller still holds `held`, so scheduling more events must not
    # hand the same object back with new identity.
    fresh = engine.schedule(5, lambda: None)
    assert fresh is not held
    assert held.fn is None  # the old handle stays retired
    held.cancel()  # stale cancel must not touch the fresh event
    engine.run_until_idle()
    assert engine.now == 6  # fresh event (scheduled at now=1 + 5) fired


def test_discarded_handles_are_pooled():
    engine = Engine()
    for i in range(50):
        engine.schedule(i + 1, lambda: None)  # handles discarded immediately
    engine.run_until_idle()
    assert len(engine._free) > 0  # the free list actually recycles
    # Pooled handles must behave like new ones on reuse.
    fired = []
    engine.schedule(1, lambda: fired.append("again"))
    engine.run_until_idle()
    assert fired == ["again"]


def test_dispatch_ordering_time_then_seq():
    # Handles no longer carry (time, seq) — ordering is a queue property.
    # Verify it observationally: same-time events fire in schedule order,
    # interleaved with strictly increasing times.
    engine = Engine()
    order = []
    engine.schedule(10, lambda: order.append("early"))
    engine.schedule(20, lambda: order.append("late"))
    engine.schedule(10, lambda: order.append("tied"))
    engine.run_until_idle()
    assert order == ["early", "tied", "late"]
