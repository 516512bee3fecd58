"""The replication runner and its merge helpers.

The determinism-critical property (parallel == serial, bit for bit, on
real cluster runs) is covered in test_determinism.py; here we test the
runner's mechanics: ordering, fallback, error reporting, worker
resolution, and the order-independent merges.
"""

import os

import pytest

from repro.parallel import (ReplicationError, default_workers, group_results,
                            merge_mappings, parallel_map, run_replications,
                            sum_counters)
from repro.parallel.runner import WORKERS_ENV, resolve_workers


# ---------------------------------------------------------------------------
# module-level worker functions (picklable without cloudpickle)
# ---------------------------------------------------------------------------
def _square(x):
    return x * x


def _pid_of(_x):
    return os.getpid()


def _slow_then_square(x):
    # Later items sleep less, so completion order inverts submission
    # order — results must still come back in submission order.
    import time
    time.sleep(0.05 * (3 - x))
    return x * x


def _fail_on_two(x):
    if x == 2:
        raise ValueError("boom")
    return x


# ---------------------------------------------------------------------------
# parallel_map
# ---------------------------------------------------------------------------
def test_serial_fallback_runs_in_process():
    pids = parallel_map(_pid_of, [1, 2, 3], workers=1)
    assert pids == [os.getpid()] * 3


def test_workers_actually_fork():
    pids = parallel_map(_pid_of, [1, 2, 3, 4], workers=2)
    assert all(pid != os.getpid() for pid in pids)


def test_results_in_submission_order_not_completion_order():
    assert parallel_map(_slow_then_square, [0, 1, 2], workers=3) == [0, 1, 4]


def test_parallel_equals_serial_map():
    items = list(range(10))
    assert parallel_map(_square, items, workers=3) == [_square(i) for i in items]


def test_closures_cross_the_process_boundary():
    factor = 7
    assert parallel_map(lambda x: x * factor, [1, 2, 3], workers=2) == [7, 14, 21]


def test_single_item_stays_serial():
    assert parallel_map(_pid_of, [1], workers=8) == [os.getpid()]


def test_empty_items():
    assert parallel_map(_square, [], workers=4) == []


def test_worker_failure_names_the_cell():
    with pytest.raises(ReplicationError) as excinfo:
        parallel_map(_fail_on_two, [1, 2, 3], workers=2,
                     keys=["one", "two", "three"])
    assert excinfo.value.key == "two"
    assert "ValueError" in str(excinfo.value)


def test_worker_failure_without_keys_uses_index():
    with pytest.raises(ReplicationError) as excinfo:
        parallel_map(_fail_on_two, [1, 2], workers=2)
    assert excinfo.value.key == 1


def test_serial_failure_raises_plainly():
    # The serial path is transparent: no wrapping, the original error.
    with pytest.raises(ValueError):
        parallel_map(_fail_on_two, [1, 2], workers=1)


# ---------------------------------------------------------------------------
# worker tracebacks
# ---------------------------------------------------------------------------
def _boom(_x):
    raise ValueError("kaboom in worker")


def test_pool_failure_carries_worker_traceback():
    with pytest.raises(ReplicationError) as excinfo:
        parallel_map(_boom, [1, 2], workers=2)
    # the original worker-side frames, not the parent's pickle plumbing
    assert excinfo.value.worker_tb is not None
    assert "_boom" in excinfo.value.worker_tb
    assert "kaboom in worker" in excinfo.value.worker_tb
    assert "worker traceback" in str(excinfo.value)


# ---------------------------------------------------------------------------
# worker resolution
# ---------------------------------------------------------------------------
def test_default_workers_reads_env(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    assert default_workers() == 1
    monkeypatch.setenv(WORKERS_ENV, "4")
    assert default_workers() == 4
    monkeypatch.setenv(WORKERS_ENV, "not-a-number")
    assert default_workers() == 1


def test_env_opt_in_is_honoured_by_parallel_map(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "2")
    pids = parallel_map(_pid_of, [1, 2, 3])
    assert all(pid != os.getpid() for pid in pids)


def test_resolve_workers_clamps_to_task_count():
    assert resolve_workers(8, 3) == 3
    assert resolve_workers(2, 10) == 2
    assert resolve_workers(0, 5) == 1
    assert resolve_workers(4, 0) == 1
    assert resolve_workers(None, 5) == 1  # no env → serial


# ---------------------------------------------------------------------------
# run_replications
# ---------------------------------------------------------------------------
def test_run_replications_preserves_key_order():
    cells = [("b", lambda: 2), ("a", lambda: 1), ("c", lambda: 3)]
    out = run_replications(cells, workers=2)
    assert list(out) == ["b", "a", "c"]
    assert out == {"a": 1, "b": 2, "c": 3}


def test_run_replications_accepts_mapping():
    out = run_replications({("cfg", 1): lambda: 10, ("cfg", 2): lambda: 20},
                           workers=2)
    assert out == {("cfg", 1): 10, ("cfg", 2): 20}


def test_run_replications_failure_names_the_key():
    def bad():
        raise RuntimeError("sim exploded")

    with pytest.raises(ReplicationError) as excinfo:
        run_replications({"ok": lambda: 1, ("lu", 3): bad}, workers=2)
    assert excinfo.value.key == ("lu", 3)


# ---------------------------------------------------------------------------
# merges
# ---------------------------------------------------------------------------
def test_merge_mappings_first_seen_order():
    merged = merge_mappings([{"b": 1}, {"a": 2}, {"c": 3}])
    assert list(merged) == ["b", "a", "c"]


def test_merge_mappings_conflict_raises():
    with pytest.raises(ValueError, match="conflicting"):
        merge_mappings([{"a": 1}, {"a": 2}])


def test_merge_mappings_conflict_resolver():
    merged = merge_mappings([{"a": 1}, {"a": 2}],
                            on_conflict=lambda key, old, new: old + new)
    assert merged == {"a": 3}


def test_sum_counters_is_order_independent():
    parts = [{"x": 1, "y": 2}, {"x": 10}, {"z": 5}]
    assert sum_counters(parts) == sum_counters(reversed(parts))
    assert sum_counters(parts) == {"x": 11, "y": 2, "z": 5}


def test_group_results_regroups_flat_cells():
    keys = [("c1", 1), ("c2", 1), ("c1", 2)]
    grouped = group_results(keys, ["a", "b", "c"], by=lambda cell: cell[0])
    assert grouped == {"c1": {("c1", 1): "a", ("c1", 2): "c"},
                       "c2": {("c2", 1): "b"}}


def test_group_results_length_mismatch():
    with pytest.raises(ValueError):
        group_results([("c", 1)], [], by=lambda cell: cell[0])
