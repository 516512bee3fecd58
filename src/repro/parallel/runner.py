"""The replication runner: shard independent runs across processes.

Design constraints, in order:

1. **Determinism.** A replication is a self-contained callable — its seed
   and configuration travel inside the closure, never ambient state — and
   results are placed by submission index, so completion order (the one
   genuinely nondeterministic thing about a process pool) can never leak
   into what a caller observes.  ``parallel_map(fn, items, workers=k)``
   returns exactly ``[fn(x) for x in items]`` for every ``k``.
2. **Serial transparency.** ``workers<=1`` (the default resolution unless
   ``REPRO_WORKERS`` says otherwise) runs in-process with no pool, no
   serialisation, and no behaviour change — the parallel path is a pure
   wall-clock optimisation layered on top.
3. **Closure-friendliness.** Experiment sweeps are naturally written as
   closures over configs and params; tasks and results cross the process
   boundary via :mod:`cloudpickle` when it is available (plain pickle
   otherwise), so callers are not forced to hoist every cell function to
   module scope.

Workers inherit the parent via ``fork`` where the platform offers it
(cheap, no re-import) and fall back to the default start method
elsewhere.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import traceback
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, TypeVar

try:  # cloudpickle serialises closures/lambdas; pickle handles the rest
    import cloudpickle as _pickler
except ImportError:  # pragma: no cover - cloudpickle ships in the image
    _pickler = pickle

from repro.obs import runtime as _obs

T = TypeVar("T")
R = TypeVar("R")

#: Environment variable that opts the default worker resolution into
#: parallel execution (e.g. ``REPRO_WORKERS=4 python -m repro table 3``).
WORKERS_ENV = "REPRO_WORKERS"


class ReplicationError(RuntimeError):
    """A replication failed; names the failing cell.

    When the failure happened in a worker process, ``worker_tb`` carries
    the original worker-side traceback text (the parent-side traceback
    of a pool failure only shows the pickle plumbing, which is useless
    for debugging the actual cell), and it is included in ``str(exc)``.
    """

    def __init__(self, key: Any, cause: BaseException,
                 worker_tb: Optional[str] = None):
        message = (f"replication {key!r} failed: "
                   f"{type(cause).__name__}: {cause}")
        if worker_tb:
            message += f"\n--- worker traceback ---\n{worker_tb.rstrip()}"
        super().__init__(message)
        self.key = key
        self.worker_tb = worker_tb


def default_workers() -> int:
    """Worker count used when a caller passes ``workers=None``.

    Reads ``REPRO_WORKERS`` when set; otherwise 1 (serial).  Parallel
    fan-out is opt-in — it changes wall-clock behaviour only, but
    spawning processes from library code without being asked would be a
    rude default.
    """
    value = os.environ.get(WORKERS_ENV)
    if value:
        try:
            return max(1, int(value))
        except ValueError:
            return 1
    return 1


def resolve_workers(workers: Optional[int], ntasks: int) -> int:
    """Effective pool size for ``ntasks`` replications."""
    if workers is None:
        workers = default_workers()
    return max(1, min(workers, ntasks)) if ntasks else 1


def _start_method() -> str:
    """``fork`` where available (cheap, inherits loaded modules)."""
    methods = multiprocessing.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _run_payload(payload: bytes) -> bytes:
    """Worker entry point: decode one (fn, item) cell, run it, encode
    a tagged outcome — ``("ok", result, task_s)`` on success,
    ``("error", cause, tb_text)`` on a cell exception.  Task wall time
    rides the payload so the parent can attribute per-worker cost, and
    the traceback text is captured worker-side because the parent-side
    traceback of a pool failure shows only pickle plumbing.  Must stay
    module-level so the pool can import it."""
    fn, item = _pickler.loads(payload)
    t0 = _obs.wall_clock()
    try:
        result = fn(item)
    except Exception as exc:
        tb = traceback.format_exc()
        try:
            return _pickler.dumps(("error", exc, tb))
        except Exception:
            # The exception itself does not pickle; ship a stand-in that
            # preserves the type name and message.
            stand_in = RuntimeError(f"{type(exc).__name__}: {exc}")
            return _pickler.dumps(("error", stand_in, tb))
    return _pickler.dumps(("ok", result, _obs.wall_clock() - t0))


def _observe_task(task_s: float, wait_s: Optional[float] = None) -> None:
    """Publish one replication's timing into the metrics registry."""
    from repro.obs.metrics import REGISTRY
    REGISTRY.counter("parallel.tasks").inc()
    REGISTRY.histogram("parallel.task_wall_s").observe(task_s)
    if wait_s is not None:
        REGISTRY.histogram("parallel.queue_wait_s").observe(max(0.0, wait_s))


def parallel_map(fn: Callable[[T], R], items: Iterable[T], *,
                 workers: Optional[int] = None,
                 keys: Optional[Sequence[Any]] = None,
                 label: str = "sweep") -> list[R]:
    """``[fn(x) for x in items]``, optionally sharded across processes.

    Results are returned in item order regardless of completion order.
    ``keys`` (same length as ``items``) only labels failures: a worker
    exception is re-raised as :class:`ReplicationError` naming the cell
    and carrying the worker-side traceback.  ``label`` names the sweep
    in progress lines and trace spans when observability
    (:mod:`repro.obs`) is enabled; it never affects results.
    """
    items = list(items)
    n = len(items)
    nworkers = resolve_workers(workers, n)
    if nworkers <= 1 or n <= 1:
        return _serial_map(fn, items, keys, label)
    observed = _obs.enabled()
    payloads = [_pickler.dumps((fn, item)) for item in items]
    results: list[Any] = [None] * n
    context = multiprocessing.get_context(_start_method())
    from repro import obs
    with obs.span(f"parallel_map:{label}", "parallel", n=n,
                  workers=nworkers):
        with ProcessPoolExecutor(max_workers=nworkers,
                                 mp_context=context) as pool:
            submitted_at = _obs.wall_clock() if observed else 0.0
            pending = {pool.submit(_run_payload, payload): index
                       for index, payload in enumerate(payloads)}
            done = 0
            while pending:
                finished, _running = wait(list(pending),
                                          return_when=FIRST_COMPLETED)
                for future in finished:
                    index = pending.pop(future)
                    key = keys[index] if keys is not None else index
                    try:
                        tag, value, extra = _pickler.loads(future.result())
                    except Exception as exc:
                        # Pool-level failure (worker died, result did
                        # not unpickle): no worker traceback to show.
                        tag, value, extra = "error", exc, None
                    if tag == "error":
                        raise ReplicationError(key, value, extra) from value
                    results[index], task_s = value, extra
                    done += 1
                    if observed:
                        wait_s = (_obs.wall_clock() - submitted_at) - task_s
                        if _obs.metrics_on:
                            _observe_task(task_s, wait_s)
                            from repro.obs.metrics import REGISTRY
                            REGISTRY.gauge("parallel.workers").set(nworkers)
                        obs.instant(f"task_done:{key}", "parallel",
                                    task_s=task_s)
                        _obs.progress(label, done, n)
    return results


def _serial_map(fn, items, keys, label):
    """In-process execution path of :func:`parallel_map`.

    A cell exception propagates raw, exactly like the comprehension.
    """
    if not _obs.enabled():
        return [fn(item) for item in items]
    from repro import obs
    n = len(items)
    results: list[Any] = []
    with obs.span(f"parallel_map:{label}", "parallel", n=n, workers=1):
        for index, item in enumerate(items):
            key = keys[index] if keys is not None else index
            t0 = _obs.wall_clock()
            with obs.span(f"task:{key}", "parallel"):
                results.append(fn(item))
            if _obs.metrics_on:
                _observe_task(_obs.wall_clock() - t0)
            _obs.progress(label, index + 1, n)
    return results


def _call_thunk(thunk: Callable[[], R]) -> R:
    """Invoke a zero-argument replication cell (module-level for pickling)."""
    return thunk()


def run_replications(cells: Mapping[Any, Callable[[], R]] |
                     Sequence[tuple[Any, Callable[[], R]]], *,
                     workers: Optional[int] = None,
                     label: str = "replications") -> dict[Any, R]:
    """Run keyed zero-argument replications; returns ``{key: result}``.

    The returned dict preserves the input key order (not completion
    order), so iterating it is deterministic.
    """
    pairs = list(cells.items()) if isinstance(cells, Mapping) else list(cells)
    keys = [key for key, _ in pairs]
    thunks = [thunk for _, thunk in pairs]
    return dict(zip(keys, parallel_map(_call_thunk, thunks, workers=workers,
                                       keys=keys, label=label)))
