"""KTAUD: the KTAU daemon.

KTAUD periodically extracts profile and trace data from the kernel; it can
gather information for all processes or a subset (libKtau's ``all`` and
``other`` modes).  It is required primarily to monitor closed-source
applications that cannot be instrumented — and it is itself a process
whose reads cost CPU, which is why a daemon-based model "causes extra
perturbation" (§2); the read cost here is proportional to the data volume
extracted, so that perturbation is real in the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.core import wire
from repro.core.libktau import LibKtau, Scope
from repro.core.procfs import KtauProcTransientError
from repro.core.retry import RetryPolicy
from repro.core.wire import TaskProfileDump, TraceDump
from repro.obs import runtime as _obs
from repro.sim.units import MSEC, USEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.task import Task


@dataclass
class KtaudSnapshot:
    """One periodic extraction."""

    time_ns: int
    profiles: dict[int, TaskProfileDump]
    traces: dict[int, TraceDump] = field(default_factory=dict)


class Ktaud:
    """A KTAUD instance on one node.

    Parameters
    ----------
    kernel:
        The node to monitor.
    period_ns:
        Extraction period.
    pids:
        Specific PIDs to monitor (``other`` mode), or ``None`` for all.
    drain_traces:
        Also drain trace buffers of the monitored PIDs each period.
    on_snapshot:
        Optional streaming hook, called with each :class:`KtaudSnapshot`
        right after it is appended to :attr:`snapshots`.  This is how an
        online consumer (:mod:`repro.monitor`) subscribes to the
        extraction stream instead of post-processing the hoarded list.
        The callback observes; it must not touch simulated state.
    max_snapshots:
        Retention cap on :attr:`snapshots` (oldest dropped first), so a
        long monitored run with a streaming consumer does not grow
        memory without bound.  ``None`` (the default) keeps everything —
        the historical post-mortem behaviour, byte-identical.
    """

    #: CPU cost charged per KiB of extracted data (parse + copy).
    READ_COST_PER_KB_NS = 4 * USEC

    #: Degradation policy for transient /proc/ktau failures: a few
    #: attempts with a linear simulated-time backoff, then the period is
    #: skipped (counted in :attr:`failed_extractions`) instead of
    #: crashing the daemon.  Only ever exercised under fault injection.
    RETRY = RetryPolicy(max_attempts=3, backoff_ns=5 * MSEC)

    def __init__(self, kernel: "Kernel", period_ns: int = 500 * MSEC,
                 pids: Optional[list[int]] = None, drain_traces: bool = False,
                 on_snapshot: Optional[Callable[["KtaudSnapshot"], None]] = None,
                 max_snapshots: Optional[int] = None):
        if max_snapshots is not None and max_snapshots < 1:
            raise ValueError("max_snapshots must be >= 1 (or None)")
        self.kernel = kernel
        self.period_ns = period_ns
        self.pids = pids
        self.drain_traces = drain_traces
        self.on_snapshot = on_snapshot
        self.max_snapshots = max_snapshots
        #: snapshots dropped by the retention cap (never by default).
        self.dropped = 0
        #: fault injection: while ``engine.now`` is below this the daemon
        #: wakes but skips extraction (a hung collector that keeps its
        #: process alive).  Zero means healthy — one int compare per
        #: period, so the fault hook costs nothing when detached.
        self.suspended_until_ns = 0
        #: periods skipped because the hang fault was active.
        self.suspended_periods = 0
        #: transient /proc/ktau retries performed (fault degradation).
        self.retries = 0
        #: periods abandoned after the retry policy was exhausted.
        self.failed_extractions = 0
        self.lib = LibKtau(kernel.ktau_proc)
        self.snapshots: list[KtaudSnapshot] = []
        self.task: Optional["Task"] = None

    def start(self) -> "Task":
        """Spawn the daemon process."""
        self.task = self.kernel.spawn(self._behavior, "ktaud")
        return self.task

    def stop(self) -> None:
        if self.task is not None and self.task.alive:
            self.kernel.sched.kill_blocked(self.task)

    # ------------------------------------------------------------------
    def _behavior(self, ctx):
        while True:
            yield from ctx.sleep(self.period_ns)
            if ctx.now < self.suspended_until_ns:
                # Hung by fault injection: awake but doing no work.
                self.suspended_periods += 1
                continue
            extraction = yield from self._extract(ctx)
            if extraction is None:
                continue  # retry policy exhausted; skip this period
            snapshot, volume = extraction
            self.snapshots.append(snapshot)
            if self.max_snapshots is not None \
                    and len(self.snapshots) > self.max_snapshots:
                del self.snapshots[0]
                self.dropped += 1
            if self.on_snapshot is not None:
                self.on_snapshot(snapshot)
            # Extraction work is real CPU time on the monitored node.
            cost = max(20 * USEC, (volume * self.READ_COST_PER_KB_NS) // 1024)
            yield from ctx.compute(cost)

    def _extract(self, ctx):
        """One extraction attempt with bounded transient-fault retry.

        A generator (it sleeps simulated backoff time between attempts):
        returns ``(snapshot, volume)`` on success or ``None`` when the
        :attr:`RETRY` policy is exhausted — the daemon then skips the
        period instead of dying, which is the degradation contract the
        cluster monitor's staleness tracking is built on.
        """
        scope = Scope.ALL if self.pids is None else Scope.OTHER
        for attempt in range(1, self.RETRY.max_attempts + 1):
            try:
                profiles = self.lib.read_profiles(scope=scope, pids=self.pids,
                                                  include_zombies=False)
                # Volume at the entries' wire sizes.  The counter terms
                # are zero when the counters build option is off, so
                # enabling them is what makes KTAUD's extraction
                # perturbation grow with the richer payload.
                volume = sum(len(d.perf) * wire.PERF_ENTRY_SIZE
                             + len(d.atomic) * wire.ATOMIC_ENTRY_SIZE
                             + len(d.counters) * wire.COUNTER_ENTRY_SIZE
                             + (wire.PMC_BLOCK_SIZE if d.pmc is not None else 0)
                             for d in profiles.values())
                snapshot = KtaudSnapshot(time_ns=ctx.now, profiles=profiles)
                if self.drain_traces:
                    for pid in (self.pids if self.pids is not None
                                else list(profiles)):
                        dump = self.lib.read_trace(pid)
                        if dump.records or dump.lost:
                            snapshot.traces[pid] = dump
                            volume += len(dump.records) * wire.TRACE_RECORD_SIZE
                return snapshot, volume
            except KtauProcTransientError:
                if attempt >= self.RETRY.max_attempts:
                    self.failed_extractions += 1
                    if _obs.metrics_on:
                        from repro.obs.metrics import REGISTRY
                        REGISTRY.counter("collect.failures").inc()
                    return None
                self.retries += 1
                if _obs.metrics_on:
                    from repro.obs.metrics import REGISTRY
                    REGISTRY.counter("collect.retries").inc()
                yield from ctx.sleep(self.RETRY.backoff_for(attempt))
        return None  # pragma: no cover - loop always returns

    # ------------------------------------------------------------------
    def profile_series(self, pid: int, event: str) -> list[tuple[int, int]]:
        """(time, inclusive cycles) series of one event for one PID —
        KTAUD's raison d'être: *online* observation of a running process."""
        series: list[tuple[int, int]] = []
        for snap in self.snapshots:
            dump = snap.profiles.get(pid)
            if dump is None:
                continue
            perf = dump.perf.get(event)
            if perf is not None:
                series.append((snap.time_ns, perf[1]))
        return series
