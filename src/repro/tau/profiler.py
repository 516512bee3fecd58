"""Per-process user-level (TAU) profiling.

A :class:`TauProfiler` is attached to a task by the launcher when the
"binary" is TAU-instrumented.  Workload code brackets routines with
:meth:`TauProfiler.timer`, a context manager that is safe across generator
yields — entry and exit read the node TSC when they actually execute, so a
routine's inclusive time spans every block/preemption inside it, exactly
like a real user-space timer.

Because TAU cannot see the kernel, a user routine's exclusive time still
*contains* any kernel time spent on its behalf; producing the "true"
exclusive time is the job of the merge (:mod:`repro.tau.merge`), which
subtracts the kernel time KTAU attributed to this user context.

The profiler also maintains ``task.ktau.user_context`` — the innermost
active user routine — which is how KTAU's merge support knows
what user-level context each kernel event belongs to.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional

from repro.core.measurement import PerfData

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.task import Task


class _TauFrame:
    __slots__ = ("name", "entry_cycles", "child_cycles")

    def __init__(self, name: str, entry_cycles: int):
        self.name = name
        self.entry_cycles = entry_cycles
        self.child_cycles = 0


@dataclass
class TauProfileDump:
    """Decoded user-level profile for one process (rank)."""

    pid: int
    comm: str
    node: str
    rank: Optional[int]
    hz: float
    #: routine name -> (count, inclusive cycles, exclusive cycles)
    perf: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    #: trace records (cycles, routine, is_entry) if tracing was on
    trace: list[tuple[int, str, bool]] = field(default_factory=list)
    #: call-path edges: (parent routine or "", routine) -> (count, incl)
    edges: dict[tuple[str, str], tuple[int, int]] = field(default_factory=dict)


class TauProfiler:
    """User-level timers for one simulated process.

    Parameters
    ----------
    task:
        The process being measured.
    rank:
        MPI rank, when the process is part of a parallel job.
    per_call_overhead_ns:
        Cost of one timer start or stop, charged into simulated time
        (drives the ProfAll+Tau row of the perturbation study).
    tracing:
        Also record an event log (Figure 2-E's user half).
    """

    def __init__(self, task: "Task", rank: Optional[int] = None,
                 per_call_overhead_ns: int = 550, tracing: bool = False):
        self.task = task
        self.clock = task.kernel.clock
        self.rank = rank
        self.per_call_overhead_ns = per_call_overhead_ns
        self.tracing = tracing
        self.events: dict[str, PerfData] = {}
        self.stack: list[_TauFrame] = []
        self.trace: list[tuple[int, str, bool]] = []
        self.edges: dict[tuple[str, str], list[int]] = {}
        self.pending_overhead_ns = 0
        self.active_counts: dict[str, int] = {}

    # ------------------------------------------------------------------
    def start(self, name: str) -> None:
        now = self.clock.read()
        self.stack.append(_TauFrame(name, now))
        self.active_counts[name] = self.active_counts.get(name, 0) + 1
        if self.tracing:
            self.trace.append((now, name, True))
        self.pending_overhead_ns += self.per_call_overhead_ns
        self._publish_context()

    def stop(self, name: str) -> None:
        if not self.stack or self.stack[-1].name != name:
            raise RuntimeError(
                f"TAU timer stack mismatch: stopping {name!r}, "
                f"top is {self.stack[-1].name if self.stack else None!r}")
        frame = self.stack.pop()
        now = self.clock.read()
        incl = now - frame.entry_cycles
        excl = incl - frame.child_cycles
        perf = self.events.get(name)
        if perf is None:
            perf = PerfData()
            self.events[name] = perf
        perf.count += 1
        remaining = self.active_counts[name] - 1
        self.active_counts[name] = remaining
        if remaining == 0:
            perf.incl_cycles += incl
        perf.excl_cycles += max(0, excl)
        if self.stack:
            self.stack[-1].child_cycles += incl
        # call-path edge (parent routine -> this routine)
        parent = self.stack[-1].name if self.stack else ""
        edge = self.edges.get((parent, name))
        if edge is None:
            self.edges[(parent, name)] = [1, incl]
        else:
            edge[0] += 1
            edge[1] += incl
        if self.tracing:
            self.trace.append((now, name, False))
        self.pending_overhead_ns += self.per_call_overhead_ns
        self._publish_context()

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Bracket a routine; safe across generator yields."""
        self.start(name)
        try:
            yield
        finally:
            self.stop(name)

    # ------------------------------------------------------------------
    def _publish_context(self) -> None:
        """Expose the innermost user routine to KTAU's merge support."""
        data = self.task.ktau
        if data is not None:
            data.user_context = self.stack[-1].name if self.stack else None

    # ------------------------------------------------------------------
    def dump(self) -> TauProfileDump:
        """Snapshot this process's user-level profile."""
        return TauProfileDump(
            pid=self.task.pid,
            comm=self.task.comm,
            node=self.task.kernel.name,
            rank=self.rank,
            hz=self.clock.hz,
            perf={name: perf.as_tuple() for name, perf in self.events.items()},
            trace=list(self.trace),
            edges={key: (count, incl)
                   for key, (count, incl) in self.edges.items()},
        )
