"""The simulated process control block.

A :class:`Task` is the kernel's view of a process: identity, scheduling
state, the generator frame stack that *is* the program, accounting fields,
and — when the kernel is KTAU-patched — the KTAU measurement structure the
paper adds to ``task_struct``.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Callable, Generator, Optional

from repro.core.counters import TaskCounters
from repro.kernel.params import TIMESLICE_NS

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.measurement import KtauTaskData
    from repro.kernel.kernel import Kernel
    from repro.sim.engine import EventHandle


class TaskState(enum.Enum):
    """Scheduling states (a condensed Linux state machine)."""

    READY = "ready"  # on a runqueue
    RUNNING = "running"  # current on some CPU
    BLOCKED = "blocked"  # on a wait queue (interruptible sleep)
    EXITED = "exited"


class Task:
    """One process.

    The *program* is ``frames``: a stack of generators.  The bottom frame
    is the user behaviour; syscalls push kernel-handler generators on top.
    The CPU executor always drives the top frame.

    Attributes of note
    ------------------
    cpus_allowed:
        Affinity mask (set of CPU indices).  A singleton set is "pinned".
    sleep_avg_ns:
        The 2.6-style interactivity estimator: grows while sleeping,
        shrinks while running; drives wakeup preemption.
    ktau:
        Per-task KTAU measurement data, present on patched kernels.
    tau:
        The user-level TAU profiler for this process, if the binary is
        TAU-instrumented (set by the launcher).
    """

    __slots__ = (
        "pid", "comm", "kernel", "frames", "state",
        "cpus_allowed", "last_cpu", "timeslice_ns", "sleep_avg_ns",
        "pending_burst_ns", "pending_burst_kernel", "send_value",
        "pending_exception",
        "wake_value", "wake_handle", "blocked_on", "blocked_at",
        "last_ran_at", "last_deschedule_reason",
        "utime_ns", "stime_ns", "nvcsw", "nivcsw",
        "start_time_ns", "exit_time_ns", "exit_code", "exit_exception",
        "exit_callbacks",
        "ktau", "tau", "counters", "pmc_user_rates", "pmc_ahead_cycles",
        "pending_signals", "is_idle",
    )

    def __init__(self, pid: int, comm: str, kernel: "Kernel",
                 behavior: Optional[Generator[Any, Any, Any]],
                 cpus_allowed: Optional[set[int]] = None):
        self.pid = pid
        self.comm = comm
        self.kernel = kernel
        self.frames: list[Generator[Any, Any, Any]] = []
        if behavior is not None:
            self.frames.append(behavior)
        self.state = TaskState.READY

        # scheduling
        self.cpus_allowed: set[int] = set(cpus_allowed) if cpus_allowed else set(
            range(kernel.params.online_cpus))
        self.last_cpu: int = min(self.cpus_allowed)
        self.timeslice_ns: int = TIMESLICE_NS
        self.sleep_avg_ns: int = 0
        self.last_ran_at: int = 0
        self.last_deschedule_reason: Optional[str] = None  # "vol" | "invol"

        # execution
        self.pending_burst_ns: int = 0
        self.pending_burst_kernel: bool = False
        self.send_value: Any = None  # value to send into the top frame next
        self.pending_exception: Any = None  # raised into the frame instead
        self.wake_value: Any = None
        self.wake_handle: Optional["EventHandle"] = None  # timeout timer
        self.blocked_on = None  # WaitQueue while blocked
        self.blocked_at: int = 0

        # accounting
        self.utime_ns = 0
        self.stime_ns = 0
        self.nvcsw = 0  # voluntary context switches
        self.nivcsw = 0  # involuntary context switches
        self.start_time_ns: int = kernel.engine.now
        self.exit_time_ns: Optional[int] = None
        self.exit_code: Optional[int] = None
        #: the exception that killed the task, if one reached its
        #: outermost frame unhandled (exit code -1)
        self.exit_exception: Optional[BaseException] = None
        self.exit_callbacks: list[Callable[["Task"], None]] = []

        # measurement attachments
        self.ktau: Optional["KtauTaskData"] = None
        self.tau = None  # repro.tau.profiler.TauProfiler, set by launcher
        self.counters = TaskCounters()  # simulated PMCs (advance per burst)
        # User-mode PmcRates override (how a cache-hostile workload is
        # modelled); None = the USER_RATES default.
        self.pmc_user_rates = None
        # Cycles whose counters were already advanced out-of-band (TX
        # span recording, fault paths) but whose *time* is still folded
        # into a pending burst; _charge_time skips this many cycles so
        # nothing is counted twice.
        self.pmc_ahead_cycles: int = 0

        # signals
        self.pending_signals: list[int] = []
        self.is_idle = False

    # ------------------------------------------------------------------
    @property
    def pinned(self) -> bool:
        return len(self.cpus_allowed) == 1

    @property
    def alive(self) -> bool:
        return self.state is not TaskState.EXITED

    def on_exit(self, callback: Callable[["Task"], None]) -> None:
        """Register a callback run when the task exits (join support)."""
        if self.state is TaskState.EXITED:
            callback(self)
        else:
            self.exit_callbacks.append(callback)

    def runtime_ns(self) -> Optional[int]:
        """Wall-clock lifetime once exited."""
        if self.exit_time_ns is None:
            return None
        return self.exit_time_ns - self.start_time_ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task pid={self.pid} {self.comm!r} {self.state.value}>"
