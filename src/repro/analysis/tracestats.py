"""State statistics from traces, and trace↔profile cross-validation.

Jumpshot-style analysis reduces a trace to per-state statistics (count,
total/min/max duration).  Because KTAU produces *both* a trace and a
profile from the same instrumentation, the two must agree: a profile
reconstructed from a complete trace should match the measured profile
exactly (the paper's profiling and tracing paths share the entry/exit
macros).  That makes this module double as a powerful end-to-end
consistency check, which the test suite exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.tracebuf import ATOMIC, ENTRY
from repro.core.wire import TaskProfileDump, TraceDump


@dataclass
class StateStats:
    """Durations of one event's activations, reduced from a trace."""

    name: str
    count: int = 0
    total_cycles: int = 0
    min_cycles: int | None = None
    max_cycles: int | None = None

    def record(self, duration: int) -> None:
        self.count += 1
        self.total_cycles += duration
        if self.min_cycles is None or duration < self.min_cycles:
            self.min_cycles = duration
        if self.max_cycles is None or duration > self.max_cycles:
            self.max_cycles = duration


@dataclass
class TraceReduction:
    """The result of reducing one trace."""

    states: dict[str, StateStats] = field(default_factory=dict)
    #: reconstructed (count, incl, excl) per event — comparable to a profile
    perf: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    unmatched_exits: int = 0
    unclosed_entries: int = 0


def reduce_trace(trace: TraceDump) -> TraceReduction:
    """Reduce a trace to state statistics and a reconstructed profile.

    Uses the same activation-stack algorithm as the live measurement
    system (inclusive only for the outermost recursive activation,
    exclusive minus children), so on a loss-free trace the reconstruction
    must equal KTAU's own profile.
    """
    result = TraceReduction()
    stack: list[list] = []  # [name, entry_cycles, child_cycles]
    active: dict[str, int] = {}
    incl: dict[str, int] = {}
    excl: dict[str, int] = {}
    count: dict[str, int] = {}

    for cycles, name, kind, _value in trace.records:
        if kind == ATOMIC:
            continue
        if kind == ENTRY:
            stack.append([name, cycles, 0])
            active[name] = active.get(name, 0) + 1
            continue
        if not stack or stack[-1][0] != name:
            result.unmatched_exits += 1
            continue
        _n, entry, children = stack.pop()
        duration = cycles - entry
        exclusive = max(0, duration - children)
        state = result.states.get(name)
        if state is None:
            state = StateStats(name)
            result.states[name] = state
        state.record(duration)
        count[name] = count.get(name, 0) + 1
        active[name] -= 1
        if active[name] == 0:
            incl[name] = incl.get(name, 0) + duration
        excl[name] = excl.get(name, 0) + exclusive
        if stack:
            stack[-1][2] += duration

    result.unclosed_entries = len(stack)
    for name in count:
        result.perf[name] = (count[name], incl.get(name, 0), excl.get(name, 0))
    return result


@dataclass(frozen=True)
class ValidationIssue:
    event: str
    field: str
    profile_value: int
    trace_value: int


def cross_validate(profile: TaskProfileDump, trace: TraceDump,
                   ignore_incomplete: bool = True) -> list[ValidationIssue]:
    """Compare a profile against the reconstruction from its trace.

    Returns the discrepancies (empty = consistent).  Events still open
    when the trace was drained, and events whose entries were lost to
    ring overwrite, cannot be compared exactly; with
    ``ignore_incomplete`` the comparison skips count mismatches explained
    by truncation and checks that trace-derived totals never *exceed*
    the profile's.
    """
    reduction = reduce_trace(trace)
    issues: list[ValidationIssue] = []
    lossy = (trace.lost > 0 or reduction.unmatched_exits > 0
             or reduction.unclosed_entries > 0)
    for name, (p_count, p_incl, p_excl) in profile.perf.items():
        t_count, t_incl, t_excl = reduction.perf.get(name, (0, 0, 0))
        if lossy and ignore_incomplete:
            if t_count > p_count:
                issues.append(ValidationIssue(name, "count", p_count, t_count))
            continue
        if t_count != p_count:
            issues.append(ValidationIssue(name, "count", p_count, t_count))
        if t_incl != p_incl:
            issues.append(ValidationIssue(name, "incl", p_incl, t_incl))
        if t_excl != p_excl:
            issues.append(ValidationIssue(name, "excl", p_excl, t_excl))
    return issues

