"""libKtau: the user-space access library.

libKtau exports a small API that hides the /proc/ktau protocol from
clients and shields them from kernel-side changes.  It provides:

* kernel control (runtime enable/disable, overhead query),
* kernel data retrieval (profiles and traces, with the size/read retry
  loop the session-less protocol requires),
* data conversion (binary to/from ASCII), and
* formatted stream output.

Access *modes* follow the paper: ``SELF`` (a process reading its own
profile), ``OTHER`` (a specific set of PIDs), and ``ALL`` (every process —
what KTAUD uses).
"""

from __future__ import annotations

import enum
from typing import Optional

from repro.core.procfs import KtauProcFS
from repro.core.points import Group
from repro.core.retry import DEFAULT_POLICY, grow_and_retry, sized_read
from repro.core.wire import TaskProfileDump, TraceDump, unpack_profiles, unpack_trace


class Scope(enum.Enum):
    """libKtau access modes."""

    SELF = "self"
    OTHER = "other"
    ALL = "all"


class LibKtau:
    """User-space handle to one node's KTAU.

    Parameters
    ----------
    proc:
        The node's /proc/ktau interface.
    self_pid:
        PID used by ``SELF``-scope calls (the calling process), if any.
    """

    def __init__(self, proc: KtauProcFS, self_pid: Optional[int] = None):
        self._proc = proc
        self._self_pid = self_pid

    # ------------------------------------------------------------------
    # data retrieval
    # ------------------------------------------------------------------
    def _scope_pids(self, scope: Scope, pids: Optional[list[int]]) -> Optional[list[int]]:
        if scope is Scope.SELF:
            if self._self_pid is None:
                raise ValueError("SELF scope requires a bound pid")
            return [self._self_pid]
        if scope is Scope.OTHER:
            if not pids:
                raise ValueError("OTHER scope requires explicit pids")
            return list(pids)
        return None  # ALL

    def read_profiles(self, scope: Scope = Scope.ALL,
                      pids: Optional[list[int]] = None,
                      include_zombies: bool = False) -> dict[int, TaskProfileDump]:
        """Retrieve and decode profiles, handling the size/read race.

        Implements the documented two-call protocol via the shared
        :func:`repro.core.retry.grow_and_retry` helper: get the size,
        allocate a buffer, read; if the kernel reports the data outgrew
        the buffer, retry with the new size, up to the bound of
        :data:`~repro.core.retry.DEFAULT_POLICY`
        (:class:`~repro.core.retry.RetryExhaustedError` on exhaustion).
        """
        want = self._scope_pids(scope, pids)
        data = grow_and_retry(
            lambda: self._proc.profile_size(want,
                                            include_zombies=include_zombies),
            lambda bufsize: self._proc.profile_read(
                bufsize, want, include_zombies=include_zombies),
            DEFAULT_POLICY, what="ktau profile read")
        return unpack_profiles(data)

    def read_trace(self, pid: int) -> TraceDump:
        """Drain and decode ``pid``'s kernel trace buffer.

        Unlike profiles the drain is destructive, so there is no retry:
        the shared :func:`repro.core.retry.sized_read` helper sizes the
        buffer exactly and reads once; records the ring overwrote before
        the drain are counted in the dump's ``lost``.
        """
        data, _full = sized_read(lambda: self._proc.trace_size(pid),
                                 lambda n: self._proc.trace_read(pid, n))
        if not data:
            return TraceDump(pid=pid, lost=0)
        return unpack_trace(data)

    # ------------------------------------------------------------------
    # kernel control
    # ------------------------------------------------------------------
    def enable_groups(self, *groups: Group) -> None:
        self._proc.ioctl_set_groups(True, groups)

    def disable_groups(self, *groups: Group) -> None:
        self._proc.ioctl_set_groups(False, groups)

    def enable_points(self, *names: str) -> None:
        """Re-enable individual instrumentation points at runtime."""
        self._proc.ioctl_set_points(True, names)

    def disable_points(self, *names: str) -> None:
        """Silence individual instrumentation points at runtime — the §6
        extension: no reboot, no recompilation."""
        self._proc.ioctl_set_points(False, names)

    # ------------------------------------------------------------------
    # data conversion (binary <-> ASCII) and formatted output
    # ------------------------------------------------------------------
    @staticmethod
    def to_ascii(profiles: dict[int, TaskProfileDump]) -> str:
        """Render decoded profiles to the line-oriented ASCII interchange form."""
        lines: list[str] = ["#ktau-ascii v1"]
        for pid in sorted(profiles):
            dump = profiles[pid]
            lines.append(f"task {pid} {dump.comm}")
            for name in sorted(dump.perf):
                count, incl, excl = dump.perf[name]
                group = dump.groups.get(name, "")
                lines.append(f"perf {name} {group} {count} {incl} {excl}")
            for name in sorted(dump.atomic):
                count, total, mn, mx = dump.atomic[name]
                group = dump.groups.get(name, "")
                lines.append(f"atomic {name} {group} {count} {total} {mn} {mx}")
            for (ctx, name) in sorted(dump.context_pairs):
                count, excl = dump.context_pairs[(ctx, name)]
                lines.append(f"ctx {ctx} {name} {count} {excl}")
            for name in sorted(dump.counters):
                count, cycles, insn, l2, minflt, majflt = dump.counters[name]
                lines.append(f"cnt {name} {count} {cycles} {insn} {l2} "
                             f"{minflt} {majflt}")
            for (parent, name) in sorted(dump.edges):
                count, incl = dump.edges[(parent, name)]
                lines.append(f"edge {parent or '-'} {name} {count} {incl}")
            if dump.pmc is not None:
                lines.append("pmc " + " ".join(str(v) for v in dump.pmc))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_ascii(text: str) -> dict[int, TaskProfileDump]:
        """Parse the ASCII interchange form back into decoded profiles."""
        lines = text.splitlines()
        if not lines or not lines[0].startswith("#ktau-ascii"):
            raise ValueError("not a ktau ASCII dump")
        profiles: dict[int, TaskProfileDump] = {}
        current: Optional[TaskProfileDump] = None
        for line in lines[1:]:
            if not line.strip():
                continue
            try:
                current = LibKtau._parse_ascii_line(line, profiles, current)
            except (IndexError, ValueError) as exc:
                raise ValueError(f"malformed ktau ASCII record {line!r}") from exc
        return profiles

    @staticmethod
    def _parse_ascii_line(line: str, profiles: dict[int, TaskProfileDump],
                          current: Optional[TaskProfileDump]
                          ) -> Optional[TaskProfileDump]:
        """Parse one ASCII record into ``profiles``; returns the (possibly
        new) current task dump."""
        parts = line.split()
        tag = parts[0]
        if tag == "task":
            pid = int(parts[1])
            comm = parts[2] if len(parts) > 2 else ""
            current = TaskProfileDump(pid=pid, comm=comm)
            profiles[pid] = current
        elif current is None:
            raise ValueError("record before any task line")
        elif tag == "perf":
            name, group = parts[1], parts[2]
            current.perf[name] = (int(parts[3]), int(parts[4]), int(parts[5]))
            current.groups[name] = group
        elif tag == "atomic":
            name, group = parts[1], parts[2]
            current.atomic[name] = (int(parts[3]), int(parts[4]),
                                    int(parts[5]), int(parts[6]))
            current.groups[name] = group
        elif tag == "ctx":
            ctx, name = parts[1], parts[2]
            current.context_pairs[(ctx, name)] = (int(parts[3]), int(parts[4]))
        elif tag == "cnt":
            current.counters[parts[1]] = (int(parts[2]), int(parts[3]),
                                          int(parts[4]), int(parts[5]),
                                          int(parts[6]), int(parts[7]))
        elif tag == "pmc":
            if len(parts) != 6:
                raise ValueError("pmc record needs 5 counter values")
            current.pmc = tuple(int(v) for v in parts[1:6])
        elif tag == "edge":
            parent = "" if parts[1] == "-" else parts[1]
            current.edges[(parent, parts[2])] = (int(parts[3]), int(parts[4]))
        else:
            raise ValueError(f"unknown record tag {tag!r}")
        return current

    @staticmethod
    def format_profile(dump: TaskProfileDump, hz: float, width: int = 72) -> str:
        """Human-readable per-task report (runKtau's output format).

        Cycle counters are converted to seconds with the node frequency
        ``hz`` (cycles / hz = seconds).
        """
        header = f"KTAU profile: pid={dump.pid} comm={dump.comm}"
        lines = [header, "-" * min(width, len(header))]
        lines.append(f"{'event':<28} {'count':>8} {'incl(s)':>12} {'excl(s)':>12}")
        for name, (count, incl, excl) in sorted(
                dump.perf.items(), key=lambda kv: -kv[1][2]):
            lines.append(f"{name:<28} {count:>8} {incl * 1.0 / hz:>12.6f} "
                         f"{excl * 1.0 / hz:>12.6f}")
        for name, (count, total, mn, mx) in sorted(dump.atomic.items()):
            lines.append(f"{name:<28} {count:>8} sum={total} min={mn} max={mx}")
        return "\n".join(lines) + "\n"
