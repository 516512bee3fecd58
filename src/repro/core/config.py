"""Compile-time, boot-time, and runtime instrumentation control.

KTAU instrumentation is compiled into the kernel; compile-time options
(``make menuconfig`` in the paper) select which *groups* of points are
built in and whether tracing is produced alongside profiling.  Boot-time
kernel options and runtime control (through libKtau) can then enable or
disable built-in groups by setting flags that instrumentation checks on
every firing.

The perturbation study (Table 3) is expressed entirely in these terms:

* ``Base``        — vanilla kernel, nothing compiled in.
* ``Ktau Off``    — everything compiled in, all groups disabled at boot.
* ``ProfAll``     — everything compiled in and enabled.
* ``ProfSched``   — everything compiled in, only the scheduler group on.
* ``ProfAll+Tau`` — ProfAll plus user-level TAU instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.points import ALL_GROUPS, Group


@dataclass(frozen=True)
class KtauBuildConfig:
    """Compile-time KTAU configuration for one kernel build.

    The merge support — tracking the user-level (TAU) context active when
    each kernel event fires, behind the merged user/kernel views (Figures
    2-D, 4, 9) — is always built into a patched kernel.

    Attributes
    ----------
    compiled_groups:
        Groups whose instrumentation points exist in the built kernel.
        Points in other groups cost *nothing* (they are not in the binary).
    tracing:
        Build the tracing data path (per-task circular buffers).
    trace_buffer_entries:
        Entries per per-task circular trace buffer.
    counters:
        Also snapshot hardware performance counters (instructions, L2
        misses) at event boundaries — the paper's §6 "performance counter
        access to KTAU" extension.
    callgraph:
        Record parent→child activation edges, enabling merged
        user/kernel call-graph profiles — another §6 extension.
    """

    compiled_groups: frozenset[Group] = field(default_factory=lambda: frozenset(ALL_GROUPS))
    tracing: bool = False
    trace_buffer_entries: int = 4096
    counters: bool = False
    callgraph: bool = False

    @staticmethod
    def vanilla() -> "KtauBuildConfig":
        """A kernel with no KTAU patch at all (perturbation ``Base``)."""
        return KtauBuildConfig(compiled_groups=frozenset())

    @staticmethod
    def full(tracing: bool = False, counters: bool = False) -> "KtauBuildConfig":
        """All groups compiled in."""
        return KtauBuildConfig(tracing=tracing, counters=counters)

    def with_tracing(self, entries: int = 4096) -> "KtauBuildConfig":
        return replace(self, tracing=True, trace_buffer_entries=entries)

    @property
    def is_patched(self) -> bool:
        return bool(self.compiled_groups)


class KtauRuntimeControl:
    """Boot-time/runtime enable flags checked by every instrumentation firing.

    Mutable at runtime through libKtau's kernel-control calls; this is the
    mechanism behind the paper's conclusion that a viable kernel-monitoring
    strategy is "instrument the kernel source directly, leave the
    instrumentation compiled in, and implement dynamic measurement control".

    Two granularities exist:

    * **groups** — the paper's released mechanism (compile-time groups
      that boot options can disable);
    * **individual points** — the §6 future-work extension ("mechanisms
      to dynamically disable/enable instrumentation points without
      requiring rebooting or recompilation"): a per-point deny set
      consulted after the group check, so a single hot instrumentation
      site can be silenced at runtime.
    """

    def __init__(self, build: KtauBuildConfig, enabled_groups: frozenset[Group] | None = None):
        self.build = build
        if enabled_groups is None:
            enabled_groups = build.compiled_groups
        # Cannot enable what is not compiled in.
        self._enabled: set[Group] = set(enabled_groups) & set(build.compiled_groups)
        self._disabled_points: set[str] = set()
        #: bumped on every state change so hot paths (the measurement
        #: system's per-point firing-state cache) can revalidate cheaply
        self.version = 0

    # -- queries (the hot path) ------------------------------------------
    def group_enabled(self, group: Group) -> bool:
        return group in self._enabled

    def group_compiled(self, group: Group) -> bool:
        return group in self.build.compiled_groups

    def point_enabled(self, name: str) -> bool:
        return name not in self._disabled_points

    @property
    def enabled_groups(self) -> frozenset[Group]:
        return frozenset(self._enabled)

    @property
    def disabled_points(self) -> frozenset[str]:
        return frozenset(self._disabled_points)

    # -- runtime control (libKtau `ktau_set_state`) ------------------------
    def enable(self, *groups: Group) -> None:
        # All or nothing: a rejected call must leave no group enabled
        # behind an unbumped version (the firing-state cache key).
        for g in groups:
            if g not in self.build.compiled_groups:
                raise ValueError(f"group {g} not compiled into this kernel")
        self._enabled.update(groups)
        self.version += 1

    def disable(self, *groups: Group) -> None:
        for g in groups:
            self._enabled.discard(g)
        self.version += 1

    def disable_all(self) -> None:
        self._enabled.clear()
        self.version += 1

    def disable_points(self, *names: str) -> None:
        """Silence individual instrumentation points at runtime."""
        self._disabled_points.update(names)
        self.version += 1

    def enable_points(self, *names: str) -> None:
        self._disabled_points.difference_update(names)
        self.version += 1

    # -- boot-time kernel options ------------------------------------------
    @classmethod
    def from_boot_cmdline(cls, build: KtauBuildConfig,
                          cmdline: str) -> "KtauRuntimeControl":
        """Parse the KTAU boot options from a kernel command line.

        Supported (mirroring the paper's boot-time group control):

        * ``ktau=off``            — boot with everything disabled
        * ``ktau.groups=a,b,...`` — boot with only the named groups on
        * ``ktau.nopoints=x,y``   — boot with named points silenced
        """
        enabled: frozenset[Group] | None = None
        disabled_points: list[str] = []
        for token in cmdline.split():
            if token == "ktau=off":
                enabled = frozenset()
            elif token.startswith("ktau.groups="):
                names = [n for n in token.split("=", 1)[1].split(",") if n]
                enabled = frozenset(Group(n) for n in names)
            elif token.startswith("ktau.nopoints="):
                disabled_points = [n for n in token.split("=", 1)[1].split(",") if n]
        control = cls(build, enabled_groups=enabled)
        if disabled_points:
            control.disable_points(*disabled_points)
        return control
