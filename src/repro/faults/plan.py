"""Typed fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is an ordered set of frozen :class:`Fault` records
scheduled in *simulated* time.  Nothing here touches a wall clock or an
unseeded RNG: a fault either names its target node explicitly or leaves
it ``None`` to be drawn from the cluster's seeded RNG hub at
:meth:`FaultPlan.materialize` time — so the same plan and seed always
yields the same faults at the same virtual instants, and a faulted run
is as byte-reproducible as a healthy one.

Two scopes of fault, with very different blast radii:

* **node/wire scope** perturbs the simulation itself (a crash kills
  processes, a hung KTAUD stops paying extraction CPU, packet loss
  delays real deliveries).  These change timing on the faulted node —
  and, through a synchronised application's messages, potentially
  everywhere.
* **collection scope** (:class:`CollectorPartition`) suppresses monitor
  *deliveries* only: the node keeps extracting and paying CPU exactly
  as before, but its reports never reach the monitor.  Zero simulated
  state is touched, which is what lets the chaos harness assert that
  unfaulted nodes' profiles stay byte-identical to a fault-free run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.sim.units import MSEC

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.machines import Cluster


@dataclass(frozen=True)
class Fault:
    """Base record: one fault, applied at one simulated instant."""

    at_ns: int

    #: short machine-readable fault family name; overridden per subclass.
    kind = "fault"

    def __post_init__(self):
        if self.at_ns < 0:
            raise ValueError("fault time must be >= 0")
        until = getattr(self, "until_ns", None)
        if until is not None and until <= self.at_ns:
            raise ValueError("fault window must end after it starts")

    @property
    def node(self) -> Optional[int]:
        """Target node index, if this fault is node-scoped (else None)."""
        return getattr(self, "node_index", None)

    def describe(self) -> str:
        """One human-readable line for logs and reports."""
        where = f" node={self.node}" if self.node is not None else ""
        return f"{self.kind}@{self.at_ns}ns{where}"

    def to_doc(self) -> dict:
        """JSON-able record (stable field set, kind tag included)."""
        doc = {"kind": self.kind}
        doc.update(dataclasses.asdict(self))
        return doc


@dataclass(frozen=True)
class NodeCrash(Fault):
    """The node dies: every process is killed and its NIC goes deaf.

    With ``reboot_at_ns`` the node later comes back up: housekeeping
    daemons restart (fresh processes) and, if a monitor was attached,
    a replacement KTAUD resumes the snapshot stream.
    """

    node_index: Optional[int] = None
    reboot_at_ns: Optional[int] = None
    kind = "node_crash"

    def __post_init__(self):
        super().__post_init__()
        if self.reboot_at_ns is not None and self.reboot_at_ns <= self.at_ns:
            raise ValueError("reboot must come after the crash")


@dataclass(frozen=True)
class KtaudKill(Fault):
    """The node's KTAUD daemon is killed (SIGKILL); collection stops."""

    node_index: Optional[int] = None
    kind = "ktaud_kill"


@dataclass(frozen=True)
class KtaudHang(Fault):
    """The node's KTAUD hangs: alive, but extracting nothing.

    ``until_ns=None`` hangs it forever; otherwise extraction resumes at
    ``until_ns`` and the monitor sees the node recover.
    """

    node_index: Optional[int] = None
    until_ns: Optional[int] = None
    kind = "ktaud_hang"


@dataclass(frozen=True)
class ProcfsFlap(Fault):
    """/proc/ktau returns transient errors on one node for a window.

    Exercises the collection retry path: KTAUD retries with simulated
    backoff under its :class:`~repro.core.retry.RetryPolicy` and skips
    periods once exhausted.
    """

    until_ns: int = 0
    node_index: Optional[int] = None
    kind = "procfs_flap"


@dataclass(frozen=True)
class CollectorPartition(Fault):
    """Collection-scope partition: monitor deliveries from ``nodes`` are
    dropped for the window (``until_ns=None`` = never heals).

    The nodes keep running and extracting exactly as before — only the
    monitor's view degrades, so this fault perturbs no simulated state.
    """

    nodes: tuple[int, ...] = ()
    until_ns: Optional[int] = None
    kind = "collector_partition"

    def __post_init__(self):
        super().__post_init__()
        if not self.nodes:
            raise ValueError("collector partition needs target nodes")


@dataclass(frozen=True)
class PacketLoss(Fault):
    """Wire-scope loss: each frame group is independently lost with
    ``rate`` and redelivered after an era-Linux retransmission timeout,
    drawn deterministically from the cluster RNG."""

    until_ns: int = 0
    rate: float = 0.02
    nodes: Optional[tuple[int, ...]] = None
    kind = "packet_loss"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.rate < 1.0:
            raise ValueError("loss rate must be in [0, 1)")


@dataclass(frozen=True)
class LatencySpike(Fault):
    """Wire-scope latency: deliveries gain ``extra_ns`` for the window
    (cluster-wide, or only flows touching ``nodes``)."""

    until_ns: int = 0
    extra_ns: int = 2 * MSEC
    nodes: Optional[tuple[int, ...]] = None
    kind = "latency_spike"


@dataclass(frozen=True)
class WirePartition(Fault):
    """Wire-scope partition: traffic between ``group_a`` and ``group_b``
    is held until the partition heals at ``until_ns``."""

    until_ns: int = 0
    group_a: tuple[int, ...] = ()
    group_b: tuple[int, ...] = ()
    kind = "wire_partition"

    def __post_init__(self):
        super().__post_init__()
        if not self.group_a or not self.group_b:
            raise ValueError("wire partition needs two node groups")
        if set(self.group_a) & set(self.group_b):
            raise ValueError("partition groups must be disjoint")


@dataclass(frozen=True)
class TracePressure(Fault):
    """A syscall-storm daemon floods the node's trace buffers for the
    window, forcing genuine record loss on KTAUD drains."""

    until_ns: int = 0
    node_index: Optional[int] = None
    period_ns: int = 2 * MSEC
    burst_syscalls: int = 24
    kind = "trace_pressure"


@dataclass(frozen=True)
class ClockDrift(Fault):
    """One node's TSC drifts by ``ppm`` parts per million from
    ``at_ns`` on — cross-node timestamp alignment degrades there."""

    node_index: Optional[int] = None
    ppm: float = 200.0
    kind = "clock_drift"


#: Fault kinds that perturb simulated state on their target node only.
NODE_SCOPED_KINDS = ("node_crash", "ktaud_kill", "ktaud_hang",
                     "procfs_flap", "trace_pressure", "clock_drift")

#: Fault kinds that perturb wire delivery (blast radius: every node).
WIRE_KINDS = ("packet_loss", "latency_spike", "wire_partition")


@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered set of faults for one run."""

    name: str
    faults: tuple[Fault, ...] = ()

    def materialize(self, cluster: "Cluster") -> "FaultPlan":
        """Resolve RNG-chosen targets against ``cluster`` and order faults.

        Node-scoped faults with ``node_index=None`` get a node drawn from
        the cluster's seeded ``faults.plan`` RNG stream — same seed, same
        targets.  Returns a new plan; the original is untouched.
        """
        rng = None
        resolved = []
        for fault in self.faults:
            if hasattr(fault, "node_index") and fault.node_index is None:
                if rng is None:
                    rng = cluster.rng.stream("faults.plan")
                pick = int(rng.integers(len(cluster.nodes)))
                fault = dataclasses.replace(fault, node_index=pick)
            if fault.node is not None and fault.node >= len(cluster.nodes):
                raise ValueError(f"fault targets node {fault.node} but the "
                                 f"cluster has {len(cluster.nodes)} nodes")
            resolved.append(fault)
        ordered = tuple(sorted(resolved, key=lambda f: (f.at_ns, f.kind)))
        return FaultPlan(self.name, ordered)

    def perturbed_nodes(self) -> Optional[tuple[int, ...]]:
        """Nodes whose simulated state this plan perturbs.

        ``None`` means *potentially all of them* (a wire-scope fault
        delays real traffic, and on a synchronised application that
        propagates everywhere).  Collection-scope faults perturb
        nothing, so they never appear here — the basis for the chaos
        harness's byte-identity invariant on unfaulted nodes.
        """
        if any(f.kind in WIRE_KINDS for f in self.faults):
            return None
        perturbed: set[int] = set()
        for fault in self.faults:
            if fault.kind in NODE_SCOPED_KINDS and fault.node is not None:
                perturbed.add(fault.node)
        return tuple(sorted(perturbed))

    def to_doc(self) -> dict:
        """JSON-able document of the full plan."""
        return {"name": self.name,
                "faults": [fault.to_doc() for fault in self.faults]}
