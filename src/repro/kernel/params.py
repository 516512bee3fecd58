"""Kernel parameters: the fields experiments set, and calibrated costs.

:class:`KernelParams` holds the fields experiments set on one node's
kernel (clock, CPUs, interrupt routing, the KTAU build and boot options,
and the cache-mismatch ablation knob).  The simulated kernel's cost model
is calibration, not configuration: its values are the module constants
below, calibrated against the paper's era (Linux 2.6.14 on Pentium III
SMP nodes with 100 Mbit Ethernet).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import KtauBuildConfig
from repro.sim.units import MSEC, USEC

# ----------------------------------------------------------------------
# O(1)-scheduler-era scheduling behaviour
# ----------------------------------------------------------------------
#: Full timeslice granted to a task (Linux 2.6 default ~100 ms for nice 0).
TIMESLICE_NS = 100 * MSEC
#: A woken task preempts the running one when its sleep average exceeds
#: the runner's by this margin (the interactivity bonus of the 2.6
#: scheduler, reduced to one number).
WAKEUP_PREEMPT_MARGIN_NS = 10 * MSEC
#: Saturation value of the per-task sleep average.
SLEEP_AVG_CAP_NS = 1000 * MSEC
#: A queued task that ran within this window is considered cache-hot and
#: is not stolen by an idle CPU (2.6 ``cache_hot_time``); this is what
#: lets transient co-location cause real preemption before idle balancing
#: untangles it.
CACHE_HOT_NS = int(2.5 * MSEC)
#: Probability that a wakeup places an unpinned task on a random allowed
#: CPU instead of its last CPU — an abstraction of the 2.6 load balancer's
#: imperfect placement under IRQ and daemon noise.  Pinning (a singleton
#: ``cpus_allowed``) bypasses it entirely.
WAKEUP_MISPLACE_PROB = 0.02
#: When the woken task's previous CPU is busy, probability that the wakeup
#: moves it to an idle CPU instead of queueing it behind its previous
#: CPU's runner.  The 2.6 scheduler mostly wakes tasks on their previous
#: CPU ("weak CPU affinity ... the four LU processes mostly stay on their
#: respective processors", §5.1), relying on later balancing; a low value
#: reproduces that stickiness and the mutual-preemption churn unpinned
#: co-located ranks exhibit.
IDLE_WAKE_PROB = 0.0
#: Direct cost of a context switch (register/TLB/cache switch).
CTX_SWITCH_COST_NS = 6 * USEC

# ----------------------------------------------------------------------
# Ethernet + TCP-path cost model.  Costs are per-segment kernel CPU work,
# calibrated so a kernel TCP operation lands in the paper's Figure 10
# range (27–36 µs on a 450 MHz Pentium III).
# ----------------------------------------------------------------------
BANDWIDTH_BYTES_PER_SEC = 12_500_000  # 100 Mbit/s
LATENCY_NS = 60 * USEC
MTU_BYTES = 1500
IRQ_COST_NS = 4 * USEC
SOFTIRQ_DISPATCH_COST_NS = 3 * USEC
TCP_RX_COST_NS = 30 * USEC  # per-segment tcp_v4_rcv + friends
TCP_TX_COST_NS = 24 * USEC  # per-segment tcp_sendmsg + xmit path
SYSCALL_ENTRY_COST_NS = 2 * USEC  # trap + fd lookup etc.
SNDBUF_BYTES = 65_536
#: ksoftirqd overload deferral: when more than the threshold of
#: bottom-half work lands on one CPU within the window while that CPU is
#: running a task, further groups are punted to ksoftirqd, which has to
#: be *scheduled* — adding the delay before the data is processed.  This
#: is the amplifier that makes concentrating all device interrupts on
#: CPU0 (no irq-balancing) expensive out of proportion to the raw softirq
#: time (§5.2 / Figure 8).
SOFTIRQ_OVERLOAD_WINDOW_NS = 10 * 1000 * 1000
SOFTIRQ_OVERLOAD_THRESHOLD_NS = 1_800_000
KSOFTIRQD_DELAY_NS = 3 * 1000 * 1000

# ----------------------------------------------------------------------
# Timer tick and exceptions
# ----------------------------------------------------------------------
#: Kernel time of one local APIC timer interrupt.
TIMER_TICK_COST_NS = 3 * USEC
#: Kernel time per minor page fault.
MINOR_FAULT_COST_NS = 2 * USEC


@dataclass(frozen=True)
class KernelParams:
    """The fields experiments set on one node's kernel.

    Attributes
    ----------
    hz:
        CPU clock frequency (cycles/second).
    ncpus:
        Physical CPU count of the node.
    detected_cpus:
        CPUs the kernel actually brings up.  ``None`` means all physical
        CPUs.  The Chiba ``ccn10`` anomaly is ``detected_cpus=1`` on a
        2-CPU node.
    timer_tick_ns:
        Period of the local APIC timer interrupt (``None`` disables tick
        simulation; HZ=100 era default is 10 ms).
    irq_balance:
        When true, device IRQs are distributed across CPUs by flow hash;
        when false everything lands on ``irq_target_cpu`` (CPU0 by
        default — the Chiba setup that produced Figure 8's bimodal
        distribution).
    irq_target_cpu:
        The CPU servicing device IRQs when balancing is off.  Figure 9's
        "128x1 Pin,IRQ CPU1" control pins both the application and the
        interrupts to CPU1.
    ktau:
        Compile-time KTAU configuration for this kernel build.
    minor_fault_prob:
        Probability that a user compute burst begins with a minor page
        fault (exercises the exception path).
    cache_mismatch_factor:
        The SMP cache-locality dilation: TCP receive processing that runs
        on a different CPU than the consuming task's pays this factor
        (the paper's explanation for 64x2 TCP being ~11.5 % more
        expensive; see §5.2 and [19] therein).  The DESIGN §4 ablation
        sets it to 1.0.
    """

    hz: float = 450e6
    ncpus: int = 2
    detected_cpus: Optional[int] = None
    #: Memory-system contention on SMP nodes: a compute burst dilates by
    #: this fraction while any other CPU on the node is also busy (shared
    #: front-side bus / cache pressure on the era's Pentium III duals).
    #: This is the node-level penalty that keeps a well-tuned 2-rank-per-
    #: node run measurably slower than one-rank-per-node (Table 2's
    #: residual 64x2 gap; [19] in the paper studies the TCP side of it).
    smp_compute_dilation: float = 0.08
    timer_tick_ns: Optional[int] = 10 * MSEC
    irq_balance: bool = False
    irq_target_cpu: int = 0
    ktau: KtauBuildConfig = field(default_factory=KtauBuildConfig)
    #: Kernel command line; KTAU boot options (``ktau=off``,
    #: ``ktau.groups=...``, ``ktau.nopoints=...``) are parsed at boot.
    boot_cmdline: str = ""
    minor_fault_prob: float = 0.002
    cache_mismatch_factor: float = 1.2

    @property
    def online_cpus(self) -> int:
        """CPUs the kernel actually uses (anomaly-aware)."""
        if self.detected_cpus is None:
            return self.ncpus
        return min(self.detected_cpus, self.ncpus)

    def with_(self, **changes) -> "KernelParams":
        """Convenience immutable update."""
        return replace(self, **changes)
