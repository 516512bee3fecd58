"""Tunable kernel parameters.

Everything behavioural in the simulated kernel is parameterised here, with
defaults calibrated against the paper's era (Linux 2.6.14 on Pentium III
SMP nodes with 100 Mbit Ethernet).  Experiment configurations override
individual fields; ablation benchmarks sweep the ones DESIGN.md calls out.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.config import KtauBuildConfig
from repro.sim.units import MSEC, USEC


@dataclass(frozen=True)
class SchedParams:
    """O(1)-scheduler-era scheduling behaviour.

    Attributes
    ----------
    timeslice_ns:
        Full timeslice granted to a task (Linux 2.6 default ~100 ms for
        nice 0).
    wakeup_preempt_margin_ns:
        A woken task preempts the running one when its sleep average
        exceeds the runner's by this margin (the interactivity bonus of
        the 2.6 scheduler, reduced to one number).
    sleep_avg_cap_ns:
        Saturation value of the per-task sleep average.
    cache_hot_ns:
        A queued task that ran within this window is considered cache-hot
        and is not stolen by an idle CPU (2.6 ``cache_hot_time``); this is
        what lets transient co-location cause real preemption before idle
        balancing untangles it.
    wakeup_misplace_prob:
        Probability that a wakeup places an unpinned task on a random
        allowed CPU instead of its last CPU — an abstraction of the 2.6
        load balancer's imperfect placement under IRQ and daemon noise.
        Pinning (a singleton ``cpus_allowed``) bypasses it entirely.
    idle_wake_prob:
        When the woken task's previous CPU is busy, probability that the
        wakeup moves it to an idle CPU instead of queueing it behind its
        previous CPU's runner.  The 2.6 scheduler mostly wakes tasks on
        their previous CPU ("weak CPU affinity ... the four LU processes
        mostly stay on their respective processors", §5.1), relying on
        later balancing; a low value reproduces that stickiness and the
        mutual-preemption churn unpinned co-located ranks exhibit.
    ctx_switch_cost_ns:
        Direct cost of a context switch (register/TLB/cache switch).
    """

    timeslice_ns: int = 100 * MSEC
    wakeup_preempt_margin_ns: int = 10 * MSEC
    sleep_avg_cap_ns: int = 1000 * MSEC
    cache_hot_ns: int = int(2.5 * MSEC)
    wakeup_misplace_prob: float = 0.02
    idle_wake_prob: float = 0.0
    ctx_switch_cost_ns: int = 6 * USEC


@dataclass(frozen=True)
class NetParams:
    """Ethernet + TCP-path cost model.

    Costs are per-segment kernel CPU work, in nanoseconds, calibrated so a
    kernel TCP operation lands in the paper's Figure 10 range (27–36 µs on
    a 450 MHz Pentium III).

    ``cache_mismatch_factor`` is the SMP cache-locality dilation: TCP
    receive processing that runs on a different CPU than the consuming
    task's pays this factor (the paper's explanation for 64x2 TCP being
    ~11.5 % more expensive; see §5.2 and [19] therein).
    """

    bandwidth_bytes_per_sec: int = 12_500_000  # 100 Mbit/s
    latency_ns: int = 60 * USEC
    mtu_bytes: int = 1500
    irq_cost_ns: int = 4 * USEC
    softirq_dispatch_cost_ns: int = 3 * USEC
    tcp_rx_cost_ns: int = 30 * USEC  # per-segment tcp_v4_rcv + friends
    tcp_tx_cost_ns: int = 24 * USEC  # per-segment tcp_sendmsg + xmit path
    syscall_entry_cost_ns: int = 2 * USEC  # trap + fd lookup etc.
    cache_mismatch_factor: float = 1.2
    sndbuf_bytes: int = 65_536
    rcvbuf_bytes: int = 262_144
    #: ksoftirqd overload deferral: when more than ``threshold`` of
    #: bottom-half work lands on one CPU within ``window`` while that CPU
    #: is running a task, further groups are punted to ksoftirqd, which
    #: has to be *scheduled* — adding ``delay`` before the data is
    #: processed.  This is the amplifier that makes concentrating all
    #: device interrupts on CPU0 (no irq-balancing) expensive out of
    #: proportion to the raw softirq time (§5.2 / Figure 8).
    softirq_overload_window_ns: int = 10 * 1000 * 1000
    softirq_overload_threshold_ns: int = 1_800_000
    ksoftirqd_delay_ns: int = 3 * 1000 * 1000


@dataclass(frozen=True)
class KernelParams:
    """Everything that configures one node's kernel.

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
    minor_fault_cost_ns:
        Kernel time per minor fault.
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
    timer_tick_cost_ns: int = 3 * USEC
    irq_balance: bool = False
    irq_target_cpu: int = 0
    sched: SchedParams = field(default_factory=SchedParams)
    net: NetParams = field(default_factory=NetParams)
    ktau: KtauBuildConfig = field(default_factory=KtauBuildConfig)
    #: Kernel command line; KTAU boot options (``ktau=off``,
    #: ``ktau.groups=...``, ``ktau.nopoints=...``) are parsed at boot.
    boot_cmdline: str = ""
    minor_fault_prob: float = 0.002
    minor_fault_cost_ns: int = 2 * USEC

    @property
    def online_cpus(self) -> int:
        """CPUs the kernel actually uses (anomaly-aware)."""
        if self.detected_cpus is None:
            return self.ncpus
        return min(self.detected_cpus, self.ncpus)

    def with_(self, **changes) -> "KernelParams":
        """Convenience immutable update."""
        return replace(self, **changes)
