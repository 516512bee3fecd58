"""repro.faults — deterministic fault injection and graceful degradation.

The robustness layer of the reproduction: real KTAU deployments on the
Chiba City cluster lost nodes, hung daemons and dropped packets, and a
monitoring pipeline is only credible if its degraded behaviour is as
reproducible as its healthy behaviour.  This package makes failure a
first-class, *scheduled* part of a run:

* :mod:`repro.faults.plan` — typed, frozen fault records
  (:class:`NodeCrash`, :class:`KtaudKill`, :class:`KtaudHang`,
  :class:`ProcfsFlap`, :class:`CollectorPartition`, :class:`PacketLoss`,
  :class:`LatencySpike`, :class:`WirePartition`, :class:`TracePressure`,
  :class:`ClockDrift`) gathered into a :class:`FaultPlan` ordered in
  simulated time.  Unspecified targets resolve through the cluster's
  seeded RNG hub, so the same plan and seed always fault the same nodes
  at the same virtual instants.
* :mod:`repro.faults.injector` — :class:`FaultInjector` arms a plan
  against a live cluster: every fault fires as an ordinary engine event,
  and with no plan armed none of its hooks exist (fault-free runs stay
  byte-identical — the BENCH overhead row).
* :mod:`repro.core.retry` — the shared bounded retry-with-backoff
  policy degraded collection paths use, re-exported here.
* :mod:`repro.faults.chaos` — named :class:`ChaosScenario` plans plus
  the invariants (:func:`evaluate`) a monitored run under each plan must
  satisfy: detection names exactly the faulted nodes, unfaulted nodes
  stay byte-identical to a fault-free run, and repeat runs reproduce
  byte-identical alerts.  Runs live in :mod:`repro.experiments.chaos`
  and behind ``repro chaos``.
"""

from __future__ import annotations

from repro.core.retry import (DEFAULT_POLICY, RetryExhaustedError,
                              RetryPolicy, grow_and_retry, sized_read)
from repro.faults.chaos import (SCENARIOS, SPARE_NODES, ChaosCheck,
                                ChaosReport, ChaosScenario, evaluate,
                                get_scenario, scenario_names)
from repro.faults.injector import RTO_NS, FaultInjector
from repro.faults.plan import (NODE_SCOPED_KINDS, WIRE_KINDS, ClockDrift,
                               CollectorPartition, Fault, FaultPlan,
                               KtaudHang, KtaudKill, LatencySpike, NodeCrash,
                               PacketLoss, ProcfsFlap, TracePressure,
                               WirePartition)

__all__ = [
    "ChaosCheck",
    "ChaosReport",
    "ChaosScenario",
    "ClockDrift",
    "CollectorPartition",
    "DEFAULT_POLICY",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "KtaudHang",
    "KtaudKill",
    "LatencySpike",
    "NODE_SCOPED_KINDS",
    "NodeCrash",
    "PacketLoss",
    "ProcfsFlap",
    "RTO_NS",
    "RetryExhaustedError",
    "RetryPolicy",
    "SCENARIOS",
    "SPARE_NODES",
    "TracePressure",
    "WIRE_KINDS",
    "WirePartition",
    "evaluate",
    "get_scenario",
    "grow_and_retry",
    "scenario_names",
    "sized_read",
]
