"""Machine factories for the paper's testbeds.

* **neutron** — 4-CPU Intel P3 Xeon 550 MHz, one node (the controlled
  SMP experiments of §5.1).
* **Chiba-City slice** — 128 nodes, dual P3 450 MHz, 512 MB, single
  Ethernet (the §5.2/§5.3 experiments).

The paper's second §5.1 testbed, neuronic (Linux 2.4), is not modelled:
no reproduced figure or table uses it.

A :class:`Cluster` bundles the shared engine, RNG hub, network, nodes,
and run-control; experiment configurations adjust kernel parameters
through the ``params`` callback.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster.network import ClusterNetwork
from repro.cluster.node import Node
from repro.kernel.kernel import Kernel
from repro.kernel.params import KernelParams
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim.units import SEC


class Cluster:
    """A set of nodes sharing one simulation engine and network."""

    def __init__(self, seed: int = 1):
        self.engine = Engine()
        self.rng = RngHub(seed)
        self.network = ClusterNetwork()
        self.nodes: list[Node] = []

    def add_node(self, name: str, params: KernelParams) -> Node:
        kernel = Kernel(self.engine, params, name, self.rng)
        node = Node(len(self.nodes), name, kernel)
        self.nodes.append(node)
        return node

    # ------------------------------------------------------------------
    def run_until_complete(self, tasks, limit_ns: int = 3600 * SEC) -> None:
        """Run the simulation until every task in ``tasks`` has exited.

        Daemons and timer ticks would keep the event queue busy forever,
        so completion is signalled through exit callbacks that stop the
        engine once the watched set drains.
        """
        remaining = sum(1 for t in tasks if t.alive)
        if remaining == 0:
            return
        engine = self.engine

        state = {"left": remaining}

        def on_exit(_task) -> None:
            state["left"] -= 1
            if state["left"] == 0:
                engine.stop()

        for task in tasks:
            if task.alive:
                task.on_exit(on_exit)
        deadline = engine.now + limit_ns
        engine.run(until=deadline)
        if state["left"] > 0:
            raise RuntimeError(
                f"simulation hit the {limit_ns / SEC:.0f}s limit with "
                f"{state['left']} tasks still alive (deadlock or miscalibration)")

    def teardown(self) -> None:
        """Kill remaining daemons so later runs start from quiet nodes."""
        for node in self.nodes:
            for daemon in node.daemons:
                node.kernel.sched.kill_blocked(daemon)
            node.daemons.clear()


ParamsTweak = Optional[Callable[[int, KernelParams], KernelParams]]


def _build(nnodes: int, base: KernelParams, seed: int, name_prefix: str,
           tweak: ParamsTweak = None) -> Cluster:
    cluster = Cluster(seed=seed)
    for i in range(nnodes):
        params = base
        if tweak is not None:
            params = tweak(i, params)
        cluster.add_node(f"{name_prefix}{i:03d}", params)
    return cluster


def make_chiba(nnodes: int = 128, seed: int = 1, *,
               irq_balance: bool = False,
               anomaly_nodes: tuple[int, ...] = (),
               ktau=None, tweak: ParamsTweak = None) -> Cluster:
    """A slice of the Chiba-City cluster: dual-P3 450 MHz Ethernet nodes.

    ``anomaly_nodes`` lists node indices whose kernel erroneously detects
    a single processor (the ``ccn10`` fault of §5.2).
    """
    base = KernelParams(hz=450e6, ncpus=2, irq_balance=irq_balance)
    if ktau is not None:
        base = base.with_(ktau=ktau)

    def _tweak(i: int, params: KernelParams) -> KernelParams:
        if i in anomaly_nodes:
            params = params.with_(detected_cpus=1)
        if tweak is not None:
            params = tweak(i, params)
        return params

    return _build(nnodes, base, seed, "ccn", _tweak)


def make_neutron(seed: int = 1, *, ktau=None) -> Cluster:
    """The 4-CPU P3 Xeon 550 MHz SMP host of §5.1."""
    base = KernelParams(hz=550e6, ncpus=4)
    if ktau is not None:
        base = base.with_(ktau=ktau)
    return _build(1, base, seed, "neutron")
