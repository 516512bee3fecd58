"""Parallel job launching.

Maps MPI ranks onto nodes and CPUs, attaches TAU instrumentation when the
"binary" is built with it, optionally pins ranks (``cpu_affinity``, as the
paper's 64x2 Pinned runs), starts node daemons, and runs the job to
completion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator, Optional

from repro.cluster.daemons import start_standard_daemons
from repro.cluster.machines import Cluster
from repro.cluster.mpi import MpiRank, MpiWorld
from repro.cluster.node import Node
from repro.kernel.task import Task
from repro.kernel.usermode import UserContext
from repro.sim.units import SEC
from repro.tau.profiler import TauProfiler

#: An application: a generator function of (ctx, mpi).
AppFn = Callable[[UserContext, MpiRank], Generator]

#: Placement: rank -> (node index, cpu slot).
PlacementFn = Callable[[int], tuple[int, int]]


def block_placement(procs_per_node: int, nranks: int) -> PlacementFn:
    """Ranks fill nodes cyclically: node ``r % nnodes_used``, slot
    ``r // nnodes_used`` — the mpirun default of the era, which puts ranks
    ``r`` and ``r + nnodes_used`` on the same node (exactly how ranks 61
    and 125 shared ccn10 in the paper's 64x2 runs)."""
    nnodes_used = nranks // procs_per_node

    def place(rank: int) -> tuple[int, int]:
        return rank % nnodes_used, rank // nnodes_used

    return place


@dataclass
class MpiJob:
    """A launched job: handles for running it and harvesting results."""

    cluster: Cluster
    world: MpiWorld
    tasks: list[Task]
    profilers: list[Optional[TauProfiler]]
    start_ns: int
    end_ns: Optional[int] = None
    rank_exec_ns: list[int] = field(default_factory=list)

    def run(self, limit_s: float = 3600.0) -> None:
        """Run the simulation until every rank exits.

        A rank that dies from an unhandled exception stops the run at
        once (its peers would wait on it forever): ``RuntimeError`` names
        the rank and is chained from that exception.
        """
        engine = self.cluster.engine

        def stop_on_crash(task: Task) -> None:
            if task.exit_exception is not None:
                engine.stop()

        for task in self.tasks:
            task.on_exit(stop_on_crash)
        try:
            self.cluster.run_until_complete(self.tasks,
                                            limit_ns=int(limit_s * SEC))
        except RuntimeError:  # ranks still alive: report a crash first
            if not any(task.exit_exception is not None
                       for task in self.tasks):
                raise
        for rank, task in enumerate(self.tasks):
            if task.exit_exception is not None:
                raise RuntimeError(
                    f"rank {rank} ({task.comm}) died from an unhandled "
                    f"{type(task.exit_exception).__name__}") \
                    from task.exit_exception
        self.end_ns = max(t.exit_time_ns for t in self.tasks)
        self.rank_exec_ns = [t.exit_time_ns - self.start_ns for t in self.tasks]

    @property
    def exec_time_s(self) -> float:
        """Job wall time (launch to last rank exit), in virtual seconds."""
        assert self.end_ns is not None, "job has not been run"
        return (self.end_ns - self.start_ns) / SEC


def launch_mpi_job(cluster: Cluster, nranks: int, app: AppFn, *,
                   placement: PlacementFn,
                   pin: bool = False,
                   cpu_offset: int = 0,
                   tau_enabled: bool = True,
                   tau_tracing: bool = False,
                   start_daemons: bool = True,
                   node_setup: Optional[Callable[[Node], None]] = None,
                   comm_prefix: str = "app") -> MpiJob:
    """Create the rank processes of an MPI job (run with :meth:`MpiJob.run`).

    ``pin`` applies one-rank-per-CPU affinity (slot → CPU), the paper's
    ``64x2 Pinned`` configuration.  Without it ranks float under the
    scheduler's weak affinity.  ``cpu_offset`` shifts the slot→CPU
    mapping (Figure 9's "128x1 Pin,IRQ CPU1" pins rank 0's slot to CPU1).
    """
    world = MpiWorld(cluster, nranks)
    tasks: list[Task] = []
    profilers: list[Optional[TauProfiler]] = []
    nodes_used: set[int] = set()

    for rank in range(nranks):
        node_idx, slot = placement(rank)
        node = cluster.nodes[node_idx]
        world.rank_nodes[rank] = node
        nodes_used.add(node_idx)

    if start_daemons:
        for node_idx in sorted(nodes_used):
            node = cluster.nodes[node_idx]
            if not node.daemons:
                start_standard_daemons(node)

    # Per-node hook, called once per node the job actually uses (in node
    # order, after daemon start): lets higher layers — e.g. a cluster
    # monitor attaching its KTAUD — instrument exactly the nodes of this
    # job without this module depending on them.
    if node_setup is not None:
        for node_idx in sorted(nodes_used):
            node_setup(cluster.nodes[node_idx])

    for rank in range(nranks):
        node_idx, slot = placement(rank)
        node = cluster.nodes[node_idx]
        online = node.kernel.params.online_cpus
        start_cpu = (slot + cpu_offset) % online
        pin_cpu = start_cpu if pin else None
        behavior = _rank_behavior(world, rank, app, pin_cpu)
        task = node.kernel.spawn(behavior, f"{comm_prefix}.{rank}",
                                 start_cpu=start_cpu)
        if tau_enabled:
            task.tau = TauProfiler(task, rank=rank, tracing=tau_tracing)
        world.rank_tasks[rank] = task
        node.app_tasks.append(task)
        tasks.append(task)
        profilers.append(task.tau)

    return MpiJob(cluster=cluster, world=world, tasks=tasks,
                  profilers=profilers, start_ns=cluster.engine.now)


def _rank_behavior(world: MpiWorld, rank: int, app: AppFn,
                   pin_cpu: Optional[int]):
    def behavior(ctx: UserContext):
        mpi = MpiRank(world, rank, ctx)
        ctx.mpi = mpi
        world.rank_mpi[rank] = mpi
        if pin_cpu is not None:
            yield from ctx.set_affinity({pin_cpu})
        tau = ctx.task.tau
        if tau is not None:
            with tau.timer("main()"):
                yield from app(ctx, mpi)
        else:
            yield from app(ctx, mpi)

    return behavior
