"""Process-pool fan-out for independent simulation replications.

The simulated cluster is single-threaded by construction — one
:class:`~repro.sim.engine.Engine` drives all nodes — so the way to use
real hardware parallelism is *between* runs, not within one: experiment
sweeps (seeds, configurations, ablation cells) are embarrassingly
parallel.  This package shards such replications across worker processes
and merges results deterministically, in submission order, never in
completion order.  Because every run is bit-reproducible given its seed
(the ktaulint KTAU2xx rules enforce the substrate side of that), parallel
and serial execution of the same sweep produce identical results — the
equivalence is tested in tier-1.

Parallelism is opt-in: ``workers=None`` resolves to the ``REPRO_WORKERS``
environment variable when set and to serial in-process execution
otherwise, so library callers and tests keep their exact historical
behaviour unless a caller asks for fan-out.
"""

from repro.parallel.merge import group_results, merge_mappings, sum_counters
from repro.parallel.runner import (ReplicationError, default_workers,
                                   parallel_map, run_replications)

__all__ = [
    "ReplicationError",
    "default_workers",
    "group_results",
    "merge_mappings",
    "parallel_map",
    "run_replications",
    "sum_counters",
]
