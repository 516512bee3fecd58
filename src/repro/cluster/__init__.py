"""Cluster substrate: nodes, the network, MPI, daemons, job launching.

* :mod:`repro.cluster.node` / :mod:`repro.cluster.machines` — nodes and
  factories for the modelled testbeds (``neutron``, Chiba-City;
  neuronic is not modelled, since no reproduced figure uses it).
* :mod:`repro.cluster.network` — connection management over the simulated
  kernels' sockets.
* :mod:`repro.cluster.mpi` — an MPI-like message layer whose Send/Recv
  really descend through the simulated kernel's
  ``sys_writev → sock_sendmsg → tcp_sendmsg`` path, with TAU wrappers.
* :mod:`repro.cluster.daemons` — background system daemons.
* :mod:`repro.cluster.launch` — parallel job launching, placement,
  pinning, and run-to-completion.
"""

from repro.cluster.machines import Cluster, make_chiba, make_neutron
from repro.cluster.mpi import MpiWorld, MpiRank
from repro.cluster.launch import MpiJob, launch_mpi_job

__all__ = [
    "Cluster", "make_chiba", "make_neutron",
    "MpiWorld", "MpiRank", "MpiJob", "launch_mpi_job",
]
