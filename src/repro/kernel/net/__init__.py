"""The simulated network subsystem.

* :mod:`repro.kernel.net.socket` — stream sockets (cross-node, backed by
  NICs) and pipes (intra-node), both blocking via kernel wait queues.
* :mod:`repro.kernel.net.nic` — the Ethernet NIC: bandwidth-serialised
  transmit, link latency, batched (interrupt-coalesced) delivery.
* :mod:`repro.kernel.net.tcp` — span chains and costs for the TCP send and
  receive kernel paths, including the SMP cache-locality cost model behind
  Figure 10.
"""

from repro.kernel.net.socket import StreamSocket, Pipe
from repro.kernel.net.nic import Nic

__all__ = ["StreamSocket", "Pipe", "Nic"]
