"""Figure 3: MPI_Recv exclusive-time histogram; ranks 61/125 as outliers.

Reproduction target: in the 64x2 anomaly run, the two ranks sharing the
faulty single-CPU node (61 and 125 under cyclic placement) sit at the low
end of the MPI_Recv distribution — everyone else waits *for* them.
"""

import numpy as np

from repro.experiments import fig3
from benchmarks.conftest import write_report


def test_fig3_recv_histogram(anomaly_lu):
    result = fig3.build(anomaly_lu)
    times = np.array(result.recv_excl_s)

    # the faulty node's ranks are low outliers
    assert 61 in result.low_outliers
    assert 125 in result.low_outliers
    # and genuinely extreme: both below half the median wait
    med = float(np.median(times))
    assert times[61] < 0.5 * med
    assert times[125] < 0.5 * med
    # the bulk of ranks shows substantial MPI_Recv time
    assert med > 0.2

    text = fig3.render(result)
    write_report("fig3.txt", text)
    print("\n" + text)
