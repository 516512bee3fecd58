"""Figure 5: CDF of per-rank voluntary scheduling time, five configs.

Reproduction targets:

* the anomaly run shifts the bulk of ranks *up* (they wait for the slow
  node) while a small proportion of ranks — those on the faulty node —
  show very low voluntary time (the curve's bottom tail);
* removing the anomaly lowers the distribution.
"""

import numpy as np

from repro.experiments import fig5_6
from benchmarks.conftest import write_report


def test_fig5_voluntary_cdf(lu_runs):
    result = fig5_6.build(lu_runs, "voluntary")

    anomaly = np.array(result.values["64x2 Anomaly"])
    plain = np.array(result.values["64x2"])
    base = np.array(result.values["128x1"])

    # most ranks wait longer under the anomaly
    assert np.median(anomaly) > np.median(plain)
    assert np.median(plain) > np.median(base)
    # the bottom tail: the anomaly node's ranks wait the least — the
    # busiest of the pair barely at all, its partner visibly below the
    # bulk (it still waits for its CPU-mate between preemptions)
    low = np.sort(anomaly)[:2]
    assert low[0] < 0.55 * np.median(anomaly)
    assert low[1] < 0.80 * np.median(anomaly)
    lowest_ranks = set(np.argsort(anomaly)[:2])
    assert lowest_ranks & {61, 125}

    text = fig5_6.render(result)
    write_report("fig5.txt", text)
    print("\n" + text)
