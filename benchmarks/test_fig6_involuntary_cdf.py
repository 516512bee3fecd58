"""Figure 6: CDF of per-rank involuntary scheduling (preemption).

Reproduction targets:

* in the anomaly run, two ranks (61/125) dominate preemption by a huge
  margin (they share one CPU and preempt each other);
* the unpinned 64x2 run retains measurable mutual preemption that
  pinning reduces by roughly an order of magnitude (paper: 2.5–7 s down
  to 0.2–1.1 s).
"""

import numpy as np

from repro.experiments import fig5_6
from benchmarks.conftest import write_report


def test_fig6_involuntary_cdf(lu_runs):
    result = fig5_6.build(lu_runs, "involuntary")

    anomaly = np.array(result.values["64x2 Anomaly"])
    plain = np.array(result.values["64x2"])
    pinned = np.array(result.values["64x2 Pinned"])

    # the anomaly pair dominates
    top_two = set(np.argsort(anomaly)[-2:])
    assert top_two == {61, 125}
    assert np.sort(anomaly)[-2] > 10 * np.sort(anomaly)[-3]

    # pinning slashes the preemption tail of the healthy 64x2 run
    assert plain.max() > 3 * pinned.max()

    text = fig5_6.render(result)
    write_report("fig6.txt", text)
    print("\n" + text)
