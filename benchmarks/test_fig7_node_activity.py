"""Figure 7: activity of every process on the faulty node (ccn10).

Reproduction target: the two LU tasks dominate; every daemon and kernel
thread is minuscule next to them — invalidating the daemon-interference
hypothesis and leaving mutual preemption as the only explanation.
"""

from repro.experiments import fig7
from benchmarks.conftest import write_report


def test_fig7_node_activity(anomaly_lu):
    result = fig7.build(anomaly_lu)

    assert len(result.lu_pids) == 2  # ranks 61 and 125 live here
    # daemons are minuscule next to the LU tasks
    assert result.daemon_max_s() < 0.1 * result.lu_min_s()
    # and the LU tasks show real activity
    assert result.lu_min_s() > 0.05

    text = fig7.render(result)
    write_report("fig7.txt", text)
    print("\n" + text)
