"""Figure 4: MPI_Recv's kernel call groups — mean vs ranks 125 and 61.

Reproduction target: on average most of MPI_Recv is spent inside
scheduling (ranks block waiting for messages), and the two anomaly-node
ranks show comparatively *less* scheduling inside MPI_Recv.
"""

from repro.experiments import fig4
from benchmarks.conftest import write_report


def test_fig4_recv_callgroups(anomaly_lu):
    result = fig4.build(anomaly_lu)

    mean = result.mean_by_group
    assert mean, "no kernel activity attributed to MPI_Recv"
    # scheduling dominates the mean MPI_Recv interior
    assert mean["sched"] == max(mean.values())
    assert mean["sched"] > 0.1
    # ranks 125 and 61 wait comparatively less
    assert result.rank125_by_group.get("sched", 0.0) < mean["sched"]
    assert result.rank61_by_group.get("sched", 0.0) < mean["sched"]

    text = fig4.render(result)
    write_report("fig4.txt", text)
    print("\n" + text)
