"""Figure 2 (panels A–E): the controlled §5.1 experiments.

Reproduction targets per panel:

* A — the perturbed node is identifiable in the kernel-wide view
  (inflated preemption);
* B — the interference process is the most active non-LU process on it;
* C — the daemon-sharing rank suffers involuntary scheduling while the
  other ranks wait voluntarily;
* D — the merged profile adds kernel rows and shrinks user exclusive
  times to their true values (MPI_Recv nearly vanishes);
* E — one MPI_Send's merged trace shows the kernel send path
  (sys_writev → sock_sendmsg → tcp_sendmsg).
"""

import numpy as np
import pytest

from repro.experiments import fig2_controlled as f2
from benchmarks.conftest import write_report


@pytest.fixture(scope="session")
def fig2ab():
    return f2.run_fig2ab()


def test_fig2ab_kernel_wide_and_process_views(fig2ab):
    text = f2.render_ab(fig2ab)
    invol = fig2ab.invol_by_node
    others = [v for n, v in invol.items() if n != fig2ab.perturbed_node]
    assert invol[fig2ab.perturbed_node] > 2 * max(others, default=0.0)
    non_lu = {pid: t for pid, (comm, t) in fig2ab.node_processes.items()
              if not comm.startswith("lu") and pid != 0}
    assert max(non_lu, key=non_lu.get) == fig2ab.interference_pid
    write_report("fig2ab.txt", text)
    print("\n" + text)


def test_fig2c_voluntary_vs_involuntary():
    result = f2.run_fig2c()
    vols = [v for v, _ in result.sched]
    invs = [i for _, i in result.sched]
    victim = int(np.argmax(invs))
    assert victim in (0, 1)  # a CPU0-sharing rank
    assert sum(sorted(invs)[:2]) < 0.5 * max(invs)
    assert vols[int(np.argmin(invs))] > vols[victim]
    text = f2.render_c(result)
    write_report("fig2c.txt", text)
    print("\n" + text)


def test_fig2d_merged_profile(fig2ab):
    result = f2.build_fig2d(fig2ab.data, 0)
    kernel_names = {r.name for r in result.kernel_rows()}
    assert {"schedule_vol", "tcp_sendmsg"} <= kernel_names
    tau_recv = result.tau_only_excl_s["MPI_Recv()"]
    assert result.merged_excl_s("MPI_Recv()") < 0.2 * tau_recv
    lines = [f"Figure 2-D (rank 0): routine  tau-only(s)  merged-true(s)"]
    for name, tau_excl in sorted(result.tau_only_excl_s.items(),
                                 key=lambda kv: -kv[1]):
        lines.append(f"  {name:16s} {tau_excl:10.4f} "
                     f"{result.merged_excl_s(name):10.4f}")
    text = "\n".join(lines) + "\n"
    write_report("fig2d.txt", text)
    print("\n" + text)


def test_fig2e_merged_trace():
    result = f2.run_fig2e()
    assert result.window
    for expected in ("sys_writev", "sock_sendmsg", "tcp_sendmsg"):
        assert expected in result.kernel_events_in_window
    text = f2.render_e(result)
    write_report("fig2e.txt", text)
    print("\n" + text)
