"""Baseline comparator: statistical sampling vs KTAU's direct measurement.

Quantifies the §2/Table 1 critique of sampling profilers on the same
simulated workload KTAU measures:

* long on-CPU routines converge (within statistical error);
* blocked time (voluntary scheduling — the bulk of MPI waiting) is
  structurally invisible to the sampler;
* the sampler requires a daemon, whose CPU cost is measurable.
"""

from repro.oprofile.harness import run_comparison
from repro.oprofile.compare import render_comparison, sampling_blindness_s
from benchmarks.conftest import write_report


def test_sampling_baseline():
    rows, daemon = run_comparison()
    by = {r.symbol: r for r in rows}

    # 1. long on-CPU routines converge within statistical error
    assert abs(by["rhs"].relative_error) < 0.15
    assert abs(by["jacld"].relative_error) < 0.25

    # 2. blocked time is invisible to sampling
    assert sampling_blindness_s(rows) > 0.02
    assert by["schedule_vol"].sampled_s < 0.2 * by["schedule_vol"].measured_s

    # 3. short kernel events are badly estimated or missed entirely
    assert by["tcp_v4_rcv"].sampled_s < 0.5 * by["tcp_v4_rcv"].measured_s

    # 4. the daemon's own perturbation is real
    assert daemon.task.utime_ns + daemon.task.stime_ns > 0

    text = render_comparison(rows, top=16)
    write_report("sampling_baseline.txt", text)
    print("\n" + text)
