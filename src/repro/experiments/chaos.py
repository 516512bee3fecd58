"""The chaos harness: monitored experiments under named fault plans.

Each :func:`run_chaos` invocation runs one experiment three times with
the same seed — fault-free (the baseline), faulted, and faulted again —
and evaluates the scenario's invariants over the artifacts:

* the monitor's health alerts name exactly the faulted nodes,
* every unperturbed node's kernel profiles are byte-identical to the
  fault-free baseline,
* the repeat faulted run reproduces byte-identical monitor output and
  profiles, and
* the faulted run still completes with (partial) interval views.

Experiments provision :data:`~repro.faults.chaos.SPARE_NODES` rank-free
nodes past the application placement; the scenarios target those, so a
node-scoped fault cannot propagate through application messages and the
isolation invariant has teeth.  Scenario definitions and the invariant
evaluation itself live in :mod:`repro.faults.chaos` (pure, no run
machinery); this module is the glue that produces the artifacts.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.profiles import JobData
from repro.core.libktau import LibKtau
from repro.experiments.common import (ChibaConfig, bench_lu_params,
                                      run_monitored_chiba_app)
from repro.experiments.fig2_controlled import run_fig2ab
from repro.faults.chaos import (SPARE_NODES, ChaosReport, evaluate,
                                get_scenario)
from repro.faults.plan import FaultPlan
from repro.monitor import MonitorConfig, MonitorData, monitor_data_to_json
from repro.sim.units import MSEC

#: Monitoring configuration for chaos runs: a tighter extraction period
#: than the experiment default so the staleness state machine (2.5 / 6
#: periods) walks through stale → lost → recovered well inside the
#: ~1 simulated second the bench-scale applications run for.
CHAOS_MONITOR_CONFIG = MonitorConfig(period_ns=100 * MSEC)

#: Experiments the harness can put under chaos.
EXPERIMENTS = ("fig2", "lu")

#: LU at bench scale, shrunk so a chaos triple-run stays interactive
#: while still spanning every fault window in the scenario registry.
_LU_SCALE = 0.75


def _fingerprints(data: JobData) -> dict[str, str]:
    """Byte-stable per-node profile fingerprints (ASCII interchange)."""
    return {name: LibKtau.to_ascii(profiles)
            for name, profiles in data.node_profiles.items()}


def _run_fig2(seed: int, plan: Optional[FaultPlan]
              ) -> tuple[dict[str, str], MonitorData, list]:
    result = run_fig2ab(seed=seed, monitor_config=CHAOS_MONITOR_CONFIG,
                        fault_plan=plan, spare_nodes=SPARE_NODES)
    assert result.monitor is not None
    return (_fingerprints(result.data), result.monitor,
            result.injected or [])


def _run_lu(seed: int, plan: Optional[FaultPlan]
            ) -> tuple[dict[str, str], MonitorData, list]:
    config = ChibaConfig(label="chaos-lu", nranks=8, procs_per_node=2,
                         seed=seed)
    run = run_monitored_chiba_app(
        config, "lu", bench_lu_params(_LU_SCALE), CHAOS_MONITOR_CONFIG,
        fault_plan=plan, spare_nodes=SPARE_NODES)
    assert run.monitor is not None
    return _fingerprints(run.data), run.monitor, run.injected or []


def chaos_nnodes(experiment: str) -> int:
    """Cluster size (ranked + spare nodes) of a chaos experiment."""
    if experiment == "fig2":
        return 8 + SPARE_NODES
    if experiment == "lu":
        return 8 // 2 + SPARE_NODES
    raise ValueError(f"unknown chaos experiment {experiment!r}; "
                     f"try one of {list(EXPERIMENTS)}")


def run_chaos(scenario_name: str, experiment: str = "fig2",
              seed: int = 1) -> ChaosReport:
    """Run one named chaos scenario and evaluate its invariants.

    Three runs — baseline (no plan), faulted, faulted repeat — all with
    the same seed, then :func:`repro.faults.chaos.evaluate` over the
    artifacts.  The returned report carries the verdicts, the canonical
    alerts JSON of the faulted run, and the applied-fault log.
    """
    nnodes = chaos_nnodes(experiment)
    runner = _run_fig2 if experiment == "fig2" else _run_lu
    scenario = get_scenario(scenario_name, nnodes)

    baseline_profiles, _baseline_monitor, _none = runner(seed, None)
    faulted_profiles, faulted_monitor, injected = runner(seed, scenario.plan)
    repeat_profiles, repeat_monitor, _again = runner(seed, scenario.plan)

    # Node order: chaos clusters are ccnNNN with zero-padded indices, so
    # the sorted monitored-node list is exactly cluster index order.
    node_names = sorted(faulted_monitor.nodes)
    faulted_doc = faulted_monitor.to_doc()
    checks = evaluate(scenario, node_names,
                      baseline_profiles, faulted_profiles,
                      faulted_doc, repeat_monitor.to_doc(), repeat_profiles)
    return ChaosReport(scenario=scenario_name, experiment=experiment,
                       seed=seed, checks=checks,
                       alerts_json=monitor_data_to_json(faulted_monitor),
                       injected=injected)
