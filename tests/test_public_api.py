"""The public API surface: everything the README advertises imports and
carries a docstring."""

import importlib
import inspect

import pytest

PUBLIC_MODULES = [
    "repro",
    "repro.sim", "repro.sim.engine", "repro.sim.clock", "repro.sim.rng",
    "repro.sim.units",
    "repro.kernel", "repro.kernel.kernel", "repro.kernel.sched",
    "repro.kernel.task", "repro.kernel.params",
    "repro.kernel.irq", "repro.kernel.syscalls", "repro.kernel.block",
    "repro.kernel.effects", "repro.kernel.waitqueue", "repro.kernel.usermode",
    "repro.kernel.net", "repro.kernel.net.socket", "repro.kernel.net.nic",
    "repro.kernel.net.tcp",
    "repro.core", "repro.core.measurement", "repro.core.registry",
    "repro.core.points", "repro.core.config", "repro.core.overhead",
    "repro.core.counters", "repro.core.tracebuf", "repro.core.wire",
    "repro.core.procfs", "repro.core.libktau", "repro.core.retry",
    "repro.core.clients", "repro.core.clients.ktaud",
    "repro.core.clients.runktau", "repro.core.clients.selfprofile",
    "repro.tau", "repro.tau.profiler", "repro.tau.merge", "repro.tau.phases",
    "repro.cluster", "repro.cluster.machines", "repro.cluster.mpi",
    "repro.cluster.launch", "repro.cluster.network", "repro.cluster.node",
    "repro.cluster.daemons",
    "repro.workloads", "repro.workloads.lu", "repro.workloads.sweep3d",
    "repro.workloads.lmbench", "repro.workloads.ionode",
    "repro.workloads.interference",
    "repro.oprofile", "repro.oprofile.sampler", "repro.oprofile.compare",
    "repro.oprofile.harness",
    "repro.parallel", "repro.parallel.runner",
    "repro.obs", "repro.obs.runtime", "repro.obs.metrics", "repro.obs.tracer",
    "repro.obs.manifest",
    "repro.monitor", "repro.monitor.cluster_monitor", "repro.monitor.series",
    "repro.monitor.intervals", "repro.monitor.alerts", "repro.monitor.detect",
    "repro.monitor.timeline", "repro.monitor.dashboard",
    "repro.monitor.bottleneck",
    "repro.faults", "repro.faults.plan", "repro.faults.injector",
    "repro.faults.chaos",
    "repro.analysis", "repro.analysis.profiles", "repro.analysis.views",
    "repro.analysis.stats", "repro.analysis.cdf", "repro.analysis.histogram",
    "repro.analysis.tracemerge", "repro.analysis.tracestats",
    "repro.analysis.callgraph", "repro.analysis.compensate",
    "repro.analysis.export", "repro.analysis.render",
    "repro.analysis.related_work", "repro.analysis.counterview",
    "repro.analysis.bottlenecks", "repro.analysis.bottlenecks.waits",
    "repro.analysis.bottlenecks.harvest", "repro.analysis.bottlenecks.report",
    "repro.analysis.bottlenecks.render",
    "repro.experiments", "repro.experiments.common", "repro.experiments.chiba",
    "repro.experiments.fig2_controlled", "repro.experiments.fig3",
    "repro.experiments.fig4", "repro.experiments.fig5_6",
    "repro.experiments.fig7", "repro.experiments.fig8",
    "repro.experiments.fig9_10", "repro.experiments.table2",
    "repro.experiments.table3", "repro.experiments.table4",
    "repro.experiments.ionode", "repro.experiments.chaos",
    "repro.experiments.bottleneck", "repro.experiments.counters_demo",
    "repro.cli",
]


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_module_imports_and_documented(name):
    module = importlib.import_module(name)
    assert module.__doc__ and module.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", PUBLIC_MODULES)
def test_public_callables_documented(name):
    """Every public class/function defined in a public module has a docstring."""
    module = importlib.import_module(name)
    missing = []
    for attr_name, attr in vars(module).items():
        if attr_name.startswith("_"):
            continue
        if not (inspect.isclass(attr) or inspect.isfunction(attr)):
            continue
        if getattr(attr, "__module__", None) != name:
            continue  # re-export
        if not (attr.__doc__ and attr.__doc__.strip()):
            missing.append(attr_name)
    assert not missing, f"{name}: missing docstrings on {missing}"


def test_version():
    import repro

    assert repro.__version__
