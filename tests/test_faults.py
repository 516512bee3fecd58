"""Deterministic fault injection and graceful degradation.

Covers the typed fault plans (validation, RNG materialisation), the
shared collection retry policy, the injector's per-fault semantics
(procfs flap → bounded KTAUD retry, hang, kill, crash+reboot, clock
drift, wire hooks), the monitor's staleness machinery under injected
faults, and the chaos invariant evaluation — all on small clusters so
the whole file stays fast.
"""

import pytest

from repro.cluster.machines import make_chiba
from repro.core.retry import (DEFAULT_POLICY, RetryExhaustedError,
                              RetryPolicy, grow_and_retry, sized_read)
from repro.faults import (ClockDrift, CollectorPartition, FaultInjector,
                          FaultPlan, KtaudHang, KtaudKill, LatencySpike,
                          NodeCrash, PacketLoss, ProcfsFlap, TracePressure,
                          WirePartition, get_scenario, scenario_names)
from repro.monitor import (NODE_LOST, NODE_RECOVERED, NODE_STALE,
                           ClusterMonitor, MonitorConfig,
                           monitor_data_to_json)
from repro.sim.units import MSEC, SEC


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            KtaudKill(at_ns=-1, node_index=0)

    def test_window_must_end_after_start(self):
        with pytest.raises(ValueError):
            ProcfsFlap(at_ns=100, until_ns=100, node_index=0)

    def test_reboot_must_follow_crash(self):
        with pytest.raises(ValueError):
            NodeCrash(at_ns=200, node_index=0, reboot_at_ns=100)

    def test_partition_needs_nodes(self):
        with pytest.raises(ValueError):
            CollectorPartition(at_ns=0, nodes=())

    def test_wire_partition_groups_disjoint(self):
        with pytest.raises(ValueError):
            WirePartition(at_ns=0, until_ns=10, group_a=(0, 1),
                          group_b=(1, 2))

    def test_loss_rate_bounds(self):
        with pytest.raises(ValueError):
            PacketLoss(at_ns=0, until_ns=10, rate=1.0)

    def test_materialize_resolves_rng_targets_deterministically(self):
        plan = FaultPlan("p", (KtaudKill(at_ns=10),
                               KtaudHang(at_ns=20, until_ns=30)))
        cluster_a = make_chiba(nnodes=4, seed=7)
        cluster_b = make_chiba(nnodes=4, seed=7)
        picks_a = [f.node for f in plan.materialize(cluster_a).faults]
        picks_b = [f.node for f in plan.materialize(cluster_b).faults]
        assert picks_a == picks_b
        assert all(p is not None and 0 <= p < 4 for p in picks_a)

    def test_materialize_rejects_out_of_range_target(self):
        plan = FaultPlan("p", (KtaudKill(at_ns=10, node_index=9),))
        with pytest.raises(ValueError):
            plan.materialize(make_chiba(nnodes=4, seed=1))

    def test_materialize_orders_by_time(self):
        plan = FaultPlan("p", (KtaudKill(at_ns=30, node_index=1),
                               ProcfsFlap(at_ns=10, until_ns=20,
                                          node_index=0)))
        ordered = plan.materialize(make_chiba(nnodes=2, seed=1))
        assert [f.at_ns for f in ordered.faults] == [10, 30]

    def test_perturbed_nodes_excludes_collection_scope(self):
        plan = FaultPlan("p", (KtaudKill(at_ns=10, node_index=1),
                               CollectorPartition(at_ns=20, nodes=(2,),
                                                  until_ns=30)))
        assert plan.perturbed_nodes() == (1,)

    def test_wire_fault_perturbs_everything(self):
        plan = FaultPlan("p", (LatencySpike(at_ns=0, until_ns=10),))
        assert plan.perturbed_nodes() is None

    def test_to_doc_round_trips_kinds(self):
        plan = FaultPlan("p", (TracePressure(at_ns=5, until_ns=10,
                                             node_index=0),))
        doc = plan.to_doc()
        assert doc["name"] == "p"
        assert doc["faults"][0]["kind"] == "trace_pressure"


# ---------------------------------------------------------------------------
# The shared retry policy
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=1, backoff_ns=-1)

    def test_backoff_scales_linearly(self):
        policy = RetryPolicy(max_attempts=3, backoff_ns=5)
        assert [policy.backoff_for(n) for n in (1, 2, 3)] == [5, 10, 15]

    def test_grow_and_retry_follows_growth(self):
        reads = []

        def read(bufsize):
            reads.append(bufsize)
            # The profile is really 40 bytes: a 10-byte buffer comes back
            # truncated, and the helper must retry at the full size.
            return (b"x" * min(bufsize, 40), 40)

        data = grow_and_retry(lambda: 10, read, what="test")
        assert len(data) == 40
        assert reads == [10, 40]

    def test_grow_and_retry_exhausts(self):
        policy = RetryPolicy(max_attempts=2)
        with pytest.raises(RetryExhaustedError) as err:
            # The producer always claims more data than any read returns,
            # so every attempt looks truncated.
            grow_and_retry(lambda: 10, lambda n: (b"z" * 10, 1 << 40),
                           policy, what="bottomless")
        assert err.value.attempts == 2
        assert "bottomless" in str(err.value)

    def test_sized_read_reports_truncation(self):
        data, full = sized_read(lambda: 10, lambda n: (b"a" * 5, 10))
        assert len(data) < full
        data, full = sized_read(lambda: 4, lambda n: (b"a" * 4, 4))
        assert len(data) == full

    def test_default_policy_is_bounded(self):
        assert DEFAULT_POLICY.max_attempts >= 2


# ---------------------------------------------------------------------------
# Injected faults against a small monitored run
# ---------------------------------------------------------------------------
MON = MonitorConfig(period_ns=20 * MSEC)


def sleeper(duration_ns):
    """A do-nothing foreground task that keeps the run alive."""

    def behavior(ctx):
        yield from ctx.sleep(duration_ns)

    return behavior


def run_faulted(plan, *, seed=1, nnodes=4, duration_ns=400 * MSEC,
                config=MON):
    """Small monitored idle run under ``plan``; returns (monitor, injector)."""
    cluster = make_chiba(nnodes=nnodes, seed=seed)
    monitor = ClusterMonitor(cluster, config)
    monitor.attach()
    injector = None
    if plan is not None:
        injector = FaultInjector(cluster, plan, monitor=monitor)
        injector.arm()
    watched = [node.kernel.spawn(sleeper(duration_ns), f"app.{node.index}")
               for node in cluster.nodes]
    cluster.run_until_complete(watched, limit_ns=10 * SEC)
    data = monitor.harvest()
    cluster.teardown()
    return data, injector


class TestInjector:
    def test_ktaud_kill_goes_stale_then_lost(self):
        plan = FaultPlan("kill", (KtaudKill(at_ns=50 * MSEC, node_index=2),))
        data, injector = run_faulted(plan)
        assert data.alert_nodes(NODE_STALE) == ["ccn002"]
        assert data.alert_nodes(NODE_LOST) == ["ccn002"]
        assert data.node_health["ccn002"] == "lost"
        assert all(data.node_health[n] == "live"
                   for n in data.nodes if n != "ccn002")
        assert injector.injected == [{"t_ns": 50 * MSEC,
                                      "kind": "ktaud_kill",
                                      "node": "ccn002"}]
        # Partial views kept flowing after the loss.
        assert data.intervals > 0

    def test_collector_partition_recovers(self):
        plan = FaultPlan("part", (
            CollectorPartition(at_ns=60 * MSEC, nodes=(1,),
                               until_ns=250 * MSEC),))
        data, _ = run_faulted(plan)
        assert data.alert_nodes(NODE_STALE) == ["ccn001"]
        assert data.alert_nodes(NODE_RECOVERED) == ["ccn001"]
        assert data.node_health["ccn001"] == "live"
        assert data.dropped_deliveries > 0

    def test_collector_partition_requires_monitor(self):
        cluster = make_chiba(nnodes=2, seed=1)
        plan = FaultPlan("part", (
            CollectorPartition(at_ns=0, nodes=(0,), until_ns=10),))
        injector = FaultInjector(cluster, plan, monitor=None)
        with pytest.raises(ValueError):
            injector.arm()

    def test_arming_twice_rejected(self):
        cluster = make_chiba(nnodes=2, seed=1)
        injector = FaultInjector(cluster, FaultPlan("empty"), monitor=None)
        injector.arm()
        with pytest.raises(RuntimeError):
            injector.arm()

    def test_ktaud_hang_suspends_and_resumes(self):
        plan = FaultPlan("hang", (
            KtaudHang(at_ns=50 * MSEC, node_index=0, until_ns=250 * MSEC),))
        data, _ = run_faulted(plan)
        assert data.alert_nodes(NODE_STALE) == ["ccn000"]
        assert data.alert_nodes(NODE_RECOVERED) == ["ccn000"]

    def test_procfs_flap_exercises_ktaud_retry(self):
        plan = FaultPlan("flap", (
            ProcfsFlap(at_ns=50 * MSEC, until_ns=200 * MSEC, node_index=3),))
        cluster = make_chiba(nnodes=4, seed=1)
        monitor = ClusterMonitor(cluster, MON)
        monitor.attach()
        injector = FaultInjector(cluster, plan, monitor=monitor)
        injector.arm()
        watched = [cluster.nodes[0].kernel.spawn(sleeper(400 * MSEC), "app.0")]
        cluster.run_until_complete(watched, limit_ns=10 * SEC)
        ktaud = cluster.nodes[3].ktaud
        # The flap window spans several extraction periods: each tries the
        # full bounded-retry budget and then skips the period.
        assert ktaud.retries > 0
        assert ktaud.failed_extractions > 0
        assert not cluster.nodes[3].kernel.ktau_proc.failing  # healed
        cluster.teardown()

    def test_node_crash_and_reboot(self):
        plan = FaultPlan("crash", (
            NodeCrash(at_ns=60 * MSEC, node_index=1,
                      reboot_at_ns=250 * MSEC),))
        data, _ = run_faulted(plan)
        assert "ccn001" in data.alert_nodes(NODE_STALE)
        assert data.alert_nodes(NODE_RECOVERED) == ["ccn001"]
        assert data.node_health["ccn001"] == "live"

    def test_clock_drift_changes_cycle_rate(self):
        cluster = make_chiba(nnodes=2, seed=1)
        clock = cluster.nodes[0].kernel.clock
        base = clock.cycles_at(100 * MSEC)
        clock.set_drift(1000.0, at_ns=100 * MSEC)
        assert clock.cycles_at(100 * MSEC) == base  # anchored, monotonic
        drifted = clock.cycles_at(200 * MSEC)
        undrifted = cluster.nodes[1].kernel.clock.cycles_at(200 * MSEC)
        assert drifted > undrifted

    def test_wire_hook_latency_and_drop(self):
        cluster = make_chiba(nnodes=2, seed=1)
        nic = cluster.nodes[0].kernel.nic
        calls = []

        def hook(src, dst, nbytes):
            calls.append(nbytes)
            return None  # drop everything

        from repro.cluster.network import ClusterNetwork
        ClusterNetwork.install_wire_fault(
            [n.kernel for n in cluster.nodes], hook)
        assert nic.fault_hook is hook
        ClusterNetwork.install_wire_fault(
            [n.kernel for n in cluster.nodes], None)
        assert nic.fault_hook is None


# ---------------------------------------------------------------------------
# Determinism of faulted runs
# ---------------------------------------------------------------------------
def test_faulted_run_byte_identical():
    plan = FaultPlan("combo", (
        KtaudKill(at_ns=50 * MSEC, node_index=2),
        CollectorPartition(at_ns=60 * MSEC, nodes=(1,), until_ns=250 * MSEC),
    ))
    first, _ = run_faulted(plan)
    second, _ = run_faulted(plan)
    assert monitor_data_to_json(first) == monitor_data_to_json(second)


def test_rng_targeted_faults_byte_identical():
    plan = FaultPlan("rng", (KtaudKill(at_ns=50 * MSEC),))
    first, inj_a = run_faulted(plan)
    second, inj_b = run_faulted(plan)
    assert inj_a.injected == inj_b.injected
    assert monitor_data_to_json(first) == monitor_data_to_json(second)


# ---------------------------------------------------------------------------
# Scenario registry
# ---------------------------------------------------------------------------
class TestScenarios:
    def test_registry_names_unique(self):
        names = scenario_names()
        assert len(names) == len(set(names))
        assert "kill-and-partition" in names

    def test_scenarios_build_for_any_size(self):
        for name in scenario_names():
            scenario = get_scenario(name, 10)
            assert scenario.plan.faults
            for fault in scenario.plan.faults:
                if fault.node is not None:
                    assert fault.node < 10

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            get_scenario("does-not-exist", 10)

    def test_too_small_cluster(self):
        with pytest.raises(ValueError):
            get_scenario("ktaud-kill", 3)
