"""Differential oracle for ``Ktau.record_tree``.

The two reference walkers below are the span recorders ``record_tree``
replaced: the recursive interrupt-tree walker and the per-segment TCP
transmit loop.  Both replay a span tree through the per-call
``entry``/``exit``/``atomic`` macros.  The inputs are hypothesis-generated
trees and build/runtime configurations, and the tree and segment stream
captured from a small LU run.  Each implementation records the same input
into its own fresh, identically seeded measurement system, and every
observable of the result must be identical: profiles, atomics, merge
pairs, counter profile, call graph, recursion counts, overhead, trace,
PMCs, the open stack, the firing-cache counters and the samplers' next
draws.  In the plain profiling build, transmit segment groups and runs
of identical sibling leaves take ``Ktau.record_run``, so the inputs
include both, recorded more than once (warm, bound points), with
sampler refills inside a run in either order (``primed``,
``extra_stops``).
"""

import copy
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import KtauBuildConfig, KtauRuntimeControl
from repro.core.counters import PmcRates, TaskCounters, rates_for_path
from repro.core.measurement import Ktau
from repro.core.overhead import OverheadModel
from repro.core.points import ALL_GROUPS, Group
from repro.core.registry import PointKind
from repro.core.tracebuf import TraceKind
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.kernel import irq as irq_mod
from repro.kernel.irq import KSpan
from repro.kernel.net import tcp as tcp_mod
from repro.kernel.net.tcp import TX_SPLIT, record_tx_spans
from repro.sim.clock import CycleClock
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim.units import MSEC, USEC
from repro.workloads.lu import LuParams, lu_app

#: The clock rates of the modelled machines; at 107 MHz a TX segment's
#: whole-cost cycles differ from the sum of its legs' rounded cycles.
RATES_HZ = (107e6, 450e6, 550e6, 2.8e9)
T0 = 1_000_000
OUTER = "sys_writev"


# ----------------------------------------------------------------------
# Reference walkers (the per-call path)
# ----------------------------------------------------------------------
def reference_tree(ktau, data, tree, t, counters):
    """The recursive interrupt-tree walker, span by span."""
    point = ktau.registry.point(tree.name)
    ktau.entry(data, point, at_cycles=t)
    cost_cycles = ktau.clock.cycles_for_ns(tree.cost_ns)
    if cost_cycles and ktau.build.counters:
        counters.advance(cost_cycles, True, tree.rates if tree.rates is not None
                         else rates_for_path(tree.name))
    t += cost_cycles
    for child in tree.children:
        t = reference_tree(ktau, data, child, t, counters)
    for name, value in tree.atomics:
        ktau.atomic(data, ktau.registry.point(name, PointKind.ATOMIC), value,
                    at_cycles=t)
    ktau.exit(data, point, at_cycles=t)
    return t


def reference_tx(ktau, data, counters, segments, cost):
    """The per-segment transmit loop; returns the PMC cycles run ahead."""
    clock, point = ktau.clock, ktau.registry.point
    counters_on = ktau.build.counters
    ahead = 0

    def advance(leg_name, leg_ns):
        nonlocal ahead
        leg_cycles = clock.cycles_for_ns(leg_ns)
        if leg_cycles:
            counters.advance(leg_cycles, True, rates_for_path(leg_name))
            ahead += leg_cycles

    t = clock.read()
    for seg in segments:
        offsets = [(name, int(cost * frac)) for name, frac in TX_SPLIT]
        ktau.entry(data, point("tcp_sendmsg"), at_cycles=t)
        if counters_on:
            advance("tcp_sendmsg", offsets[0][1])
        t_inner = t + clock.cycles_for_ns(offsets[0][1])
        ktau.entry(data, point("ip_queue_xmit"), at_cycles=t_inner)
        if counters_on:
            advance("ip_queue_xmit", offsets[1][1])
        t_inner2 = t_inner + clock.cycles_for_ns(offsets[1][1])
        ktau.entry(data, point("dev_queue_xmit"), at_cycles=t_inner2)
        if counters_on:
            advance("dev_queue_xmit", cost - offsets[0][1] - offsets[1][1])
        t_end = t + clock.cycles_for_ns(cost)
        ktau.atomic(data, point("net.pkt_tx_bytes", PointKind.ATOMIC), seg,
                    at_cycles=t_end)
        ktau.exit(data, point("dev_queue_xmit"), at_cycles=t_end)
        ktau.exit(data, point("ip_queue_xmit"), at_cycles=t_end)
        ktau.exit(data, point("tcp_sendmsg"), at_cycles=t_end)
        t = t_end
    return ahead


# ----------------------------------------------------------------------
# One measurement system per side, and everything observable about it
# ----------------------------------------------------------------------
def make_world(cfg):
    build = KtauBuildConfig(
        compiled_groups=frozenset(ALL_GROUPS) - set(cfg["compiled_out"]),
        tracing=cfg["tracing"], merge_context=cfg["merge"],
        counters=cfg["counters"], callgraph=cfg["callgraph"])
    control = KtauRuntimeControl(build)
    if cfg["disabled_group"] is not None:
        control.disable(cfg["disabled_group"])
    if cfg["disabled_point"] is not None:
        control.disable_points(cfg["disabled_point"])
    clock = CycleClock(Engine(), hz=cfg["hz"], boot_offset_cycles=T0)
    overhead = OverheadModel(RngHub(cfg["seed"]).stream("ovh"))
    for _ in range(cfg["primed"]):  # move the next refill into the recording
        overhead.start_cycles()
        overhead.stop_cycles()
    for _ in range(cfg["extra_stops"]):  # so the stop sampler refills first
        overhead.stop_cycles()
    ktau = Ktau(clock, build, control=control, overhead=overhead)
    data = ktau.register_task(7, "rank0")
    counters = TaskCounters()
    if build.counters:
        data.counter_source = counters.read
    data.user_context = cfg["user_ctx"]
    if cfg["outer"]:
        ktau.entry(data, ktau.registry.point(OUTER), at_cycles=T0 - 500)
        counters.advance(900, True)
    data.frozen = cfg["frozen"]
    return ktau, data, counters


def observe(ktau, data, counters):
    trace = data.trace
    return {
        # Lists of items, so that insertion order (export order) counts too.
        "profile": [(k, v.as_tuple()) for k, v in data.profile.items()],
        "atomic": [(k, v.as_tuple()) for k, v in data.atomic.items()],
        "context_pairs": list(data.context_pairs.items()),
        "counter_profile": list(data.counter_profile.items()),
        "callgraph": list(data.callgraph.items()),
        "active_counts": list(data.active_counts.items()),
        "pending_overhead_ns": data.pending_overhead_ns,
        "overhead_cycles": data.overhead_cycles,
        "unmatched_exits": data.unmatched_exits,
        "trace": None if trace is None else trace.peek(),
        "stack": [(f.event_id, f.entry_cycles, f.child_cycles, f.user_ctx,
                   f.entry_pmc) for f in data.stack],
        "mapping": ktau.registry.mapping_table(),
        "pmc": counters.read(),
        "firing_cache": (ktau._firings, ktau._cache_misses,
                         ktau._cache_invalidations, ktau._counter_samples),
        "next_start": [ktau.overhead.start_cycles() for _ in range(10)],
        "next_stop": [ktau.overhead.stop_cycles() for _ in range(10)],
    }


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
SPAN_NAMES = ("do_IRQ", "eth_interrupt", "do_softirq", "net_rx_action",
              "tcp_v4_rcv", "run_timer_softirq", "smp_apic_timer_interrupt",
              "ide_intr", "end_request", "tcp_sendmsg", "dev_queue_xmit")
ATOMIC_NAMES = ("net.pkt_rx_bytes", "net.pkt_tx_bytes", "io.bio_bytes")

rates = st.one_of(st.none(), st.builds(
    PmcRates, ipc=st.floats(0.1, 2.0), l2_miss_per_kcycle=st.floats(0.0, 9.0)))
atomics = st.lists(st.tuples(st.sampled_from(ATOMIC_NAMES),
                             st.integers(0, 65_536)), max_size=2)


def _span(name, cost_ns, children, atomics_, rates_):
    return KSpan(name, cost_ns, children=children, atomics=atomics_,
                 rates=rates_)


leaves = st.builds(_span, st.sampled_from(SPAN_NAMES),
                   st.integers(0, 40 * USEC), st.just([]), atomics, rates)
trees = st.recursive(
    leaves,
    lambda kids: st.builds(_span, st.sampled_from(SPAN_NAMES),
                           st.integers(0, 40 * USEC),
                           st.lists(kids, min_size=1, max_size=3), atomics,
                           rates),
    max_leaves=10)


@st.composite
def leaf_runs(draw):
    """A parent whose children are 2-8 identical atomic-bearing leaves;
    the leaf may be named like an open ancestor (the recursion fallback),
    and one sibling may differ (not a run)."""
    parent = draw(st.sampled_from(SPAN_NAMES))
    leaf = draw(st.one_of(st.just(parent), st.just(OUTER),
                          st.sampled_from(SPAN_NAMES)))
    cost_ns = draw(st.integers(0, 40 * USEC))
    atomic_name = draw(st.sampled_from(ATOMIC_NAMES))
    rates_ = draw(rates)
    values = draw(st.lists(st.integers(0, 65_536), min_size=2, max_size=8))
    children = [_span(leaf, cost_ns, [], [(atomic_name, value)], rates_)
                for value in values]
    if draw(st.booleans()):
        children[draw(st.integers(0, len(children) - 1))] = draw(leaves)
    return _span(parent, draw(st.integers(0, 40 * USEC)), children,
                 draw(atomics), draw(rates))


run_trees = st.recursive(
    st.one_of(leaves, leaf_runs()),
    lambda kids: st.builds(_span, st.sampled_from(SPAN_NAMES),
                           st.integers(0, 40 * USEC),
                           st.lists(kids, min_size=1, max_size=3), atomics,
                           rates),
    max_leaves=6)

configs = st.fixed_dictionaries({
    "hz": st.sampled_from(RATES_HZ),
    "tracing": st.booleans(),
    "counters": st.booleans(),
    "callgraph": st.booleans(),
    "merge": st.booleans(),
    "compiled_out": st.sampled_from([(), (Group.BH,), (Group.NET,)]),
    "disabled_group": st.sampled_from([None, Group.IRQ, Group.NET]),
    "disabled_point": st.sampled_from([None, "eth_interrupt", "tcp_v4_rcv",
                                       "dev_queue_xmit", "net.pkt_rx_bytes"]),
    "frozen": st.booleans(),
    "outer": st.booleans(),
    "user_ctx": st.sampled_from([None, "main()", "MPI_Send()"]),
    "primed": st.sampled_from([0, 4090]),
    "extra_stops": st.sampled_from([0, 6]),
    "seed": st.integers(0, 2 ** 16),
})
#: As ``configs``, or the plain profiling build that ``record_run`` serves.
run_configs = st.one_of(configs, configs.map(
    lambda cfg: {**cfg, "tracing": False, "counters": False,
                 "callgraph": False}))


def record_both(cfg, tree_list):
    ref = make_world(cfg)
    new = make_world(cfg)
    t_ref = t_new = T0
    for tree in tree_list:
        t_ref = reference_tree(*ref[:2], tree, t_ref, ref[2])
        t_new = new[0].record_tree(new[1], tree, t_new, new[2])
    return (t_ref, observe(*ref)), (t_new, observe(*new))


def tx_both(cfg, groups, cost):
    ref = make_world(cfg)
    ahead = sum(reference_tx(*ref, segments, cost) for segments in groups)
    ktau, data, counters = make_world(cfg)
    kernel = SimpleNamespace(
        ktau=ktau, clock=ktau.clock,
        params=SimpleNamespace(net=SimpleNamespace(tcp_tx_cost_ns=cost),
                               ktau=ktau.build))
    task = SimpleNamespace(ktau=data, counters=counters, pmc_ahead_cycles=0)
    for segments in groups:
        total = record_tx_spans(kernel, task, segments)
        assert total == cost * len(segments)
    return (ahead, observe(*ref)), (task.pmc_ahead_cycles,
                                   observe(ktau, data, counters))


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(configs, st.lists(trees, min_size=1, max_size=3))
def test_record_tree_matches_per_call_walker(cfg, tree_list):
    ref, new = record_both(cfg, tree_list)
    assert new == ref


@settings(max_examples=200, deadline=None)
@given(run_configs, st.lists(run_trees, min_size=1, max_size=3))
def test_identical_leaf_runs_match_per_call_walker(cfg, tree_list):
    ref, new = record_both(cfg, tree_list * 2)  # then warm, bound points
    assert new == ref


@settings(max_examples=100, deadline=None)
@given(run_configs,
       st.lists(st.lists(st.integers(1, 1448), min_size=1, max_size=12),
                min_size=1, max_size=4),
       st.sampled_from([24 * USEC, 7 * USEC, 24_001, 333]))
def test_tx_spans_match_per_segment_loop(cfg, groups, cost):
    ref, new = tx_both(cfg, groups, cost)
    assert new == ref


def _cfg(**overrides):
    cfg = {"hz": 450e6, "tracing": True, "counters": True, "callgraph": True,
           "merge": True, "compiled_out": (), "disabled_group": None,
           "disabled_point": None, "frozen": False, "outer": True,
           "user_ctx": "main()", "primed": 0, "extra_stops": 0, "seed": 3}
    cfg.update(overrides)
    return cfg


@pytest.fixture(scope="module")
def lu_inputs():
    """The interrupt-tree groups and transmit segment groups a small LU
    run hands the walkers, in order (deep copies taken at the call)."""
    stream = []
    deliver, tx = irq_mod.IrqController.deliver, tcp_mod.record_tx_spans

    def spy_deliver(self, cpu_idx, trees, count_irq=True):
        stream.append(("irq", copy.deepcopy(trees)))
        return deliver(self, cpu_idx, trees, count_irq)

    def spy_tx(kernel, task, segments):
        stream.append(("tx", (list(segments),
                              kernel.params.net.tcp_tx_cost_ns)))
        return tx(kernel, task, segments)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(irq_mod.IrqController, "deliver", spy_deliver)
        mp.setattr(tcp_mod, "record_tx_spans", spy_tx)
        cluster = make_chiba(nnodes=2, seed=5)
        params = LuParams(niters=2, iter_compute_ns=5 * MSEC,
                          halo_bytes=16_384, sweep_msg_bytes=4096, inorm=0)
        launch_mpi_job(cluster, 4, lu_app(params),
                       placement=block_placement(2, 4)).run(limit_s=60)
        cluster.teardown()
    return stream


def replay_reference(world, stream):
    """Replay a captured stream through the reference walkers; returns the
    last tree's closing stamp and the PMC cycles run ahead."""
    t, ahead = T0, 0
    for kind, item in stream:
        if kind == "irq":
            for tree in item:
                t = reference_tree(*world[:2], tree, t, world[2])
        else:
            ahead += reference_tx(*world, *item)
    return t, ahead


def replay(world, stream):
    """As :func:`replay_reference`, through the walkers under test."""
    ktau, data, counters = world
    kernel = SimpleNamespace(ktau=ktau, clock=ktau.clock,
                             params=SimpleNamespace(ktau=ktau.build))
    task = SimpleNamespace(ktau=data, counters=counters, pmc_ahead_cycles=0)
    t = T0
    for kind, item in stream:
        if kind == "irq":
            for tree in item:
                t = ktau.record_tree(data, tree, t, counters)
        else:
            segments, cost = item
            kernel.params.net = SimpleNamespace(tcp_tx_cost_ns=cost)
            record_tx_spans(kernel, task, segments)
    return t, task.pmc_ahead_cycles


PLAIN = {"tracing": False, "counters": False, "callgraph": False}


@pytest.mark.parametrize("overrides", [
    {}, PLAIN, {"disabled_group": Group.NET}])
def test_captured_lu_inputs_replay_identically(lu_inputs, overrides):
    kinds = {kind for kind, _ in lu_inputs}
    assert kinds == {"irq", "tx"} and len(lu_inputs) > 50
    cfg = _cfg(**overrides)
    ref, new = make_world(cfg), make_world(cfg)
    assert (*replay(new, lu_inputs), observe(*new)) == \
        (*replay_reference(ref, lu_inputs), observe(*ref))


def _spans_named(tree, name):
    return (tree.name == name) + sum(_spans_named(child, name)
                                     for child in tree.children)


def test_run_path_covers_captured_lu_stream(lu_inputs, monkeypatch):
    """Non-vacuity: in the plain profiling build, nearly every transmit
    segment and ``tcp_v4_rcv`` leaf of the LU stream is recorded by
    ``record_run``, not activation by activation."""
    segments = sum(len(item[0]) for kind, item in lu_inputs if kind == "tx")
    leaves = sum(_spans_named(tree, "tcp_v4_rcv")
                 for kind, item in lu_inputs if kind == "irq"
                 for tree in item)
    covered = {"dev_queue_xmit": 0, "tcp_v4_rcv": 0}
    record_run = Ktau.record_run

    def spy(self, data, chain, t_cycles, values, step_cycles):
        end = record_run(self, data, chain, t_cycles, values, step_cycles)
        if end is not None:
            leaf = chain
            while leaf.children:
                leaf = leaf.children[0]
            covered[leaf.name] += len(values)
        return end

    monkeypatch.setattr(Ktau, "record_run", spy)
    replay(make_world(_cfg(**PLAIN)), lu_inputs)
    assert segments > 100 and leaves > 100
    assert covered["dev_queue_xmit"] >= 0.9 * segments
    assert covered["tcp_v4_rcv"] >= 0.9 * leaves


@pytest.mark.parametrize("primed,extra_stops,outer",
                         [(0, 0, False), (4090, 6, True)])
def test_sampler_refills_inside_a_run(primed, extra_stops, outer):
    """Both samplers refill inside one transmit run and one leaf run: the
    start sampler first from fresh, the stop sampler first when it is
    six draws ahead.  The run must keep the per-activation draw order."""
    cfg = _cfg(**PLAIN, primed=primed, extra_stops=extra_stops, outer=outer)
    ref, new = tx_both(cfg, [[1448] * 4], 24 * USEC)
    assert new == ref
    tree = KSpan("net_rx_action", 1_000, children=[
        KSpan("tcp_v4_rcv", 7_000, atomics=[("net.pkt_rx_bytes", value)])
        for value in (1448, 1448, 60, 1448)])
    ref, new = record_both(cfg, [tree])
    assert new == ref


def test_tx_at_107_mhz_ends_each_segment_at_its_whole_cost():
    """At 107 MHz the legs' rounded cycles overshoot the whole segment by
    one; every segment must still end at ``t + cycles_for_ns(cost)``."""
    cost = 24 * USEC
    clock = CycleClock(Engine(), hz=107e6)
    send, queue = int(cost * TX_SPLIT[0][1]), int(cost * TX_SPLIT[1][1])
    legs = sum(clock.cycles_for_ns(ns) for ns in (send, queue, cost - send - queue))
    assert legs == clock.cycles_for_ns(cost) + 1
    ref, new = tx_both(_cfg(hz=107e6), [[1448, 1448, 512]], cost)
    assert new == ref
    _, obs = new
    exits = [r.cycles for r in obs["trace"] if r.kind == TraceKind.EXIT]
    assert exits[2::3] == [T0 + k * clock.cycles_for_ns(cost) for k in (1, 2, 3)]
    assert new[0] == 3 * legs  # the PMCs still advance by every leg


def test_end_cycles_moves_only_the_last_child_chain():
    tree = KSpan("do_softirq", 1_000, children=[
        KSpan("net_rx_action", 2_000, children=[KSpan("tcp_v4_rcv", 500)]),
        KSpan("run_timer_softirq", 3_000)])
    ktau, data, _ = make_world(_cfg(hz=1e9, outer=False))
    assert ktau.record_tree(data, tree, T0, None,
                            end_cycles=T0 + 10_000) == T0 + 10_000
    exits = {ktau.registry.name_of(r.event_id): r.cycles
             for r in data.trace.peek() if r.kind == TraceKind.EXIT}
    assert exits == {"tcp_v4_rcv": T0 + 3_500, "net_rx_action": T0 + 3_500,
                     "run_timer_softirq": T0 + 10_000,
                     "do_softirq": T0 + 10_000}


def test_same_point_nested_in_itself():
    inner = KSpan("do_softirq", 3_000, atomics=[("net.pkt_rx_bytes", 60)])
    tree = KSpan("do_softirq", 1_000, children=[
        KSpan("net_rx_action", 2_000, children=[inner]),
        KSpan("do_softirq", 500)])
    ref, new = record_both(_cfg(), [tree])
    assert new == ref
    eid = new[1]["mapping"][1][0]  # do_softirq, bound after the outer frame
    count, incl, _excl = dict(new[1]["profile"])[eid]
    assert count == 3 and dict(new[1]["active_counts"])[eid] == 0
    assert incl == new[0] - T0  # outermost activation only


def test_frozen_task_records_nothing_but_pmcs():
    tree = KSpan("do_IRQ", 5_000, children=[KSpan("eth_interrupt", 1_000)])
    ref, new = record_both(_cfg(frozen=True, outer=False), [tree])
    assert new == ref
    assert new[1]["profile"] == [] and new[1]["pending_overhead_ns"] == 0
    assert new[1]["pmc"][0] > 0
