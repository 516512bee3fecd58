"""Differential oracle for ``Ktau.record``, the span-chain recorder.

The reference walkers below are the span recorders ``record`` replaced:
the recursive interrupt-tree walker (with the closing stamp a transmit
segment forces on its last-child chain), the per-segment TCP transmit
loop, and the receive path's per-leaf trees.  All replay spans through
the per-call ``entry``/``exit``/``atomic`` macros.  :func:`trees_of`
spells a chain call out as the span trees it stands for.

The inputs are hypothesis-generated chain calls (depth 1-3, names that
repeat or match an open outer span, a leaf atomic or none, ``values``
with and without ``step_cycles``) under generated build and runtime
configurations, receive groups, and the chain and segment stream captured
from a small LU run.  Each implementation records the same input into its
own fresh, identically seeded measurement system, and every observable of
the result must be identical: profiles, atomics, merge pairs, counter
profile, call graph, recursion counts, overhead, trace (its records,
lost and written counts), PMCs, the open stack, the mapping order, the
firing-cache counters and the samplers' next draws.  Outside strict mode
a live call whose chain points all fire, differ and are not open is
summed in one step, in any combination of tracing, counters and call
graph, so the inputs include such builds, calls recorded more than once
(warm, bound points), sampler refills inside a sum in either order
(``primed``, ``extra_stops``), and rings of 8 or 3 entries, sometimes
pre-filled, that a summed call overflows part way (``ring``,
``prefill``).  Calls are walked event by event under strict builds,
frozen tasks, compiled-out or disabled points, chains that repeat a name,
and chains whose point is already open (``outer``); the generated
configurations cover each.
"""

from types import SimpleNamespace
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import KtauBuildConfig, KtauRuntimeControl
from repro.core.counters import (PmcRates, TaskCounters, rates_for_path,
                                 scale_miss_rate)
from repro.core.measurement import Ktau
from repro.core.overhead import OverheadModel
from repro.core.points import ALL_GROUPS, Group
from repro.core.registry import PointKind
from repro.core.tracebuf import ENTRY, EXIT, TraceOverflowError
from repro.cluster.launch import block_placement, launch_mpi_job
from repro.cluster.machines import make_chiba
from repro.kernel import irq as irq_mod
from repro.kernel.irq import KSpan
from repro.kernel.kernel import Kernel
from repro.kernel.net import tcp as tcp_mod
from repro.kernel.net.tcp import TX_SPLIT, RxPath, TxPath, record_tx_spans
from repro.kernel.params import (IRQ_COST_NS, SOFTIRQ_DISPATCH_COST_NS,
                                 TCP_RX_COST_NS, KernelParams)
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
class Tree(NamedTuple):
    """A span tree: a routine's own cost laid out before its children,
    its atomics fired just before it exits."""

    name: str
    cost_ns: int
    children: list
    atomics: list
    rates: Optional[PmcRates] = None


def reference_tree(ktau, data, tree, t, counters, end=None):
    """The recursive interrupt-tree walker, span by span; ``end``, when
    given, is the stamp the root and its chain of last children close on."""
    point = ktau.registry.point(tree.name)
    ktau.entry(data, point, at_cycles=t)
    cost_cycles = ktau.clock.cycles_for_ns(tree.cost_ns)
    if cost_cycles and ktau.build.counters:
        counters.advance(cost_cycles, True, tree.rates if tree.rates is not None
                         else rates_for_path(tree.name))
    t += cost_cycles
    for i, child in enumerate(tree.children, 1):
        t = reference_tree(ktau, data, child, t, counters,
                           end if i == len(tree.children) else None)
    if end is not None:
        t = end
    for name, value in tree.atomics:
        ktau.atomic(data, ktau.registry.point(name, PointKind.ATOMIC), value,
                    at_cycles=t)
    ktau.exit(data, point, at_cycles=t)
    return t


def spans_of(chain):
    spans = []
    while chain is not None:
        spans.append(chain)
        chain = chain.child
    return spans


def trees_of(chain, values=None, step=False):
    """The span trees one ``record`` call of ``chain`` stands for: the
    leaf repeated once per value inside one pass of the spans enclosing
    it or, with ``step``, the whole chain once per value."""
    spans = spans_of(chain)
    leaf = spans[-1]

    def nest(outer, inner):
        for span in reversed(outer):
            inner = [Tree(span.name, span.cost_ns, inner, [], span.rates)]
        return inner

    leaves = [Tree(leaf.name, leaf.cost_ns, [],
                   [] if leaf.atomic is None else [(leaf.atomic, value)],
                   leaf.rates)
              for value in (values if values is not None else [None])]
    if step:
        return [nest(spans[:-1], [leaf_])[0] for leaf_ in leaves]
    return nest(spans[:-1], leaves)


def reference_record(ktau, data, chain, t, counters, values=None, step=None):
    """``record`` through :func:`reference_tree`."""
    for tree in trees_of(chain, values, step is not None):
        t = reference_tree(ktau, data, tree, t, counters,
                           None if step is None else t + step)
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


def reference_rx_trees(factor, mismatch, segments):
    """Interrupt-context span trees for an arriving frame group, built
    leaf by leaf, with cache-mismatch factor ``factor``."""
    per_seg = TCP_RX_COST_NS
    if mismatch:
        per_seg = int(per_seg * factor)
    rx_rates = rates_for_path("tcp_v4_rcv")
    if mismatch:
        rx_rates = scale_miss_rate(rx_rates, factor)
    rcv_spans = [Tree("tcp_v4_rcv", per_seg, [], [("net.pkt_rx_bytes", seg)],
                      rx_rates)
                 for seg in segments]
    hard = Tree("do_IRQ", IRQ_COST_NS, [Tree("eth_interrupt", 1_000, [], [])],
                [])
    soft = Tree("do_softirq", SOFTIRQ_DISPATCH_COST_NS,
                [Tree("net_rx_action", 1_000, rcv_spans, [])], [])
    return [hard, soft]


def total_ns(tree):
    """Inclusive duration of ``tree``, summed span by span."""
    return tree.cost_ns + sum(total_ns(child) for child in tree.children)


def count_spans(tree):
    return 1 + sum(count_spans(child) for child in tree.children)


# ----------------------------------------------------------------------
# One measurement system per side, and everything observable about it
# ----------------------------------------------------------------------
def make_world(cfg):
    build = KtauBuildConfig(
        compiled_groups=frozenset(ALL_GROUPS) - set(cfg["compiled_out"]),
        tracing=cfg["tracing"], counters=cfg["counters"],
        callgraph=cfg["callgraph"], trace_buffer_entries=cfg["ring"])
    control = KtauRuntimeControl(build)
    if cfg["disabled_group"] is not None:
        control.disable(cfg["disabled_group"])
    if cfg["disabled_point"] is not None:
        control.disable_points(cfg["disabled_point"])
    clock = CycleClock(Engine(), hz=cfg["hz"], boot_offset_cycles=T0)
    overhead = OverheadModel(RngHub(cfg["seed"]).stream("ovh"))
    for _ in range(cfg["primed"]):  # move the next refill into the recording
        overhead.draw_start()[0]
        overhead.draw_stop()[0]
    for _ in range(cfg["extra_stops"]):  # so the stop sampler refills first
        overhead.draw_stop()[0]
    ktau = Ktau(clock, build, control=control, overhead=overhead,
                strict=cfg.get("strict", False))
    data = ktau.register_task(7, "rank0")
    counters = TaskCounters()
    if build.counters:
        data.counters = counters
    data.user_context = cfg["user_ctx"]
    if cfg["outer"]:
        ktau.entry(data, ktau.registry.point(OUTER), at_cycles=T0 - 500)
        counters.advance(900, True)
    if data.trace is not None:  # so that a call can overflow the ring
        for i in range(min(cfg["prefill"], cfg["ring"] - len(data.trace))):
            data.trace.append(i, 0, ENTRY, 0)
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
        "trace": None if trace is None else (
            trace.peek(), trace.lost_count, trace.total_records),
        "stack": [(f.event_id, f.entry_cycles, f.child_cycles, f.user_ctx,
                   f.entry_pmc) for f in data.stack],
        "mapping": ktau.registry.mapping_table(),
        "pmc": counters.read(),
        "firing_cache": (ktau._firings, ktau._cache_misses,
                         ktau._cache_invalidations, ktau._counter_samples),
        "next_start": [ktau.overhead.draw_start()[0] for _ in range(10)],
        "next_stop": [ktau.overhead.draw_stop()[0] for _ in range(10)],
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
#: Span names, ``do_softirq`` twice over, so that a chain repeats a name
#: or matches ``OUTER`` now and then.
span_names = st.sampled_from(SPAN_NAMES + ("do_softirq", OUTER))


@st.composite
def chains(draw):
    """A chain of depth 1-3 whose leaf has an atomic or none."""
    chain = KSpan(draw(span_names), draw(st.integers(0, 40 * USEC)),
                  atomic=draw(st.one_of(st.none(),
                                        st.sampled_from(ATOMIC_NAMES))),
                  rates=draw(rates))
    for _ in range(draw(st.integers(0, 2))):
        chain = KSpan(draw(span_names), draw(st.integers(0, 40 * USEC)),
                      chain, rates=draw(rates))
    return chain


@st.composite
def calls(draw, step=st.one_of(st.none(), st.integers(0, 200_000))):
    """``(chain, values, step_cycles)``: ``values`` may be left out only
    where the leaf has no atomic."""
    chain = draw(chains())
    values = st.lists(st.integers(0, 65_536), min_size=1, max_size=8)
    if spans_of(chain)[-1].atomic is None:
        values = st.one_of(st.none(), values)
    return chain, draw(values), draw(step)


configs = st.fixed_dictionaries({
    "hz": st.sampled_from(RATES_HZ),
    "tracing": st.booleans(),
    "counters": st.booleans(),
    "callgraph": st.booleans(),
    "strict": st.booleans(),
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
    "ring": st.sampled_from([4096, 8, 3]),
    "prefill": st.sampled_from([0, 0, 2, 7]),
})
#: As ``configs``, or a non-strict build with every point enabled and a
#: live task, whose calls are summed in any combination of tracing,
#: counters and call graph.
run_configs = st.one_of(configs, configs.map(
    lambda cfg: {**cfg, "strict": False, "compiled_out": (),
                 "disabled_group": None, "disabled_point": None,
                 "frozen": False}))


def outcome(run, world):
    """``run()`` and what ``world`` observes after it.  A strict ring's
    overflow aborts the call: its message stands for the result."""
    try:
        result = run()
    except TraceOverflowError as exc:
        return f"overflow: {exc}", observe(*world)
    return result, observe(*world)


def record_both(cfg, call_list):
    ref, new = make_world(cfg), make_world(cfg)

    def reference_calls():
        t = T0
        for chain, values, step in call_list:
            t = reference_record(*ref[:2], chain, t, ref[2], values, step)
        return t

    def calls():
        t = T0
        for chain, values, step in call_list:
            t = new[0].record(new[1], chain, t, values, step)
        return t

    return outcome(reference_calls, ref), outcome(calls, new)


def fake_tx_kernel(ktau, cost):
    """What ``record_tx_spans`` reads of a kernel, transmitting at ``cost``."""
    return SimpleNamespace(ktau=ktau, clock=ktau.clock,
                           _tx=TxPath(cost, ktau.clock),
                           params=SimpleNamespace(ktau=ktau.build))


def tx_both(cfg, groups, cost):
    ref = make_world(cfg)
    reference = outcome(lambda: sum(reference_tx(*ref, segments, cost)
                                    for segments in groups), ref)
    ktau, data, _ = new = make_world(cfg)
    kernel = fake_tx_kernel(ktau, cost)
    task = SimpleNamespace(ktau=data, pmc_ahead_cycles=0)

    def transmit():
        for segments in groups:
            total = record_tx_spans(kernel, task, segments)
            assert total == cost * len(segments)
        return task.pmc_ahead_cycles

    return reference, outcome(transmit, new)


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(configs, st.lists(calls(), min_size=1, max_size=3))
def test_record_tree_matches_per_call_walker(cfg, call_list):
    ref, new = record_both(cfg, call_list)
    assert new == ref


@settings(max_examples=200, deadline=None)
@given(run_configs, st.lists(calls(), min_size=1, max_size=3))
def test_identical_leaf_runs_match_per_call_walker(cfg, call_list):
    ref, new = record_both(cfg, call_list * 2)  # then warm, bound points
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
           "compiled_out": (), "disabled_group": None,
           "disabled_point": None, "frozen": False, "outer": True,
           "user_ctx": "main()", "primed": 0, "extra_stops": 0, "seed": 3,
           "ring": 4096, "prefill": 0}
    cfg.update(overrides)
    return cfg


def run_small_lu(ktau=None, booted=None):
    """A 4-rank LU on two Chiba nodes; ``ktau`` as in ``make_chiba``, and
    ``booted`` called once the cluster is built."""
    cluster = make_chiba(nnodes=2, seed=5, ktau=ktau)
    if booted is not None:
        booted()
    params = LuParams(niters=2, iter_compute_ns=5 * MSEC,
                      halo_bytes=16_384, sweep_msg_bytes=4096, inorm=0)
    launch_mpi_job(cluster, 4, lu_app(params),
                   placement=block_placement(2, 4)).run(limit_s=60)
    cluster.teardown()


@pytest.fixture(scope="module")
def lu_inputs():
    """The interrupt deliveries (runs and inclusive work) and transmit
    segment groups a small LU run hands the recorder, in order (values
    copied at the call)."""
    stream = []
    deliver, tx = irq_mod.IrqController.deliver, tcp_mod.record_tx_spans

    def spy_deliver(self, cpu_idx, work_ns, runs=(), count_irq=True):
        stream.append(("irq", ([(chain, None if values is None
                                 else list(values))
                                for chain, values in runs], work_ns)))
        return deliver(self, cpu_idx, work_ns, runs, count_irq)

    def spy_tx(kernel, task, segments):
        stream.append(("tx", (list(segments), kernel._tx.cost_ns)))
        return tx(kernel, task, segments)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(irq_mod.IrqController, "deliver", spy_deliver)
        mp.setattr(tcp_mod, "record_tx_spans", spy_tx)
        run_small_lu()
    return stream


def replay_reference(world, stream):
    """Replay a captured stream through the reference walkers; returns the
    last delivery's closing stamp and the PMC cycles run ahead."""
    t, ahead = T0, 0
    for kind, item in stream:
        if kind == "irq":
            for chain, values in item[0]:
                t = reference_record(*world[:2], chain, t, world[2], values)
        else:
            ahead += reference_tx(*world, *item)
    return t, ahead


def replay(world, stream):
    """As :func:`replay_reference`, through the recorder under test."""
    ktau, data, _ = world
    task = SimpleNamespace(ktau=data, pmc_ahead_cycles=0)
    kernels = {}  # one per transmit cost, as one per node
    t = T0
    for kind, item in stream:
        if kind == "irq":
            for chain, values in item[0]:
                t = ktau.record(data, chain, t, values)
        else:
            segments, cost = item
            kernel = kernels.get(cost)
            if kernel is None:
                kernel = kernels[cost] = fake_tx_kernel(ktau, cost)
            record_tx_spans(kernel, task, segments)
    return t, task.pmc_ahead_cycles


PLAIN = {"tracing": False, "counters": False, "callgraph": False}
#: The plain profiling build, each extension alone, and all three.
BUILDS = {"plain": PLAIN, "tracing": {**PLAIN, "tracing": True},
          "counters": {**PLAIN, "counters": True},
          "callgraph": {**PLAIN, "callgraph": True}, "all": {}}


@pytest.mark.parametrize("overrides", [
    {}, PLAIN, {"disabled_group": Group.NET}])
def test_captured_lu_inputs_replay_identically(lu_inputs, overrides):
    kinds = {kind for kind, _ in lu_inputs}
    assert kinds == {"irq", "tx"} and len(lu_inputs) > 50
    cfg = _cfg(**overrides)
    ref, new = make_world(cfg), make_world(cfg)
    assert (*replay(new, lu_inputs), observe(*new)) == \
        (*replay_reference(ref, lu_inputs), observe(*ref))


def test_run_path_covers_captured_lu_stream(lu_inputs, monkeypatch):
    """Non-vacuity: in the plain profiling build, and with tracing,
    counters or the call graph built in, alone or together, at least 90%
    of the LU stream's span activations, and of its interrupt spans
    alone, are summed rather than recorded event by event."""
    irq_spans = sum(count_spans(tree)
                    for kind, item in lu_inputs if kind == "irq"
                    for chain, values in item[0]
                    for tree in trees_of(chain, values))
    tx_spans = 3 * sum(len(item[0]) for kind, item in lu_inputs
                       if kind == "tx")
    assert irq_spans > 300 and tx_spans > 300
    summed = {}
    sum_ = Ktau._sum

    def spy(self, data, plan, t, values, step_cycles):
        depth, n = len(plan.levels), 1 if values is None else len(values)
        if step_cycles is None:
            summed["irq"] += depth - 1 + n
        else:
            summed["tx"] += depth * n
        return sum_(self, data, plan, t, values, step_cycles)

    monkeypatch.setattr(Ktau, "_sum", spy)
    for build, overrides in BUILDS.items():
        summed.update(irq=0, tx=0)
        replay(make_world(_cfg(**overrides)), lu_inputs)
        assert summed["irq"] >= 0.9 * irq_spans, build
        assert summed["irq"] + summed["tx"] >= \
            0.9 * (irq_spans + tx_spans), build


def test_captured_work_is_the_trees_total(lu_inputs):
    """Every delivery's inclusive work is its runs' summed duration."""
    deliveries = [item for kind, item in lu_inputs if kind == "irq"]
    assert all(runs for runs, _ in deliveries)  # a patched kernel
    assert [work for _, work in deliveries] == [
        sum(total_ns(tree) for chain, values in runs
            for tree in trees_of(chain, values))
        for runs, _ in deliveries]


#: The receive path's configurations: profiling with tracing, counters and
#: call graph; the plain profiling build; the NET group off; a frozen task.
RX_OVERRIDES = ({}, PLAIN, {"disabled_group": Group.NET}, {"frozen": True})
segment_sizes = st.one_of(st.sampled_from((1448, 60)), st.integers(1, 1448))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(RX_OVERRIDES), st.sampled_from(RATES_HZ),
       st.lists(st.tuples(st.booleans(),
                          st.lists(segment_sizes, min_size=1, max_size=8)),
                min_size=1, max_size=4))
def test_rx_templates_match_reference_trees(overrides, hz, groups):
    """One :class:`RxPath` serves every group, so its chains are shared
    across groups and flags; what is recorded, and each group's
    closed-form work, must match the per-leaf trees."""
    cfg = _cfg(**overrides, hz=hz)
    factor = KernelParams().cache_mismatch_factor
    rx = RxPath(factor)
    (ktau_ref, data_ref, counters_ref) = ref = make_world(cfg)
    ktau, data, _ = new = make_world(cfg)
    t_ref = t_new = T0
    for mismatch, segments in groups:
        trees = reference_rx_trees(factor, mismatch, segments)
        assert rx.work_ns(mismatch, len(segments)) == \
            sum(map(total_ns, trees))
        for tree in trees:
            t_ref = reference_tree(ktau_ref, data_ref, tree, t_ref,
                                   counters_ref)
        t_new = ktau.record(data, rx.hard, t_new)
        t_new = ktau.record(data, rx.softirq[mismatch], t_new, segments)
    assert (t_new, observe(*new)) == (t_ref, observe(*ref))


@pytest.mark.parametrize("ktau", [KtauBuildConfig.vanilla(), None],
                         ids=["vanilla", "patched"])
def test_lu_builds_no_kspan_after_boot(monkeypatch, ktau):
    """Every chain is a per-kernel template: once the cluster is booted,
    the LU run's frame groups and transmits build no span at all."""
    built, groups = [], []
    init, bottom_half = KSpan.__init__, Kernel._net_rx_bh
    tx = tcp_mod.record_tx_spans

    def spy_init(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)

    def spy_bottom_half(self, sock, segments, cpu):
        groups.append(len(segments))
        bottom_half(self, sock, segments, cpu)

    def spy_tx(kernel, task, segments):
        groups.append(-len(segments))
        return tx(kernel, task, segments)

    monkeypatch.setattr(Kernel, "_net_rx_bh", spy_bottom_half)
    monkeypatch.setattr(tcp_mod, "record_tx_spans", spy_tx)
    run_small_lu(ktau, booted=lambda: monkeypatch.setattr(
        KSpan, "__init__", spy_init))
    assert sum(n > 0 for n in groups) > 40 and max(groups) > 2
    assert sum(n < 0 for n in groups) > 4
    assert built == []


def chain_names(chain):
    names = []
    while chain is not None:
        names.append(chain.name)
        chain = chain.child
    return names


def patched_lu_records(monkeypatch):
    """The ``Ktau.record`` calls of a patched LU run, as (chain, values
    copied at the call, step_cycles), and the spans built after boot."""
    calls, built = [], []
    record, init = Ktau.record, KSpan.__init__

    def spy_record(self, data, chain, t_cycles, values=None,
                   step_cycles=None):
        calls.append((chain, None if values is None else list(values),
                      step_cycles))
        return record(self, data, chain, t_cycles, values, step_cycles)

    def spy_init(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)

    monkeypatch.setattr(Ktau, "record", spy_record)
    run_small_lu(booted=lambda: monkeypatch.setattr(KSpan, "__init__",
                                                    spy_init))
    return calls, built


def test_patched_rx_builds_two_spans_per_group(monkeypatch):
    """A patched kernel's receive group records the two spans
    ``do_softirq`` and ``net_rx_action`` once, around one ``tcp_v4_rcv``
    leaf per segment, through a chain built once per node and mismatch
    flag, so no group builds a span."""
    calls, built = patched_lu_records(monkeypatch)
    groups = [(chain, values, step) for chain, values, step in calls
              if chain.name == "do_softirq"
              and chain.child.name == "net_rx_action"]
    assert len(groups) > 40 and max(len(values) for _, values, _ in groups) > 2
    for chain, values, step in groups:
        assert chain_names(chain) == ["do_softirq", "net_rx_action",
                                      "tcp_v4_rcv"]
        assert chain.child.child.atomic == "net.pkt_rx_bytes"
        assert values and step is None  # two spans once, the leaf per value
    assert len({id(chain) for chain, _, _ in groups}) <= 2 * 2  # nodes x flags
    assert built == []


def test_patched_tx_builds_spans_only_as_templates(monkeypatch):
    """A patched kernel's transmit path records its three-span chain,
    built once per node, not per call or segment size."""
    calls, built = patched_lu_records(monkeypatch)
    names = [name for name, _ in TX_SPLIT]
    tx = [(chain, values, step) for chain, values, step in calls
          if chain.name == names[0]]
    sizes = {seg for _, values, _ in tx for seg in values}
    assert len(tx) > 4 * len(sizes)  # one chain per call would fail
    for chain, values, step in tx:
        assert chain_names(chain) == names
        assert values and step is not None  # the whole chain per segment
    assert len({id(chain) for chain, _, _ in tx}) <= 2  # one per node
    assert built == []


@pytest.mark.parametrize("point", ["ip_queue_xmit", "tcp_v4_rcv",
                                   "net.pkt_tx_bytes", "net.pkt_rx_bytes"])
def test_runs_follow_runtime_control_between_runs(point):
    """A chain point disabled, and later re-enabled, through the runtime
    control between calls of the same templates: while it is off the
    calls take the per-event path, and the resolved chains must not
    outlive the control version they were resolved under."""
    cfg = _cfg(**PLAIN)
    cost = 24 * USEC
    ref, new = make_world(cfg), make_world(cfg)
    ktau, data, _ = new
    kernel = fake_tx_kernel(ktau, cost)
    task = SimpleNamespace(ktau=data, pmc_ahead_cycles=0)
    factor = KernelParams().cache_mismatch_factor
    rx = RxPath(factor)
    segments = [1448, 1448, 60]
    t_ref = t_new = T0
    for toggle in (None, "disable_points", "enable_points", None):
        for world in (ref, new):
            if toggle is not None:
                getattr(world[0].control, toggle)(point)
        reference_tx(*ref, segments, cost)
        record_tx_spans(kernel, task, segments)
        for tree in reference_rx_trees(factor, False, segments):
            t_ref = reference_tree(*ref[:2], tree, t_ref, ref[2])
        t_new = ktau.record(data, rx.hard, t_new)
        t_new = ktau.record(data, rx.softirq[False], t_new, segments)
    assert (t_new, observe(*new)) == (t_ref, observe(*ref))


@pytest.mark.parametrize("primed,extra_stops,outer",
                         [(0, 0, False), (4090, 6, True)])
def test_sampler_refills_inside_a_run(primed, extra_stops, outer):
    """Both samplers refill inside one transmit sum and one leaf sum: the
    start sampler first from fresh, the stop sampler first when it is
    six draws ahead.  A sum must keep the per-event draw order."""
    cfg = _cfg(**PLAIN, primed=primed, extra_stops=extra_stops, outer=outer)
    ref, new = tx_both(cfg, [[1448] * 4], 24 * USEC)
    assert new == ref
    chain = KSpan("net_rx_action", 1_000,
                  KSpan("tcp_v4_rcv", 7_000, atomic="net.pkt_rx_bytes"))
    ref, new = record_both(cfg, [(chain, [1448, 1448, 60, 1448], None)])
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
    records, _lost, _written = obs["trace"]
    exits = [cycles for cycles, _id, kind, _v in records if kind == EXIT]
    assert exits[2::3] == [T0 + k * clock.cycles_for_ns(cost) for k in (1, 2, 3)]
    assert new[0] == 3 * legs  # the PMCs still advance by every leg


def test_same_point_nested_in_itself():
    """A chain that repeats a point is recorded event by event, in the
    plain profiling build too."""
    chain = KSpan("do_softirq", 1_000, KSpan("net_rx_action", 2_000, KSpan(
        "do_softirq", 3_000, atomic="net.pkt_rx_bytes")))
    for overrides in ({}, PLAIN):
        ref, new = record_both(_cfg(**overrides), [(chain, [60, 61], None)])
        assert new == ref
        eid = new[1]["mapping"][1][0]  # do_softirq, bound after the outer frame
        count, incl, _excl = dict(new[1]["profile"])[eid]
        assert count == 3 and dict(new[1]["active_counts"])[eid] == 0
        assert incl == new[0] - T0  # outermost activation only


def test_frozen_task_records_nothing_but_pmcs():
    chain = KSpan("do_IRQ", 5_000, KSpan("eth_interrupt", 1_000))
    ref, new = record_both(_cfg(frozen=True, outer=False),
                           [(chain, None, None)])
    assert new == ref
    assert new[1]["profile"] == [] and new[1]["pending_overhead_ns"] == 0
    assert new[1]["pmc"][0] > 0


def test_strict_overflow_counts_only_fired_points():
    """A strict ring filled by the outer entry and two more records
    overflows at a two-span chain's first entry.  The aborted call must
    have resolved only the point that fired, as the per-call macros do,
    so the firing cache's miss counts agree."""
    chain = KSpan("do_IRQ", 5_000, KSpan("eth_interrupt", 1_000))
    ref, new = record_both(_cfg(strict=True, ring=3, prefill=2),
                           [(chain, None, None)])
    assert new[0].startswith("overflow: ")
    assert new[1]["firing_cache"][1] == ref[1]["firing_cache"][1] == 2
    assert new == ref


def test_summed_pmcs_truncate_each_span(monkeypatch):
    """A summed call advances the PMCs by each span's own truncated
    advance, once per pass, as the per-event path does; truncating the
    summed cycles instead would count more instructions and misses here,
    where ``cycles * ipc`` is fractional and the leaf runs five times."""
    rates = PmcRates(ipc=0.55, l2_miss_per_kcycle=3.0)
    chain = KSpan("net_rx_action", 1_000, KSpan(
        "tcp_v4_rcv", 7_000, atomic="net.pkt_rx_bytes", rates=rates))
    cfg = _cfg(**BUILDS["counters"])
    cycles = CycleClock(Engine(), hz=cfg["hz"]).cycles_for_ns(7_000)
    insn, l2 = int(cycles * rates.ipc), int(cycles * 3.0) // 1000
    assert (int(5 * cycles * rates.ipc), int(5 * cycles * 3.0) // 1000) \
        != (5 * insn, 5 * l2)

    def walk(*args):
        raise AssertionError("the call was walked, not summed")

    monkeypatch.setattr(Ktau, "_walk", walk)
    ref, new = record_both(cfg, [(chain, [1448, 1448, 1448, 1448, 60],
                                  None)])
    assert new == ref
    leaf = new[1]["mapping"][2][0]  # after OUTER and net_rx_action
    assert dict(new[1]["counter_profile"])[leaf] == \
        [5, 5 * cycles, 5 * insn, 5 * l2, 0, 0]
