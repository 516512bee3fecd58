"""Tests for sockets, the NIC, the TCP path, and IRQ routing."""

import pytest

from repro.kernel.kernel import Kernel
from repro.kernel.net.socket import Pipe, StreamSocket
from repro.kernel.params import (IRQ_COST_NS, LATENCY_NS,
                                 SOFTIRQ_DISPATCH_COST_NS, TCP_RX_COST_NS,
                                 KernelParams)
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim.units import MSEC, SEC, USEC


def make_pair(irq_balance=False, seed=1, **kw):
    engine = Engine()
    hub = RngHub(seed)
    params = KernelParams(ncpus=2, timer_tick_ns=None, minor_fault_prob=0.0,
                          smp_compute_dilation=0.0, irq_balance=irq_balance, **kw)
    k1 = Kernel(engine, params, "src", hub)
    k2 = Kernel(engine, params, "dst", hub)
    sock = StreamSocket(k1, k2, sock_id=1)
    return engine, k1, k2, sock


def transfer(engine, k1, k2, sock, nbytes, limit=10 * SEC):
    got = []

    def sender(ctx):
        yield from ctx.syscall("sys_writev", sock=sock, nbytes=nbytes)

    def receiver(ctx):
        total = 0
        while total < nbytes:
            r = yield from ctx.syscall("sys_readv", sock=sock, nbytes=nbytes - total)
            total += r
        got.append((ctx.now, total))

    k1.spawn(sender, "tx")
    k2.spawn(receiver, "rx")
    engine.run(until=limit)
    return got


class TestStreamSocket:
    def test_bytes_delivered_exactly(self):
        engine, k1, k2, sock = make_pair()
        got = transfer(engine, k1, k2, sock, 10_000)
        assert got and got[0][1] == 10_000

    def test_segmentation_counts(self):
        engine, k1, k2, sock = make_pair()
        transfer(engine, k1, k2, sock, 4500)  # 3 segments at MTU 1500
        assert sock.tx_segments_total == 3
        assert sock.rx_proc_calls == 3

    def test_latency_floor(self):
        engine, k1, k2, sock = make_pair()
        got = transfer(engine, k1, k2, sock, 100)
        # one-way must exceed link latency
        assert got[0][0] >= LATENCY_NS

    def test_bandwidth_bound(self):
        engine, k1, k2, sock = make_pair()
        nbytes = 1_250_000  # 0.1s of wire at 12.5 MB/s
        got = transfer(engine, k1, k2, sock, nbytes)
        assert got[0][0] >= 100 * MSEC

    def test_sndbuf_backpressure_blocks_writer(self):
        engine, k1, k2, sock = make_pair()
        # Message far larger than the 64 KiB send buffer: the writer must
        # block inside sock_sendmsg waiting for the NIC to drain.
        transfer(engine, k1, k2, sock, 512 * 1024)
        tx_task = k1.all_tasks[-1]
        assert tx_task.nvcsw >= 2  # blocked at least a couple of times

    def test_atomic_packet_sizes_recorded(self):
        engine, k1, k2, sock = make_pair()
        transfer(engine, k1, k2, sock, 4500)
        tx_id = k1.ktau.registry.id_of("net.pkt_tx_bytes")
        tx_task_data = next(iter(k1.ktau.zombies.values()))
        stats = tx_task_data.atomic[tx_id]
        assert stats.count == 3
        assert stats.sum == 4500
        assert stats.max == 1500

    def test_rx_softirq_attributed_on_dst(self):
        engine, k1, k2, sock = make_pair()
        transfer(engine, k1, k2, sock, 3000)
        # the receiver was blocked; softirq landed in swapper context
        rcv_id = k2.ktau.registry.id_of("tcp_v4_rcv")
        assert rcv_id is not None
        swapper = k2.ktau.tasks[0]
        total_rcv = sum(d.profile[rcv_id].count
                        for d in list(k2.ktau.tasks.values()) + list(k2.ktau.zombies.values())
                        if rcv_id in d.profile)
        assert total_rcv == 2  # 3000 bytes = 2 segments


class TestCacheMismatch:
    def test_mismatch_dilates_rx_cost(self):
        # no irq balancing: IRQs on CPU0.  Consumer pinned to CPU1 pays
        # the cache penalty; consumer on CPU0 does not.
        def run(consumer_cpu):
            engine, k1, k2, sock = make_pair()
            def sender(ctx):
                yield from ctx.syscall("sys_writev", sock=sock, nbytes=15_000)
            def receiver(ctx):
                yield from ctx.set_affinity({consumer_cpu})
                total = 0
                while total < 15_000:
                    r = yield from ctx.syscall("sys_readv", sock=sock,
                                               nbytes=15_000 - total)
                    total += r
            k1.spawn(sender, "tx")
            k2.spawn(receiver, "rx", start_cpu=consumer_cpu)
            engine.run(until=5 * SEC)
            return sock.rx_proc_ns / max(1, sock.rx_proc_calls)

        matched = run(0)
        mismatched = run(1)
        assert mismatched > matched * 1.1

    def test_deferred_bottom_half_reevaluates_mismatch(self):
        """The flag is evaluated twice: on arrival for the per-flow
        ``rx_proc_ns`` and the backlog estimate, and again when a deferred
        bottom half runs, for the spans KTAU records.  A reader that moves
        CPUs in between splits the two (a known model inconsistency,
        pinned here until it is resolved)."""
        engine, k1, k2, sock = make_pair()  # every IRQ on CPU0
        k2._softirq_busy_until[0] = 100 * USEC  # earlier softirq work
        k2.net_rx(sock, [1448, 1448])  # reader on CPU0: matched
        fixed = IRQ_COST_NS + SOFTIRQ_DISPATCH_COST_NS + 2_000
        assert k2._softirq_busy_until[0] == \
            100 * USEC + fixed + 2 * TCP_RX_COST_NS
        sock.consumer_cpu = 1  # the reader moves before the bottom half
        engine.run(until=1 * SEC)
        assert sock.rx_proc_calls == 2
        assert sock.rx_proc_ns == 2 * TCP_RX_COST_NS  # arrival cost
        mismatched = int(TCP_RX_COST_NS * k2.params.cache_mismatch_factor)
        rcv = k2.ktau.tasks[0].profile[k2.ktau.registry.id_of("tcp_v4_rcv")]
        assert rcv.count == 2  # recorded at the bottom half's cost
        assert rcv.excl_cycles == 2 * k2.clock.cycles_for_ns(mismatched)
        assert sock.rx_bytes_total == 2 * 1448

    def test_irq_routing_balanced_uses_flow_hash(self):
        engine, k1, k2, sock = make_pair(irq_balance=True)
        cpu = k2.irq.route(sock.flow_hash)
        # stable per flow
        assert all(k2.irq.route(sock.flow_hash) == cpu for _ in range(10))

    def test_irq_routing_unbalanced_hits_target(self):
        engine, k1, k2, sock = make_pair()
        assert k2.irq.route(sock.flow_hash) == 0
        engine2 = Engine()
        params = KernelParams(ncpus=2, irq_target_cpu=1, timer_tick_ns=None)
        k3 = Kernel(engine2, params, "t", RngHub(1))
        assert k3.irq.route(123) == 1


class TestCacheMismatchAblation:
    """``cache_mismatch_factor`` is the §4 ablation knob: at 1.0 a
    mismatched receive costs and misses exactly like a matched one."""

    @staticmethod
    def rx_of(**kw):
        params = KernelParams(timer_tick_ns=None, **kw)
        return Kernel(Engine(), params, "n", RngHub(1))._rx

    @staticmethod
    def leaf_rates(rx, mismatch):
        return rx.softirq[mismatch].child.child.rates

    def test_ablated_factor_removes_both_dilations(self):
        rx = self.rx_of(cache_mismatch_factor=1.0)
        assert rx.per_seg_ns[True] == rx.per_seg_ns[False] == TCP_RX_COST_NS
        assert self.leaf_rates(rx, True).l2_miss_per_kcycle == \
            self.leaf_rates(rx, False).l2_miss_per_kcycle

    def test_default_keeps_the_dilation(self):
        rx = self.rx_of()
        assert rx.per_seg_ns == (TCP_RX_COST_NS, int(TCP_RX_COST_NS * 1.2))
        assert self.leaf_rates(rx, True).l2_miss_per_kcycle == \
            pytest.approx(self.leaf_rates(rx, False).l2_miss_per_kcycle * 1.2)


class TestPipes:
    def test_pipe_pingpong(self):
        engine = Engine()
        params = KernelParams(ncpus=1, timer_tick_ns=None, minor_fault_prob=0.0,
                              smp_compute_dilation=0.0)
        kernel = Kernel(engine, params, "n", RngHub(1))
        ping, pong = Pipe(kernel), Pipe(kernel)
        rounds = 20
        done = []

        def a(ctx):
            for _ in range(rounds):
                yield from ctx.syscall("sys_write", pipe=ping, nbytes=1)
                yield from ctx.syscall("sys_read", pipe=pong, nbytes=1)
            done.append("a")

        def b(ctx):
            for _ in range(rounds):
                yield from ctx.syscall("sys_read", pipe=ping, nbytes=1)
                yield from ctx.syscall("sys_write", pipe=pong, nbytes=1)
            done.append("b")

        ta = kernel.spawn(a, "a", cpus_allowed={0})
        tb = kernel.spawn(b, "b", cpus_allowed={0})
        engine.run(until=10 * SEC)
        assert done == ["a", "b"] or done == ["b", "a"]
        # every hop is a voluntary context switch
        assert ta.nvcsw >= rounds

    def test_pipe_capacity_blocks_writer(self):
        engine = Engine()
        params = KernelParams(ncpus=1, timer_tick_ns=None)
        kernel = Kernel(engine, params, "n", RngHub(1))
        pipe = Pipe(kernel, capacity=10)
        progress = []

        def writer(ctx):
            yield from ctx.syscall("sys_write", pipe=pipe, nbytes=8)
            progress.append("first")
            yield from ctx.syscall("sys_write", pipe=pipe, nbytes=8)
            progress.append("second")

        def reader(ctx):
            yield from ctx.sleep(50 * MSEC)
            yield from ctx.syscall("sys_read", pipe=pipe, nbytes=8)

        kernel.spawn(writer, "w")
        kernel.spawn(reader, "r")
        engine.run(until=1 * SEC)
        assert progress == ["first", "second"]
        assert pipe.used == 8  # second write delivered after the read


class TestLoopbackIsCrossNodeFree:
    def test_same_kernel_socket_works(self):
        """Intra-node (loopback-ish) stream still delivers."""
        engine = Engine()
        params = KernelParams(ncpus=2, timer_tick_ns=None)
        kernel = Kernel(engine, params, "solo", RngHub(1))
        sock = StreamSocket(kernel, kernel, sock_id=9)
        got = transfer(engine, kernel, kernel, sock, 6000)
        assert got and got[0][1] == 6000
