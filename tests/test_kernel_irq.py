"""Tests for interrupt delivery, span chains, and attribution."""

import pytest

from repro.core.config import KtauBuildConfig
from repro.kernel.irq import KSpan
from repro.kernel.kernel import Kernel
from repro.kernel.params import KernelParams
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim.units import MSEC, SEC, USEC


def make_kernel(**kw):
    engine = Engine()
    params = KernelParams(ncpus=2, timer_tick_ns=None, minor_fault_prob=0.0,
                          smp_compute_dilation=0.0, **kw)
    return engine, Kernel(engine, params, "irqtest", RngHub(1))


def runs():
    return [(KSpan("do_IRQ", 4 * USEC, KSpan("eth_interrupt", 1 * USEC)),
             None)]


class TestSpanTree:
    def test_total_ns_nested(self):
        t = KSpan("do_softirq", 10,
                  KSpan("net_rx_action", 5, KSpan("tcp_v4_rcv", 100)))
        assert t.total_ns == 115


class TestDelivery:
    def test_idle_cpu_attributes_to_swapper(self):
        engine, kernel = make_kernel()
        kernel.irq.deliver(0, 5 * USEC, runs())
        swapper = kernel.ktau.tasks[0]
        irq_id = kernel.ktau.registry.id_of("do_IRQ")
        assert swapper.profile[irq_id].count == 1
        # exclusive excludes the child handler cost
        assert swapper.profile[irq_id].excl_cycles == \
            kernel.clock.cycles_for_ns(4 * USEC)

    def test_running_task_attribution_and_stretch(self):
        engine, kernel = make_kernel()
        done = []

        def app(ctx):
            yield from ctx.compute(10 * MSEC)
            done.append(ctx.now)

        task = kernel.spawn(app, "app", cpus_allowed={0})
        # deliver an interrupt mid-burst
        engine.schedule(5 * MSEC,
                        lambda: kernel.irq.deliver(0, 5 * USEC, runs()))
        engine.run_until_idle()
        irq_id = kernel.ktau.registry.id_of("do_IRQ")
        data = kernel.ktau.zombies[task.pid]
        assert data.profile[irq_id].count == 1
        # the burst was stretched by the interrupt cost
        assert done[0] >= 10 * MSEC + 5 * USEC

    def test_multiple_trees_sequential_timestamps(self):
        engine, kernel = make_kernel()
        trees = runs() + [(KSpan("do_softirq", 3 * USEC,
                                 KSpan("net_rx_action", 1 * USEC)), None)]
        work = 4 * USEC + 1 * USEC + 3 * USEC + 1 * USEC
        end = kernel.irq.deliver(0, work, trees)
        # the recording itself charges measurement overhead into the
        # interrupt (Table 4 costs), so the end slips past the raw work
        assert engine.now + work <= end <= engine.now + work + 50 * USEC
        swapper = kernel.ktau.tasks[0]
        softirq_id = kernel.ktau.registry.id_of("do_softirq")
        irq_id = kernel.ktau.registry.id_of("do_IRQ")
        # stack discipline preserved: both completed cleanly
        assert not swapper.stack
        assert swapper.profile[softirq_id].count == 1
        assert swapper.profile[irq_id].count == 1

    def test_irq_counts(self):
        engine, kernel = make_kernel()
        for _ in range(3):
            kernel.irq.deliver(1, 5 * USEC, runs())
        assert kernel.irq.irq_counts == [0, 3]

    def test_vanilla_kernel_records_nothing(self):
        engine = Engine()
        params = KernelParams(ncpus=1, timer_tick_ns=None,
                              ktau=KtauBuildConfig.vanilla())
        kernel = Kernel(engine, params, "vanilla", RngHub(1))
        end = kernel.irq.deliver(0, 5 * USEC, runs())
        assert end == engine.now + 5 * USEC
        assert kernel.ktau.registry.bound_count == 0
        # and records nothing without runs either
        end = kernel.irq.deliver(0, 5 * USEC)
        assert end == engine.now + 5 * USEC
        assert kernel.ktau.registry.bound_count == 0


    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "deliver stamps interrupt spans with clock.cycles_at(now), which "
        "omits the clock's boot offset; every other record uses "
        "clock.read()"))
    def test_interrupt_and_syscall_records_share_a_time_base(self):
        """One task's interrupt records and syscall records are stamped
        on one TSC: an interrupt delivered between two syscalls lies
        between their records."""
        engine = Engine()
        params = KernelParams(ncpus=1, timer_tick_ns=None,
                              minor_fault_prob=0.0,
                              ktau=KtauBuildConfig().with_tracing())
        kernel = Kernel(engine, params, "timebase", RngHub(1))
        assert kernel.clock.boot_offset_cycles > 0

        def app(ctx):
            yield from ctx.syscall("sys_getppid")
            yield from ctx.compute(10 * MSEC)
            yield from ctx.syscall("sys_getppid")

        task = kernel.spawn(app, "app")
        engine.schedule(5 * MSEC,
                        lambda: kernel.irq.deliver(0, 5 * USEC, runs()))
        engine.run_until_idle()
        reg = kernel.ktau.registry
        stamps = {}
        for cycles, event_id, _kind, _value in (
                kernel.ktau.zombies[task.pid].trace.peek()):
            stamps.setdefault(reg.name_of(event_id), []).append(cycles)
        syscalls, irqs = stamps["sys_getppid"], stamps["do_IRQ"]
        assert len(syscalls) == 4 and len(irqs) == 2
        assert syscalls[1] < min(irqs) <= max(irqs) < syscalls[2]


class TestTimerTick:
    def test_ticks_record_timer_interrupts(self):
        engine = Engine()
        params = KernelParams(ncpus=2, minor_fault_prob=0.0)
        kernel = Kernel(engine, params, "ticky", RngHub(1))
        engine.run(until=200 * MSEC)
        tick_id = kernel.ktau.registry.id_of("smp_apic_timer_interrupt")
        assert tick_id is not None
        swapper = kernel.ktau.tasks[0]
        # 2 CPUs x ~20 ticks in 200ms at HZ=100
        assert 30 <= swapper.profile[tick_id].count <= 50

    def test_timer_softirq_periodically(self):
        engine = Engine()
        params = KernelParams(ncpus=1, minor_fault_prob=0.0)
        kernel = Kernel(engine, params, "ticky", RngHub(1))
        engine.run(until=2 * SEC)
        softirq_id = kernel.ktau.registry.id_of("run_timer_softirq")
        assert softirq_id is not None
