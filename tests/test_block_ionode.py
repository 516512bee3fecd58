"""Tests for the block-I/O subsystem and the I/O-node scenario."""

import pytest

from repro.core.config import KtauBuildConfig
from repro.experiments.ionode import run_ionode
from repro.kernel.block import BlockDevice
from repro.kernel.irq import KSpan
from repro.kernel.kernel import Kernel
from repro.kernel.params import KernelParams
from repro.sim.engine import Engine
from repro.sim.rng import RngHub
from repro.sim.units import MSEC, SEC
from repro.workloads.ionode import IoNodeParams


def make_kernel(ktau=None):
    engine = Engine()
    params = KernelParams(ncpus=2, timer_tick_ns=None, minor_fault_prob=0.0,
                          smp_compute_dilation=0.0,
                          ktau=ktau if ktau is not None else KtauBuildConfig())
    return engine, Kernel(engine, params, "io", RngHub(1))


def spans_built_by_writes(monkeypatch, ktau=None):
    """Four cached and one synced write through a fresh device; returns
    the device and the names of the ``KSpan``s built once it exists."""
    engine, kernel = make_kernel(ktau)
    dev = BlockDevice(kernel)
    built = []
    init = KSpan.__init__

    def spy_init(self, name, *args, **kwargs):
        built.append(name)
        init(self, name, *args, **kwargs)

    def app(ctx):
        for _ in range(4):
            yield from ctx.syscall("sys_pwrite64", dev=dev, nbytes=100_000)
        yield from ctx.syscall("sys_pwrite64", dev=dev, nbytes=100_000,
                               sync=True)

    monkeypatch.setattr(KSpan, "__init__", spy_init)
    kernel.spawn(app, "writer")
    engine.run(until=10 * SEC)
    return dev, built


class TestBlockDevice:
    def test_sync_write_blocks_for_seek_and_transfer(self):
        engine, kernel = make_kernel()
        dev = BlockDevice(kernel)
        times = []

        def app(ctx):
            yield from ctx.syscall("sys_pwrite64", dev=dev, nbytes=1_000_000,
                                   sync=True)
            times.append(ctx.now)

        kernel.spawn(app, "writer")
        engine.run(until=10 * SEC)
        # >= seek (6ms) + 1MB at 35MB/s (~28.6ms)
        assert times and times[0] >= 34 * MSEC
        assert dev.requests_completed == 1
        assert dev.bytes_written == 1_000_000

    def test_async_write_returns_immediately(self):
        engine, kernel = make_kernel()
        dev = BlockDevice(kernel)
        times = []

        def app(ctx):
            yield from ctx.syscall("sys_pwrite64", dev=dev, nbytes=1_000_000)
            times.append(ctx.now)

        kernel.spawn(app, "writer")
        engine.run(until=10 * SEC)
        assert times[0] < 2 * MSEC  # write-cache: only the submit path
        assert dev.requests_completed == 1  # device drained eventually

    def test_fsync_waits_for_drain(self):
        engine, kernel = make_kernel()
        dev = BlockDevice(kernel)
        times = {}

        def app(ctx):
            for _ in range(3):
                yield from ctx.syscall("sys_pwrite64", dev=dev, nbytes=500_000)
            times["submitted"] = ctx.now
            yield from ctx.syscall("sys_fsync", dev=dev)
            times["durable"] = ctx.now

        kernel.spawn(app, "writer")
        engine.run(until=10 * SEC)
        assert times["durable"] - times["submitted"] >= 30 * MSEC
        assert dev.idle

    def test_fsync_on_idle_device_is_fast(self):
        engine, kernel = make_kernel()
        dev = BlockDevice(kernel)
        times = []

        def app(ctx):
            yield from ctx.syscall("sys_fsync", dev=dev)
            times.append(ctx.now)

        kernel.spawn(app, "writer")
        engine.run(until=1 * SEC)
        assert times[0] < 1 * MSEC

    def test_streaming_writes_amortize_seek(self):
        engine, kernel = make_kernel()
        dev = BlockDevice(kernel)
        times = []

        def app(ctx):
            # async streaming keeps the queue busy: the elevator sees
            # back-to-back requests and skips most of the positioning
            for _ in range(5):
                yield from ctx.syscall("sys_pwrite64", dev=dev, nbytes=100_000)
            yield from ctx.syscall("sys_fsync", dev=dev)
            times.append(ctx.now)

        kernel.spawn(app, "writer")
        engine.run(until=10 * SEC)
        # 5 cold seeks would cost 30ms alone; streaming pays ~1 cold + 4 warm
        transfer = 5 * (100_000 * SEC) // 35_000_000
        assert times[0] < transfer + 14 * MSEC

    def test_sync_writes_pay_cold_seeks(self):
        engine, kernel = make_kernel()
        dev = BlockDevice(kernel)
        times = []

        def app(ctx):
            for _ in range(5):
                yield from ctx.syscall("sys_pwrite64", dev=dev, nbytes=100_000,
                                       sync=True)
            times.append(ctx.now)

        kernel.spawn(app, "writer")
        engine.run(until=10 * SEC)
        transfer = 5 * (100_000 * SEC) // 35_000_000
        assert times[0] >= transfer + 5 * 6 * MSEC  # every seek cold

    def test_ktau_records_block_path(self):
        engine, kernel = make_kernel()
        dev = BlockDevice(kernel)

        def app(ctx):
            yield from ctx.syscall("sys_pwrite64", dev=dev, nbytes=200_000,
                                   sync=True)

        task = kernel.spawn(app, "writer")
        engine.run(until=10 * SEC)
        data = kernel.ktau.zombies[task.pid]
        reg = kernel.ktau.registry
        names = {reg.name_of(eid) for eid in data.profile}
        assert {"sys_pwrite64", "generic_make_request", "__make_request"} <= names
        # completion ran in interrupt context (swapper here: writer slept)
        swapper = kernel.ktau.tasks[0]
        swapper_names = {reg.name_of(eid) for eid in swapper.profile}
        assert {"ide_intr", "end_request"} <= swapper_names
        # the atomic request-size event was recorded
        bio_id = reg.id_of("io.bio_bytes")
        assert swapper.atomic[bio_id].sum == 200_000


    def test_vanilla_completions_build_no_spans(self, monkeypatch):
        """An unpatched kernel records nothing, so a completion builds no
        span: the device's chains are built with the device."""
        dev, built = spans_built_by_writes(monkeypatch,
                                           KtauBuildConfig.vanilla())
        assert dev.requests_completed == 5
        assert built == []

    def test_patched_completions_build_no_spans(self, monkeypatch):
        """A patched kernel records each completion through the device's
        chains, the request size as ``end_request``'s value."""
        dev, built = spans_built_by_writes(monkeypatch)
        assert dev.requests_completed == 5
        assert built == []


class TestIoNodeScenario:
    PARAMS = IoNodeParams(nrequests=6, request_bytes=32_768, think_ns=2 * MSEC,
                          fsync_every=3)

    def test_all_requests_acknowledged(self):
        result = run_ionode(nclients=2, params=self.PARAMS, seed=5)
        for stats in result.client_stats:
            assert len(stats.latencies_ns) == self.PARAMS.nrequests
        assert result.disk_requests == 2 * self.PARAMS.nrequests
        assert result.disk_bytes == 2 * self.PARAMS.nrequests * 32_768

    def test_latency_grows_with_fanin(self):
        small = run_ionode(nclients=1, params=self.PARAMS, seed=5)
        large = run_ionode(nclients=6, params=self.PARAMS, seed=5)
        assert large.mean_latency_ms() > 1.5 * small.mean_latency_ms()

    def test_ciod_kernel_breakdown_visible(self):
        result = run_ionode(nclients=2, params=self.PARAMS, seed=5)
        assert result.ciod_groups.get("net", 0.0) > 0
        assert result.ciod_groups.get("io", 0.0) > 0
        assert result.ciod_groups.get("sched", 0.0) > 0

    def test_sync_writes_slower_than_cached(self):
        cached = run_ionode(nclients=2, params=self.PARAMS, seed=5)
        sync_params = IoNodeParams(nrequests=6, request_bytes=32_768,
                                   think_ns=2 * MSEC, fsync_every=0,
                                   sync_writes=True)
        synced = run_ionode(nclients=2, params=sync_params, seed=5)
        assert synced.mean_latency_ms() > cached.mean_latency_ms()
