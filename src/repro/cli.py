"""Command-line interface: ``python -m repro <command>``.

Unix-like clients in the spirit of the paper's runKtau, plus one command
per reproduced table/figure so the whole evaluation can be regenerated
from a shell.

Every subcommand accepts the shared observability flags: ``--metrics``
(print a harness metrics snapshot on exit), ``--trace-out FILE`` (write
a Chrome trace-event file plus a ``*.manifest.json`` run manifest), and
``--log-level`` (route status chatter through :mod:`logging`).  Like
KTAU itself, the instrumentation costs nothing when it is off.
"""

from __future__ import annotations

import argparse
import logging
import sys

log = logging.getLogger("repro.cli")


def _cmd_run(args: argparse.Namespace) -> int:
    """runktau: time a canned program and print its kernel profile."""
    from repro.core.clients.runktau import run_ktau
    from repro.kernel.kernel import Kernel
    from repro.kernel.params import KernelParams
    from repro.sim.engine import Engine
    from repro.sim.rng import RngHub
    from repro.sim.units import MSEC, SEC

    engine = Engine()
    kernel = Kernel(engine, KernelParams(), "node0", RngHub(args.seed))

    def program(ctx):
        for _ in range(args.iterations):
            yield from ctx.compute(args.compute_ms * MSEC)
            yield from ctx.sleep(args.sleep_ms * MSEC)
            yield from ctx.syscall("sys_getppid")

    result = run_ktau(kernel, program, comm=args.name)
    engine.run(until=600 * SEC)
    print(result.report())
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which == 1:
        from repro.analysis.related_work import render_table1
        print(render_table1())
    elif args.which == 2:
        from repro.experiments import table2
        log.info("running 10 cluster simulations (a few minutes) ...")
        print(table2.render(table2.build()))
    elif args.which == 3:
        from repro.experiments import table3
        log.info("running the perturbation matrix ...")
        rows = table3.build(seeds=tuple(range(1, args.seeds + 1)),
                            workers=args.workers)
        print(table3.render(rows))
    elif args.which == 4:
        from repro.experiments import table4
        print(table4.render(table4.build()))
    else:
        print(f"no table {args.which} in the paper", file=sys.stderr)
        return 2
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.experiments import chiba, fig3, fig4, fig5_6, fig7, fig8, fig9_10
    from repro.experiments.common import STANDARD_CHIBA_CONFIGS

    which = args.which
    if which == 2:
        from repro.experiments import fig2_controlled as f2
        result = f2.run_fig2_all(seed=args.seed, workers=args.workers)
        print(f2.render_ab(result.ab))
        print(f2.render_c(result.c))
        print(f2.render_e(result.e))
        return 0
    if which in (3, 4):
        data = chiba.get_run(STANDARD_CHIBA_CONFIGS[1], "lu")
        if which == 3:
            print(fig3.render(fig3.build(data)))
        else:
            print(fig4.render(fig4.build(data)))
        return 0
    if which in (5, 6):
        runs = chiba.get_standard_runs("lu", workers=args.workers)
        kind = "voluntary" if which == 5 else "involuntary"
        print(fig5_6.render(fig5_6.build(runs, kind)))
        return 0
    if which == 7:
        data = chiba.get_run(STANDARD_CHIBA_CONFIGS[1], "lu")
        print(fig7.render(fig7.build(data)))
        return 0
    if which == 8:
        runs = chiba.get_standard_runs("lu", workers=args.workers)
        print(fig8.render(fig8.build(runs)))
        return 0
    if which in (9, 10):
        chiba.prefetch("sweep3d", configs=tuple(fig9_10.FIG9_CONFIGS),
                       workers=args.workers)
        runs = {c.label: chiba.get_run(c, "sweep3d")
                for c in fig9_10.FIG9_CONFIGS}
        if which == 9:
            print(fig9_10.render_fig9(fig9_10.build_fig9(runs)))
        else:
            print(fig9_10.render_fig10(fig9_10.build_fig10(runs)))
        return 0
    print(f"no figure {which} in the paper's evaluation", file=sys.stderr)
    return 2


def _cmd_noise(args: argparse.Namespace) -> int:
    """The OS-noise amplification sweep (the paper's motivating problem)."""
    from repro.experiments import noise

    scales = tuple(int(s) for s in args.scales.split(","))
    results = noise.amplification_sweep(scales, seed=args.seed,
                                        workers=args.workers)
    print(noise.render(results))
    return 0


def _cmd_lmbench(args: argparse.Namespace) -> int:
    from repro.cluster.machines import make_chiba, make_neutron
    from repro.sim.units import SEC
    from repro.workloads.lmbench import bw_tcp, lat_ctx, lat_syscall

    cluster = make_neutron(seed=args.seed)
    lat = lat_syscall(cluster.nodes[0].kernel, iterations=2000)
    cluster.engine.run(until=60 * SEC)
    print(f"lat_syscall: {lat.per_op_us:.2f} us")

    cluster = make_neutron(seed=args.seed + 1)
    ctxres = lat_ctx(cluster.nodes[0].kernel, rounds=1000)
    cluster.engine.run(until=60 * SEC)
    print(f"lat_ctx:     {ctxres.per_op_us:.2f} us")

    cluster = make_chiba(nnodes=2, seed=args.seed)
    bw = bw_tcp(cluster.nodes[0].kernel, cluster.nodes[1].kernel,
                cluster.network)
    cluster.engine.run(until=60 * SEC)
    print(f"bw_tcp:      {bw.mb_per_s:.2f} MiB/s")
    return 0


def _cmd_ionode(args: argparse.Namespace) -> int:
    from repro.experiments.ionode import render, scaling_sweep
    from repro.workloads.ionode import IoNodeParams
    from repro.sim.units import MSEC

    params = IoNodeParams(nrequests=args.requests, request_bytes=args.bytes,
                          think_ns=4 * MSEC, fsync_every=8)
    counts = tuple(int(c) for c in args.clients.split(","))
    print(render(scaling_sweep(counts, params, seed=args.seed)))
    return 0


def _cmd_compare_sampling(args: argparse.Namespace) -> int:
    from repro.oprofile.harness import run_comparison
    from repro.oprofile.compare import render_comparison, sampling_blindness_s

    rows, daemon = run_comparison()
    print(render_comparison(rows, top=16))
    print(f"scheduling wait invisible to sampling: "
          f"{sampling_blindness_s(rows):.3f}s")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    from repro.analysis.stats import (kernel_event_stats, most_imbalanced,
                                      render_stats, user_event_stats)
    from repro.experiments import chiba
    from repro.experiments.common import STANDARD_CHIBA_CONFIGS

    config = next(c for c in STANDARD_CHIBA_CONFIGS if c.label == args.config)
    data = chiba.get_run(config, "lu")
    print(render_stats(user_event_stats(data, inclusive=True),
                       title=f"user routines across ranks ({args.config})"))
    print(render_stats(kernel_event_stats(data),
                       title=f"kernel events across ranks ({args.config})"))
    flagged = most_imbalanced(user_event_stats(data, inclusive=True))
    print("most imbalanced routines: "
          + ", ".join(f"{s.name} ({s.imbalance:.1f}x)" for s in flagged))
    return 0


def _cmd_obs(args: argparse.Namespace) -> int:
    """Observability demo: run a small instrumented workload and print
    the harness metrics snapshot as JSON."""
    import json

    from repro import obs
    from repro.core.clients.runktau import run_ktau
    from repro.kernel.kernel import Kernel
    from repro.kernel.params import KernelParams
    from repro.sim.engine import Engine
    from repro.sim.rng import RngHub
    from repro.sim.units import MSEC, SEC

    # The demo force-enables metrics (keeping tracing as the shared
    # flags left it) so it is useful even without --metrics; if the
    # shared flags did not already enable observability, turn it back
    # off on the way out so in-process callers see no ambient state.
    was_enabled = obs.runtime.enabled()
    obs.runtime.enable(metrics=True, tracing=obs.runtime.tracing_on,
                       progress=False)
    try:
        with obs.span("obs.demo", "cli"):
            engine = Engine()
            kernel = Kernel(engine, KernelParams(), "node0",
                            RngHub(args.seed))

            def program(ctx):
                for _ in range(args.iterations):
                    yield from ctx.compute(2 * MSEC)
                    yield from ctx.syscall("sys_read")
                    yield from ctx.sleep(1 * MSEC)

            result = run_ktau(kernel, program, comm="obs-demo")
            engine.run(until=60 * SEC)
            log.info("demo program ran for %.3f s simulated",
                     result.elapsed_ns / SEC)
        print(json.dumps(obs.snapshot(), indent=2, sort_keys=True))
    finally:
        if not was_enabled:
            obs.runtime.disable()
    return 0


def _cmd_ktaud(args: argparse.Namespace) -> int:
    """Run a workload under a KTAUD daemon and dump its periodic
    snapshots as canonical JSON (the paper's online-monitoring mode)."""
    from repro.analysis.export import ktaud_snapshots_to_json
    from repro.core.clients.ktaud import Ktaud
    from repro.core.clients.runktau import run_ktau
    from repro.core.config import KtauBuildConfig
    from repro.kernel.kernel import Kernel
    from repro.kernel.params import KernelParams
    from repro.sim.engine import Engine
    from repro.sim.rng import RngHub
    from repro.sim.units import MSEC, SEC

    engine = Engine()
    # Draining traces needs a kernel built with tracing (default ring).
    build = (KtauBuildConfig().with_tracing() if args.drain_traces
             else KtauBuildConfig())
    kernel = Kernel(engine, KernelParams(ktau=build), "node0",
                    RngHub(args.seed))

    def program(ctx):
        for _ in range(args.iterations):
            yield from ctx.compute(args.compute_ms * MSEC)
            yield from ctx.syscall("sys_write")
            yield from ctx.sleep(args.sleep_ms * MSEC)

    run_ktau(kernel, program, comm=args.name)
    daemon = Ktaud(kernel, period_ns=args.period_ms * MSEC,
                   drain_traces=args.drain_traces)
    daemon.start()
    engine.run(until=args.duration_s * SEC)
    payload = ktaud_snapshots_to_json(daemon.snapshots)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
        log.info("wrote %d KTAUD snapshots to %s",
                 len(daemon.snapshots), args.out)
    else:
        print(payload)
    return 0


def _cmd_monitor(args: argparse.Namespace) -> int:
    """Online cluster monitor: run a monitored experiment, render the
    terminal dashboard, and optionally write the integrated user/kernel
    timeline and the alert log."""
    from repro.analysis.export import canonical_json
    from repro.monitor import (MonitorConfig, alerts_to_doc,
                               render_dashboard)
    from repro.obs.tracer import validate_trace_events
    from repro.sim.units import MSEC

    config = MonitorConfig(period_ns=args.period_ms * MSEC)
    timeline = None

    if args.experiment == "fig2":
        log.info("running the monitored Figure 2-A/B experiment ...")
        from repro.experiments import fig2_controlled as f2
        result = f2.run_fig2ab(seed=args.seed, monitor_config=config)
        data = result.monitor
        timeline = result.timeline
        assert data is not None
        print(render_dashboard(data))
        flagged = data.alert_nodes()
        print(f"\nperturbed node (ground truth): {result.perturbed_node}")
        print("nodes flagged by the monitor:  "
              + (", ".join(flagged) if flagged else "none"))
    elif args.experiment == "noise":
        log.info("running one monitored noise point (clean + noisy) ...")
        from repro.experiments import noise
        point = noise.run_noise_point(args.nodes, seed=args.seed,
                                      monitor_config=config,
                                      workers=args.workers)
        data = point.monitor_noisy
        assert data is not None
        print(render_dashboard(data))
        print()
        print(noise.render([point]))
    elif args.experiment == "chiba":
        log.info("running one monitored chiba configuration ...")
        from repro.experiments.common import (ChibaConfig, bench_lu_params,
                                              run_monitored_chiba_app)
        chiba_config = ChibaConfig(label="monitored", nranks=16,
                                   procs_per_node=2, seed=args.seed)
        run = run_monitored_chiba_app(chiba_config, "lu",
                                      bench_lu_params(0.25), config)
        data, timeline = run.monitor, run.timeline
        assert data is not None
        print(render_dashboard(data))
    else:  # demo: a small cluster with one planted cycle stealer
        from repro.cluster.daemons import start_busy_daemon
        from repro.cluster.launch import block_placement
        from repro.cluster.machines import make_chiba
        from repro.experiments.bottleneck import NOISE_LU
        from repro.experiments.common import run_job
        from repro.monitor import integrated_timeline
        from repro.workloads.lu import lu_app

        cluster = make_chiba(nnodes=4, seed=args.seed)
        start_busy_daemon(cluster.nodes[2], pin_cpu=0,
                          period_ns=80 * MSEC, busy_ns=30 * MSEC)
        # Ranks pinned to their slot CPU, so the planted cycle stealer
        # on ccn002's CPU0 genuinely contends with that node's rank.
        job, monitor, _injected = run_job(
            cluster, 4, lu_app(NOISE_LU), limit_s=600,
            monitor_config=config, placement=block_placement(1, 4),
            pin=True, comm_prefix="lu")
        data = monitor.harvest()
        timeline = integrated_timeline(data, job)
        cluster.teardown()
        print(render_dashboard(data))

    if args.timeline_out:
        if timeline is None:
            log.warning("this experiment produced no timeline")
        else:
            spans, instants = validate_trace_events(timeline)
            with open(args.timeline_out, "w", encoding="utf-8") as fh:
                fh.write(timeline)
            log.info("wrote integrated timeline (%d spans, %d instants) "
                     "to %s", spans, instants, args.timeline_out)
    if args.alerts_out:
        payload = canonical_json({"experiment": args.experiment,
                                  "seed": args.seed,
                                  "period_ns": config.period_ns,
                                  "alerts": alerts_to_doc(data.alerts)})
        with open(args.alerts_out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        log.info("wrote %d alerts to %s", len(data.alerts), args.alerts_out)
    return 0


def _cmd_analyze(args: argparse.Namespace) -> int:
    """Post-mortem analytics over traced runs.  ``bottlenecks`` runs a
    traced experiment, prints the lost-time attribution report, and for
    the fig2 scenario exits 1 unless the perturbed node is the top
    blocker (the CI demo gate).  ``counters`` runs the §6 counter-view
    demo and exits 1 unless the cache thrasher is caught by the counter
    dimension alone."""
    if args.what == "counters":
        return _cmd_analyze_counters(args)
    from repro.analysis.bottlenecks import render_report, report_to_json
    from repro.experiments import bottleneck as bn
    from repro.monitor import BOTTLENECK, MonitorConfig
    from repro.sim.units import MSEC

    monitor_config = None
    if args.monitored or args.experiment == "fig2":
        monitor_config = MonitorConfig(period_ns=args.period_ms * MSEC,
                                       bottleneck_top_k=args.top_k)
    runner = {"fig2": bn.run_bottleneck_fig2,
              "lu": bn.run_bottleneck_lu,
              "noise": bn.run_bottleneck_noise,
              "chiba": bn.run_bottleneck_chiba}[args.experiment]
    log.info("running the traced %s experiment ...", args.experiment)
    result = runner(seed=args.seed, top_k=args.top_k,
                    monitor_config=monitor_config)
    report = result.report
    print(render_report(report))

    ok = True
    if result.monitor is not None:
        streamed = [a for a in result.monitor.alerts
                    if a.kind == BOTTLENECK]
        for alert in streamed:
            print("online: " + alert.describe())
    if result.perturbed_node is not None:
        print(f"\nperturbed node (ground truth): {result.perturbed_node}")
        print(f"top blocker (offline report):  {report.top_blocker}")
        if args.experiment == "fig2":
            ok = report.top_blocker == result.perturbed_node
            if result.monitor is not None:
                streamed_nodes = {a.node for a in result.monitor.alerts
                                  if a.kind == BOTTLENECK}
                online = result.perturbed_node in streamed_nodes
                print("online BOTTLENECK alert:       "
                      + ("matches" if online else "MISSING"))
                ok = ok and online
            if not ok:
                log.error("attribution failed to rank the perturbed node "
                          "first")
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(report_to_json(report))
        log.info("wrote bottleneck report to %s", args.report_out)
    return 0 if ok else 1


def _cmd_analyze_counters(args: argparse.Namespace) -> int:
    """The counter-dimension demo behind ``repro analyze counters``:
    a monitored counters-build LU run with a cache thrasher that only
    the PMU miss-rate detector can see.  Exits 1 unless counter-only
    detection holds (the CI gate for the §6 extension).  Ignores
    ``--period-ms``/``--top-k`` — the demo runs the default monitor
    configuration so nothing is tuned toward its conclusion."""
    from repro.analysis.export import canonical_json
    from repro.experiments.counters_demo import render_demo, run_counters_demo

    log.info("running the monitored counters demo ...")
    result = run_counters_demo(seed=args.seed)
    print(render_demo(result))
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(result.to_doc()))
        log.info("wrote counters report to %s", args.report_out)
    if not result.counter_only_detection:
        log.error("counter-only detection failed: counter outliers on %s, "
                  "time outliers on %s", result.counter_outlier_nodes,
                  result.time_outlier_nodes)
        return 1
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Chaos harness: run an experiment under a named fault plan and
    check the detection/recovery invariants (exit 1 on any violation)."""
    from repro.faults.chaos import scenario_names

    if args.list_plans:
        for name in scenario_names():
            print(name)
        return 0
    if args.plan not in scenario_names():
        log.error("unknown fault plan %r; try one of: %s", args.plan,
                  ", ".join(scenario_names()))
        return 2
    from repro.analysis.export import canonical_json
    from repro.experiments.chaos import run_chaos

    log.info("running %s under the %r fault plan (baseline + faulted "
             "+ repeat) ...", args.experiment, args.plan)
    report = run_chaos(args.plan, experiment=args.experiment,
                       seed=args.seed)
    print(report.describe())
    if args.alerts_out:
        with open(args.alerts_out, "w", encoding="utf-8") as fh:
            fh.write(report.alerts_json)
        log.info("wrote faulted-run monitor JSON to %s", args.alerts_out)
    if args.report_out:
        with open(args.report_out, "w", encoding="utf-8") as fh:
            fh.write(canonical_json(report.to_doc()))
        log.info("wrote chaos report to %s", args.report_out)
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests/completion)."""
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro",
        description="KTAU reproduction (CLUSTER 2006) command-line tools")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    # Shared observability/diagnostic flags.  argparse only parses flags
    # that come *after* the subcommand from the subparser, so these ride
    # along as a parent of every subparser rather than on the root.
    common = argparse.ArgumentParser(add_help=False)
    obs_group = common.add_argument_group("observability")
    obs_group.add_argument("--metrics", action="store_true",
                           help="collect harness metrics and print a "
                                "snapshot on exit")
    obs_group.add_argument("--trace-out", metavar="FILE", default=None,
                           help="write a Chrome trace-event file (plus "
                                "FILE.manifest.json) for this run")
    obs_group.add_argument("--log-level", default="warning",
                           choices=("debug", "info", "warning", "error"),
                           help="harness log verbosity (default: warning)")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    run = add_parser("runktau", help="time a canned program under runKtau")
    run.add_argument("--name", default="job")
    run.add_argument("--iterations", type=int, default=5)
    run.add_argument("--compute-ms", type=int, default=8)
    run.add_argument("--sleep-ms", type=int, default=3)
    run.add_argument("--seed", type=int, default=42)
    run.set_defaults(func=_cmd_run)

    workers_help = ("worker processes for independent simulations "
                    "(default: $REPRO_WORKERS or serial)")

    table = add_parser("table", help="regenerate a paper table (1-4)")
    table.add_argument("which", type=int, choices=(1, 2, 3, 4))
    table.add_argument("--seeds", type=int, default=3,
                       help="seeds for the perturbation table")
    table.add_argument("--workers", "-j", type=int, default=None,
                       help=workers_help)
    table.set_defaults(func=_cmd_table)

    figure = add_parser("figure", help="regenerate a paper figure (2-10)")
    figure.add_argument("which", type=int, choices=tuple(range(2, 11)))
    figure.add_argument("--seed", type=int, default=1)
    figure.add_argument("--workers", "-j", type=int, default=None,
                       help=workers_help)
    figure.set_defaults(func=_cmd_figure)

    noise = add_parser("noise",
                       help="OS-noise amplification sweep (paper §1)")
    noise.add_argument("--scales", default="4,16,64",
                       help="comma-separated node counts")
    noise.add_argument("--seed", type=int, default=1)
    noise.add_argument("--workers", "-j", type=int, default=None,
                       help=workers_help)
    noise.set_defaults(func=_cmd_noise)

    lm = add_parser("lmbench", help="run the LMBENCH-style probes")
    lm.add_argument("--seed", type=int, default=5)
    lm.set_defaults(func=_cmd_lmbench)

    io = add_parser("ionode", help="run the I/O-node scaling extension")
    io.add_argument("--clients", default="1,2,4,8")
    io.add_argument("--requests", type=int, default=12)
    io.add_argument("--bytes", type=int, default=65_536)
    io.add_argument("--seed", type=int, default=1)
    io.set_defaults(func=_cmd_ionode)

    cmp_ = add_parser("compare-sampling",
                      help="direct measurement vs OProfile-like sampling")
    cmp_.set_defaults(func=_cmd_compare_sampling)

    # main() hands everything after "lint" to repro.lint.cli verbatim;
    # this entry only lists the subcommand in --help.
    sub.add_parser("lint", add_help=False,
                   help="run ktaulint static analysis "
                        "(same arguments as python -m repro.lint)")

    stats = add_parser("stats",
                       help="ParaProf-style cross-rank statistics")
    stats.add_argument("--config", default="64x2 Anomaly",
                       choices=["128x1", "64x2 Anomaly", "64x2",
                                "64x2 Pinned", "64x2 Pin,I-Bal"])
    stats.set_defaults(func=_cmd_stats)

    obs = add_parser("obs", help="observability demo: metrics snapshot of "
                                 "a small instrumented run")
    obs.add_argument("--iterations", type=int, default=10)
    obs.add_argument("--seed", type=int, default=42)
    obs.set_defaults(func=_cmd_obs)

    monitor = add_parser("monitor",
                         help="online cluster monitor: streaming KTAUD "
                              "aggregation with perturbation detection")
    monitor.add_argument("--experiment",
                         choices=("fig2", "noise", "chiba", "demo"),
                         default="fig2",
                         help="which monitored run to perform "
                              "(default: the Figure 2-A interference run)")
    monitor.add_argument("--period-ms", type=int, default=100,
                         help="KTAUD extraction period (milliseconds)")
    monitor.add_argument("--nodes", type=int, default=8,
                         help="node count for the noise experiment")
    monitor.add_argument("--seed", type=int, default=1)
    monitor.add_argument("--workers", "-j", type=int, default=None,
                         help=workers_help)
    monitor.add_argument("--timeline-out", metavar="FILE", default=None,
                         help="write the integrated user/kernel Chrome "
                              "trace-event timeline here")
    monitor.add_argument("--alerts-out", metavar="FILE", default=None,
                         help="write the canonical alert log (JSON) here")
    monitor.set_defaults(func=_cmd_monitor)

    analyze = add_parser("analyze",
                         help="post-mortem analytics over traced runs")
    analyze.add_argument("what", choices=("bottlenecks", "counters"),
                         help="which analysis to run (counters = the §6 "
                              "PMU-dimension demo)")
    analyze.add_argument("--experiment",
                         choices=("fig2", "noise", "chiba", "lu"),
                         default="fig2",
                         help="which traced run to analyze (default: the "
                              "perturbed Figure 2-A scenario)")
    analyze.add_argument("--seed", type=int, default=1)
    analyze.add_argument("--top-k", type=int, default=10,
                         help="rows kept in the ranked tables")
    analyze.add_argument("--monitored", action="store_true",
                         help="also run the streaming attributor under an "
                              "online monitor (always on for fig2)")
    analyze.add_argument("--period-ms", type=int, default=100,
                         help="monitor extraction period (milliseconds)")
    analyze.add_argument("--report-out", metavar="FILE", default=None,
                         help="write the canonical report JSON here")
    analyze.set_defaults(func=_cmd_analyze)

    chaos = add_parser("chaos",
                       help="chaos harness: run an experiment under a "
                            "named fault plan and check the "
                            "detection/recovery invariants")
    chaos.add_argument("--plan", default="kill-and-partition",
                       help="named fault plan (see --list-plans)")
    chaos.add_argument("--experiment", choices=("fig2", "lu"),
                       default="fig2",
                       help="which experiment to put under chaos")
    chaos.add_argument("--seed", type=int, default=1)
    chaos.add_argument("--list-plans", action="store_true",
                       help="list registered fault plans and exit")
    chaos.add_argument("--alerts-out", metavar="FILE", default=None,
                       help="write the faulted run's canonical monitor "
                            "JSON (the CI artifact)")
    chaos.add_argument("--report-out", metavar="FILE", default=None,
                       help="write the full chaos report as JSON")
    chaos.set_defaults(func=_cmd_chaos)

    ktaud = add_parser("ktaud", help="run a workload under KTAUD and dump "
                                     "its periodic snapshots as JSON")
    ktaud.add_argument("--name", default="job")
    ktaud.add_argument("--iterations", type=int, default=20)
    ktaud.add_argument("--compute-ms", type=int, default=8)
    ktaud.add_argument("--sleep-ms", type=int, default=3)
    ktaud.add_argument("--period-ms", type=int, default=100,
                       help="KTAUD extraction period (milliseconds)")
    ktaud.add_argument("--duration-s", type=int, default=2,
                       help="simulated seconds to run")
    ktaud.add_argument("--drain-traces", action="store_true",
                       help="also drain per-PID trace buffers each period")
    ktaud.add_argument("--seed", type=int, default=42)
    ktaud.add_argument("--out", default=None,
                       help="write the JSON dump here instead of stdout")
    ktaud.set_defaults(func=_cmd_ktaud)

    return parser


def _configure_logging(level_name: str) -> None:
    level = getattr(logging, level_name.upper(), logging.WARNING)
    logging.basicConfig(level=level,
                        format="[%(levelname)s] %(name)s: %(message)s",
                        stream=sys.stderr)
    logging.getLogger("repro").setLevel(level)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    When ``--metrics`` or ``--trace-out`` is given the whole command
    runs under harness observability: the dispatch is wrapped in a root
    span, and on the way out the trace (plus a run manifest) is written
    and/or the metrics snapshot is printed.  Without the flags this adds
    two boolean checks to the run — observability stays zero-cost off.
    ``repro lint ARGS`` runs ``python -m repro.lint ARGS`` unchanged.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        from repro.lint.cli import main as lint_main
        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    _configure_logging(getattr(args, "log_level", "warning"))
    metrics = getattr(args, "metrics", False)
    trace_out = getattr(args, "trace_out", None)
    if not (metrics or trace_out):
        return args.func(args)

    import json

    from repro import __version__, obs
    from repro.obs.manifest import build_manifest, manifest_path_for

    obs.runtime.enable(metrics=True, tracing=bool(trace_out))
    started_utc = obs.runtime.wall_time_iso()
    t0 = obs.runtime.wall_clock()
    try:
        with obs.span(f"repro.{args.command}", "cli"):
            code = args.func(args)
        wall_s = obs.runtime.wall_clock() - t0
        snapshot = obs.snapshot()
        if trace_out:
            obs.save_trace(trace_out)
            config = {key: value for key, value in sorted(vars(args).items())
                      if key != "func" and not callable(value)}
            manifest = build_manifest(
                command=args.command, argv=argv, config=config,
                wall_s=wall_s, started_utc=started_utc, metrics=snapshot,
                trace_file=trace_out, version=__version__)
            manifest.write(manifest_path_for(trace_out))
            log.info("wrote trace to %s (manifest: %s)", trace_out,
                     manifest_path_for(trace_out))
        if metrics:
            print(json.dumps(snapshot, indent=2, sort_keys=True),
                  file=sys.stderr)
        return code
    finally:
        obs.runtime.disable()


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
