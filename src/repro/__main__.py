"""Command-line front door: run the examples or a quick self-check.

    python -m repro list                  # available demos
    python -m repro quickstart            # run one demo
    python -m repro selfcheck             # 30-second end-to-end check
    python -m repro trace <scenario>      # emit a Chrome trace (see --help)
    python -m repro profile <scenario>    # host-side cProfile rollup (see --help)
    python -m repro chaos <scenario>      # fault injection + self-healing (see --help)
    python -m repro service --tenants N   # multi-tenant checkpoint service (see --help)
"""

from __future__ import annotations

import runpy
import sys
from pathlib import Path

_EXAMPLES = {
    "quickstart": "checkpoint -> kill -> restart on another node",
    "mpi_checkpoint": "checkpoint a live 8-rank OpenMPI job, migrate all ranks",
    "desktop_session": "interval checkpointing + workspace migration",
    "debug_replay": "debug-from-checkpoint use case",
    "workspace_to_laptop": "export a workspace to a real file, revive elsewhere",
}


def _examples_dir() -> Path:
    here = Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "examples"
        if (candidate / "quickstart.py").exists():
            return candidate
    raise SystemExit("examples/ directory not found next to the package")


def _selfcheck() -> None:
    from repro.cluster import build_cluster
    from repro.core.launch import DmtcpComputation

    world = build_cluster(n_nodes=2, seed=0)
    ticks: list = []

    def app(sys_, argv):
        for i in range(20):
            yield from sys_.sleep(0.1)
            ticks.append(i)

    world.register_program("app", app)
    comp = DmtcpComputation(world)
    comp.launch("node00", "app")
    world.engine.run(until=1.0)
    outcome = comp.checkpoint(kill=True)
    comp.restart(placement={"node00": "node01"})
    world.engine.run(until=world.engine.now + 10.0)
    assert ticks == list(range(20)), "self-check failed: ticks lost"
    print(
        f"self-check OK: checkpoint {outcome.duration * 1000:.0f} ms, "
        f"{outcome.total_stored_bytes / 2**20:.1f} MB image, restarted on node01, "
        "no work lost"
    )


def _trace(argv: list[str]) -> int:
    """`python -m repro trace [scenario] [--seed N] [--out PATH] [--jsonl PATH]`.

    Runs a traced end-to-end scenario and writes a Chrome trace_event
    file (open in chrome://tracing or https://ui.perfetto.dev), plus an
    optional JSONL dump.
    """
    import argparse

    from repro.core.stats import CKPT_STAGES, RESTART_STAGES
    from repro.obs.scenarios import SCENARIOS, run_scenario

    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Trace a checkpoint/restart scenario on the simulated cluster.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="ckpt-restart",
        choices=sorted(SCENARIOS),
        help="scenario to run (default: ckpt-restart)",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--out", default=None, help="Chrome trace output path")
    parser.add_argument("--jsonl", default=None, help="also write a JSONL dump here")
    args = parser.parse_args(argv)

    tracer = run_scenario(args.scenario, seed=args.seed)
    out = args.out or f"trace_{args.scenario}.json"
    tracer.write_chrome(out)
    if args.jsonl:
        tracer.write_jsonl(args.jsonl)

    ckpt_spans = {s["name"] for s in tracer.spans(cat="ckpt")}
    restart_spans = {s["name"] for s in tracer.spans(cat="restart")}
    counters = tracer.snapshot()
    print(f"scenario {args.scenario!r} (seed {args.seed}): "
          f"{len(tracer.events)} events, {len(counters)} counters -> {out}")
    print(f"  checkpoint stages traced: "
          f"{sorted(ckpt_spans & set(CKPT_STAGES))}")
    print(f"  restart stages traced:    "
          f"{sorted(restart_spans & set(RESTART_STAGES))}")
    for key in (
        "sim.events_fired",
        "sched.context_switches",
        "sys.total",
        "coord.barriers_released",
        "dmtcp.drained_bytes",
        "dmtcp.refilled_bytes",
        "mtcp.pages_written",
        "mtcp.write_hidden_s",
        "mtcp.stream_io_wait_s",
        "mtcp.stream_cpu_wait_s",
        "store.chunks_leased",
        "store.lease_max_share",
        "restart.processes_restored",
    ):
        if key in counters:
            print(f"  {key:28s} {counters[key]:g}")
    return 0


def _profile(argv: list[str]) -> int:
    """`python -m repro profile [scenario] [--seed N] [--top N] [--json PATH]`.

    Runs a scenario under cProfile and prints host time rolled up per
    subsystem (sim / kernel / hardware / ...) plus the hottest functions
    -- the measurement loop behind the optimizations in DESIGN.md §8.
    """
    import argparse

    from repro.obs.profiler import PERF_SCENARIOS, format_report, profile_scenario

    parser = argparse.ArgumentParser(
        prog="python -m repro profile",
        description="Profile host CPU cost of a simulation scenario.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="fig5-san",
        choices=sorted(PERF_SCENARIOS),
        help="scenario to profile (default: fig5-san)",
    )
    parser.add_argument("--seed", type=int, default=0, help="simulation seed")
    parser.add_argument("--top", type=int, default=25, help="hot-function rows to print")
    parser.add_argument("--json", default=None, help="also write the report as JSON here")
    args = parser.parse_args(argv)

    report = profile_scenario(args.scenario, seed=args.seed, top=args.top)
    print(format_report(report))
    if args.json:
        import dataclasses
        import json

        Path(args.json).write_text(
            json.dumps(dataclasses.asdict(report), indent=2, sort_keys=True) + "\n"
        )
        print(f"\nwrote {args.json}")
    return 0


def _chaos(argv: list[str]) -> int:
    """`python -m repro chaos [scenario] [--seed N] [--quick] [--out PATH]`.

    Runs a fault-injection scenario against a supervised cluster and
    prints the injected faults plus the recovery outcomes.  The report is
    purely virtual-time, so the same scenario and seed write a
    byte-identical JSON file (the CI chaos-smoke job diffs two runs).
    """
    import argparse
    import json

    from repro.faults.scenarios import SCENARIOS, run_chaos

    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Inject faults into a supervised checkpointing cluster.",
    )
    parser.add_argument(
        "scenario",
        nargs="?",
        default="mtbf",
        choices=sorted(SCENARIOS),
        help="fault scenario to run (default: mtbf)",
    )
    parser.add_argument("--seed", type=int, default=7, help="fault/simulation seed")
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller sweep (fewer crashes, shorter interval)",
    )
    parser.add_argument(
        "--coordinator-mtbf", action="store_true",
        help="shorthand for the coordinator-kill failover sweep "
             "(same as the 'coordinator-mtbf' scenario)",
    )
    parser.add_argument("--out", default=None, help="report output path (JSON)")
    args = parser.parse_args(argv)
    if args.coordinator_mtbf:
        args.scenario = "coordinator-mtbf"

    report = run_chaos(args.scenario, seed=args.seed, quick=args.quick)
    out = args.out or "BENCH_faults.json"
    Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    if "live_failovers" in report:
        # the coordinator failover sweep merges a star and a tree run:
        # print the failover gates instead of the single-cluster summary
        print(f"chaos scenario {args.scenario!r} (seed {args.seed}): "
              f"{report['kills']} coordinator kills -> {out}")
        for topo in ("star", "tree"):
            sub = report[topo]
            print(f"  {topo}: {sub['live_failovers']}/{sub['kills']} live failovers, "
                  f"{sub['gang_restarts_from_failover']} gang restarts, "
                  f"{sub['recovery_violations']} recovery-bound violations")
            for rec in sub["records"]:
                where = f" @{rec['detail']}" if rec["detail"] else ""
                print(f"    kill {rec['kill']}  t={rec['t_kill']:8.3f}s  "
                      f"{rec['mode']:14s}{where:28s} recovered in "
                      f"{rec['recovery_s']:6.2f}s (bound {rec['bound_s']:g}s)")
        healthy = (
            report["live_failovers"] == report["kills"]
            and report["gang_restarts_from_failover"] == 0
            and report["recovery_violations"] == 0
            and report["process_failures"] == 0
        )
        print("  verdict:", "all kills absorbed by live failover"
              if healthy else "DEGRADED")
        return 0 if healthy else 1

    print(f"chaos scenario {args.scenario!r} (seed {args.seed}): "
          f"{report['sim_seconds']:g} simulated seconds -> {out}")
    print(f"  injected faults ({len(report['faults'])}):")
    for f in report["faults"]:
        where = f["target"] or "coordinator"
        peer = f" <-> {f['peer']}" if f.get("peer") else ""
        detail = f"  ({f['detail']})" if f.get("detail") else ""
        print(f"    t={f['t']:10.3f}s  {f['kind']:16s} {where}{peer}{detail}")
    stats = report["supervisor"]["stats"]
    print("  recovery outcomes:")
    print(f"    restarts {stats['restarts']}, recovered {stats['recoveries']}, "
          f"failed {stats['failed_restarts']}, coordinator respawns "
          f"{stats['coordinator_respawns']}, nodes rebooted {stats['nodes_rebooted']}")
    print(f"    checkpoints completed {report['checkpoints_completed']}, "
          f"member rollbacks {report['checkpoints_aborted']}, "
          f"live members at end {report['live_members_at_end']}")
    if "max_lost_work_s" in report:
        print(f"    lost work per crash: max {report['max_lost_work_s']:.1f}s "
              f"(bound: interval {report['interval_s']:g}s + barrier timeout "
              f"= {report['bound_s']:g}s)")
    healthy = (
        report["live_members_at_end"] == 2
        and report["process_failures"] == 0
        and stats["recoveries"] == stats["restarts"]
    )
    print("  verdict:", "self-healed, cluster RUNNING" if healthy else "DEGRADED")
    return 0 if healthy else 1


def _service(argv: list[str]) -> int:
    """`python -m repro service [--tenants N] [--seed N] [--quick] [--out PATH]`.

    Runs the multi-tenant checkpoint service: N tenants behind one
    coordinator hub, synchronized checkpoint storms, seeded spot
    evictions, and the batched-vs-per-message dispatcher comparison.
    The report is purely virtual-time, so the same arguments write a
    byte-identical JSON file (the CI service-smoke job diffs two runs).
    """
    import argparse
    import json

    from repro.harness.service import run_service_comparison

    parser = argparse.ArgumentParser(
        prog="python -m repro service",
        description="Run N checkpointing tenants on one shared cluster.",
    )
    parser.add_argument("--tenants", type=int, default=16, help="tenant count")
    parser.add_argument("--ranks", type=int, default=8, help="ranks per tenant")
    parser.add_argument("--seed", type=int, default=0, help="arrival/eviction seed")
    parser.add_argument(
        "--quick", action="store_true",
        help="shorter run (fewer storms, one eviction wave)",
    )
    parser.add_argument("--out", default=None, help="report output path (JSON)")
    args = parser.parse_args(argv)

    duration = 3.0 if args.quick else 6.0
    evictions = 1 if args.quick else 2
    report = run_service_comparison(
        tenants=args.tenants, ranks=args.ranks, seed=args.seed,
        duration_s=duration, evictions=evictions,
    )
    out = args.out or "service_report.json"
    Path(out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    b, p = report["batched"], report["per_message"]
    print(f"service: {args.tenants} tenants x {args.ranks} ranks "
          f"(seed {args.seed}) -> {out}")
    print(f"  batched     p50 {b['ckpt_latency_p50_s'] * 1e3:7.2f} ms  "
          f"p99 {b['ckpt_latency_p99_s'] * 1e3:7.2f} ms  "
          f"({b['checkpoints']} checkpoints, mean batch "
          f"{b['hub']['mean_batch']:g} msgs)")
    print(f"  per-message p50 {p['ckpt_latency_p50_s'] * 1e3:7.2f} ms  "
          f"p99 {p['ckpt_latency_p99_s'] * 1e3:7.2f} ms")
    print(f"  p99 speedup from batching: {report['p99_ratio']:g}x")
    for mode, m in (("batched", b), ("per-message", p)):
        print(f"  [{mode}] evictions recovered {m['eviction_recoveries']}, "
              f"lost work max {m['lost_work_max_s']:g}s "
              f"(bound {m['lost_work_bound_s']:g}s, "
              f"{m['lost_work_violations']} violations), "
              f"preemptions {m['priority_preemptions']}, "
              f"migrations {m['defrag_migrations']}")
    healthy = all(
        m["cross_tenant_failures"] == 0 and m["lost_work_violations"] == 0
        for m in (b, p)
    )
    print("  verdict:", "ISOLATED, all tenants recovered" if healthy
          else "ISOLATION VIOLATED")
    return 0 if healthy else 1


def main(argv: list[str]) -> int:
    """Dispatch `python -m repro <command>`."""
    if not argv or argv[0] in ("-h", "--help", "list"):
        print(__doc__)
        for name, blurb in _EXAMPLES.items():
            print(f"  {name:22s} {blurb}")
        return 0
    cmd = argv[0]
    if cmd == "selfcheck":
        _selfcheck()
        return 0
    if cmd == "trace":
        return _trace(argv[1:])
    if cmd == "profile":
        return _profile(argv[1:])
    if cmd == "chaos":
        return _chaos(argv[1:])
    if cmd == "service":
        return _service(argv[1:])
    if cmd in _EXAMPLES:
        runpy.run_path(str(_examples_dir() / f"{cmd}.py"), run_name="__main__")
        return 0
    print(f"unknown command {cmd!r}; try: python -m repro list")
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
