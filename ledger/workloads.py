"""The seven workloads, each assembled from the program's public API.

A workload is a function ``rep(inputs, rec, trace, verify) -> Rep`` that
builds a fresh world, drives it, checks what it produced and returns the
virtual-time metrics.  ``rec`` is the benchmark's span recorder (None in
untraced reps), ``trace`` switches the program's own tracer on, and
``verify`` asks for the full lifecycle where a workload times only part
of it (see ``coord``).

Inputs come from ``--seed``.  The paper's scenarios are fixed points, so
the program's own seeds stay at the canonical 0 that the pinned
baselines use; the seed draws how far this run's cluster sits below the
2008 calibration (``Inputs.slowdown``, at most 0.01 %).  Seed 0 is the
calibration itself.  That keeps a run's volume of work independent of
the seed -- the host-time metrics would otherwise spread with it -- and
still gives every seed its own virtual times.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008, HardwareSpec
from repro.core.compression import ESTIMATE_CACHE
from repro.core.launch import DmtcpComputation
from repro.core.stats import CKPT_STAGES, RESTART_STAGES
from repro.errors import SyscallError
from repro.faults import (
    AutoRestartSupervisor,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    find_newest_valid_plan,
)
from repro.harness.experiment import build_world
from repro.harness.fig4 import register_fig4
from repro.harness.service import service_spec
from repro.kernel.filesystem import Namespace
from repro.kernel.syscalls import connect_retry
from repro.kernel.world import HIJACK_ENV
from repro.service import ClusterScheduler, CoordinatorHub, TenantRegistry

from ledger import micro
from ledger.trace import SpanRecorder, phase

MB = 2**20

#: the program's own seeds (cluster RNG streams, scheduler arrivals)
PROGRAM_SEED = 0
#: largest fraction by which a seed slows the cluster (see Inputs.spec)
TOLERANCE = 1e-4


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Inputs:
    """What one run feeds the program, all of it derived from the seed."""

    seed: int
    #: slowdown factor in [1, 1 + TOLERANCE); exactly 1 at seed 0
    slowdown: float

    @classmethod
    def from_seed(cls, seed: int) -> "Inputs":
        # Knuth's multiplicative hash spreads consecutive seeds evenly
        # over [0, 1) and maps 0 to 0, so seed 0 is the pinned scenario
        unit = ((seed * 2654435769) % 2**32) / 2**32
        return cls(seed=seed, slowdown=1.0 + TOLERANCE * unit)

    def spec(
        self, base: HardwareSpec = CLUSTER_2008, hold_message_timing: bool = False
    ) -> HardwareSpec:
        """``base`` with every rate divided and every latency multiplied
        by ``slowdown``: the same cluster, uniformly a little slower.

        ``hold_message_timing`` leaves the network, syscall and memcpy
        constants at calibration.  ``fig5-store-128`` needs that: the
        smallest change to those re-orders its chunk-lease races and
        moves ``ckpt_s`` by 2 % from one seed to the next."""
        k = self.slowdown
        cpu, disk, net, san, os_, dm = (
            base.cpu, base.disk, base.network, base.san, base.os, base.dmtcp
        )
        spec = base.with_(
            cpu=replace(cpu, gzip_bps=cpu.gzip_bps / k),
            disk=replace(
                disk,
                disk_bps=disk.disk_bps / k,
                cache_write_bps=disk.cache_write_bps / k,
                cache_read_bps=disk.cache_read_bps / k,
                op_latency_s=disk.op_latency_s * k,
            ),
            san=replace(
                san,
                fc_bandwidth_bps=san.fc_bandwidth_bps / k,
                backend_bps=san.backend_bps / k,
            ),
            os=replace(
                os_,
                signal_delivery_s=os_.signal_delivery_s * k,
                suspend_quiesce_s=os_.suspend_quiesce_s * k,
                page_restore_bps=os_.page_restore_bps / k,
            ),
            dmtcp=replace(
                dm,
                coord_msg_s=dm.coord_msg_s * k,
                drain_poll_s=dm.drain_poll_s * k,
                coord_batch_overhead_s=dm.coord_batch_overhead_s * k,
                coord_batch_msg_s=dm.coord_batch_msg_s * k,
            ),
        )
        if hold_message_timing:
            return spec
        return spec.with_(
            cpu=replace(spec.cpu, memory_bps=cpu.memory_bps / k),
            network=replace(
                net,
                bandwidth_bps=net.bandwidth_bps / k,
                latency_s=net.latency_s * k,
                per_message_s=net.per_message_s * k,
            ),
            os=replace(spec.os, syscall_s=os_.syscall_s * k),
        )


# ----------------------------------------------------------------------
# What a rep hands back
# ----------------------------------------------------------------------

@dataclass
class Rep:
    """One repetition's outputs (virtual clock only; run.py adds host time)."""

    #: end-to-end virtual metrics by BENCHMARK.json name
    virtual: dict[str, float] = field(default_factory=dict)
    #: digest per artifact group; reps of one run must agree group by group
    digests: dict[str, str] = field(default_factory=dict)
    #: operations counted towards attempted / failed
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    #: ``len(world.scheduler.failures)``: a determinism check, not a zero check
    failures_logged: int = 0
    #: per-layer metrics; exact counts need ``trace=True``
    layer: dict[str, float] = field(default_factory=dict)
    #: host-time throughput per isolated section (layers-micro only)
    rates: dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        """Count one operation or correctness check."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def digest_of(value) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def _record_rows(records) -> list[str]:
    """Identity of a checkpoint's per-process image records."""
    return sorted(
        f"{r.ckpt_id}:{r.hostname}:{r.vpid}:{r.program}:{r.image_bytes}:{r.stored_bytes}"
        for r in records
    )


def _barrier_rows(stats) -> list[list]:
    """Barrier release sequence, in release order."""
    return [[s["name"], s["n"], s["release_t"]] for s in stats]


def _mean_barrier_s(stats) -> float:
    return statistics.fmean(s["release_t"] - s["open_t"] for s in stats)


def _live_members(world) -> int:
    return sum(1 for p in world.live_processes() if p.env.get(HIJACK_ENV))


def tail_percentile(values: list[float]) -> tuple[float, str]:
    """The highest of p95/p99 with at least ten samples beyond it, else
    the maximum.  Returns ``(value, label)``; 290 samples give p95 (14
    beyond), 1000 give p99, fewer than 200 give the max."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in (99, 95):
        beyond = n - (n * pct + 99) // 100  # samples strictly above rank
        if beyond >= 10:
            return ordered[n - beyond - 1], f"p{pct}"
    return ordered[-1], "max"


# ----------------------------------------------------------------------
# Per-layer numbers from a traced world
# ----------------------------------------------------------------------

def _stage_max(worlds, ckpt_window=None, restart_window=None) -> dict[str, float]:
    """Table-1 stage times: the max over ranks of each ``ckpt`` and
    ``restart`` stage span of the program's tracer.  A window
    ``(t0, t1)`` keeps one checkpoint's (or restart's) spans; None
    keeps them all."""
    everything = (0.0, float("inf"))
    stages = {
        "ckpt": (CKPT_STAGES, ckpt_window or everything, "core.stage_s"),
        "restart": (RESTART_STAGES, restart_window or everything, "core.restart_stage_s"),
    }
    out: dict[str, float] = {}
    for world in worlds:
        for span in world.tracer.spans():
            names, (t0, t1), prefix = stages.get(span["cat"], ((), everything, ""))
            if span["name"] in names and t0 <= span["begin"] and span["end"] <= t1:
                key = f"{prefix}.{span['name']}"
                out[key] = max(out.get(key, 0.0), span["duration"])
    return out


#: ledger name -> program tracer counter (summed over a rep's worlds)
_TRACER_SUMS = {
    "sim.events_fired": "sim.events_fired",
    "sim.context_switches": "sched.context_switches",
    "sim.task_failures": "sched.task_failures",
    "kernel.syscalls": "sys.total",
    "kernel.send_chunks": "sys.send_chunk",
    "kernel.recvs": "sys.recv",
    "core.barriers_released": "coord.barriers_released",
    "core.images_written": "mtcp.images_written",
}
#: the same for counters that track a maximum
_TRACER_MAXES = {
    "sim.heap_depth_max": "sim.heap_depth_max",
    "core.barrier_straggler_max_s": "coord.barrier_straggler_max_s",
}


def _traced_layers(worlds, cache0: tuple[int, int]) -> dict[str, float]:
    """Exact counters of the program's tracer, under the ledger's names."""
    snaps = [world.tracer.snapshot() for world in worlds]
    out: dict[str, float] = {
        name: sum(snap.get(key, 0) for snap in snaps)
        for name, key in _TRACER_SUMS.items()
    }
    for name, key in _TRACER_MAXES.items():
        out[name] = max(snap.get(key, 0) for snap in snaps)
    out["core.image_mb"] = sum(snap.get("mtcp.image_bytes", 0) for snap in snaps) / MB
    hits = ESTIMATE_CACHE.hits - cache0[0]
    misses = ESTIMATE_CACHE.misses - cache0[1]
    if hits + misses:
        out["core.estimate_cache_hit_frac"] = hits / (hits + misses)
    for world in worlds:
        if world.store is not None:
            summary = world.store.summary()
            for key in ("dedup_ratio", "chunks_stored", "dedup_hits", "replications",
                        "lineage_skipped"):
                out[f"store.{key}"] = summary[key]
    return out


# ----------------------------------------------------------------------
# The DMTCP lifecycle shared by fig5-*, coord-* and the Table-1 section
# ----------------------------------------------------------------------

def lifecycle(
    build: Callable[[], object],
    launch: Callable[[object], DmtcpComputation],
    warmup_s: float,
    restart: Optional[str],
    rec: Optional[SpanRecorder],
    trace: bool,
) -> Rep:
    """build -> launch -> warm up -> timing checkpoint [-> restart].

    ``restart="paper"`` follows the paper's procedure (a second
    checkpoint with ``--kill``, then the generated restart script);
    ``restart="crash"`` destroys the computation and restarts from the
    timing checkpoint, the way a failure would; ``None`` stops after the
    checkpoint.
    """
    rep = Rep()
    cache0 = (ESTIMATE_CACHE.hits, ESTIMATE_CACHE.misses)
    with phase(rec, "build"):
        world = build()
        if trace:
            world.tracer.enable()
    with phase(rec, "launch"):
        comp = launch(world)
    with phase(rec, "warmup"):
        world.engine.run(until=world.engine.now + warmup_s)
    members = _live_members(world)
    with phase(rec, "checkpoint"):
        ckpt = comp.checkpoint()
        ckpt_barriers = list(comp.state.barrier_stats)
        root_messages = comp.state.barrier_messages
        rep.check(len(ckpt.records) == members,
                  f"checkpoint covered {len(ckpt.records)} of {members} processes")
        kill = None
        if restart == "paper":
            kill = comp.checkpoint(kill=True)
            rep.check(len(kill.records) == members,
                      f"kill-checkpoint covered {len(kill.records)} of {members}")
    rep.virtual = {
        "ckpt_s": ckpt.duration,
        "stored_mb": ckpt.total_stored_bytes / MB,
        "barrier_s": _mean_barrier_s(ckpt_barriers),
        "ckpt_tail_s": max(o.duration for o in comp.state.history),
    }
    rep.digests["checkpoint"] = digest_of({
        "records": _record_rows(ckpt.records),
        "barriers": _barrier_rows(ckpt_barriers),
        "virtual": [ckpt.duration, ckpt.total_stored_bytes],
    })
    outcome = None
    if restart is not None:
        with phase(rec, "restart"):
            if kill is None:
                comp.kill_computation()
            plan = (kill or ckpt).plan
            outcome = comp.restart(plan=plan)
            # liveness: the restored computation must keep running
            world.engine.run(until=world.engine.now + 0.5)
        rep.check(len(outcome.records) == plan.total_processes,
                  f"restart restored {len(outcome.records)} of {plan.total_processes}")
        # every restored process still runs, bar those whose death the
        # failure log explains (fig5 legitimately logs one)
        alive = _live_members(world)
        rep.check(alive >= plan.total_processes - len(world.scheduler.failures),
                  f"{alive} of {plan.total_processes} alive after restart")
        rep.virtual["restart_s"] = outcome.duration
        rep.digests["restart"] = digest_of({
            "kill": _record_rows(kill.records) if kill else None,
            "barriers": _barrier_rows(comp.state.barrier_stats),
            "virtual": [outcome.duration, len(outcome.records)],
        })
    rep.failures_logged = len(world.scheduler.failures)
    rep.layer["core.barrier_messages"] = root_messages
    if trace:
        rep.layer.update(_traced_layers([world], cache0))
        rep.layer.update(_stage_max(
            [world],
            (ckpt.started_at, ckpt.finished_at),
            (outcome.started_at, outcome.finished_at) if outcome else None,
        ))
    return rep


# ----------------------------------------------------------------------
# fig5-san-128 / fig5-store-128
# ----------------------------------------------------------------------

FIG5_RANKS = 128
FIG5_NODES = 32
FIG5_WARMUP_S = 8.0


def _fig5(storage: str, store: bool):
    """Paper Fig 5: 128 ParGeant4 ranks under MPICH2, gzip on."""
    def rep(inputs: Inputs, rec, trace: bool, verify: bool) -> Rep:
        def build():
            world = build_world(
                FIG5_NODES, PROGRAM_SEED,
                spec=inputs.spec(hold_message_timing=store),
                with_san=(storage == "san"),
            )
            register_fig4(world)
            if storage == "san":
                # Fig 5b: every node mounts the shared RAID device, over
                # Fibre Channel on the SAN clients and NFS elsewhere
                shared = Namespace("san:ckpt")
                for node in world.nodes.values():
                    node.mounts.add("/san", shared, "san")
            return world

        def launch(world):
            comp = DmtcpComputation(
                world,
                compression=True,
                ckpt_dir="/san/dmtcp" if storage == "san" else "/tmp/dmtcp",
                store=store,
            )
            comp.launch(
                "node00",
                "mpich2_job",
                ["mpich2_job", str(FIG5_RANKS), "pargeant4", "1000000", "0.05"],
                env={"MPI_LAZY_CONNECT": "1"},
            )
            return comp

        return lifecycle(build, launch, FIG5_WARMUP_S, "paper", rec, trace)

    return rep


# ----------------------------------------------------------------------
# coord-star-4096 / coord-tree-4096
# ----------------------------------------------------------------------

COORD_MEMBERS = 4096
COORD_PER_NODE = 16
COORD_FANOUT = 32


def _sleeper(sys, argv):
    while True:
        yield from sys.sleep(1.0)


def _coord(mode: str, members: int = COORD_MEMBERS):
    """ROADMAP's coordscale point: sleeping members, flat star or
    fanout-32 gateway tree, no compression.

    Timed reps stop after the timing checkpoint, as the pinned
    ``run_coord_scale_point`` does: kill + restart roughly doubles a
    rep's host cost at this size.  The ``verify`` rep (the warm-up)
    also crashes the computation and restarts it from that checkpoint,
    which is where this workload's ``restart_s`` comes from.
    """
    n_nodes = max(members // COORD_PER_NODE, 1)

    def rep(inputs: Inputs, rec, trace: bool, verify: bool) -> Rep:
        def build():
            world = build_cluster(n_nodes=n_nodes, spec=inputs.spec(), seed=PROGRAM_SEED)
            world.register_program("coordscale_member", _sleeper)
            return world

        def launch(world):
            comp = DmtcpComputation(
                world,
                compression=False,
                tree_fanout=COORD_FANOUT if mode == "tree" else None,
            )
            hosts = world.machine.hostnames
            for i in range(members):
                comp.launch(hosts[i % n_nodes], "coordscale_member")
            return comp

        return lifecycle(build, launch, 0.5, "crash" if verify else None, rec, trace)

    return rep


# ----------------------------------------------------------------------
# service-64x8
# ----------------------------------------------------------------------

SERVICE_TENANTS = 64
SERVICE_RANKS = 8
SERVICE_INTERVAL_S = 1.0
SERVICE_DURATION_S = 6.0
SERVICE_EVICTIONS = 2
SERVICE_SPARE_HOSTS = 2


def _service(inputs: Inputs, rec, trace: bool, verify: bool) -> Rep:
    """64 tenants x 8 ranks on one batched hub: synchronized checkpoint
    storms every virtual second and two spot-eviction waves (the
    ``run_service_point`` shape, assembled here to reach the scheduler,
    the hub and the tenants' coordinator states)."""
    rep = Rep()
    cache0 = (ESTIMATE_CACHE.hits, ESTIMATE_CACHE.misses)
    with phase(rec, "build"):
        world = build_cluster(
            n_nodes=1 + SERVICE_TENANTS + SERVICE_SPARE_HOSTS,
            spec=inputs.spec(service_spec()),
            seed=PROGRAM_SEED,
        )
        if trace:
            world.tracer.enable()
        hub = CoordinatorHub(world, batched=True)
        registry = TenantRegistry(world, hub)
        scheduler = ClusterScheduler(
            world, registry, hub,
            worker_hosts=world.machine.hostnames[1:],
            seed=PROGRAM_SEED,
            interval_s=SERVICE_INTERVAL_S,
        )
        scheduler.generate_arrivals(
            SERVICE_TENANTS,
            mean_interarrival_s=0.02,
            slots_choices=(SERVICE_RANKS,),
            # jobs outlast the horizon: every storm is at full strength
            slices=int(2 * SERVICE_DURATION_S / 0.05) + 100,
        )
        epochs = SERVICE_DURATION_S / SERVICE_INTERVAL_S
        for i in range(SERVICE_EVICTIONS):
            scheduler.schedule_eviction(
                SERVICE_INTERVAL_S * (1.5 + i * max(1, (epochs - 2) // SERVICE_EVICTIONS))
            )
    with phase(rec, "run"):
        scheduler.start()
        world.engine.run(until=SERVICE_DURATION_S)
        scheduler.stop()

    states = [registry.get(name).state for name in sorted(registry.tenants)]
    latencies = scheduler.ckpt_latencies
    restarts = [o for s in states for o in s.restart_history]
    last = [s.history[-1] for s in states if s.history]
    report = scheduler.report()
    tail, _label = tail_percentile(latencies)
    rep.virtual = {
        "ckpt_s": statistics.median(latencies),
        "ckpt_tail_s": tail,
        "restart_s": statistics.median(o.duration for o in restarts),
        "stored_mb": sum(o.total_stored_bytes for o in last) / MB,
        "barrier_s": _mean_barrier_s([b for s in states for b in s.barrier_stats]),
    }
    # operations: every checkpoint the storms requested, every eviction
    # recovery, and the isolation / lost-work invariants
    rep.attempted += len(latencies) + report["aborted_ckpts"] + report["busy_refusals"]
    rep.failed += report["aborted_ckpts"] + report["busy_refusals"]
    rep.check(report["eviction_recoveries"] == SERVICE_EVICTIONS,
              f"{report['eviction_recoveries']} of {SERVICE_EVICTIONS} evictions recovered")
    rep.check(len(restarts) == report["eviction_recoveries"],
              f"{len(restarts)} restarts for {report['eviction_recoveries']} evictions")
    for outcome in restarts:
        rep.check(len(outcome.records) == SERVICE_RANKS,
                  f"restart-elsewhere restored {len(outcome.records)} of {SERVICE_RANKS}")
    rep.check(report["cross_tenant_failures"] == 0,
              f"{report['cross_tenant_failures']} cross-tenant failures")
    rep.check(report["lost_work_violations"] == 0,
              f"{report['lost_work_violations']} lost-work bound violations")
    rep.digests["checkpoint"] = digest_of({
        "latencies": latencies,
        "records": [_record_rows(o.records) for o in last],
        "lost_work": report["lost_work_s"],
        "restarts": [o.duration for o in restarts],
    })
    rep.failures_logged = len(world.scheduler.failures)
    rep.layer = {
        "core.barrier_messages": sum(s.barrier_messages for s in states),
        "service.hub_messages": hub.messages,
        "service.hub_mean_batch": hub.mean_batch,
        "service.hub_shed": hub.shed,
        "service.eviction_recoveries": report["eviction_recoveries"],
        "service.cross_tenant_failures": report["cross_tenant_failures"],
        "service.checkpoints": len(latencies),
        "service.lost_work_max_s": report["lost_work_max_s"],
    }
    if trace:
        rep.layer.update(_traced_layers([world], cache0))
        rep.layer.update(_stage_max([world]))
    return rep


# ----------------------------------------------------------------------
# chaos-mtbf
# ----------------------------------------------------------------------

CHAOS_HOSTS = ("node01", "node02")  # node00 is the coordinator's
CHAOS_PORT = 9100
CHAOS_CRASH_INTERVAL_S = 25.0
#: where in the checkpoint interval each node crash lands (8 crashes)
CHAOS_CRASH_PHASES = (0.10, 0.85, 0.30, 0.65, 0.50, 0.20, 0.95, 0.40)
CHAOS_FAILOVER_INTERVAL_S = 5.0
#: coordinator kills: idle windows (virtual s after a fresh checkpoint)
#: alternate with kills as each checkpoint barrier opens (10 kills)
CHAOS_KILLS = (
    1.0, "suspended", 2.5, "election-completed", 4.0, "drained",
    0.5, "checkpointed", 3.0, "refilled",
)


def _chaos_server(sys, argv):
    lfd = yield from sys.socket()
    yield from sys.bind(lfd, CHAOS_PORT)
    yield from sys.listen(lfd)
    cfd = yield from sys.accept(lfd)
    while True:
        # any socket error is a transient outage: recovering lost state
        # is the supervisor's job, surviving the outage is the app's
        try:
            chunk = yield from sys.recv(cfd)
            if chunk is None:
                yield from sys.sleep(0.5)
                continue
            yield from sys.send(cfd, chunk.nbytes, data=chunk.data)
        except SyscallError:
            yield from sys.sleep(0.5)


def _chaos_client(sys, argv):
    fd = yield from sys.socket()
    yield from connect_retry(sys, fd, CHAOS_HOSTS[0], CHAOS_PORT)
    step = 0
    while True:
        try:
            yield from sys.send(fd, 2048, data=("work", step))
            reply = yield from sys.recv(fd)
            if reply is None:
                yield from sys.sleep(0.5)
                continue
            step += 1
            yield from sys.cpu(0.005)
            yield from sys.sleep(0.2)
        except SyscallError:
            yield from sys.sleep(0.5)


class _ChaosWorld:
    """A supervised 3-node cluster running the resilient worker pair
    under interval checkpointing, with a fault injector attached."""

    def __init__(self, inputs: Inputs, interval_s: float, trace: bool):
        self.world = build_cluster(n_nodes=3, spec=inputs.spec(), seed=PROGRAM_SEED)
        if trace:
            self.world.tracer.enable()
        self.world.register_program("chaos_server", _chaos_server)
        self.world.register_program("chaos_client", _chaos_client)
        self.comp = DmtcpComputation(self.world, interval=interval_s, supervise=True)
        self.comp.launch(CHAOS_HOSTS[0], "chaos_server")
        self.comp.launch(CHAOS_HOSTS[1], "chaos_client")
        self.sup = AutoRestartSupervisor(self.world, self.comp, expected=2)
        self.sup.start()
        self.inj = FaultInjector(self.world, self.comp)
        self.interval_s = interval_s
        #: a checkpoint counts as fresh once it finished at or after this
        self.floor = 0.0

    def complete(self) -> list:
        """Checkpoints that cover both workers (partials excluded)."""
        return [o for o in self.comp.state.history if o.plan.total_processes >= 2]

    def wait(self, predicate, horizon_s: float) -> bool:
        """Step the engine until ``predicate`` or the horizon, so a
        wedged recovery is a failed operation and not a hung run."""
        engine = self.world.engine
        deadline = engine.now + horizon_s
        while not predicate() and engine.now < deadline:
            engine.run(until=min(engine.now + 1.0, deadline))
        return predicate()

    def wait_fresh_checkpoint(self) -> bool:
        def fresh():
            done = self.complete()
            return bool(done) and done[-1].finished_at >= self.floor

        return self.wait(fresh, 240.0)

    def inject(self, **event) -> None:
        self.inj.arm(FaultPlan.schedule([FaultEvent(**event)]))

    def settle(self) -> None:
        engine = self.world.engine
        engine.run(until=engine.now + self.interval_s)  # one clean interval
        self.sup.stop()


def _chaos_crashes(inputs: Inputs, trace: bool, rep: Rep) -> tuple[_ChaosWorld, list[float]]:
    """Eight node crashes at fixed phases of a 25 s checkpoint interval;
    each is auto-restarted from the newest valid checkpoint."""
    cw = _ChaosWorld(inputs, CHAOS_CRASH_INTERVAL_S, trace)
    engine = cw.world.engine
    bound = CHAOS_CRASH_INTERVAL_S + cw.world.spec.dmtcp.barrier_timeout_s
    lost = []
    for n, frac in enumerate(CHAOS_CRASH_PHASES):
        cw.wait_fresh_checkpoint()
        t_crash = engine.now + frac * CHAOS_CRASH_INTERVAL_S
        cw.inject(kind="crash-node", target=CHAOS_HOSTS[n % 2], at=t_crash)
        engine.run(until=t_crash + 0.001)
        source = find_newest_valid_plan(cw.world, cw.comp.state, expected=2)
        lost.append(t_crash - source.finished_at)
        rep.check(lost[-1] <= bound, f"crash {n}: lost {lost[-1]:.3f} s > bound {bound} s")
        rep.check(cw.wait(lambda: cw.sup.stats["recoveries"] >= n + 1, 240.0),
                  f"crash {n}: no recovery")
        cw.floor = engine.now
    cw.settle()
    rep.check(_live_members(cw.world) == 2, "crash sweep: worker pair not alive at end")
    return cw, lost


def _chaos_failovers(inputs: Inputs, trace: bool, rep: Rep) -> tuple[_ChaosWorld, list[float]]:
    """Ten coordinator kills, in idle windows and as each checkpoint
    barrier opens; every one must be a live failover (one respawn, no
    gang restart) that has a fresh checkpoint within the bound."""
    cw = _ChaosWorld(inputs, CHAOS_FAILOVER_INTERVAL_S, trace)
    engine = cw.world.engine
    spec = cw.world.spec.dmtcp
    bound = CHAOS_FAILOVER_INTERVAL_S + spec.barrier_timeout_s + spec.failover_retry_timeout_s
    recovery, live_failovers = [], 0
    for n, when in enumerate(CHAOS_KILLS):
        cw.wait_fresh_checkpoint()
        respawns = cw.sup.stats["coordinator_respawns"]
        restarts = cw.sup.stats["restarts"]
        if isinstance(when, float):
            cw.inject(kind="kill-coordinator", at=engine.now + when)
        else:
            cw.inject(kind="kill-coordinator", phase=f"coordinator/barrier:{when}")
        cw.wait(lambda: cw.sup.stats["coordinator_respawns"] > respawns, 120.0)
        t_kill = next(
            (e["t"] for e in reversed(cw.inj.log) if e["kind"] == "kill-coordinator"),
            engine.now,
        )
        cw.floor = t_kill
        recovered = cw.wait_fresh_checkpoint()
        recovery.append(engine.now - t_kill)
        live = (
            cw.sup.stats["coordinator_respawns"] == respawns + 1
            and cw.sup.stats["restarts"] == restarts
        )
        rep.check(live, f"kill {n} ({when}): not a live failover")
        rep.check(recovered and recovery[-1] <= bound,
                  f"kill {n} ({when}): recovery {recovery[-1]:.3f} s > bound {bound} s")
        live_failovers += live
        cw.floor = engine.now
    cw.settle()
    rep.layer["faults.live_failovers"] = live_failovers
    rep.check(_live_members(cw.world) == 2, "failover sweep: worker pair not alive at end")
    return cw, recovery


def _chaos(inputs: Inputs, rec, trace: bool, verify: bool) -> Rep:
    """Fixed fault matrix over ``repro.faults``: node crashes bound the
    lost work, coordinator kills must stay live failovers.

    The schedule is a constant, not drawn from the seed: a seeded MTBF
    process changes a run's volume of work by tens of percent from seed
    to seed, which would drown the host-time metrics it is timed for.
    """
    rep = Rep()
    cache0 = (ESTIMATE_CACHE.hits, ESTIMATE_CACHE.misses)
    with phase(rec, "run"):
        crashes, lost = _chaos_crashes(inputs, trace, rep)
    with phase(rec, "run"):
        failovers, recovery = _chaos_failovers(inputs, trace, rep)
    both = (crashes, failovers)
    complete = [o for cw in both for o in cw.complete()]
    restarts = [o for cw in both for o in cw.comp.state.restart_history]
    durations = [o.duration for o in complete]
    tail, _label = tail_percentile(durations)
    rep.virtual = {
        "ckpt_s": statistics.median(durations),
        "ckpt_tail_s": tail,
        "restart_s": statistics.median(o.duration for o in restarts),
        "stored_mb": crashes.complete()[-1].total_stored_bytes / MB,
        "barrier_s": _mean_barrier_s(
            [b for cw in both for b in cw.comp.state.barrier_stats]),
    }
    for outcome in restarts:
        rep.check(len(outcome.records) == 2,
                  f"gang restart restored {len(outcome.records)} of 2")
    rep.digests["checkpoint"] = digest_of({
        "lost": lost,
        "recovery": recovery,
        "durations": durations,
        "events": [cw.sup.events for cw in both],
        "faults": [cw.inj.log for cw in both],
    })
    rep.failures_logged = sum(len(cw.world.scheduler.failures) for cw in both)
    stats = [cw.sup.stats for cw in both]
    rep.layer.update({
        "core.barrier_messages": sum(cw.comp.state.barrier_messages for cw in both),
        "faults.crashes": len(lost),
        "faults.recoveries": sum(s["recoveries"] for s in stats),
        "faults.failed_restarts": sum(s["failed_restarts"] for s in stats),
        "faults.checkpoints_completed": len(complete),
        "faults.lost_work_max_s": max(lost),
        "faults.recovery_median_s": statistics.median(recovery),
    })
    if trace:
        worlds = [cw.world for cw in both]
        rep.layer.update(_traced_layers(worlds, cache0))
        rep.layer.update(_stage_max(worlds))
        rep.layer["faults.checkpoints_aborted"] = sum(
            w.tracer.snapshot().get("dmtcp.checkpoints_aborted", 0) for w in worlds)
    return rep


# ----------------------------------------------------------------------
# layers-micro
# ----------------------------------------------------------------------

def _micro(inputs: Inputs, rec, trace: bool, verify: bool) -> Rep:
    """Every layer's isolated section (ledger/micro.py), then the paper's
    Table-1 scenario -- NAS/MG on 8 ranks under OpenMPI, gzip on -- as
    the one place where ``core`` runs a lifecycle with little else
    around it; that lifecycle supplies this workload's virtual metrics."""
    rates = {}
    for name, section in micro.SECTIONS.items():
        with phase(rec, name.rsplit("_per_s", 1)[0]):
            ops, seconds = section()
        rates[name] = ops / seconds

    def launch(world):
        comp = DmtcpComputation(world, compression=True)
        comp.launch(
            "node00", "orterun", ["orterun", "-n", "8", "nas_mg", "1000000"],
            env={"NAS_SCALE": "1.0"},
        )
        return comp

    rep = lifecycle(
        lambda: build_world(8, PROGRAM_SEED, spec=inputs.spec()),
        launch, 6.0, "paper", rec, trace,
    )
    rep.rates = rates
    return rep


#: name -> rep function; BENCHMARK.json lists the same names
WORKLOADS: dict[str, Callable[[Inputs, Optional[SpanRecorder], bool, bool], Rep]] = {
    "fig5-san-128": _fig5("san", store=False),
    "fig5-store-128": _fig5("local", store=True),
    "coord-star-4096": _coord("star"),
    "coord-tree-4096": _coord("tree"),
    "service-64x8": _service,
    "chaos-mtbf": _chaos,
    "layers-micro": _micro,
}
