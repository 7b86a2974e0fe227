"""Ablation experiments backing the paper's textual claims.

* sync-after-checkpoint cost (Section 5.2: +0.79 s +/- 0.24 for
  ParGeant4 with compression);
* forked checkpointing (Section 5.3: ~0.2 s visible checkpoint);
* coordinator barrier load (Section 5.4/6: "the single checkpoint
  coordinator ... is not a bottleneck");
* DejaVu comparison (Section 2: ~45% runtime overhead vs ~0 for DMTCP);
* incremental checkpoints as store generations (``store=True``): full
  images vs generations that lease only changed chunks, over the
  Figure 3 desktop suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.dejavu import DejavuComputation
from repro.core.launch import DmtcpComputation
from repro.harness.experiment import MB, build_desktop, build_world
from repro.harness.fig4 import register_fig4


@dataclass
class SyncAblation:
    """Checkpoint time and the extra cost of syncing it to the platter."""

    checkpoint_s: float
    sync_extra_s: float


def run_sync_ablation(seed: int = 0, compute_processes: int = 32, warmup_s: float = 8.0) -> SyncAblation:
    """ParGeant4, compression on: checkpoint, then measure the extra cost
    of syncing the dirty image data to the platter."""
    n_nodes = max(compute_processes // 4, 1)
    world = build_world(n_nodes, seed)
    register_fig4(world)
    comp = DmtcpComputation(world)
    comp.launch(
        "node00",
        "mpich2_job",
        ["mpich2_job", str(compute_processes), "pargeant4", "1000000", "0.05"],
        env={"MPI_LAZY_CONNECT": "1"},
    )
    world.engine.run(until=warmup_s)
    ckpt = comp.checkpoint()
    t0 = world.engine.now
    done = {"n": 0}
    nodes = list(world.machine.nodes)
    for node in nodes:
        node.disk.sync().add_done(lambda: done.__setitem__("n", done["n"] + 1))
    world.engine.run_until(lambda: done["n"] == len(nodes))
    return SyncAblation(checkpoint_s=ckpt.duration, sync_extra_s=world.engine.now - t0)


@dataclass
class CoordinatorLoad:
    """Barrier traffic seen by the root coordinator for one checkpoint."""

    processes: int
    checkpoint_s: float
    barrier_messages: int
    coordinator_seconds_per_ckpt: float
    tree: bool = False


def run_coordinator_load(n_procs: int, seed: int = 0, tree: bool = False) -> CoordinatorLoad:
    """Barrier traffic vs computation size: many trivial processes on a
    few nodes, one checkpoint, count root-coordinator messages.  With
    ``tree=True`` the Section 6 distributed coordinator handles the
    barrier path instead: a depth-1 gateway tree (fanout = node count,
    every gateway top-level), i.e. one combining gateway per node.
    """
    world = build_world(4, seed)

    def idle(sys, argv):
        while True:
            yield from sys.sleep(0.5)

    world.register_program("idleproc", idle)
    comp = DmtcpComputation(
        world, tree_fanout=len(world.machine.hostnames) if tree else None
    )
    for i in range(n_procs):
        comp.launch(f"node{i % 4:02d}", "idleproc")
    world.engine.run(until=2.0)
    ckpt = comp.checkpoint()
    msgs = comp.state.barrier_messages
    per_msg = world.spec.dmtcp.coord_msg_s
    return CoordinatorLoad(
        processes=n_procs,
        checkpoint_s=ckpt.duration,
        barrier_messages=msgs,
        coordinator_seconds_per_ckpt=msgs * per_msg,
        tree=tree,
    )


@dataclass
class DejavuComparison:
    """Runtimes of the same workload under three checkpointing systems."""

    plain_runtime_s: float
    dejavu_runtime_s: float
    dmtcp_runtime_s: float
    dejavu_overhead: float
    dmtcp_overhead: float


def run_dejavu_comparison(seed: int = 0, iters: int = 20, ranks: int = 8) -> DejavuComparison:
    """Chombo-like stencil: runtime under nothing, DejaVu, and DMTCP
    (checkpointing disabled in all three -- this measures the *between
    checkpoints* tax the paper highlights)."""

    def run(mode: str) -> float:
        world = build_world(4, seed)
        env = {}
        if mode == "dejavu":
            DejavuComputation(world)
            env = {"DEJAVU_CKPT": "1"}
        t0 = world.engine.now
        if mode == "dmtcp":
            comp = DmtcpComputation(world)
            proc = comp.launch(
                "node00", "orterun", ["orterun", "-n", str(ranks), "chombo", str(iters)]
            )
        else:
            proc = world.spawn_process(
                "node00", "orterun", ["orterun", "-n", str(ranks), "chombo", str(iters)], env
            )
        world.engine.run_until(lambda: not proc.alive)
        assert proc.exit_code == 0
        return world.engine.now - t0

    plain = run("plain")
    dejavu = run("dejavu")
    dmtcp = run("dmtcp")
    return DejavuComparison(
        plain_runtime_s=plain,
        dejavu_runtime_s=dejavu,
        dmtcp_runtime_s=dmtcp,
        dejavu_overhead=dejavu / plain - 1.0,
        dmtcp_overhead=dmtcp / plain - 1.0,
    )


@dataclass
class IncrementalAblation:
    """Full images vs store generations for one app.

    ``full_*`` figures come from the paper's default pipeline (every
    checkpoint writes the whole address space); ``incr_*`` from store
    generations (``DmtcpComputation(store=True)``) over the same
    checkpoint schedule, where a checkpoint leases and writes only the
    chunks no earlier generation stored.  ``manifest_chunks`` /
    ``chunks_leased`` are per checkpoint.  The final store checkpoint
    kills the computation and the restart fetches that generation back,
    so ``restored_total_mb`` vs ``original_total_mb`` verifies the round
    trip.
    """

    app: str
    checkpoints: int
    full_ckpt_s: list[float] = field(default_factory=list)
    incr_ckpt_s: list[float] = field(default_factory=list)
    full_stored_mb: float = 0.0
    incr_stored_mb: float = 0.0
    manifest_chunks: list[int] = field(default_factory=list)
    chunks_leased: list[int] = field(default_factory=list)
    estimate_cache_hits: int = 0
    restart_s: float = 0.0
    original_total_mb: float = 0.0
    restored_total_mb: float = 0.0

    @property
    def steady_speedup(self) -> float:
        """Full / incremental checkpoint time, after the first one."""
        full = sum(self.full_ckpt_s[1:]) or sum(self.full_ckpt_s)
        incr = sum(self.incr_ckpt_s[1:]) or sum(self.incr_ckpt_s)
        return full / incr if incr else 1.0

    @property
    def bytes_saved_ratio(self) -> float:
        """1 - incremental/full stored bytes over the whole schedule."""
        return 1.0 - self.incr_stored_mb / self.full_stored_mb if self.full_stored_mb else 0.0

    @property
    def steady_delta_us(self) -> float:
        """Last incremental minus last full checkpoint, microseconds: at
        the drain floor, the store-commit round trip a generation pays."""
        return (self.incr_ckpt_s[-1] - self.full_ckpt_s[-1]) * 1e6


def _hijacked_total_bytes(world) -> int:
    """Address-space bytes of every checkpointed (hijacked) process."""
    from repro.kernel.world import HIJACK_ENV

    return sum(
        p.address_space.total_bytes
        for p in world.live_processes()
        if p.env.get(HIJACK_ENV)
    )


def run_incremental_ablation(
    app: str = "matlab",
    seed: int = 0,
    checkpoints: int = 3,
    warmup_s: float = 3.0,
) -> IncrementalAblation:
    """One Figure 3 desktop app, ``checkpoints`` checkpoints per mode.

    The desktop apps dirty little memory between checkpoints (their
    steady state is computation over an already-built working set), so
    the workload is well over 50% clean after the first image -- the
    regime where a store generation should win on both stored bytes and
    checkpoint latency.
    """
    from repro.apps.shell_apps import program_for

    result = IncrementalAblation(app=app, checkpoints=checkpoints)

    # -- full pipeline (paper default) ---------------------------------
    world = build_desktop(seed)
    comp = DmtcpComputation(world)
    comp.launch("node00", program_for(app))
    world.engine.run(until=warmup_s)
    for _ in range(checkpoints):
        ckpt = comp.checkpoint()
        result.full_ckpt_s.append(ckpt.duration)
        result.full_stored_mb += ckpt.total_stored_bytes / MB

    # -- store generations ---------------------------------------------
    world = build_desktop(seed)
    world.tracer.enable()
    comp = DmtcpComputation(world, store=True)
    comp.launch("node00", program_for(app))
    world.engine.run(until=warmup_s)
    counters = world.tracer.counters
    kill = None
    for i in range(checkpoints):
        last = i == checkpoints - 1
        if last:
            result.original_total_mb = _hijacked_total_bytes(world) / MB
        chunks = counters.get("store.manifest_chunks", 0)
        leased = counters.get("store.chunks_leased", 0)
        ckpt = comp.checkpoint(kill=last)
        result.incr_ckpt_s.append(ckpt.duration)
        result.incr_stored_mb += ckpt.total_stored_bytes / MB
        result.manifest_chunks.append(int(counters["store.manifest_chunks"] - chunks))
        result.chunks_leased.append(int(counters["store.chunks_leased"] - leased))
        if last:
            kill = ckpt
    result.estimate_cache_hits = int(counters.get("store.estimate_cache_hits", 0))
    restart = comp.restart(plan=kill.plan)
    result.restart_s = restart.duration
    result.restored_total_mb = _hijacked_total_bytes(world) / MB
    return result


def run_incremental_suite(
    apps=None, seed: int = 0, checkpoints: int = 3
) -> list[IncrementalAblation]:
    """The incremental ablation over a set of Figure 3 apps."""
    from repro.apps.profiles import APP_PROFILES

    return [
        run_incremental_ablation(app, seed=seed, checkpoints=checkpoints)
        for app in (apps or APP_PROFILES)
    ]
