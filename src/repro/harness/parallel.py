"""SPMD scenario wrappers for the sharded simulation core.

Each function here is a *shard scenario*: it runs once per shard under
`repro.sim.parallel.run_sharded`, builds a full replica of the cluster,
binds it to the shard context, and drives the identical sequence of
collective calls on every shard (MPI discipline).  The shard owning the
coordinator's host -- always shard 0, since hosts are partitioned in
contiguous blocks from ``node00`` -- sees the checkpoint/restart
outcomes and returns the metrics dict; every other shard returns None.

The metrics are *committed artifacts* in the DESIGN.md §11 sense: image
checksums, barrier release sequences, simulated durations, total events
fired.  The determinism contract makes them byte-identical between
``shards=1`` and ``shards=N``, which `bench_perf_core` and the
equivalence tests assert exactly (tol=0).
"""

from __future__ import annotations

from repro.cluster import build_cluster
from repro.core.launch import DmtcpComputation
from repro.harness.fig5 import _register_tree_worker

MB = 2**20


def _record_checksums(records) -> list[str]:
    """Identity fingerprints of a checkpoint's per-process records.

    Same fields `repro.core.mtcp.image_checksum` covers, computed from
    the coordinator-side records so the root shard can report them
    without touching per-node filesystems it does not own.
    """
    return sorted(
        f"{r.ckpt_id}:{r.hostname}:{r.vpid}:{r.program}:"
        f"{r.image_bytes}:{r.stored_bytes}"
        for r in records
    )


def _barrier_releases(state) -> list[tuple[str, int, float]]:
    """Barrier release sequence, in release order (a committed artifact)."""
    return [(s["name"], s["n"], s["release_t"]) for s in state.barrier_stats]


def fig5_xl_scenario(
    ctx,
    compute_processes: int = 512,
    procs_per_node: int = 4,
    seed: int = 0,
    warmup_s: float = 0.5,
    tree_fanout: int = 32,
):
    """Fig-5 XL point under sharding: full checkpoint -> kill -> restart.

    512 ParGeant4-footprint workers on 128 nodes with fanout-32 gateway
    coordination (the repo's Fig-5 XL extension, `run_fig5_tree_point`)
    and local checkpoint storage -- the paper's Figure 5a setup pushed
    past its 128-process axis, which is exactly where the serial event
    loop becomes the host-side bottleneck the shards attack.  The tree
    matters for sharding too: a flat star funnels every barrier frame
    through the coordinator's node, whose owning shard then carries
    ~half the events and caps the speedup near 2x regardless of shard
    count; gateways keep the hot path distributed.
    """
    n_nodes = max(compute_processes // procs_per_node, 1)
    world = build_cluster(n_nodes=n_nodes, seed=seed)
    ctx.bind(world)
    _register_tree_worker(world)
    comp = DmtcpComputation(world, compression=True, tree_fanout=tree_fanout)
    hostnames = world.machine.hostnames
    for i in range(compute_processes):
        comp.launch(hostnames[i % n_nodes], "pargeant4_worker")
    world.engine.run(until=warmup_s)
    ckpt = comp.checkpoint()
    kill = comp.checkpoint(kill=True)
    # the outcome (and its RestartPlan) exists only on the shard owning
    # the coordinator host; everyone needs it to spawn their restarters
    plan = ctx.broadcast(kill.plan if kill is not None else None)
    restart = comp.restart(plan=plan)
    if ckpt is None:  # non-root shard: participated, reports nothing
        return None
    return {
        "workload": "fig5_xl",
        "compute_processes": compute_processes,
        "nodes": n_nodes,
        "total_processes": len(ckpt.records),
        "checkpoint_s": ckpt.duration,
        "restart_s": restart.duration,
        "aggregate_stored_mb": ckpt.total_stored_bytes / MB,
        "image_checksums": _record_checksums(ckpt.records),
        "barrier_releases": _barrier_releases(comp.state),
        "sim_end_s": world.engine.now,
    }


def coordscale_scenario(
    ctx,
    n_procs: int = 4096,
    fanout: int = 32,
    procs_per_node: int = 16,
    seed: int = 0,
):
    """Coordination-scaling point under sharding: one 4k-member barrier.

    Mirrors `repro.harness.coordscale.run_coord_scale_point` in tree
    mode: 4096 sleepers on 256 nodes behind fanout-32 gateways, one
    checkpoint, barrier latencies as the measurement.
    """
    n_nodes = max(n_procs // procs_per_node, 1)
    world = build_cluster(n_nodes=n_nodes, seed=seed)
    ctx.bind(world)

    def member_main(sys, argv):
        while True:
            yield from sys.sleep(1.0)

    world.register_program("coordscale_member", member_main)
    comp = DmtcpComputation(world, compression=False, tree_fanout=fanout)
    hostnames = world.machine.hostnames
    for i in range(n_procs):
        comp.launch(hostnames[i % n_nodes], "coordscale_member")
    world.engine.run(until=world.engine.now + 0.5)
    outcome = comp.checkpoint()
    if outcome is None:
        return None
    assert len(outcome.records) == n_procs
    return {
        "workload": "coordscale",
        "n_procs": n_procs,
        "nodes": n_nodes,
        "fanout": fanout,
        "checkpoint_s": outcome.duration,
        "barrier_latency_s": {
            s["name"]: s["release_t"] - s["open_t"] for s in comp.state.barrier_stats
        },
        "barrier_releases": _barrier_releases(comp.state),
        "root_messages": comp.state.barrier_messages,
        "image_checksums": _record_checksums(outcome.records),
        "sim_end_s": world.engine.now,
    }
