"""Chaos tests for the chunk store: degraded restart and anti-entropy.

The store's whole point under faults is that losing a storage node
degrades a checkpoint instead of orphaning it: restart streams every
chunk from the nearest *live* replica, and the background repair loop
re-replicates until the replication factor is back at k.
"""

from repro.core.launch import DmtcpComputation
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.supervisor import AutoRestartSupervisor, _image_file
from repro.harness.experiment import build_world
from repro.kernel.process import ProgramSpec, RegionSpec
from repro.kernel.world import HIJACK_ENV

MB = 1 << 20


def _launch(n_nodes=4, seed=0, heap_mb=16, n_procs=1, **kwargs):
    world = build_world(n_nodes, seed=seed)

    def worker(sys, argv):
        while True:
            yield from sys.cpu(0.1)
            yield from sys.sleep(0.1)

    spec = ProgramSpec(
        "heapworker", regions=(RegionSpec("heap", heap_mb * MB, "numeric"),)
    )
    world.register_program("heapworker", worker, spec)
    comp = DmtcpComputation(world, store=True, **kwargs)
    hosts = world.machine.hostnames
    for i in range(n_procs):
        comp.launch(hosts[i % n_nodes], "heapworker")
    world.engine.run(until=1.0)
    return world, comp


def _ckpt_and_settle(world, comp, kill=True):
    """Checkpoint, then drain background replication to full k."""
    out = comp.checkpoint(kill=kill)
    world.engine.run(until=world.engine.now + 5.0)
    return out


def test_restart_from_degraded_replica_set_recovers():
    """k=2, one replica node dead: the restart must still recover, read
    from the surviving replicas, and stay within 1.5x of a healthy
    restart (the acceptance gate BENCH_store.json enforces too)."""
    world, comp = _launch()
    out = _ckpt_and_settle(world, comp)
    store = world.store
    # cold baseline: the writer's page cache is gone but all replicas live
    world.crash_node("node00")
    world.reboot_node("node00")
    comp.respawn_coordinator()
    healthy = comp.restart(out.plan)
    assert healthy.duration > 0

    world, comp = _launch()
    out = _ckpt_and_settle(world, comp)
    store = world.store
    world.crash_node("node00")
    world.reboot_node("node00")
    comp.respawn_coordinator()
    victims = sorted(
        {h for m in store.chunks.values() for h in m.present if h != "node00"}
    )
    world.crash_node(victims[0])  # one replica node stays dead
    degraded = comp.restart(out.plan)
    assert degraded.duration > 0
    assert store.stats["degraded_reads"] > 0
    assert degraded.duration <= 1.5 * healthy.duration
    procs = [p for p in world.live_processes() if p.program == "heapworker"]
    assert len(procs) == 1


def test_anti_entropy_repair_restores_replication_factor():
    world, comp = _launch()
    _ckpt_and_settle(world, comp)
    store = world.store
    assert all(
        len(store._live_replicas(m)) >= 2 for m in store.chunks.values()
    )
    victim = sorted(
        {h for m in store.chunks.values() for h in m.present if h != "node00"}
    )[0]
    world.crash_node(victim)  # stays dead: repair must go around it
    under = sum(
        1 for m in store.chunks.values() if len(store._live_replicas(m)) < 2
    )
    assert under > 0
    store.start_repair()
    world.engine.run(until=world.engine.now + 3 * store.repair_interval_s)
    store.stop_repair()
    assert store.stats["repairs"] > 0
    assert all(
        len(store._live_replicas(m)) >= 2 for m in store.chunks.values()
    )


def test_repair_loop_stops_cleanly_for_engine_drain():
    """start_repair arms a recurring timer; stop_repair must cancel it so
    engine.run() to an empty heap still terminates."""
    world, comp = _launch(n_nodes=2, heap_mb=4)
    store = world.store
    store.start_repair()
    store.start_repair()  # idempotent
    world.engine.run(until=world.engine.now + 2 * store.repair_interval_s)
    store.stop_repair()
    store.stop_repair()  # idempotent
    before = world.engine.now
    world.engine.run(until=before + 100 * store.repair_interval_s)
    # no repair tick survived the stop (nothing re-armed the timer)
    assert store.stats["repairs"] == 0 or not store._repair_on


def test_supervised_crash_loop_keeps_lineages_restorable():
    """With the store + supervisor, a node crash mid-run never orphans a
    lineage: repair + rendezvous replicas keep every checkpoint
    restorable, so ``store.lineage_skipped`` stays 0 and the computation
    recovers to full strength."""
    world, comp = _launch(
        n_nodes=4, seed=7, heap_mb=8, n_procs=4, supervise=True, interval=3.0
    )
    sup = AutoRestartSupervisor(world, comp, expected=4)
    sup.start()
    world.engine.call_after(8.0, lambda: world.crash_node("node02"))
    world.engine.call_after(20.0, lambda: world.crash_node("node03"))
    world.engine.run(until=60.0)
    sup.stop()
    assert sup.stats["recoveries"] >= 1
    assert world.store.stats["lineage_skipped"] == 0
    assert len(world.scheduler.failures) == 0
    live = [p for p in world.live_processes() if p.env.get(HIJACK_ENV)]
    assert len(live) == 4
    # the store kept deduping across the whole chaotic run
    assert world.store.summary()["dedup_ratio"] > 3.0


def test_lost_lease_reply_is_retried_and_checkpoint_stays_restorable():
    """`drop-coord-frames` on the lease reply: the store has granted the
    generation when the writer's private connection is reset, so the
    writer retries its manifest and must be handed the same chunks --
    told it owns nothing, it would never commit them and every image
    sharing them would be unrestorable.

    Tree mode with the coordinator off the gateway path keeps the fault
    on the lease connection alone: node02's member traffic rides its
    gateway to node00, so the only node02<->node03 stream is the lease.
    """
    world, comp = _launch(
        n_nodes=4, heap_mb=8, n_procs=4,
        supervise=True, tree_fanout=2, coordinator_host="node03",
    )
    inj = FaultInjector(world, comp)
    inj.arm(
        FaultPlan.schedule(
            [FaultEvent("drop-coord-frames", target="node02", phase="store.lease")]
        )
    )
    out = comp.checkpoint()
    assert [e["detail"] for e in inj.log] == ["1 streams reset"]
    assert len(out.records) == 4 and comp.state.aborts == 0
    store = world.store
    assert store.summary()["lease_writers"] == 4  # node02 held a share
    assert store.stats["chunks_stored"] == len(store.chunks)
    for host, paths in out.plan.images_by_host.items():
        for path in paths:
            assert store.image_restorable(_image_file(world, host, path).payload)
    assert not world.scheduler.failures
