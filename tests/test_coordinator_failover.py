"""The coordinator dies at every barrier phase; failover must be live.

Mirror of ``test_checkpoint_abort.py`` with the roles flipped: there a
*member* dies and the coordinator recovers the cluster; here the
coordinator itself dies -- at each wire barrier, while idle, and in tree
mode -- and the resilience layer (DESIGN.md section 15) must absorb it
without a gang restart: the supervisor respawns the process on the same
port, members reconnect with seeded backoff and re-register, and the
interrupted checkpoint is retried once the quorum re-forms.  Lost work
is bounded by one checkpoint interval plus the supervision timeouts.
"""

from dataclasses import replace

import pytest

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.core.launch import DmtcpComputation
from repro.core.coordinator import CheckpointOutcome
from repro.core.protocol import CHECKPOINT_BARRIERS
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.scenarios import _chaos_apps
from repro.faults.supervisor import AutoRestartSupervisor
from repro.kernel.streams import CTRL_DRAIN_TOKEN
from repro.kernel.world import HIJACK_ENV

#: Shrunk supervision timeouts (same regime as test_checkpoint_abort)
#: plus a short failover-retry leash so every kill resolves in a few
#: simulated seconds.
FAST_SPEC = CLUSTER_2008.with_(
    dmtcp=replace(
        CLUSTER_2008.dmtcp,
        barrier_timeout_s=1.0,
        heartbeat_interval_s=0.5,
        member_recv_timeout_s=2.0,
        failover_retry_timeout_s=2.0,
    )
)

#: Checkpoint interval driven by the coordinator's own timer.
INTERVAL_S = 2.0

#: Worst-case time from kill to the next *complete* checkpoint: one
#: interval to the next tick, one barrier round, the failover-retry
#: leash, and slack for respawn-poll + jittered reconnect backoff.
RECOVERY_BOUND_S = (
    INTERVAL_S
    + FAST_SPEC.dmtcp.barrier_timeout_s
    + FAST_SPEC.dmtcp.failover_retry_timeout_s
    + 3.0
)

#: One kill point per wire barrier ("resume" is release-only: members
#: never arrive at it, so its span cannot open).
KILL_POINTS = [
    f"coordinator/barrier:{name}"
    for name in CHECKPOINT_BARRIERS
    if name != "resume"
]


def _build(seed: int, tree_fanout=None):
    world = build_cluster(n_nodes=3, seed=seed, spec=FAST_SPEC)
    world.tracer.enable()
    _chaos_apps(world)
    comp = DmtcpComputation(
        world, interval=INTERVAL_S, supervise=True, tree_fanout=tree_fanout
    )
    comp.launch("node01", "chaos_server")
    comp.launch("node02", "chaos_client")
    sup = AutoRestartSupervisor(world, comp, expected=2)
    sup.start()
    world.engine.run(until=1.0)
    return world, comp, sup


def _members(world):
    return [p for p in world.live_processes() if p.env.get(HIJACK_ENV)]


def _leaked_drain_tokens(world) -> list:
    leaked = []
    for p in _members(world):
        for fd, entry in p.fds.items():
            rx = getattr(entry.description, "rx", None)
            if rx is None:
                continue
            for chunk in rx._chunks:
                if chunk.ctrl == CTRL_DRAIN_TOKEN:
                    leaked.append((p.pid, fd, chunk))
    return leaked


def _tmp_images(world) -> list:
    tmp = []
    for host in world.machine.hostnames:
        node = world.node_state(host)
        if node.down:
            continue
        try:
            mount = node.mounts.resolve("/tmp/dmtcp")
        except Exception:
            continue
        tmp.extend(
            p for p in mount.namespace.listdir("/tmp/dmtcp") if p.endswith(".tmp")
        )
    return tmp


def _assert_live_failover(world, comp, sup, inj, t_kill: float):
    """The shared postcondition of every kill: one respawn, no gang
    restart, a fresh complete checkpoint within the bound, and clean
    rollback hygiene."""
    assert sup.stats["coordinator_respawns"] == 1
    assert sup.stats["restarts"] == 0, "coordinator death must not gang-restart"
    assert sup.stats["nodes_rebooted"] == 0

    # both members survived in place and re-registered with the
    # replacement coordinator
    members = _members(world)
    assert len(members) == 2
    for p in members:
        assert p.state in ("running", "sleeping", "blocked")
        assert not p.user_state["dmtcp"].in_checkpoint
    snap = world.tracer.snapshot()
    assert snap.get("coord.reregistrations", 0) >= 2

    # bounded lost work: a complete post-kill checkpoint landed in time
    fresh = [
        o
        for o in comp.state.history
        if o.finished_at > t_kill and o.plan.total_processes >= 2
    ]
    assert fresh, "no complete checkpoint after failover"
    assert fresh[0].finished_at - t_kill <= RECOVERY_BOUND_S

    # rollback hygiene, and the kill stayed a fault -- never a failure
    assert _leaked_drain_tokens(world) == []
    assert _tmp_images(world) == []
    assert not world.scheduler.failures


@pytest.mark.parametrize("phase", KILL_POINTS)
def test_coordinator_dies_at_barrier_failover_is_live(phase):
    world, comp, sup = _build(seed=41)
    inj = FaultInjector(world, comp)
    inj.arm(
        FaultPlan.schedule([FaultEvent("kill-coordinator", phase=phase)])
    )
    world.engine.run(until=world.engine.now + 25.0)
    sup.stop()

    assert len(inj.log) == 1, f"kill never fired at {phase}"
    assert inj.log[0]["kind"] == "kill-coordinator"
    _assert_live_failover(world, comp, sup, inj, t_kill=inj.log[0]["t"])
    # an in-flight checkpoint died with the coordinator: the respawn
    # stamped a retry and the replacement re-ran it
    snap = world.tracer.snapshot()
    assert snap.get("coord.failover_interrupted_ckpts", 0) == 1
    assert snap.get("coord.failover_retries", 0) >= 1


def _check_idle_kill_failover_is_live(tree_fanout):
    world, comp, sup = _build(seed=42, tree_fanout=tree_fanout)
    inj = FaultInjector(world, comp)
    t_kill = world.engine.now + 0.7  # between interval ticks
    inj.arm(FaultPlan.schedule([FaultEvent("kill-coordinator", at=t_kill)]))
    world.engine.run(until=world.engine.now + 20.0)
    sup.stop()

    assert [e["kind"] for e in inj.log] == ["kill-coordinator"]
    _assert_live_failover(world, comp, sup, inj, t_kill=t_kill)
    # nothing was in flight, so nothing needed a failover retry
    assert world.tracer.snapshot().get("coord.failover_interrupted_ckpts", 0) == 0


def test_coordinator_dies_idle_failover_is_live():
    _check_idle_kill_failover_is_live(tree_fanout=None)


def test_coordinator_dies_idle_failover_is_live_depth1_tree():
    """Supervised per-node aggregation survives coordinator failover:
    the depth-1 tree (fanout = node count) is the Section-6 shape, whose
    former dedicated relay never reconnected to a respawned root."""
    _check_idle_kill_failover_is_live(tree_fanout=3)


def _check_explicit_handle_resolves_through_failover(tree_fanout):
    """A host-side ``request_checkpoint`` handle issued before the kill
    must resolve with a completed outcome -- the retried checkpoint, not
    a silent forever-pending or a terminal abort."""
    world, comp, sup = _build(seed=43, tree_fanout=tree_fanout)
    inj = FaultInjector(world, comp)
    inj.arm(
        FaultPlan.schedule(
            [FaultEvent("kill-coordinator", phase="coordinator/barrier:drained")]
        )
    )
    handle = comp.request_checkpoint()
    world.engine.run(until=world.engine.now + 25.0)
    sup.stop()

    assert len(inj.log) == 1
    assert isinstance(handle["outcome"], CheckpointOutcome)
    assert sup.stats["restarts"] == 0
    assert not world.scheduler.failures


def test_explicit_checkpoint_handle_resolves_through_failover():
    _check_explicit_handle_resolves_through_failover(tree_fanout=None)


def test_explicit_checkpoint_handle_resolves_through_failover_depth1_tree():
    _check_explicit_handle_resolves_through_failover(tree_fanout=3)


def test_tree_gateways_reconnect_and_replay_membership():
    """Tree mode: members talk only to their host gateway; the gateways
    must detect the broken upstream, reconnect, and replay their cached
    member identities as re-registrations."""
    world, comp, sup = _build(seed=44, tree_fanout=2)
    inj = FaultInjector(world, comp)
    inj.arm(
        FaultPlan.schedule(
            [FaultEvent("kill-coordinator", phase="coordinator/barrier:drained")]
        )
    )
    world.engine.run(until=world.engine.now + 25.0)
    sup.stop()

    assert len(inj.log) == 1
    _assert_live_failover(world, comp, sup, inj, t_kill=inj.log[0]["t"])
    snap = world.tracer.snapshot()
    assert snap.get("coord.gw_reconnects", 0) >= 2
    assert sup.stats["gateway_respawns"] == 0  # gateways never died


def test_delayed_coordinator_frames_are_absorbed():
    """`delay-coord-frames`: the coordinator<->worker path stalls (frames
    parked, then re-delivered) -- deadlines fire and the abort machinery
    rolls back, but nobody dies and no respawn happens."""
    world, comp, sup = _build(seed=45)
    inj = FaultInjector(world, comp)
    inj.arm(
        FaultPlan.schedule(
            [FaultEvent("delay-coord-frames", target="node01", at=2.2, duration=3.0)]
        )
    )
    world.engine.run(until=world.engine.now + 20.0)
    sup.stop()

    assert len(inj.log) == 1
    assert inj.log[0]["detail"] == "held for 3s"
    assert sup.stats["coordinator_respawns"] == 0
    assert sup.stats["restarts"] == 0
    # after the hold heals, interval checkpointing resumes and completes
    fresh = [
        o
        for o in comp.state.history
        if o.finished_at > 5.2 and o.plan.total_processes >= 2
    ]
    assert fresh
    assert len(_members(world)) == 2
    assert not world.scheduler.failures


def test_dropped_coordinator_streams_trigger_reregistration():
    """`drop-coord-frames`: established streams reset with no FIN; the
    members' reconnect machinery re-registers without any process having
    died, and checkpointing continues."""
    world, comp, sup = _build(seed=46)
    world.engine.run(until=world.engine.now + 0.5)
    inj = FaultInjector(world, comp)
    t_drop = world.engine.now + 0.2
    inj.arm(
        FaultPlan.schedule(
            [
                FaultEvent("drop-coord-frames", target="node01", at=t_drop),
                FaultEvent("drop-coord-frames", target="node02", at=t_drop),
            ]
        )
    )
    world.engine.run(until=world.engine.now + 15.0)
    sup.stop()

    assert len(inj.log) == 2
    assert all("streams reset" in e["detail"] for e in inj.log)
    assert any(e["detail"] != "0 streams reset" for e in inj.log)
    snap = world.tracer.snapshot()
    assert snap.get("dmtcp.coordinator_reconnects", 0) >= 1
    assert snap.get("coord.reregistrations", 0) >= 1
    assert sup.stats["coordinator_respawns"] == 0
    assert sup.stats["restarts"] == 0
    fresh = [
        o
        for o in comp.state.history
        if o.finished_at > t_drop and o.plan.total_processes >= 2
    ]
    assert fresh
    assert not world.scheduler.failures
