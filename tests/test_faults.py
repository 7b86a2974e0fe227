"""Unit tests for the fault-injection subsystem (``repro.faults``)."""

import pytest

from repro.cluster import build_cluster
from repro.core.launch import DmtcpComputation
from repro.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultPlan,
    find_newest_valid_plan,
)
from repro.faults.scenarios import _chaos_apps
from repro.faults.supervisor import AutoRestartSupervisor, _image_file, _image_valid


# ----------------------------------------------------------------------
# Plans are pure, validated data
# ----------------------------------------------------------------------

def test_fault_event_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultEvent("meteor-strike", at=1.0)


def test_fault_event_needs_exactly_one_trigger():
    with pytest.raises(ValueError, match="exactly one"):
        FaultEvent("crash-node", target="node01")  # neither at= nor phase=
    with pytest.raises(ValueError, match="exactly one"):
        FaultEvent("crash-node", target="node01", at=1.0, phase="x")  # both


def test_schedule_orders_timed_events():
    plan = FaultPlan.schedule(
        [
            FaultEvent("crash-node", target="a", at=9.0),
            FaultEvent("crash-node", target="b", at=3.0),
            FaultEvent("crash-node", target="c", phase="coordinator/barrier:drained"),
        ]
    )
    assert [e.at for e in plan] == [3.0, 9.0, None]


def test_poisson_plan_is_deterministic():
    mk = lambda: FaultPlan.poisson(
        seed=42, mtbf_s=30.0, horizon_s=300.0, targets=["node01", "node02"]
    )
    a, b = mk(), mk()
    assert len(a) > 0
    assert a.events == b.events
    # a different seed gives a different timeline
    c = FaultPlan.poisson(
        seed=43, mtbf_s=30.0, horizon_s=300.0, targets=["node01", "node02"]
    )
    assert a.events != c.events


def test_describe_covers_every_kind():
    for kind in FAULT_KINDS:
        line = FaultEvent(kind, target="node01", at=1.5, duration=2.0).describe()
        assert kind in line


# ----------------------------------------------------------------------
# The injector fires faults against a live world
# ----------------------------------------------------------------------

def test_timed_crash_node_fires_and_logs():
    world = build_cluster(n_nodes=2, seed=5)
    inj = FaultInjector(world)
    inj.arm(FaultPlan.schedule([FaultEvent("crash-node", target="node01", at=2.0)]))
    world.engine.run(until=3.0)
    assert world.node_state("node01").down
    assert [f["kind"] for f in inj.log] == ["crash-node"]
    assert inj.log[0]["t"] == 2.0


def test_phase_trigger_fires_once_at_named_span():
    """A phase-armed event strikes when the named barrier opens -- once."""
    world = build_cluster(n_nodes=3, seed=6)
    _chaos_apps(world)
    comp = DmtcpComputation(world, interval=5.0, supervise=True)
    comp.launch("node01", "chaos_server")
    comp.launch("node02", "chaos_client")
    inj = FaultInjector(world, comp)
    inj.arm(
        FaultPlan.schedule(
            [FaultEvent("crash-node", target="node02", phase="coordinator/barrier:drained")]
        )
    )
    world.engine.run(until=30.0)  # several checkpoint intervals
    assert len(inj.log) == 1  # one-shot, despite many drain barriers
    assert inj.log[0]["kind"] == "crash-node"
    assert world.node_state("node02").down
    # the hook removed itself once the plan drained
    assert not inj._hook_armed


def test_partition_heals_after_duration():
    world = build_cluster(n_nodes=2, seed=7)
    net = world.machine.network
    inj = FaultInjector(world)
    inj.arm(
        FaultPlan.schedule(
            [FaultEvent("partition", target="node00", peer="node01", at=1.0, duration=2.0)]
        )
    )
    world.engine.run(until=1.5)
    assert net.path_blocked("node00", "node01")
    world.engine.run(until=4.0)
    assert not net.path_blocked("node00", "node01")


# ----------------------------------------------------------------------
# Image validation: the supervisor never restarts from a torn image
# ----------------------------------------------------------------------

def _checkpointed_world(seed=8):
    world = build_cluster(n_nodes=2, seed=seed)

    def app(sys, argv):
        while True:
            yield from sys.sleep(0.25)

    world.register_program("idleapp", app)
    comp = DmtcpComputation(world)
    comp.launch("node00", "idleapp")
    world.engine.run(until=1.0)
    comp.checkpoint()
    return world, comp


def test_find_newest_valid_plan_accepts_whole_images():
    world, comp = _checkpointed_world()
    found = find_newest_valid_plan(world, comp.state, expected=1)
    assert found is comp.state.history[-1]


def test_find_newest_valid_plan_skips_torn_image():
    world, comp = _checkpointed_world()
    path = comp.state.history[-1].plan.images_by_host["node00"][0]
    ns = world.node_state("node00").mounts.resolve(path).namespace
    ns.lookup(path).payload = None  # a torn write never holds a payload
    assert find_newest_valid_plan(world, comp.state, expected=1) is None


def test_find_newest_valid_plan_skips_missing_image():
    world, comp = _checkpointed_world()
    path = comp.state.history[-1].plan.images_by_host["node00"][0]
    world.node_state("node00").mounts.resolve(path).namespace.unlink(path)
    assert find_newest_valid_plan(world, comp.state, expected=1) is None


def test_find_newest_valid_plan_skips_partial_checkpoints():
    world, comp = _checkpointed_world()
    # a quorum-shrunk checkpoint covering 1 of 2 expected processes
    assert find_newest_valid_plan(world, comp.state, expected=2) is None


def test_supervisor_skips_a_plan_whose_manifest_sidecar_is_torn():
    """A ``.manifest`` with no payload certifies nothing.  The supervisor's
    selection and ``dmtcp_restart --validate`` share one predicate, so the
    supervisor issues no restart its own validation would fail with EIO:
    it logs the skipped lineage and waits, and restarts cleanly once the
    sidecar certifies the image again."""
    world = build_cluster(n_nodes=2, seed=8)

    def app(sys, argv):
        while True:
            yield from sys.sleep(0.25)

    world.register_program("idleapp", app)
    comp = DmtcpComputation(world, supervise=True)  # atomic images, --validate
    comp.launch("node00", "idleapp")
    world.engine.run(until=1.0)
    ckpt = comp.checkpoint()
    (path,) = ckpt.plan.images_by_host["node00"]
    sidecar = _image_file(world, "node00", path + ".manifest")
    certified, sidecar.payload = sidecar.payload, None  # torn: contents never landed
    assert not _image_valid(world, "node00", path)
    assert find_newest_valid_plan(world, comp.state, expected=1) is None

    sup = AutoRestartSupervisor(world, comp, expected=1)
    sup.start()
    comp.kill_computation()
    world.engine.run(until=world.engine.now + 3.0)
    assert sup.stats["restarts"] == sup.stats["failed_restarts"] == 0
    skips = [e for t, e in world.scheduler.failures if t.name.startswith("lineage-skip")]
    assert len(skips) == 1 and path in str(skips[0])
    assert len(world.scheduler.failures) == 1  # no restart failed
    world.scheduler.failures.clear()

    sidecar.payload = certified
    world.engine.run(until=world.engine.now + 5.0)
    sup.stop()
    assert [e["ckpt_id"] for e in sup.events if e["event"] == "restart"] == [ckpt.plan.ckpt_id]
    assert sup.stats["recoveries"] == 1 and sup.stats["failed_restarts"] == 0
    assert not world.scheduler.failures, world.scheduler.failures
