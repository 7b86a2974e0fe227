"""A finished checkpoint is published off the coordinator's dispatch path.

``_finish_checkpoint`` stamps the outcome, goes idle and queues it; a
detached publisher writes the restart script, records the outcome in
``history``, answers the command clients and fires the completion
callbacks, oldest first.  These tests pin what that buys (no tenant of
the hub waits on another tenant's script write) and what it keeps (a
recorded checkpoint has its script on disk; generations publish in
order; a coordinator killed mid-publish leaves the generation to the
failover retry).
"""

from dataclasses import replace

import pytest

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.core import protocol as P
from repro.core.coordinator import (
    CheckpointOutcome,
    CoordinatorState,
    _finish_checkpoint,
    _start_checkpoint,
)
from repro.core.launch import DmtcpComputation
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.scenarios import _chaos_apps
from repro.faults.supervisor import AutoRestartSupervisor
from repro.harness.service import service_spec
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import connect_retry, recv_frame, send_frame
from repro.service import CoordinatorHub, TenantRegistry
from repro.service.scheduler import TenantJob, register_worker_program

RANKS = 4


def _file(world, host, path):
    return world.node_state(host).mounts.resolve(path).namespace.lookup(path)


def _hub_tenants(names, batched=True, op_latency_s=None, ranks=RANKS):
    """``names`` tenants behind one hub, ``ranks`` ranks each on its own
    node."""
    spec = service_spec()
    if op_latency_s is not None:
        spec = spec.with_(disk=replace(spec.disk, op_latency_s=op_latency_s))
    world = build_cluster(n_nodes=1 + len(names), spec=spec, seed=0)
    hub = CoordinatorHub(world, batched=batched)
    registry = TenantRegistry(world, hub)
    jobs = {}
    register_worker_program(world, jobs)
    comps = []
    for i, name in enumerate(names):
        jobs[name] = TenantJob(
            name=name, priority=1, slots=ranks, arrival_t=0.0, slices=100_000
        )
        comp = registry.create_tenant(name)
        for rank in range(ranks):
            comp.launch(
                world.machine.hostnames[1 + i], "svc_worker",
                argv=["svc_worker", name, str(rank)],
            )
        comps.append(comp)
    world.engine.run(until=0.5)
    return world, hub, comps


def _storm(world, comps) -> list:
    """Request every tenant's checkpoint at one instant; wait for all."""
    handles = [comp.request_checkpoint() for comp in comps]
    world.engine.run_until(lambda: all(h["outcome"] is not None for h in handles))
    outcomes = [h["outcome"] for h in handles]
    assert all(isinstance(o, CheckpointOutcome) for o in outcomes), outcomes
    return outcomes


# -- (a) no head-of-line blocking on a script write --------------------

@pytest.mark.parametrize("batched", [True, False], ids=["batched", "per-message"])
def test_tenants_do_not_queue_behind_each_others_script_write(batched):
    """Two tenants finish in the same hub batch.  With a 5 ms open on
    the hub's disk, a script written on the dispatcher would hold the
    second tenant's finish for the first one's open; off it, the two
    finish within a millisecond of each other."""
    world, hub, comps = _hub_tenants(("aaa", "bbb"), batched, op_latency_s=5e-3)
    a, b = _storm(world, comps)
    assert abs(a.finished_at - b.finished_at) < 1e-3
    # the dispatcher never held on a disk op
    assert hub.apply_max_s < 5e-3, hub.stats()
    for comp, outcome in zip(comps, (a, b)):
        assert comp.state.history == [outcome]


def test_each_hub_tenant_writes_its_own_restart_script():
    """Every tenant shares the hub's host: each tenant's script lands
    under its own checkpoint directory and holds its own newest plan."""
    names = ("t0", "t1", "t2", "t3")
    world, hub, comps = _hub_tenants(names)
    for _ in range(2):
        _storm(world, comps)
    for i, (name, comp) in enumerate(zip(names, comps)):
        script = _file(world, hub.host, f"/tmp/dmtcp/{name}/dmtcp_restart_script.sh")
        assert script is not None, name
        assert script.payload is comp.state.history[-1].plan
        assert script.payload.ckpt_id == 2
        assert list(script.payload.images_by_host) == [world.machine.hostnames[1 + i]]
    # nothing at the single-tenant path: no tenant owns it
    assert _file(world, hub.host, "/tmp/dmtcp/dmtcp_restart_script.sh") is None


# -- (b) what holds when the completion callback fires -----------------

def _ok_client(world, seen: list, host: str, port: int, tenant: str):
    """A bare ``dmtcp command --checkpoint`` that notes when its reply
    lands."""

    def main(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, host, port)
        command = P.msg(P.MSG_COMMAND, cmd="checkpoint", options={}, arg="checkpoint")
        if tenant:
            command["tenant"] = tenant
        yield from send_frame(sys, fd, command, P.CTL_FRAME_BYTES)
        reply = yield from recv_frame(sys, fd, FrameAssembler())
        seen.append((reply[0], world.engine.now))

    return main


def _single_coordinator():
    world = build_cluster(n_nodes=2, spec=service_spec(), seed=0)
    jobs = {"solo": TenantJob(
        name="solo", priority=1, slots=RANKS, arrival_t=0.0, slices=100_000
    )}
    register_worker_program(world, jobs)
    comp = DmtcpComputation(world)
    for rank in range(RANKS):
        comp.launch("node01", "svc_worker", argv=["svc_worker", "solo", str(rank)])
    world.engine.run(until=0.5)
    return world, comp


@pytest.mark.parametrize("deployment", ["coordinator", "batched", "per-message"])
def test_published_state_at_callback_time(deployment):
    if deployment == "coordinator":
        world, comp = _single_coordinator()
    else:
        world, _hub, (comp,) = _hub_tenants(("solo",), deployment == "batched")
    state = comp.state
    path = state.script_path
    fired = []

    def on_complete(outcome):
        script = _file(world, comp.coordinator_host, path)
        fired.append((
            outcome, script.payload, script.last_write_time,
            state.history[-1], world.engine.now,
        ))

    state.on_checkpoint_complete.append(on_complete)
    seen = []
    world.register_program(
        "ok_client",
        _ok_client(world, seen, comp.coordinator_host, state.port, state.tenant),
    )
    world.spawn_process(comp.coordinator_host, "ok_client", argv=["ok_client"])
    world.engine.run_until(lambda: bool(seen))
    world.engine.run(until=world.engine.now + 0.1)

    ((outcome, payload, written_at, recorded, fired_at),) = fired
    assert payload is outcome.plan
    assert recorded is outcome
    assert written_at <= fired_at
    ((reply, ok_at),) = seen
    assert reply["kind"] == "ok" and reply["ckpt_id"] == outcome.ckpt_id
    assert ok_at >= written_at
    assert not state.unpublished


# -- (c) one state's generations publish in ckpt_id order --------------

def test_two_finishes_publish_in_ckpt_id_order():
    """Two finishes queue before the publisher's script open (50 ms)
    completes: the one publisher drains both, oldest first."""
    spec = CLUSTER_2008.with_(disk=replace(CLUSTER_2008.disk, op_latency_s=0.05))
    world = build_cluster(n_nodes=1, spec=spec, seed=0)
    world.tracer.enable()
    state = CoordinatorState(port=7779, tracer=world.tracer, spec=world.spec.dmtcp)
    order, queued = [], []
    state.on_checkpoint_complete.append(
        lambda o: order.append((o.ckpt_id, list(state.history)))
    )

    def main(sys, argv):
        for ckpt_id in (1, 2):
            yield from _start_checkpoint(sys, state, {})
            state.images_by_host = {"node00": [f"/tmp/dmtcp/ckpt_{ckpt_id}.mtcp"]}
            yield from _finish_checkpoint(sys, state)
        queued.append(len(state.unpublished))
        while state.unpublished:
            yield from sys.sleep(0.01)

    world.register_program("finisher", main)
    proc = world.spawn_process("node00", "finisher", argv=["finisher"])
    world.engine.run()

    assert queued == [2]  # both finishes landed before either published
    assert [o.ckpt_id for o in state.history] == [1, 2]
    assert [ckpt_id for ckpt_id, _ in order] == [1, 2]
    # each callback saw its own outcome as the newest record
    assert [hist[-1].ckpt_id for _, hist in order] == [1, 2]
    script = _file(world, "node00", state.script_path)
    assert script.payload is state.history[-1].plan
    # one publisher thread beside the main one, one span per generation
    # on its own track: the next round's span may open mid-publish
    assert proc.threads_started == 2
    assert world.tracer.snapshot()["coord.publishes"] == 2
    spans = world.tracer.spans(track="coordinator/publish")
    assert [s["name"] for s in spans] == ["publish", "publish"]
    rounds = world.tracer.spans(track="coordinator")
    assert [s["name"] for s in rounds] == ["checkpoint", "checkpoint"]
    assert not world.scheduler.failures


# -- (d) a coordinator killed mid-publish ------------------------------

FAST_SPEC = CLUSTER_2008.with_(
    dmtcp=replace(
        CLUSTER_2008.dmtcp,
        barrier_timeout_s=1.0,
        heartbeat_interval_s=0.5,
        member_recv_timeout_s=2.0,
        failover_retry_timeout_s=2.0,
    )
)


def test_kill_mid_publish_leaves_generation_to_failover_retry():
    """The kill lands after the finish and before the script write: the
    generation is never recorded, the respawn stamps a failover retry,
    and the replacement coordinator re-runs the checkpoint."""
    world = build_cluster(n_nodes=3, seed=41, spec=FAST_SPEC)
    world.tracer.enable()
    _chaos_apps(world)
    comp = DmtcpComputation(world, interval=2.0, supervise=True)
    comp.launch("node01", "chaos_server")
    comp.launch("node02", "chaos_client")
    sup = AutoRestartSupervisor(world, comp, expected=2)
    sup.start()
    world.engine.run(until=1.0)
    inj = FaultInjector(world, comp)
    inj.arm(FaultPlan.schedule([FaultEvent("kill-coordinator", phase="publish")]))
    world.engine.run(until=world.engine.now + 25.0)
    sup.stop()

    assert [e["kind"] for e in inj.log] == ["kill-coordinator"]
    t_kill = inj.log[0]["t"]
    assert sup.stats["coordinator_respawns"] == 1
    assert sup.stats["restarts"] == 0
    ids = [o.ckpt_id for o in comp.state.history]
    assert 1 not in ids  # killed before its script: never recorded
    snap = world.tracer.snapshot()
    assert snap.get("coord.failover_interrupted_ckpts", 0) == 1
    assert snap.get("coord.failover_retries", 0) >= 1
    fresh = [o for o in comp.state.history if o.finished_at > t_kill]
    assert fresh and fresh[0].plan.total_processes == 2
    assert fresh[0].finished_at - t_kill <= 8.0
    # every recorded generation's script was written, the newest last
    script = _file(world, comp.coordinator_host, comp.state.script_path)
    assert script.payload is comp.state.history[-1].plan
    # the aborted publish span was closed by the respawn
    assert world.tracer.open_spans(comp.state.track) == 0
    assert not world.scheduler.failures
