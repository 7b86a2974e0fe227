"""A peer dies at every checkpoint barrier; the cluster must recover.

The acceptance property from the fault-injection issue: whatever barrier
an in-flight checkpoint is at when a member silently dies, the survivors
must return to RUNNING within the configured timeout -- either because
the coordinator aborted the checkpoint (watchdog / barrier timeout) or
because it shrank the quorum and completed without the dead member.
Either way there must be no leaked drain tokens in surviving sockets and
no half-written ``*.tmp`` images left behind.
"""

from dataclasses import replace

import pytest

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.core.launch import DmtcpComputation
from repro.core.protocol import CHECKPOINT_BARRIERS
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.scenarios import _chaos_apps
from repro.faults.supervisor import _image_file
from repro.kernel.process import ProgramSpec, RegionSpec
from repro.kernel.streams import CTRL_DRAIN_TOKEN
from repro.kernel.world import HIJACK_ENV
from repro.obs.tracer import PH_BEGIN, proc_track

#: Shrunk supervision timeouts so every abort resolves in a few
#: simulated seconds instead of the production-scale defaults.
FAST_SPEC = CLUSTER_2008.with_(
    dmtcp=replace(
        CLUSTER_2008.dmtcp,
        barrier_timeout_s=1.0,
        heartbeat_interval_s=0.5,
        member_recv_timeout_s=2.0,
    )
)

#: One kill point per wire barrier of Section 4.3's algorithm ("resume"
#: is release-only -- members never arrive at it, so it cannot open; the
#: sixth kill point, before any barrier opens, is its own test below).
KILL_POINTS = [
    f"coordinator/barrier:{name}"
    for name in CHECKPOINT_BARRIERS
    if name != "resume"
]


def _build(seed: int):
    world = build_cluster(n_nodes=3, seed=seed, spec=FAST_SPEC)
    world.tracer.enable()
    _chaos_apps(world)
    comp = DmtcpComputation(world, supervise=True)
    comp.launch("node01", "chaos_server")
    comp.launch("node02", "chaos_client")
    world.engine.run(until=1.0)
    return world, comp


def _survivors(world):
    return [p for p in world.live_processes() if p.env.get(HIJACK_ENV)]


def _leaked_drain_tokens(world) -> list:
    """Drain-token chunks still sitting in live processes' rx buffers."""
    leaked = []
    for p in _survivors(world):
        for fd, entry in p.fds.items():
            rx = getattr(entry.description, "rx", None)
            if rx is None:
                continue
            for chunk in rx._chunks:
                if chunk.ctrl == CTRL_DRAIN_TOKEN:
                    leaked.append((p.pid, fd, chunk))
    return leaked


def _tmp_images(world) -> list:
    """Half-written ``*.tmp`` image files anywhere in the ckpt dirs."""
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


@pytest.mark.parametrize("phase", KILL_POINTS)
def test_peer_dies_at_barrier_cluster_returns_to_running(phase):
    world, comp = _build(seed=23)
    inj = FaultInjector(world, comp)
    inj.arm(
        FaultPlan.schedule(
            [FaultEvent("crash-node", target="node02", phase=phase)]
        )
    )
    handle = comp.request_checkpoint()
    world.engine.run(until=world.engine.now + 15.0)

    # the fault actually fired at the requested barrier
    assert len(inj.log) == 1, f"fault never triggered at {phase}"
    assert inj.log[0]["kind"] == "crash-node"

    # the coordinator rolled the cluster back to RUNNING: no barrier is
    # stuck open and the phase machine is idle again
    assert comp.state.phase == "idle"
    assert not comp.state.barriers

    # the checkpoint request resolved one way or the other -- aborted, or
    # completed over the shrunk quorum -- never a silent forever-pending
    assert handle["outcome"] is not None

    # the survivor kept (or resumed) running: out of checkpoint mode,
    # with its threads live
    survivors = _survivors(world)
    assert len(survivors) == 1
    survivor = survivors[0]
    assert survivor.node.hostname == "node01"
    runtime = survivor.user_state["dmtcp"]
    assert not runtime.in_checkpoint
    assert survivor.state == "running"

    # and it makes actual forward progress after the abort
    before = world.tracer.snapshot().get("sys.total", 0)
    world.engine.run(until=world.engine.now + 3.0)
    assert world.tracer.snapshot().get("sys.total", 0) > before

    # rollback hygiene: no drain tokens leaked into app-visible buffers,
    # no torn images left on any live node
    assert _leaked_drain_tokens(world) == []
    assert _tmp_images(world) == []
    # the rollback closed every stage span and the image writer's span
    host = survivor.node.hostname
    for program in (survivor.program, "mtcp"):
        assert world.tracer.open_spans(proc_track(host, program, runtime.vpid)) == 0

    # the silent crash is a fault, not a bug: nothing died unhandled
    assert not world.scheduler.failures


def test_peer_dies_before_suspend_checkpoint_still_resolves():
    """Kill before any barrier opens: the request was broadcast to a
    member that is already gone; the coordinator must notice and either
    finish without it or abort -- not hang."""
    world, comp = _build(seed=24)
    world.crash_node("node02")
    world.engine.run(until=world.engine.now + 0.1)
    handle = comp.request_checkpoint()
    world.engine.run(until=world.engine.now + 15.0)

    assert comp.state.phase == "idle"
    assert handle["outcome"] is not None
    assert _leaked_drain_tokens(world) == []
    assert _tmp_images(world) == []
    assert not world.scheduler.failures


# ----------------------------------------------------------------------
# Store mode: writers park on their lease connection until the whole
# generation has reported, so a death or an abort must un-park them.
# ----------------------------------------------------------------------

MB = 1 << 20


def _store_build(store: bool, supervise: bool, tree: bool, spec=FAST_SPEC):
    """Three same-content heap workers, one per node; node02's is the victim."""
    world = build_cluster(n_nodes=3, seed=23, spec=spec)

    def worker(sys, argv):
        while True:
            yield from sys.cpu(0.1)
            yield from sys.sleep(0.1)

    world.register_program(
        "heapworker",
        worker,
        ProgramSpec("heapworker", regions=(RegionSpec("heap", 4 * MB, "numeric"),)),
    )
    comp = DmtcpComputation(
        world, store=store, supervise=supervise, tree_fanout=2 if tree else None
    )
    procs = [comp.launch(host, "heapworker") for host in world.machine.hostnames]
    world.engine.run(until=1.0)
    return world, comp, procs[2]


def _crash_when(world, victim, span: str, track_prefix: str, fin: bool) -> list:
    """Crash ``victim`` the first time ``span`` opens on a matching track;
    with ``fin`` its host kernel resets the connections (peers see EOF)."""
    fired: list = []

    def hook(ph, track, name, now):
        if ph == PH_BEGIN and name == span and track.startswith(track_prefix) and not fired:
            fired.append(now)
            world.crash_process(victim, reset_peers=fin)

    world.tracer.add_span_hook(hook)
    return fired


def _checkpoint_result(world, comp):
    handle = comp.request_checkpoint()
    world.engine.run(until=world.engine.now + 15.0)
    outcome = handle["outcome"]
    return outcome if isinstance(outcome, str) else len(outcome.records)


def _dead_lease_owners(world) -> list:
    live = {
        (p.node.hostname, p.user_state["dmtcp"].vpid) for p in _survivors(world)
    }
    return [
        meta.lease_owner
        for meta in world.store.chunks.values()
        if meta.lease_owner is not None and meta.lease_owner not in live
    ]


@pytest.mark.parametrize("tree", [False, True], ids=["star", "tree"])
@pytest.mark.parametrize("supervise", [True, False], ids=["supervised", "plain"])
def test_member_dies_before_its_manifest_generation_leases_without_it(supervise, tree):
    """The victim dies after the drain barrier released but before it
    sent a manifest.  The store-on run must resolve exactly as the
    store-off run does, with nobody left parked."""
    results = {}
    for store in (False, True):
        world, comp, victim = _store_build(store, supervise, tree)
        threads_before = len(comp.coordinator_process.live_threads)
        # supervised: a silent crash, found by the heartbeat; plain: the
        # host resets the sockets (nothing else would ever notice)
        fired = _crash_when(world, victim, "mtcp.write", "node02/", fin=not supervise)
        result = _checkpoint_result(world, comp)
        assert fired, "victim never reached its write stage"
        assert comp.state.phase == "idle"
        assert not world.scheduler.failures
        results[store] = (
            result,
            comp.state.aborts,
            len(comp.coordinator_process.live_threads) - threads_before,
        )
    assert results[True] == results[False]
    assert results[True][0] == 2  # completed over the shrunken quorum
    assert results[True][2] <= 0  # no connection thread left parked
    assert comp.state.store_parked == {}
    assert _dead_lease_owners(world) == []
    assert all(
        not p.user_state["dmtcp"].in_checkpoint and p.state == "running"
        for p in _survivors(world)
    )


def test_abort_flushes_parked_writers_at_once():
    """Nobody notices the silent death (no heartbeat within the window),
    so the watchdog aborts while two writers are parked on their lease
    connection.  They must roll back on the abort itself, not by waiting
    out their own RPC deadline."""
    slow_heartbeat = FAST_SPEC.with_(
        dmtcp=replace(FAST_SPEC.dmtcp, heartbeat_interval_s=30.0)
    )
    world, comp, victim = _store_build(True, True, False, spec=slow_heartbeat)
    world.tracer.enable()
    threads_before = len(comp.coordinator_process.live_threads)
    _crash_when(world, victim, "mtcp.write", "node02/", fin=False)
    assert _checkpoint_result(world, comp) == "aborted"
    assert comp.state.phase == "idle" and comp.state.store_parked == {}
    snap = world.tracer.snapshot()
    assert snap.get("dmtcp.checkpoints_aborted") == 2
    assert snap.get("resilience.deadline_expired", 0) == 0
    waits = world.tracer.spans(cat="store")
    assert waits and max(s["duration"] for s in waits) < 2.0  # < RPC deadline
    # the silently dead member's thread is still blocked in recv (as in
    # a store-off run); the two writers' private connections are gone
    assert len(comp.coordinator_process.live_threads) == threads_before
    assert all(p.state == "running" for p in _survivors(world))
    assert not world.scheduler.failures


@pytest.mark.parametrize("supervise", [True, False], ids=["supervised", "plain"])
def test_lease_holder_death_orphans_no_chunk(supervise):
    """The victim dies holding its share of the generation's leases.
    Supervised, the checkpoint aborts (survivors reference chunks nobody
    will push); either way no chunk keeps a dead lease owner and the
    next checkpoint stores everything."""
    world, comp, victim = _store_build(True, supervise, False)
    fired = _crash_when(world, victim, "store.lease", "coordinator/", fin=True)
    result = _checkpoint_result(world, comp)
    assert fired
    assert result == ("aborted" if supervise else 2)
    assert _dead_lease_owners(world) == []
    assert comp.state.store_parked == {}
    out = comp.checkpoint()
    assert len(out.records) == 2
    for host, paths in out.plan.images_by_host.items():
        for path in paths:
            assert world.store.image_restorable(_image_file(world, host, path).payload)
    assert not world.scheduler.failures
