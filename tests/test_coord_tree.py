"""Hierarchical coordination (repro.coord.tree): correctness + chaos.

The propagation tree must be invisible to the protocol -- checkpoints,
restarts and supervision behave exactly as in flat-star mode -- while
cutting the root's barrier traffic from O(processes) to O(fanout).
Chaos coverage kills gateways mid-barrier and mid-restart: the
coordinator must abort (never hang), the supervisor must re-tree around
the dead gateway, and no process may end up stranded in checkpoint mode.
"""

from dataclasses import replace

import pytest

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.coord.nodeset import NodeSet
from repro.coord.tree import TreeTopology
from repro.core.launch import DmtcpComputation
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.supervisor import AutoRestartSupervisor
from repro.kernel.world import HIJACK_ENV

#: Shrunk supervision timeouts (same idea as test_checkpoint_abort's
#: FAST_SPEC) plus a fast gateway heartbeat so tree chaos resolves in a
#: few simulated seconds.
FAST_SPEC = CLUSTER_2008.with_(
    dmtcp=replace(
        CLUSTER_2008.dmtcp,
        barrier_timeout_s=1.0,
        heartbeat_interval_s=0.5,
        member_recv_timeout_s=2.0,
        tree_heartbeat_s=0.5,
        supervisor_poll_s=0.5,
    )
)


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


def counter(world):
    log = []

    def main(sys, argv):
        for i in range(2000):
            yield from sys.sleep(0.1)
            log.append(i)

    world.register_program("counter", main)
    return log


def _survivors(world):
    return [p for p in world.live_processes() if p.env.get(HIJACK_ENV)]


def _none_stranded(world):
    """No live member is stuck inside the checkpoint protocol."""
    for p in _survivors(world):
        runtime = p.user_state.get("dmtcp")
        if runtime is not None:
            assert not runtime.in_checkpoint, (p.program, p.pid)


def _build_tree(n_nodes, fanout, per_node, seed, spec=None, supervise=False):
    world = build_cluster(n_nodes=n_nodes, seed=seed, spec=spec)
    world.tracer.enable()
    log = counter(world)
    comp = DmtcpComputation(world, tree_fanout=fanout, supervise=supervise)
    for i in range(n_nodes):
        for _ in range(per_node):
            comp.launch(f"node{i:02d}", "counter")
    world.engine.run(until=1.0)
    return world, comp, log


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
# Each check runs at fanout 2 (a two-level forest) and at fanout = node
# count: the depth-1 tree, every gateway top-level, which is the paper's
# Section-6 two-level combining tree (one combiner per node).
def _check_checkpoints_correctly(fanout, seed):
    world, comp, log = _build_tree(n_nodes=4, fanout=fanout, per_node=3, seed=seed)
    outcome = comp.checkpoint()
    assert len(outcome.records) == 12
    n = len(log)
    world.engine.run(until=world.engine.now + 2.0)
    assert len(log) > n  # resumed
    no_failures(world)


def test_tree_mode_checkpoints_correctly():
    _check_checkpoints_correctly(fanout=2, seed=91)


def test_depth1_tree_checkpoints_correctly():
    _check_checkpoints_correctly(fanout=4, seed=81)


def _check_reduces_root_barrier_messages(fanout):
    """The root sees O(gateways) barrier messages, not O(processes)."""
    world, comp, _ = _build_tree(n_nodes=4, fanout=fanout, per_node=4, seed=92)
    comp.checkpoint()
    tree_msgs = comp.state.barrier_messages

    world2 = build_cluster(n_nodes=4, seed=92)
    counter(world2)
    star = DmtcpComputation(world2)
    for i in range(4):
        for _ in range(4):
            star.launch(f"node{i:02d}", "counter")
    world2.engine.run(until=1.0)
    star.checkpoint()
    star_msgs = star.state.barrier_messages

    # 16 processes x ~6 barriers at the star root vs one counted message
    # per (top-level gateway, barrier) at the tree root
    assert star_msgs >= 16 * 5
    assert tree_msgs <= star_msgs / 2, (tree_msgs, star_msgs)
    no_failures(world)
    assert not world2.scheduler.failures


def test_tree_mode_reduces_root_barrier_messages():
    _check_reduces_root_barrier_messages(fanout=2)


def test_depth1_tree_reduces_root_barrier_messages():
    _check_reduces_root_barrier_messages(fanout=4)


def _check_kill_and_restart(fanout, placement):
    """Restored managers reach the restart barriers through the gateway
    of whichever host they were placed on."""
    world, comp, log = _build_tree(n_nodes=4, fanout=fanout, per_node=1, seed=93)
    comp.checkpoint(kill=True)
    n_at_kill = len(log)
    restart = comp.restart(placement=placement)
    assert restart.duration > 0
    world.engine.run(until=world.engine.now + 3.0)
    assert len(log) > n_at_kill
    no_failures(world)


def test_tree_mode_kill_and_restart_with_placement():
    _check_kill_and_restart(fanout=2, placement={"node03": "node01"})


def test_depth1_tree_kill_and_restart_with_placement():
    _check_kill_and_restart(
        fanout=4, placement={"node00": "node02", "node01": "node03"}
    )


def test_tree_topology_matches_nodeset_ranks():
    """Gateway wiring follows NodeSet order over the machine file."""
    world, comp, _ = _build_tree(n_nodes=5, fanout=2, per_node=1, seed=94)
    assert str(comp.node_set) == "node[00-04]"
    topo = comp.topology
    assert isinstance(topo, TreeTopology)
    for rank in topo:
        host = comp.node_set[rank]
        assert host in comp.gateway_processes
        parent = topo.parent(rank)
        if parent is not None:
            assert rank in topo.children(parent)
    # every host got exactly one gateway and they are all alive
    assert sorted(comp.gateway_processes) == sorted(world.machine.hostnames)
    assert all(p.alive for p in comp.gateway_processes.values())


def test_tree_mode_sparse_membership():
    """Regression: nothing assumes dense node numbering.  A membership
    with holes (node01, node03 missing) checkpoints and restarts fine,
    and FailureLog.by_nodeset selects by hostname, never by rank."""
    hostnames = ["node00", "node02", "node05", "node06"]
    world = build_cluster(hostnames=hostnames, seed=95)
    world.tracer.enable()
    log = counter(world)

    def crasher(sys, argv):
        yield from sys.sleep(0.4)
        raise RuntimeError("boom on " + argv[1])

    world.register_program("crasher", crasher)
    comp = DmtcpComputation(world, tree_fanout=2)
    assert str(comp.node_set) == "node[00,02,05-06]"
    for host in hostnames:
        comp.launch(host, "counter")
    world.spawn_process("node05", "crasher", argv=["crasher", "node05"])
    world.engine.run(until=1.0)

    outcome = comp.checkpoint()
    assert len(outcome.records) == 4
    assert sorted(outcome.plan.images_by_host) == hostnames
    n = len(log)
    world.engine.run(until=world.engine.now + 2.0)
    assert len(log) > n

    # the injected app failure is attributed to its hostname, and
    # nodeset queries over the sparse membership select exactly it
    failures = world.scheduler.failures
    assert len(failures.by_nodeset("node[05]")) == 1
    assert len(failures.by_nodeset(NodeSet("node[00,02,06]"))) == 0
    assert len(failures.by_nodeset("node[00-06]")) == 1


def test_coordscale_probe_tree_beats_star():
    """The scaling probe (harness/coordscale.py) sees the O(n) vs
    O(log n) separation already at 128 processes."""
    from repro.harness.coordscale import run_coord_scale_point

    star = run_coord_scale_point(128, mode="star")
    tree = run_coord_scale_point(128, mode="tree")
    assert star.n_procs == tree.n_procs == 128
    assert set(star.barrier_latency_s) == set(tree.barrier_latency_s)
    assert tree.mean_barrier_latency_s < star.mean_barrier_latency_s
    assert tree.root_messages < star.root_messages / 4


# ----------------------------------------------------------------------
# Chaos: dead gateways
# ----------------------------------------------------------------------
def _crash_gateway_at(world, comp, host, phase):
    inj = FaultInjector(world, comp)
    inj.arm(
        FaultPlan.schedule([FaultEvent("crash-gateway", target=host, phase=phase)])
    )
    return inj


@pytest.mark.parametrize("victim", ["node00", "node03"])
def test_gateway_dies_mid_barrier_watchdog_aborts(victim):
    """Kill a gateway (top-level and leaf) while the drain barrier is
    open: the coordinator must abort rather than hang, and every
    surviving member must return to RUNNING."""
    world, comp, log = _build_tree(
        n_nodes=4, fanout=2, per_node=2, seed=96, spec=FAST_SPEC, supervise=True
    )
    inj = _crash_gateway_at(world, comp, victim, "coordinator/barrier:drained")
    handle = comp.request_checkpoint()
    world.engine.run(until=world.engine.now + 15.0)

    assert len(inj.log) == 1, "fault never triggered"
    assert not comp.gateway_processes[victim].alive or True  # may be respawned
    # the round resolved -- aborted or completed -- never forever-pending
    assert handle["outcome"] is not None
    assert comp.state.phase == "idle"
    assert not comp.state.barriers

    # nobody is stranded inside the protocol, and the apps make progress
    _none_stranded(world)
    n = len(log)
    world.engine.run(until=world.engine.now + 3.0)
    assert len(log) > n
    no_failures(world)


def test_supervisor_retrees_around_dead_gateway_and_next_checkpoint_works():
    """AutoRestartSupervisor step 1b: a silently dead gateway is
    respawned in place; orphaned managers reconnect to the node-local
    port and the next checkpoint covers the full membership again."""
    world, comp, log = _build_tree(
        n_nodes=4, fanout=2, per_node=2, seed=97, spec=FAST_SPEC, supervise=True
    )
    sup = AutoRestartSupervisor(world, comp, expected=8)
    sup.start()
    inj = _crash_gateway_at(world, comp, "node01", "coordinator/barrier:drained")
    handle = comp.request_checkpoint()
    world.engine.run(until=world.engine.now + 20.0)

    assert len(inj.log) == 1
    assert handle["outcome"] is not None
    assert sup.stats["gateway_respawns"] >= 1
    assert comp.gateway_processes["node01"].alive
    assert any(e["event"] == "respawn-gateway" for e in sup.events)

    # after re-treeing, a fresh checkpoint spans all 8 processes
    outcome = comp.checkpoint()
    assert len(outcome.records) == 8
    _none_stranded(world)
    sup.stop()
    no_failures(world)


def test_gateway_dies_mid_restart_supervisor_recovers():
    """Kill a gateway while the restart barriers are in flight: the
    coordinator aborts the restart, the supervisor re-trees and
    gang-restarts again, and the computation comes back whole."""
    world, comp, log = _build_tree(
        n_nodes=4, fanout=2, per_node=1, seed=98, spec=FAST_SPEC, supervise=True
    )
    outcome = comp.checkpoint(kill=True)
    assert len(outcome.records) == 4

    inj = _crash_gateway_at(
        world, comp, "node01", "coordinator/barrier:restart-checkpointed"
    )
    sup = AutoRestartSupervisor(world, comp, expected=4)
    sup.start()
    world.engine.run(until=world.engine.now + 60.0)
    sup.stop()

    assert len(inj.log) == 1, "fault never triggered"
    assert sup.stats["gateway_respawns"] >= 1
    assert comp.gateway_processes["node01"].alive
    # recovered: the full membership is live and running again
    live = _survivors(world)
    assert len(live) == 4, [(p.program, p.node.hostname) for p in live]
    _none_stranded(world)
    n = len(log)
    world.engine.run(until=world.engine.now + 3.0)
    assert len(log) > n
    no_failures(world)
