"""Departed connections and dead processes leave nothing behind.

* The coordinator, every tree gateway and the multi-tenant hub close a
  connection once its departure has been applied, so after checkpoint
  requests and a kill -> restart each holds exactly its listener plus
  one descriptor per live member (or child gateway / uplink).
* ``Scheduler.tasks`` is the set of live tasks: a dropped task leaves
  it, and a process torn down with its continuations kept leaves no
  manager thread frozen behind (an image never holds one).
"""

import pytest

from repro.cluster import build_cluster
from repro.core.launch import DmtcpComputation
from repro.kernel.sockets import ListenerSocket, SocketEndpoint
from repro.service import CoordinatorHub, TenantRegistry
from repro.sim.tasks import TaskState


def _sleeper(world):
    def main(sys, argv):
        while True:
            yield from sys.sleep(0.05)

    world.register_program("app", main)


def _kinds(process):
    """(listeners, open stream endpoints) in ``process``'s fd table."""
    descs = [entry.description for entry in process.fds.values()]
    listeners = sum(isinstance(d, ListenerSocket) for d in descs)
    streams = sum(isinstance(d, SocketEndpoint) for d in descs)
    assert listeners + streams == len(descs), descs
    return listeners, streams


def _exercise(world, comp, rounds=3):
    for _ in range(rounds):
        comp.checkpoint()
    comp.restart(plan=comp.checkpoint(kill=True).plan)
    comp.checkpoint()
    world.engine.run(until=world.engine.now + 1.0)


def _no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


@pytest.mark.parametrize("mode", ["star", "tree"])
def test_coordinator_and_gateways_hold_only_live_connections(mode):
    world = build_cluster(n_nodes=3, seed=5)
    _sleeper(world)
    comp = DmtcpComputation(world, tree_fanout=1 if mode == "tree" else None)
    for host in world.machine.hostnames:
        for _ in range(2):
            comp.launch(host, "app")
    world.engine.run(until=0.5)
    _exercise(world, comp)
    members = [p for p in world.live_processes() if p.user_state.get("dmtcp")]
    assert len(members) == 6
    if mode == "star":
        assert _kinds(comp.coordinator_process) == (1, 6)
    else:
        # fanout 1: a chain node00 <- node01 <- node02; the root holds
        # the one top-level gateway, each gateway its two members, its
        # child gateway (if any) and its uplink
        assert _kinds(comp.coordinator_process) == (1, 1)
        for host, children in (("node00", 3), ("node01", 3), ("node02", 2)):
            assert _kinds(comp.gateway_processes[host]) == (1, children + 1)
    # finished per-connection threads retire with their connection
    for process in [comp.coordinator_process, *comp.gateway_processes.values()]:
        assert all(not t.task.done for t in process.threads)
    _no_failures(world)


def test_hub_holds_only_live_connections():
    world = build_cluster(n_nodes=2, seed=6)
    _sleeper(world)
    hub = CoordinatorHub(world)
    registry = TenantRegistry(world, hub)
    tenants = [registry.create_tenant(name) for name in ("aaa", "bbb")]
    for comp in tenants:
        for host in world.machine.hostnames:
            comp.launch(host, "app")
    world.engine.run(until=0.5)
    for comp in tenants:
        _exercise(world, comp, rounds=2)
    assert _kinds(hub.process) == (1, 4)
    assert all(not t.task.done for t in hub.process.threads)
    _no_failures(world)


def test_scheduler_tasks_are_the_live_tasks_after_kill_and_restart():
    world = build_cluster(n_nodes=2, seed=7)
    _sleeper(world)
    comp = DmtcpComputation(world)
    for host in world.machine.hostnames:
        for _ in range(3):
            comp.launch(host, "app")
    world.engine.run(until=0.5)
    kill = comp.checkpoint(kill=True)
    # the killed members' user threads wait frozen for the restart; no
    # manager thread is kept with them
    frozen = [t for t in world.scheduler.tasks if t.state is TaskState.FROZEN]
    assert len(frozen) == 6
    assert {t.context.kind for t in frozen} == {"user"}
    comp.restart(plan=kill.plan)
    comp.checkpoint()
    world.engine.run(until=world.engine.now + 1.0)
    live = [t.task for p in world.live_processes() for t in p.live_threads]
    assert world.scheduler.tasks == set(live)
    assert not [t for t in world.scheduler.tasks if t.done]
    _no_failures(world)
