"""Traceable end-to-end scenarios for ``python -m repro trace``.

Each scenario builds a world with tracing enabled, drives a complete
DMTCP workflow, and returns the world's tracer for export.  Scenarios
are deterministic: the same name and seed produce the same trace.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cluster import build_cluster
from repro.core.launch import DmtcpComputation
from repro.obs.tracer import Tracer

__all__ = ["SCENARIOS", "run_scenario"]


def _pingpong_apps(world) -> None:
    """A 2-process, 2-node client/server pair with live socket traffic."""

    def server_main(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 9000)
        yield from sys.listen(lfd)
        cfd = yield from sys.accept(lfd)
        while True:
            chunk = yield from sys.recv(cfd)
            if chunk is None:
                return
            yield from sys.send(cfd, chunk.nbytes, data=chunk.data)

    def client_main(sys, argv):
        from repro.kernel.syscalls import connect_retry

        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 9000)
        for i in range(200):
            yield from sys.send(fd, 4096, data=("ping", i))
            reply = yield from sys.recv(fd)
            if reply is None:
                return
            yield from sys.sleep(0.01)

    world.register_program("trace_server", server_main)
    world.register_program("trace_client", client_main)


def ckpt_restart(
    seed: int = 0, store: bool = False, tree_fanout: Optional[int] = None
) -> Tracer:
    """2-node checkpoint -> kill -> restart of a communicating pair.

    Covers all 5 checkpoint stages (suspend/elect/drain/write/refill),
    all 4 restart stages (restore_files/reconnect/restore_memory/refill),
    every coordinator barrier, and the MTCP write path -- with ``store``
    the chunk-store one, whose ``store.lease_wait`` span on each
    ``<host>/mtcp[<vpid>]`` track separates waiting for the generation's
    lease from compressing and pushing the leased chunks.  With
    ``tree_fanout`` the barriers travel through the gateway tree, and the
    ``coord.gw_flushes_complete`` / ``coord.gw_flushes_window`` counters
    say whether any barrier waited on the straggler window.
    """
    world = build_cluster(n_nodes=2, seed=seed)
    world.tracer.enable()
    _pingpong_apps(world)
    comp = DmtcpComputation(world, store=store, tree_fanout=tree_fanout)
    comp.launch("node00", "trace_server")
    comp.launch("node01", "trace_client")
    world.engine.run(until=0.5)
    comp.checkpoint()  # timing checkpoint; computation continues
    kill = comp.checkpoint(kill=True)
    comp.restart(plan=kill.plan)
    world.engine.run(until=world.engine.now + 0.5)
    return world.tracer


def checkpoint_only(seed: int = 0) -> Tracer:
    """2-node checkpoint without restart (the continue-running path)."""
    world = build_cluster(n_nodes=2, seed=seed)
    world.tracer.enable()
    _pingpong_apps(world)
    comp = DmtcpComputation(world)
    comp.launch("node00", "trace_server")
    comp.launch("node01", "trace_client")
    world.engine.run(until=0.5)
    comp.checkpoint()
    world.engine.run(until=world.engine.now + 0.2)
    return world.tracer


def migrate(seed: int = 0) -> Tracer:
    """Checkpoint on node00, restart the whole pair relocated to node01."""
    world = build_cluster(n_nodes=2, seed=seed)
    world.tracer.enable()
    _pingpong_apps(world)
    comp = DmtcpComputation(world)
    comp.launch("node00", "trace_server")
    comp.launch("node00", "trace_client")
    world.engine.run(until=0.5)
    kill = comp.checkpoint(kill=True)
    comp.restart(plan=kill.plan, placement={"node00": "node01"})
    world.engine.run(until=world.engine.now + 0.5)
    return world.tracer


SCENARIOS: dict[str, Callable[[int], Tracer]] = {
    "ckpt-restart": ckpt_restart,
    "store": lambda seed: ckpt_restart(seed, store=True),
    # fanout 1 on two nodes: a two-deep gateway chain
    "tree": lambda seed: ckpt_restart(seed, tree_fanout=1),
    "checkpoint": checkpoint_only,
    "migrate": migrate,
}


def run_scenario(name: str, seed: int = 0) -> Tracer:
    """Run a named scenario and return its (enabled) tracer."""
    try:
        fn = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        ) from None
    return fn(seed)
