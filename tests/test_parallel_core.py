"""Sharded simulation core: plan, grants, fabric, gate, equivalence.

The unit layers (ShardPlan, _compute_grants, ShardBinding) are tested
pure; the fabric and gate run against real worlds bound to a one-shard
inline transport (a ``threading.Barrier(1)`` trips synchronously, so a
single bound world drives windows from the test thread).  Equivalence
tests then run the full DMTCP stack through ``run_sharded`` at several
shard counts and demand byte-identical committed artifacts.
"""

import os

import pytest

from repro.cluster import build_cluster
from repro.errors import SimulationError, SyscallError
from repro.hardware.topology import ShardPlan, shard_lookahead_s
from repro.kernel.syscalls import connect_retry
from repro.sim.parallel import (
    ShardContext,
    ShardProtocolError,
    _compute_grants,
    _InlineGroup,
    _InlineTransport,
    run_sharded,
)

# ----------------------------------------------------------------------
# ShardPlan / lookahead
# ----------------------------------------------------------------------


def test_shard_plan_contiguous_blocks():
    hosts = [f"node{i:02d}" for i in range(10)]
    plan = ShardPlan.build(hosts, 4)
    owners = [plan.owner(h) for h in hosts]
    assert owners == sorted(owners)  # contiguous blocks
    assert set(owners) == {0, 1, 2, 3}
    for s in range(4):
        assert [plan.owner(h) for h in plan.shard_hosts(s)] == [s] * len(
            plan.shard_hosts(s)
        )
    assert [plan.node_rank(h) for h in hosts] == list(range(10))


def test_shard_plan_clamps_to_host_count():
    plan = ShardPlan.build(["a", "b"], 8)
    assert plan.n_shards == 2
    assert plan.owner("a") == 0 and plan.owner("b") == 1


def test_shard_lookahead_is_link_latency():
    world = build_cluster(n_nodes=2)
    plan = ShardPlan.build(world.machine.hostnames, 2)
    assert shard_lookahead_s(world.spec, plan) == world.spec.network.latency_s


# ----------------------------------------------------------------------
# _compute_grants (pure)
# ----------------------------------------------------------------------

L = 0.001


def _rep(mode, t_next, flag=False, now=0.0, outbox=()):
    return (mode, t_next, flag, now, L, list(outbox))


def test_grants_window_is_tmin_plus_lookahead():
    grants = _compute_grants([_rep(("run", None), 5.0), _rep(("run", None), 7.0)])
    assert grants == [("w", 5.0 + L, False, []), ("w", 5.0 + L, False, [])]


def test_grants_pending_message_bounds_tmin():
    msg = (2.0, 0, 0, 1, "dat", None, None)
    grants = _compute_grants(
        [_rep(("run", None), 5.0, outbox=[msg]), _rep(("run", None), 7.0)]
    )
    # the in-flight arrival at t=2 is the earliest event anywhere
    assert grants[0] == ("w", 2.0 + L, False, [])
    assert grants[1] == ("w", 2.0 + L, False, [msg])


def test_grants_messages_merge_sorted_across_shards():
    a = (3.0, 1, 0, 0, "dat", None, "late-origin-rank-1")
    b = (3.0, 0, 5, 0, "dat", None, "rank-0")
    c = (2.5, 2, 0, 0, "dat", None, "earliest")
    grants = _compute_grants(
        [_rep(("run", None), 4.0, outbox=[a]), _rep(("run", None), 4.0, outbox=[b, c])]
    )
    assert grants[0][3] == [c, b, a]  # (arrival, origin_rank, seq) order


def test_grants_run_clamps_final_window_at_until():
    grants = _compute_grants([_rep(("run", 5.0), 4.9995)])
    assert grants == [("w", 5.0, True, [])]  # inclusive boundary, like serial


def test_grants_run_stops_at_until_when_tmin_beyond():
    grants = _compute_grants([_rep(("run", 5.0), 6.0), _rep(("run", 5.0), None)])
    assert grants == [("s", 5.0, None, []), ("s", 5.0, None, [])]


def test_grants_idle_run_keeps_clock():
    grants = _compute_grants([_rep(("run", 5.0), None, now=1.0)])
    assert grants == [("s", 1.0, None, [])]


def test_grants_until_predicate_stops_everyone():
    grants = _compute_grants(
        [_rep(("until",), 4.0, flag=True, now=2.0), _rep(("until",), 3.0, now=2.0)]
    )
    assert grants == [("s", 2.0, None, []), ("s", 2.0, None, [])]


def test_grants_until_drained_without_predicate_is_error():
    grants = _compute_grants([_rep(("until",), None), _rep(("until",), None)])
    assert all(g[0] == "e" for g in grants)


def test_grants_mode_divergence_is_error():
    grants = _compute_grants([_rep(("run", None), 1.0), _rep(("until",), 1.0)])
    assert all(g[0] == "e" for g in grants)
    assert "SPMD" in grants[0][1]


# ----------------------------------------------------------------------
# Single-shard bound world (synchronous inline transport)
# ----------------------------------------------------------------------


def bound_world(n_nodes=2, seed=0):
    ctx = ShardContext(0, 1, _InlineTransport(_InlineGroup(1, 30.0), 0), "inline")
    world = build_cluster(n_nodes=n_nodes, seed=seed)
    ctx.bind(world)
    return ctx, world


def _run(world, until=None):
    world.engine.run(until=until)
    assert not world.scheduler.failures, world.scheduler.failures


def test_binding_post_rejects_lookahead_violation():
    ctx, world = bound_world()
    binding = ctx.binding
    with pytest.raises(SimulationError, match="lookahead"):
        binding.post("node00", "node01", world.engine.now, "dat", None)


def test_gate_run_until_before_now_is_noop():
    ctx, world = bound_world()
    world.engine.call_after(0.5, lambda: None)
    world.engine.run(until=1.0)
    assert world.engine.now == 0.5  # drained queue leaves the clock, like serial
    windows = ctx.gate.windows
    world.engine.run(until=0.25)  # behind the clock: serial no-ops, so do we
    assert world.engine.now == 0.5
    assert ctx.gate.windows == windows  # not even an exchange window ran


def test_gate_rejects_nested_run():
    ctx, world = bound_world()
    err = []

    def nested():
        try:
            world.engine.run(until=world.engine.now + 1.0)
        except SimulationError as e:
            err.append(str(e))

    world.engine.call_after(0.1, nested)
    world.engine.run(until=1.0)
    assert err and "nested" in err[0]


def test_fabric_cross_node_roundtrip_matches_serial_timing():
    """Same workload, plain serial world vs fabric-bound world: the
    client completes its RTT + echo at the identical virtual time."""

    def scenario(world):
        times = {}

        def server(sys, argv):
            lfd = yield from sys.socket()
            yield from sys.bind(lfd, 5000)
            yield from sys.listen(lfd)
            cfd = yield from sys.accept(lfd)
            chunk = yield from sys.recv(cfd)
            yield from sys.send(cfd, chunk.nbytes, data=chunk.data)

        def client(sys, argv):
            fd = yield from sys.socket()
            yield from sys.connect(fd, "node00", 5000)
            times["connected"] = yield from sys.time()
            yield from sys.send(fd, 64, data=b"x" * 64)
            chunk = yield from sys.recv(fd)
            t = yield from sys.time()
            times["echoed"] = (t, chunk.data)

        world.register_program("server", server)
        world.register_program("client", client)
        world.spawn_process("node00", "server")
        world.engine.run(until=0.01)  # listener up before the first syn
        world.spawn_process("node01", "client")
        _run(world)
        return times

    serial = scenario(build_cluster(n_nodes=2))
    _, world = bound_world(2)
    fabric = scenario(world)
    assert fabric == serial
    assert world.shard.stats["msgs_out"] >= 4  # syn+ack+2 dat minimum


def test_fabric_refused_connect_raises_econnrefused():
    _, world = bound_world(2)
    errs = []

    def client(sys, argv):
        fd = yield from sys.socket()
        try:
            yield from sys.connect(fd, "node00", 9999)
        except SyscallError as e:
            errs.append(e.errno)

    world.register_program("c", client)
    world.spawn_process("node01", "c")
    _run(world)
    assert errs == ["ECONNREFUSED"]


def test_fabric_many_chunks_arrive_in_tcp_order():
    _, world = bound_world(2)
    got = []

    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 5000)
        yield from sys.listen(lfd)
        cfd = yield from sys.accept(lfd)
        while True:
            chunk = yield from sys.recv(cfd)
            if chunk is None:  # EOF: the fin landed after all data
                got.append("eof")
                return
            got.append(chunk.data)

    def client(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 5000)
        for i in range(20):
            yield from sys.send(fd, 8, data=i)
        yield from sys.close(fd)

    world.register_program("server", server)
    world.register_program("client", client)
    world.spawn_process("node00", "server")
    world.spawn_process("node01", "client")
    _run(world)
    assert got == list(range(20)) + ["eof"]


def test_remote_spawn_returns_stub():
    group = _InlineGroup(1, 30.0)
    ctx = ShardContext(0, 2, _InlineTransport(group, 0), "inline")
    world = build_cluster(n_nodes=2)
    ctx.bind(world)  # 2-shard plan, this replica owns only node00
    world.register_program("app", lambda sys, argv: iter(()))
    stub = world.spawn_process("node01", "app")
    assert stub.is_remote_stub and not stub.alive
    assert world.shard.stats["remote_spawns"] == 1
    real = world.spawn_process("node00", "app")
    assert not getattr(real, "is_remote_stub", False)


# ----------------------------------------------------------------------
# run_sharded drivers
# ----------------------------------------------------------------------


def _counting_scenario(ctx, n_nodes):
    world = build_cluster(n_nodes=n_nodes)
    ctx.bind(world)
    fired = []

    def app(sys, argv):
        for _ in range(5):
            yield from sys.sleep(0.1)
        fired.append((yield from sys.gethostname()))

    world.register_program("app", app)
    for host in world.machine.hostnames:
        world.spawn_process(host, "app")
    world.engine.run(until=1.0)
    return sorted(fired)


def test_run_sharded_inline_partitions_work():
    res = run_sharded(_counting_scenario, 2, 4, backend="inline", timeout_s=60)
    assert res.values[0] == ["node00", "node01"]
    assert res.values[1] == ["node02", "node03"]
    stats = res.stats
    assert [s["shard_id"] for s in stats] == [0, 1]
    assert all(s["windows"] >= 1 and s["hosts"] == 2 for s in stats)
    # stop normalization: both shard clocks end at the same global time
    assert len({s["sim_now"] for s in stats}) == 1


def test_run_sharded_validates_arguments():
    with pytest.raises(ValueError, match="n_shards"):
        run_sharded(_counting_scenario, 0, 2)
    with pytest.raises(ValueError, match="backend"):
        run_sharded(_counting_scenario, 1, 2, backend="gpu")


def _divergent_scenario(ctx, n_nodes):
    world = build_cluster(n_nodes=n_nodes)
    ctx.bind(world)
    if ctx.shard_id == 0:
        world.engine.call_after(1.0, lambda: None)
        world.engine.run()  # shard 1 never enters this collective
    return None


def test_run_sharded_detects_spmd_divergence():
    with pytest.raises(ShardProtocolError):
        run_sharded(_divergent_scenario, 2, 2, backend="inline", timeout_s=15)


def _broadcast_scenario(ctx):
    world = build_cluster(n_nodes=ctx.n_shards)
    ctx.bind(world)
    return ctx.broadcast({"from_root": ctx.shard_id} if ctx.is_root else None)


def test_broadcast_delivers_root_value_everywhere():
    res = run_sharded(_broadcast_scenario, 3, backend="inline", timeout_s=60)
    assert res.values == [{"from_root": 0}] * 3


# ----------------------------------------------------------------------
# DMTCP equivalence: shards=1 vs shards=N, byte-identical artifacts
# ----------------------------------------------------------------------


def _fig5_small(n_shards, backend="inline"):
    from repro.harness.parallel import fig5_xl_scenario

    return run_sharded(
        fig5_xl_scenario,
        n_shards,
        16,  # compute processes
        2,  # per node -> 8 nodes
        backend=backend,
        timeout_s=120,
    )


def test_dmtcp_cycle_equivalent_across_shard_counts():
    base = _fig5_small(1)
    events = sum(s["events_fired"] for s in base.stats)
    assert base.root_value["total_processes"] == 16
    assert base.root_value["image_checksums"]
    assert base.root_value["barrier_releases"]
    for n in (2, 4):
        res = _fig5_small(n)
        assert res.root_value == base.root_value
        assert res.values[1:] == [None] * (n - 1)
        assert sum(s["events_fired"] for s in res.stats) == events


def test_dmtcp_cycle_equivalent_mp_backend():
    """The fork-based performance backend commits the same artifacts."""
    inline = _fig5_small(2)
    mp = _fig5_small(2, backend="mp")
    assert mp.root_value == inline.root_value
    assert [s["events_fired"] for s in mp.stats] == [
        s["events_fired"] for s in inline.stats
    ]


def test_coordscale_equivalent_across_shard_counts():
    from repro.harness.parallel import coordscale_scenario

    runs = {
        n: run_sharded(
            coordscale_scenario, n, 64, 8, 4, backend="inline", timeout_s=120
        )
        for n in (1, 2)
    }
    assert runs[1].root_value == runs[2].root_value
    assert runs[1].root_value["n_procs"] == 64
    assert runs[1].root_value["root_messages"] > 0
