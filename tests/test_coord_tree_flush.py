"""Tree barriers complete on count, not on a timer (repro.coord.tree).

A gateway forwards a barrier's count the moment every child with a
registered member at or below it has reported; ``tree_flush_s`` only
bounds stragglers.  The battery pins both halves on the frames
themselves: a recorder wraps the gateway's ``recv_frame`` (every member
arrival and child count a gateway takes in) and ``_gw_up_send`` (every
frame it sends upstream), stamping each with the virtual clock.
"""

from dataclasses import replace

import pytest

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.coord import tree
from repro.core import protocol as P
from repro.core.launch import DmtcpComputation

#: Short supervision timeouts so an abort resolves in simulated seconds;
#: the gateway heartbeat is slower than the watchdog on purpose (see
#: test_counts_reset_after_a_supervised_abort_and_the_next_round_completes_on_count).
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
FLUSH_S = CLUSTER_2008.dmtcp.tree_flush_s
#: barriers a checkpoint releases at the root (BARRIER_RESUME is local)
BARRIERS = len(P.CHECKPOINT_BARRIERS) - 1
#: the unwrapped gateway functions (each world's recorder wraps these)
_RECV_FRAME, _UP_SEND = tree.recv_frame, tree._gw_up_send


class Wire:
    """Timestamped gateway traffic: what came in from children, what
    went up, and each gateway's bookkeeping dict (``gws[host]``)."""

    def __init__(self, monkeypatch, world, comp):
        self.world = world
        self.comp = comp
        #: (t, host, kind, name, fd) per barrier frame a gateway received
        self.arrivals: list = []
        #: (t, host, name, n) per count a gateway sent upstream
        self.counts: list = []
        self.gws: dict = {}
        #: called as hook(wire, host, name, fd) on every member arrival
        self.hook = None
        real_recv, real_up = _RECV_FRAME, _UP_SEND

        def recv_frame(sys, fd, asm, timeout=None):
            result = yield from real_recv(sys, fd, asm, timeout=timeout)
            message = result[0] if result is not None else None
            kind = message.get("kind") if isinstance(message, dict) else None
            if kind in (P.MSG_BARRIER, P.MSG_BARRIER_COUNT):
                host = self._host_of(sys)
                self.arrivals.append((world.engine.now, host, kind, message["name"], fd))
                if kind == P.MSG_BARRIER and self.hook is not None:
                    self.hook(self, host, message["name"], fd)
            return result

        def up_send(sys, gw, message):
            self.gws[gw["hostname"]] = gw
            if message["kind"] == P.MSG_BARRIER_COUNT:
                self.counts.append(
                    (world.engine.now, gw["hostname"], message["name"], message["n"])
                )
            yield from real_up(sys, gw, message)

        monkeypatch.setattr(tree, "recv_frame", recv_frame)
        monkeypatch.setattr(tree, "_gw_up_send", up_send)

    def _host_of(self, sys) -> str:
        for host, proc in self.comp.gateway_processes.items():
            if proc.sys is sys:
                return host
        raise AssertionError("barrier frame outside a gateway")

    def member(self, host: str, fd: int):
        """The member process behind gateway ``host``'s child ``fd``."""
        for (mhost, vpid), entry in sorted(self.gws[host]["hellos"].items()):
            if entry["cfd"] == fd:
                return self.world.node_state(mhost).processes[vpid]
        raise AssertionError(f"no member on {host} fd {fd}")

    def laggard(self, host: str, name: str, arrived_fd: int):
        """A member of ``host`` that has not reported for ``name``."""
        gw = self.gws[host]
        waiting = gw["waiting"].get(name, set()) | {arrived_fd}
        for _key, entry in sorted(gw["hellos"].items()):
            fd = entry["cfd"]
            if fd not in waiting and not gw["children"][fd]["gateway"]:
                return self.member(host, fd)
        return None


def _sleepers(world):
    def main(sys, argv):
        while True:
            yield from sys.sleep(0.05)

    world.register_program("app", main)


def _build(per_node, fanout=None, seed=0, spec=None, supervise=False, monkeypatch=None):
    world = build_cluster(n_nodes=len(per_node), seed=seed, spec=spec)
    world.tracer.enable()
    _sleepers(world)
    comp = DmtcpComputation(world, tree_fanout=fanout, supervise=supervise)
    wire = Wire(monkeypatch, world, comp) if fanout and monkeypatch else None
    for i, n in enumerate(per_node):
        for _ in range(n):
            comp.launch(f"node{i:02d}", "app")
    world.engine.run(until=0.5)
    return world, comp, wire


def _releases(comp):
    return [(s["name"], s["n"]) for s in comp.state.barrier_stats]


def _no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


def _flushes(world):
    counters = world.tracer.snapshot()
    return (
        counters["coord.gw_flushes_complete"],
        counters.get("coord.gw_flushes_window", 0),
    )


# ----------------------------------------------------------------------
# (a) a whole subtree forwards at its last arrival
# ----------------------------------------------------------------------
def test_count_goes_up_at_the_last_arrival_not_a_window_after_the_first(monkeypatch):
    """node00 and node01 are top-level, node02 hangs off node00: node00
    combines its own members with a child gateway's count."""
    world, comp, wire = _build([3, 2, 2], fanout=2, monkeypatch=monkeypatch)
    outcome = comp.checkpoint()
    assert len(outcome.records) == 7
    sent = {}
    for t, host, name, n in wire.counts:
        assert (host, name) not in sent, f"{host} sent {name} twice"
        sent[host, name] = (t, n)
    assert len(sent) == 3 * BARRIERS
    for (host, name), (t, n) in sent.items():
        landed = [a[0] for a in wire.arrivals if a[1] == host and a[3] == name]
        # one send after the last arrival: the count leaves in the same
        # instant the subtree became whole, not tree_flush_s after the first
        assert t == max(landed), (host, name, t, landed)
        assert t - min(landed) < FLUSH_S / 2, (host, name)
    assert {(host, n) for (host, name), (_t, n) in sent.items()} == {
        ("node00", 5), ("node01", 2), ("node02", 2)
    }
    assert _flushes(world) == (3 * BARRIERS, 0)
    _no_failures(world)


# ----------------------------------------------------------------------
# (b) a late registrant is waited for only as long as the window
# ----------------------------------------------------------------------
def _request_then_register_late(world, comp):
    """Launch a member once every member has the checkpoint order (so
    every gateway has fanned it out): the newcomer is not in the round."""
    members = [p for p in world.live_processes() if p.user_state.get("dmtcp")]
    handle = comp.request_checkpoint()
    world.engine.run_until(
        lambda: all(p.user_state["dmtcp"].in_checkpoint for p in members)
    )
    late = comp.launch("node01", "app")
    world.engine.run_until(lambda: handle["outcome"] is not None)
    return handle["outcome"], late


def test_a_member_registering_mid_round_is_waited_for_only_the_window(monkeypatch):
    world, comp, wire = _build([2, 2], fanout=2, monkeypatch=monkeypatch)
    star_world, star, _ = _build([2, 2])
    tree_out, late = _request_then_register_late(world, comp)
    star_out, _ = _request_then_register_late(star_world, star)
    assert len(tree_out.records) == len(star_out.records) == 4
    assert late.alive
    # node01's gateway expected the newcomer, which never got the
    # checkpoint order: its arrivals went up when the window closed
    complete, window = _flushes(world)
    assert window >= 1
    assert complete + window >= 2 * BARRIERS
    for stat in comp.state.barrier_stats:
        # no gateway holds a barrier longer than one window past its own
        # first arrival: released within the window plus the hop up
        firsts = {}
        for t, host, _kind, name, _fd in wire.arrivals:
            if name == stat["name"]:
                firsts.setdefault(host, t)
        assert stat["release_t"] - max(firsts.values()) <= FLUSH_S + 1e-4, stat
    assert _releases(comp) == _releases(star)
    # the newcomer is in the next round, which completes on count again
    before = _flushes(world)
    assert len(comp.checkpoint().records) == len(star.checkpoint().records) == 5
    after = _flushes(world)
    assert after[1] == before[1]
    assert after[0] - before[0] == 2 * BARRIERS
    assert _releases(comp) == _releases(star)
    _no_failures(world)
    _no_failures(star_world)


# ----------------------------------------------------------------------
# (c) a member child's death completes the round; a gateway's aborts it
# ----------------------------------------------------------------------
def test_a_dead_member_completes_the_round_and_a_dead_gateway_aborts_it(monkeypatch):
    world, comp, wire = _build([3, 1], fanout=2, monkeypatch=monkeypatch)
    killed = []

    def kill_a_laggard(wire, host, name, fd):
        if host == "node00" and name == P.BARRIER_ELECTED and not killed:
            victim = wire.laggard(host, name, fd)
            killed.append((world.engine.now, victim))
            world.terminate_process(victim, code=-9)

    wire.hook = kill_a_laggard
    outcome = comp.checkpoint()
    assert killed, "no member was killed mid-round"
    killed_at, victim = killed[0]
    assert len(outcome.records) == 3
    assert victim.pid not in {r.vpid for r in outcome.records if r.hostname == "node00"}
    (elected,) = [s for s in comp.state.barrier_stats if s["name"] == P.BARRIER_ELECTED]
    assert elected["n"] == 3
    # released as soon as the gateway saw the death, not a window later
    assert elected["release_t"] - killed_at < FLUSH_S / 2
    assert _flushes(world)[1] == 0
    _no_failures(world)

    # a child gateway dying mid-round is still a subtree loss: its
    # aggregated counts cannot be unwound, so the root aborts the round
    world, comp, wire = _build(
        [1, 1], fanout=1, spec=FAST_SPEC, supervise=True, monkeypatch=monkeypatch
    )
    crashed = []

    def crash_the_child_gateway(wire, host, name, fd):
        if host == "node00" and name == P.BARRIER_ELECTED and not crashed:
            crashed.append(world.engine.now)
            world.crash_process(comp.gateway_processes["node01"], reset_peers=True)

    wire.hook = crash_the_child_gateway
    handle = comp.request_checkpoint()
    world.engine.run(until=world.engine.now + 3.0)
    assert crashed
    assert handle["outcome"] == "aborted"
    assert comp.state.last_abort_reason == "gateway subtree lost"
    assert world.tracer.snapshot()["coord.subtrees_lost"] == 1
    assert comp.state.phase == "idle" and not comp.state.barriers


# ----------------------------------------------------------------------
# (d) an abort resets the counts; the next round completes on count
# ----------------------------------------------------------------------
def test_counts_reset_after_a_supervised_abort_and_the_next_round_completes_on_count(
    monkeypatch,
):
    """A member on node01 vanishes without a FIN mid-round.  Its gateway
    cannot see the death (the heartbeat is slower than the watchdog), so
    the survivors' arrivals go up on the window and the root's watchdog
    aborts the round.  Once the heartbeat has found the dead child, the
    next round completes on count with no window at all."""
    spec = FAST_SPEC.with_(dmtcp=replace(FAST_SPEC.dmtcp, tree_heartbeat_s=3.0))
    world, comp, wire = _build(
        [2, 2], fanout=2, spec=spec, supervise=True, monkeypatch=monkeypatch
    )
    crashed = []

    def crash_a_laggard(wire, host, name, fd):
        if host == "node01" and name == P.BARRIER_ELECTED and not crashed:
            victim = wire.laggard(host, name, fd)
            crashed.append(victim)
            world.crash_process(victim)

    wire.hook = crash_a_laggard
    handle = comp.request_checkpoint()
    world.engine.run_until(lambda: handle["outcome"] is not None)
    assert crashed and handle["outcome"] == "aborted"
    assert _flushes(world)[1] >= 1  # the survivors went up on the window
    world.engine.run(until=world.engine.now + 4.0)  # the heartbeat finds it
    per_barrier = (
        "waiting", "relay_children", "pending_m", "flushed_m", "pending_n",
        "windows", "sent",
    )
    for gw in wire.gws.values():
        for key in per_barrier:
            assert not gw[key], (gw["hostname"], key, gw[key])
    assert sorted(len(gw["registered"]) for gw in wire.gws.values()) == [1, 2]

    before = _flushes(world)
    outcome = comp.checkpoint()
    assert len(outcome.records) == 3
    after = _flushes(world)
    assert after[1] == before[1]
    assert after[0] - before[0] == 2 * BARRIERS
    _no_failures(world)


# ----------------------------------------------------------------------
# (e) lockstep at scale: one frame per top-level gateway per barrier
# ----------------------------------------------------------------------
def test_lockstep_512_members_reach_the_root_as_one_count_per_top_level_gateway():
    """32 nodes x 16 members behind a fanout-4 tree (three levels)."""
    world, comp, _ = _build([16] * 32, fanout=4, seed=3)
    outcome = comp.checkpoint()
    assert len(outcome.records) == 512
    released = len(comp.state.barrier_stats)
    assert released == BARRIERS
    assert comp.state.barrier_messages == 4 * released
    assert _flushes(world) == (32 * BARRIERS, 0)
    # every level forwards at once: the root's barriers cost hops, not windows
    assert max(s["release_t"] - s["open_t"] for s in comp.state.barrier_stats) < FLUSH_S
    _no_failures(world)


def test_restart_registrations_do_not_cost_the_root_a_frame_per_member():
    """A restored member registers just before it arrives, so a subtree
    is whole after every arrival: the top-level gateway caps its counts
    at one per window on completion, or the root would take one frame
    per member (33 for these 32 restored members)."""
    world, comp, _ = _build([8] * 4, fanout=1, seed=2)
    kill = comp.checkpoint(kill=True)
    before_frames, before = comp.state.barrier_messages, _flushes(world)
    restart = comp.restart(plan=kill.plan)
    assert len(restart.records) == 32
    frames = comp.state.barrier_messages - before_frames
    assert frames <= 32 // 2, frames
    assert _flushes(world)[1] > before[1]  # the cap engaged
    assert [n for name, n in _releases(comp) if name.startswith("restart-")] == [32, 32]
    _no_failures(world)


@pytest.mark.parametrize("fanout", [1, 4])
def test_release_reaches_child_gateways_before_local_members(monkeypatch, fanout):
    """Fan-down is critical-path first: at every gateway the release and
    the checkpoint order go to child gateways before local members."""
    world, comp, wire = _build([2, 2, 2, 2, 2], fanout=fanout, monkeypatch=monkeypatch)
    order = []
    real_send = tree.send_frame

    def send_frame(sys, fd, message, nbytes):
        if message["kind"] in (P.MSG_BARRIER_RELEASE, P.MSG_CHECKPOINT):
            for host, gw in wire.gws.items():
                if comp.gateway_processes[host].sys is sys:
                    order.append((host, message["kind"], gw["children"][fd]["gateway"]))
        yield from real_send(sys, fd, message, nbytes)

    monkeypatch.setattr(tree, "send_frame", send_frame)
    assert len(comp.checkpoint().records) == 10
    parents = {host for host, _kind, is_gw in order if is_gw}
    assert parents  # fanout 1 and 4 both have inner gateways
    for host in parents:
        children = wire.gws[host]["children"].values()
        relays = sum(1 for info in children if info["gateway"])
        fan = [True] * relays + [False] * (len(children) - relays)
        for kind, times in ((P.MSG_CHECKPOINT, 1), (P.MSG_BARRIER_RELEASE, BARRIERS)):
            seq = [is_gw for h, k, is_gw in order if h == host and k == kind]
            assert seq == fan * times, (host, kind, seq)
    _no_failures(world)
