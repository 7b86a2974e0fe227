"""A checkpoint completes at its last barrier (repro.core.coordinator).

Each member's done report -- its ``CheckpointRecord`` and image path --
rides its ``refilled`` (Barrier 6) arrival, so the coordinator holds
every report the moment that barrier reaches quorum: it stamps the
release, finishes the round, then sends the releases.  A member sends
nothing after that arrival.  In tree mode the count a gateway sends up
carries the reports of the arrivals it counts while they fit a small
frame; past that they follow the count.  A restart keeps its own report
(``MSG_RESTART_DONE``): it is complete only once threads resume.

These tests pin the frames on both ends of the coordinator channel, the
completion clock, the frame count, what a crash after the report leaves
behind, a restart racing a ``--kill`` checkpoint's exits, the round's
trace span, and an ``ast`` fence on the manager.
"""

import ast
import inspect
import textwrap
from dataclasses import replace
from pathlib import Path

import pytest

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.coord import tree
from repro.core import coordinator, manager
from repro.core import protocol as P
from repro.core.launch import DmtcpComputation
from repro.faults.scenarios import _chaos_apps
from repro.faults.supervisor import _image_file
from repro.kernel.world import HIJACK_ENV
from repro.service import hub as hub_mod
from tests.test_coordinator_publish import _hub_tenants, _storm

SRC = Path(coordinator.__file__).resolve().parents[1]
#: barriers a checkpoint releases at the coordinator (BARRIER_RESUME is local)
RELEASED = len(P.CHECKPOINT_BARRIERS) - 1
#: frames of the round itself: barrier arrivals and counts, reports
ROUND_KINDS = (P.MSG_BARRIER, P.MSG_BARRIER_COUNT, P.MSG_CKPT_REPORT)
#: Short supervision timeouts so a crash resolves in simulated seconds.
FAST_SPEC = CLUSTER_2008.with_(
    dmtcp=replace(
        CLUSTER_2008.dmtcp,
        barrier_timeout_s=1.0,
        heartbeat_interval_s=0.5,
        member_recv_timeout_s=2.0,
        tree_heartbeat_s=0.5,
    )
)


class Recorder:
    """Timestamped traffic on the coordinator channel: what each manager
    sends (keyed by its ``Sys``), what reaches the coordinator (root or
    hub), and the coordinator's clock at each ``_finish_checkpoint``."""

    def __init__(self, monkeypatch, world):
        self.sent: dict = {}
        self.landed: list = []
        self.finishes: list = []
        send, recv, enqueue = manager.coord_send, coordinator.recv_frame, hub_mod._enqueue
        finish = coordinator._finish_checkpoint

        def coord_send(sys, fd, message):
            self.sent.setdefault(id(sys), []).append((world.engine.now, message))
            yield from send(sys, fd, message)

        def recv_frame(sys, fd, asm, timeout=None):
            result = yield from recv(sys, fd, asm, timeout=timeout)
            if result is not None and isinstance(result[0], dict):
                self.landed.append((world.engine.now, None, result[0]))
            return result

        def hub_enqueue(sys, hub, item):
            if item[2] is not None:
                self.landed.append((world.engine.now, item[0], item[2]))
            yield from enqueue(sys, hub, item)

        def finish_checkpoint(sys, state):
            self.finishes.append((state.tenant, state.clock()))
            yield from finish(sys, state)

        monkeypatch.setattr(manager, "coord_send", coord_send)
        monkeypatch.setattr(coordinator, "recv_frame", recv_frame)
        monkeypatch.setattr(hub_mod, "_enqueue", hub_enqueue)
        monkeypatch.setattr(coordinator, "_finish_checkpoint", finish_checkpoint)


def _sleepers(world):
    def main(sys, argv):
        while True:
            yield from sys.sleep(0.05)

    world.register_program("app", main)


def _deployment(mode: str, monkeypatch):
    """``(world, comps, outcomes, recorder)`` after one checkpoint in
    ``mode``: a 6-member star, a 6-member tree of fanout 1 or 2 over
    three nodes, or two 3-rank tenants on one hub."""
    if mode == "hub":
        world, _hub, comps = _hub_tenants(("aaa", "bbb"), ranks=3)
        rec = Recorder(monkeypatch, world)
        outcomes = _storm(world, comps)
    else:
        world = build_cluster(n_nodes=3, seed=0)
        _sleepers(world)
        fanout = {"star": None, "tree1": 1, "tree2": 2}[mode]
        comp = DmtcpComputation(world, tree_fanout=fanout)
        for i in range(6):
            comp.launch(f"node{i % 3:02d}", "app")
        world.engine.run(until=0.5)
        rec = Recorder(monkeypatch, world)
        comps, outcomes = [comp], [comp.checkpoint()]
    # let every member finish stage 7: anything it still sends shows up
    world.engine.run(until=world.engine.now + 0.2)
    return world, comps, outcomes, rec


def _refilled_release(state) -> float:
    (stat,) = [s for s in state.barrier_stats if s["name"] == P.BARRIER_REFILLED]
    return stat["release_t"]


@pytest.mark.parametrize("mode", ["star", "tree1", "tree2", "hub"])
def test_no_checkpoint_frame_follows_the_refilled_barrier(mode, monkeypatch):
    world, comps, outcomes, rec = _deployment(mode, monkeypatch)
    members = sum(len(o.records) for o in outcomes)
    assert members == 6
    # every manager's last frame is its `refilled` arrival, with its report
    assert len(rec.sent) == members
    for frames in rec.sent.values():
        _t, last = frames[-1]
        assert (last["kind"], last["name"]) == (P.MSG_BARRIER, P.BARRIER_REFILLED)
        assert last["image_path"].endswith(".dmtcp") and last["record"].stages
        assert sum("record" in m for _t, m in frames) == 1
    for comp, outcome in zip(comps, outcomes):
        state = comp.state
        release_t = _refilled_release(state)
        tenant = state.tenant or None
        late = [
            m["kind"] for t, who, m in rec.landed
            if who == tenant and t > release_t and m["kind"] in ROUND_KINDS
        ]
        # two members a node: in tree mode every report rides a count
        assert late == []
        assert dict(rec.finishes)[state.tenant] == release_t
        # each record's refill stage closes at the stamped release
        for record in outcome.records:
            assert record.stages["refill"] == release_t - record.refill_began
    assert not world.scheduler.failures


@pytest.mark.parametrize("per_node", [2, 16])
@pytest.mark.parametrize("fanout", [1, 3])
def test_a_gateways_reports_ride_its_count_or_follow_it(fanout, per_node, monkeypatch):
    """Each gateway's ``refilled`` count goes up first.  It carries the
    reports of the arrivals it counts (its own members' and its child
    gateways') while they fit a small frame; otherwise they follow it,
    a small frame's worth each.  Nothing goes up in front of the count."""
    up = {}
    send = tree._gw_up_send

    def up_send(sys, gw, message):
        if message.get("name") == P.BARRIER_REFILLED or message["kind"] == P.MSG_CKPT_REPORT:
            up.setdefault(gw["hostname"], []).append(
                (message["kind"], len(message.get("reports", ())))
            )
        yield from send(sys, gw, message)

    monkeypatch.setattr(tree, "_gw_up_send", up_send)
    world = build_cluster(n_nodes=3, seed=0)
    _sleepers(world)
    comp = DmtcpComputation(world, tree_fanout=fanout)
    for i in range(3 * per_node):
        comp.launch(f"node{i % 3:02d}", "app")
    world.engine.run(until=0.5)
    outcome = comp.checkpoint()
    assert len(outcome.records) == 3 * per_node
    below = {"node00": 3, "node01": 2, "node02": 1} if fanout == 1 else dict.fromkeys(up, 1)
    for host, frames in up.items():
        assert frames[0][0] == P.MSG_BARRIER_COUNT, (host, frames)
        assert sum(n for _kind, n in frames) == below[host] * per_node
        assert all(n <= tree.REPORTS_PER_FRAME for _kind, n in frames)
        if below[host] * per_node <= tree.REPORTS_PER_FRAME:
            assert frames == [(P.MSG_BARRIER_COUNT, below[host] * per_node)]
    assert not world.scheduler.failures


@pytest.mark.parametrize("ranks", [1, 3, 8])
def test_hub_frames_per_checkpoint_are_one_per_member_per_released_barrier(ranks):
    """Per tenant and checkpoint the hub carries the command, its
    client's disconnect and one frame per member per released barrier:
    the done report adds none."""
    world, hub, comps = _hub_tenants(("aaa", "bbb"), ranks=ranks)
    before = hub.messages
    _storm(world, comps)
    world.engine.run(until=world.engine.now + 0.2)
    assert hub.messages - before == len(comps) * (2 + RELEASED * ranks)


def _victim_after_its_arrival(monkeypatch, world):
    """Crash the first member to send its `refilled` arrival, silently,
    right after the send: the barrier cannot release before the last
    member arrives.  A member's arrival is its next frame once its
    refill returns (no thread runs in between)."""
    refill_all, send = manager._refill_all, manager.coord_send
    refilled, crashed = [], []

    def _refill_all(runtime, returns, timeout=None):
        yield from refill_all(runtime, returns, timeout)
        refilled[:] = [runtime.process]

    def coord_send(sys, fd, message):
        arriving = message.get("name") == P.BARRIER_REFILLED and not crashed
        victim = refilled[0] if arriving else None
        yield from send(sys, fd, message)
        if victim is not None and not crashed:
            crashed.append(victim)
            world.engine.call_soon(world.crash_process, victim)

    monkeypatch.setattr(manager, "_refill_all", _refill_all)
    monkeypatch.setattr(manager, "coord_send", coord_send)
    return crashed


@pytest.mark.parametrize("fanout", [None, 2], ids=["star", "tree"])
def test_a_member_crashing_after_its_refilled_arrival_leaves_a_whole_generation(
    fanout, monkeypatch
):
    world = build_cluster(n_nodes=3, seed=23, spec=FAST_SPEC)
    _chaos_apps(world)
    comp = DmtcpComputation(world, supervise=True, tree_fanout=fanout)
    comp.launch("node01", "chaos_server")
    comp.launch("node02", "chaos_client")
    world.engine.run(until=1.0)
    crashed = _victim_after_its_arrival(monkeypatch, world)
    outcome = comp.checkpoint()
    assert len(crashed) == 1 and not crashed[0].alive
    # the crashed member's image is committed and in the generation
    assert len(outcome.records) == 2
    assert outcome.plan.total_processes == 2
    for host, paths in outcome.plan.images_by_host.items():
        for path in paths:
            assert _image_file(world, host, path) is not None, path
    assert comp.state.aborts == 0
    # and the generation restores the whole computation
    comp.kill_computation()
    restored = comp.restart(plan=outcome.plan)
    assert len(restored.records) == 2
    world.engine.run(until=world.engine.now + 1.0)
    assert len([p for p in world.live_processes() if p.env.get(HIJACK_ENV)]) == 2


def test_restart_from_a_kill_checkpoint_whose_callback_fires_before_its_members_exit():
    """With an instant disk the coordinator publishes a ``--kill``
    checkpoint before the release reaches its members: they are still
    alive when the outcome lands.  Restarting from it at once works, and
    the old members retire as their release arrives."""
    spec = CLUSTER_2008.with_(disk=replace(CLUSTER_2008.disk, op_latency_s=0.0))
    world = build_cluster(n_nodes=3, seed=0, spec=spec)
    _chaos_apps(world)
    comp = DmtcpComputation(world)
    old = [comp.launch("node01", "chaos_server"), comp.launch("node02", "chaos_client")]
    world.engine.run(until=1.0)
    alive_at_callback = []
    comp.state.on_checkpoint_complete.append(
        lambda o: alive_at_callback.append(sum(p.alive for p in old))
    )
    outcome = comp.checkpoint(kill=True)
    assert alive_at_callback == [2]
    restored = comp.restart(plan=outcome.plan)
    assert len(restored.records) == 2
    world.engine.run(until=world.engine.now + 2.0)
    assert not any(p.alive for p in old)
    live = [p for p in world.live_processes() if p.env.get(HIJACK_ENV)]
    assert sorted(p.program for p in live) == ["chaos_client", "chaos_server"]
    assert all(p.user_state["dmtcp"].restarts_done == 1 for p in live)
    assert not world.scheduler.failures


@pytest.mark.parametrize("mode", ["star", "hub"])
def test_each_round_is_one_coordinator_span_as_long_as_its_outcome(mode, monkeypatch):
    world, comps, _outcomes, _rec = _deployment(mode, monkeypatch)
    world.tracer.enable()
    # a second round, traced from its start
    outcomes = _storm(world, comps)
    for comp, outcome in zip(comps, outcomes):
        state = comp.state
        (span,) = world.tracer.spans(track=state.track)
        assert span["name"] == "checkpoint" and span["cat"] == "coord"
        assert span["duration"] == outcome.duration
        assert (span["begin"], span["end"]) == (outcome.started_at, outcome.finished_at)
        tenant = state.tenant or None
        assert [
            e.tenant for e in world.tracer.events
            if e.track == state.track and e.name == "checkpoint"
        ] == [tenant, tenant]


def test_an_aborted_round_closes_its_span_as_aborted():
    world = build_cluster(n_nodes=3, seed=23, spec=FAST_SPEC)
    world.tracer.enable()
    _chaos_apps(world)
    comp = DmtcpComputation(world, supervise=True)
    comp.launch("node01", "chaos_server")
    comp.launch("node02", "chaos_client")
    world.engine.run(until=1.0)
    world.set_disk_full("node02", world.engine.now + 3600.0)
    handle = comp.request_checkpoint()
    world.engine.run(until=world.engine.now + 5.0)
    assert handle["outcome"] == "aborted"
    (span,) = world.tracer.spans(track=comp.state.track)
    assert span["name"] == "checkpoint" and span["args"]["aborted"] is True
    assert world.tracer.open_spans(comp.state.track) == 0


# ----------------------------------------------------------------------
# fence
# ----------------------------------------------------------------------

def _calls(node) -> list:
    """Names called under ``node``, with line numbers, in source order."""
    out = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            func = sub.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            out.append((sub.lineno, sub.col_offset, name))
    return sorted(out)


def test_checkpoint_stages_send_no_frame_after_the_last_barrier():
    source = textwrap.dedent(inspect.getsource(manager._checkpoint_stages))
    calls = _calls(ast.parse(source))
    last = max(i for i, (_l, _c, name) in enumerate(calls) if name == "barrier")
    senders = {"coord_send", "send_frame", "send", "send_chunk", "barrier"}
    assert [name for _l, _c, name in calls[last + 1:] if name in senders] == []


def test_the_ckpt_done_verb_stays_deleted():
    hits = [
        f"{path.relative_to(SRC)}:{n}"
        for path in sorted(SRC.rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if "MSG_CKPT_DONE" in line or '"ckpt-done"' in line
    ]
    assert hits == []
