"""Feature tests: dmtcpaware API, interval checkpoints, hijack
propagation through fork/exec/ssh, pid virtualization, pty restore."""

import pytest

from repro.cluster import build_cluster
from repro.core import aware
from repro.core.launch import DmtcpComputation


@pytest.fixture()
def world():
    return build_cluster(n_nodes=3, seed=17)


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


def test_aware_is_enabled_and_status(world):
    out = {}

    def main(sys, argv):
        out["enabled"] = aware.dmtcp_is_enabled(sys)
        out["status"] = aware.dmtcp_status(sys)
        yield from sys.sleep(0.1)

    world.register_program("app", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "app")
    world.engine.run(until=1.0)
    assert out["enabled"] is True
    assert out["status"]["checkpoints"] == 0
    no_failures(world)


def test_aware_disabled_outside_dmtcp(world):
    out = {}

    def main(sys, argv):
        out["enabled"] = aware.dmtcp_is_enabled(sys)
        out["request"] = yield from aware.dmtcp_checkpoint_request(sys)

    world.register_program("plain", main)
    world.spawn_process("node00", "plain")
    world.engine.run()
    assert out == {"enabled": False, "request": False}


def test_aware_application_requested_checkpoint(world):
    out = {}

    def main(sys, argv):
        yield from sys.sleep(0.2)
        out["ok"] = yield from aware.dmtcp_checkpoint_request(sys)
        out["status"] = aware.dmtcp_status(sys)
        yield from sys.sleep(0.1)

    world.register_program("app", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "app")
    world.engine.run(until=60.0)
    assert out["ok"] is True
    assert out["status"]["checkpoints"] == 1
    assert len(comp.state.history) == 1
    no_failures(world)


def test_aware_delay_checkpoints_holds_suspend(world):
    """A critical section delays the checkpoint until allowed."""
    trace = []

    def main(sys, argv):
        aware.dmtcp_delay_checkpoints(sys)
        trace.append(("critical-start", (yield from sys.time())))
        yield from sys.sleep(2.0)  # checkpoint requested during this
        trace.append(("critical-end", (yield from sys.time())))
        aware.dmtcp_allow_checkpoints(sys)
        for _ in range(100):
            yield from sys.sleep(0.1)

    world.register_program("app", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "app")
    world.engine.run(until=0.5)
    outcome = comp.checkpoint()
    # suspend could not begin before the critical section ended at t>=2.0
    critical_end = trace[1][1]
    assert outcome.finished_at > critical_end
    assert outcome.records[0].stages["suspend"] > 1.0  # includes the wait
    no_failures(world)


def test_aware_delay_is_reentrant(world):
    """Nested critical sections: the checkpoint waits for the outermost
    allow, like a recursive lock."""
    trace = []

    def main(sys, argv):
        aware.dmtcp_delay_checkpoints(sys)
        aware.dmtcp_delay_checkpoints(sys)  # nested
        yield from sys.sleep(1.0)
        aware.dmtcp_allow_checkpoints(sys)  # still delayed (count=1)
        yield from sys.sleep(1.0)
        trace.append(("inner-done", (yield from sys.time())))
        aware.dmtcp_allow_checkpoints(sys)  # now allowed
        for _ in range(100):
            yield from sys.sleep(0.1)

    world.register_program("app", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "app")
    world.engine.run(until=0.5)
    outcome = comp.checkpoint()
    assert outcome.finished_at > trace[0][1]
    no_failures(world)


def test_aware_hooks_fire(world):
    events = []

    def main(sys, argv):
        aware.dmtcp_install_hook(sys, "pre-checkpoint", lambda e: events.append(("pre", e["ckpt_id"])))
        aware.dmtcp_install_hook(sys, "post-checkpoint", lambda e: events.append(("post", e["ckpt_id"])))
        for _ in range(100):
            yield from sys.sleep(0.1)

    world.register_program("app", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "app")
    world.engine.run(until=0.5)
    comp.checkpoint()
    assert events == [("pre", 1), ("post", 1)]
    no_failures(world)


def test_aware_invalid_hook_name_rejected(world):
    def main(sys, argv):
        with pytest.raises(ValueError):
            aware.dmtcp_install_hook(sys, "bogus", lambda e: None)
        yield from sys.sleep(0.01)

    world.register_program("app", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "app")
    world.engine.run(until=1.0)
    no_failures(world)


def test_interval_checkpointing(world):
    """--interval: checkpoints fire periodically without any command."""
    def main(sys, argv):
        for _ in range(400):
            yield from sys.sleep(0.1)

    world.register_program("app", main)
    comp = DmtcpComputation(world, interval=10.0)
    comp.launch("node00", "app")
    world.engine.run(until=35.0)
    assert len(comp.state.history) >= 2
    no_failures(world)


def test_ssh_child_joins_computation(world):
    """ssh-spawned remote processes are hijacked too (Section 3)."""
    def remote(sys, argv):
        for _ in range(100):
            yield from sys.sleep(0.1)

    def launcher(sys, argv):
        yield from sys.ssh("node01", "remote", ["remote"])
        yield from sys.ssh("node02", "remote", ["remote"])
        for _ in range(100):
            yield from sys.sleep(0.1)

    world.register_program("remote", remote)
    world.register_program("launcher", launcher)
    comp = DmtcpComputation(world)
    comp.launch("node00", "launcher")
    world.engine.run(until=1.0)
    assert comp.state.member_count == 3
    outcome = comp.checkpoint()
    assert len(outcome.records) == 3
    hosts = {r.hostname for r in outcome.records}
    assert hosts == {"node00", "node01", "node02"}
    no_failures(world)


def test_exec_preserves_membership_and_conn_table(world):
    """exec re-injects the hijack library and its state survives."""
    def second(sys, argv):
        for _ in range(100):
            yield from sys.sleep(0.1)

    def first(sys, argv):
        yield from sys.sleep(0.2)
        yield from sys.execve("second", ["second"])

    world.register_program("first", first)
    world.register_program("second", second)
    comp = DmtcpComputation(world)
    proc = comp.launch("node00", "first")
    vpid_before = proc.pid
    world.engine.run(until=2.0)
    assert comp.state.member_count == 1
    outcome = comp.checkpoint()
    assert outcome.records[0].program == "second"
    # exec keeps the pid, and thus the vpid
    assert outcome.records[0].vpid == vpid_before
    no_failures(world)


def test_fork_vpid_conflict_refork(world):
    """The fork wrapper kills and re-forks on a virtual-pid collision:
    concurrently-live children never share a virtual pid, even when the
    kernel pid space is tiny and recycles aggressively."""
    small = build_cluster(n_nodes=1, seed=18, pid_max=112)
    rounds = []

    def child(sys):
        yield from sys.sleep(0.5)
        yield from sys.exit(0)

    def main(sys, argv):
        for _ in range(6):  # churn the tiny pid space
            live = []
            for _ in range(3):
                live.append((yield from sys.fork(child)))
            rounds.append(list(live))
            for pid in live:
                yield from sys.waitpid(pid)

    small.register_program("forker", main)
    comp = DmtcpComputation(small)
    comp.launch("node00", "forker")
    small.engine.run(until=300.0)
    assert len(rounds) == 6
    for live in rounds:
        assert len(set(live)) == 3  # no two live children share a vpid
    assert not small.scheduler.failures


def test_pty_survives_restart(world):
    state = {}

    def main(sys, argv):
        m, s = yield from sys.openpty()
        state["name0"] = yield from sys.ptsname(s)
        yield from sys.tcsetattr(s, {"echo": 0, "rows": 42})
        yield from sys.send(m, 4, data=b"ls\n")
        yield from sys.sleep(2.0)  # checkpoint+kill lands here
        chunk = yield from sys.recv(s)
        state["slave_got"] = chunk.data
        state["name1"] = yield from sys.ptsname(s)
        state["attrs"] = yield from sys.tcgetattr(s)

    world.register_program("term", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "term")
    world.engine.run(until=1.0)
    comp.checkpoint(kill=True)
    comp.restart(placement={"node00": "node01"})
    world.engine.run(until=world.engine.now + 10.0)
    assert state["slave_got"] == b"ls\n"  # drained and refilled via pty
    # ptsname is virtualized: the app keeps seeing its original name
    assert state["name1"] == state["name0"]
    assert state["attrs"]["echo"] == 0 and state["attrs"]["rows"] == 42
    no_failures(world)


def test_promoted_pipe_survives_restart(world):
    state = {}

    def main(sys, argv):
        r, w = yield from sys.pipe()
        yield from sys.send(w, 5, data=b"pipe!")
        yield from sys.sleep(2.0)  # checkpoint+kill here; data in buffer
        chunk = yield from sys.recv(r)
        state["got"] = chunk.data

    world.register_program("piper", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "piper")
    world.engine.run(until=1.0)
    comp.checkpoint(kill=True)
    comp.restart()
    world.engine.run(until=world.engine.now + 10.0)
    assert state["got"] == b"pipe!"
    no_failures(world)


def test_signal_handlers_restored(world):
    state = {}

    def main(sys, argv):
        yield from sys.signal(15, "handler:custom")
        yield from sys.sleep(2.0)  # checkpoint+kill here
        yield from sys.sleep(0.1)
        state["done"] = True

    world.register_program("sig", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "sig")
    world.engine.run(until=1.0)
    comp.checkpoint(kill=True)
    comp.restart()
    # taken while it runs: an orphan that exits is reaped at once
    restored = [
        p for p in world.live_processes() if p.program == "sig" and p.signal_handlers
    ]
    world.engine.run_until(lambda: state.get("done"))
    assert any(p.signal_handlers.get(15) == "handler:custom" for p in restored)
    no_failures(world)
