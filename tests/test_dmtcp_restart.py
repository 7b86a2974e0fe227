"""Integration tests: kill-and-restart, including relocation and the
headline invariant -- output is unchanged by checkpoint/kill/restart."""

import pytest

from repro.cluster import build_cluster
from repro.core.launch import DmtcpComputation
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import connect_retry, recv_frame, send_frame


@pytest.fixture()
def world():
    return build_cluster(n_nodes=4, seed=13)


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


def test_single_process_kill_and_restart(world):
    log = []

    def main(sys, argv):
        for i in range(40):
            yield from sys.sleep(0.1)
            log.append(i)
        log.append("done")

    world.register_program("counter", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "counter")
    world.engine.run(until=1.0)
    assert 0 < len(log) < 40

    comp.checkpoint(kill=True)
    progress_at_kill = len(log)
    assert progress_at_kill < 40
    world.engine.run(until=world.engine.now + 1.0)
    # killed: no further progress
    assert len(log) == progress_at_kill

    restart = comp.restart()
    assert restart.duration > 0
    world.engine.run(until=world.engine.now + 10.0)
    assert log[-1] == "done"
    # every index exactly once: no lost or repeated iterations
    assert log[:-1] == list(range(40))
    no_failures(world)


def test_restart_on_different_node(world):
    """Migration: checkpoint on node00, restart on node03."""
    seen_hosts = []

    def main(sys, argv):
        seen_hosts.append((yield from sys.gethostname()))
        for _ in range(20):
            yield from sys.sleep(0.1)
        seen_hosts.append((yield from sys.gethostname()))

    world.register_program("roamer", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "roamer")
    world.engine.run(until=1.0)
    comp.checkpoint(kill=True)
    comp.restart(placement={"node00": "node03"})
    world.engine.run(until=world.engine.now + 10.0)
    assert seen_hosts[0] == "node00"
    assert seen_hosts[-1] == "node03"
    no_failures(world)


def test_restart_preserves_virtual_pid(world):
    pids = []

    def main(sys, argv):
        pids.append((yield from sys.getpid()))
        for _ in range(20):
            yield from sys.sleep(0.1)
        pids.append((yield from sys.getpid()))

    world.register_program("pidapp", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "pidapp")
    world.engine.run(until=1.0)
    comp.checkpoint(kill=True)
    comp.restart(placement={"node00": "node02"})
    world.engine.run(until=world.engine.now + 10.0)
    assert len(pids) == 2
    assert pids[0] == pids[1]  # vpid stable across restart
    no_failures(world)


def test_distributed_restart_with_socket_and_relocation(world):
    """The paper's core demo: two processes on two nodes, connected by a
    TCP socket with data in flight, checkpointed, killed, and restarted
    with one side relocated -- the stream must arrive intact."""
    state = {"received": [], "done": False}
    N = 30

    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 4000)
        yield from sys.listen(lfd)
        fd = yield from sys.accept(lfd)
        asm = FrameAssembler()
        while len(state["received"]) < N:
            payload, _size = yield from recv_frame(sys, fd, asm)
            state["received"].append(payload)
            yield from sys.sleep(0.08)  # slow: keeps data buffered
        state["done"] = True

    def client(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 4000)
        for i in range(N):
            yield from send_frame(sys, fd, ("msg", i), 2000)
            yield from sys.sleep(0.01)
        yield from sys.sleep(120.0)

    world.register_program("server", server)
    world.register_program("client", client)
    comp = DmtcpComputation(world)
    comp.launch("node00", "server")
    comp.launch("node01", "client")
    world.engine.run(until=0.6)  # mid-stream
    got_before = len(state["received"])
    assert 0 < got_before < N

    comp.checkpoint(kill=True)
    restart = comp.restart(placement={"node00": "node02", "node01": "node03"})
    assert restart.duration > 0
    world.engine.run_until(lambda: state["done"])
    assert state["received"] == [("msg", i) for i in range(N)]
    no_failures(world)


def test_restart_refill_preserves_mid_frame_split(world):
    """A checkpoint landing in the middle of a large framed message must
    not corrupt it (kernel-buffer drain/refill conservation)."""
    state = {"got": None}

    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 4100)
        yield from sys.listen(lfd)
        fd = yield from sys.accept(lfd)
        yield from sys.sleep(5.0)  # ensure the frame is mid-flight at ckpt
        asm = FrameAssembler()
        payload, size = yield from recv_frame(sys, fd, asm)
        state["got"] = (payload, size)

    def client(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 4100)
        yield from send_frame(sys, fd, {"blob": 123}, 500_000)
        yield from sys.sleep(120.0)

    world.register_program("server", server)
    world.register_program("client", client)
    comp = DmtcpComputation(world)
    comp.launch("node00", "server")
    comp.launch("node01", "client")
    world.engine.run(until=0.5)
    comp.checkpoint(kill=True)
    comp.restart()
    world.engine.run_until(lambda: state["got"] is not None)
    assert state["got"] == ({"blob": 123}, 500_000)
    no_failures(world)


def test_fork_tree_restart_preserves_parent_child(world):
    events = []

    def child(sys):
        yield from sys.sleep(3.0)
        yield from sys.exit(42)

    def main(sys, argv):
        pid = yield from sys.fork(child)
        yield from sys.sleep(1.0)  # checkpoint lands here
        reaped, code = yield from sys.waitpid(pid)
        events.append(("reaped", reaped == pid, code))

    world.register_program("tree", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "tree")
    world.engine.run(until=0.5)
    comp.checkpoint(kill=True)
    comp.restart()
    world.engine.run(until=world.engine.now + 20.0)
    assert events == [("reaped", True, 42)]
    no_failures(world)


def test_open_file_offset_restored(world):
    state = {}

    def main(sys, argv):
        fd = yield from sys.open("/data/log.bin", "w")
        yield from sys.write(fd, 1000, payload="first")
        yield from sys.sleep(2.0)  # checkpoint lands here
        yield from sys.write(fd, 500, payload="second")
        state["stat"] = yield from sys.stat("/data/log.bin")
        yield from sys.close(fd)

    world.register_program("writer", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "writer")
    world.engine.run(until=1.0)
    comp.checkpoint(kill=True)
    comp.restart()
    world.engine.run(until=world.engine.now + 10.0)
    # offset restored at 1000, second write extends to 1500
    assert state["stat"]["size"] == 1500
    no_failures(world)


def test_dead_peer_connection_restored_as_half_open(world):
    """A socket whose peer exited before the checkpoint must restore as a
    half-open stream: drained residue first, then EOF (the mpdboot/mpd
    pattern -- launchers die, daemons keep their accepted sockets)."""
    got = []

    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 4200)
        yield from sys.listen(lfd)
        fd = yield from sys.accept(lfd)
        yield from sys.sleep(3.0)  # checkpoint+kill lands here
        while True:
            chunk = yield from sys.recv(fd)
            if chunk is None:
                got.append("eof")
                return
            got.append(chunk.data)

    def client(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 4200)
        yield from sys.send(fd, 7, data=b"parting")
        # exits immediately: its side closes well before the checkpoint

    world.register_program("server", server)
    world.register_program("client", client)
    comp = DmtcpComputation(world)
    comp.launch("node00", "server")
    comp.launch("node01", "client")
    world.engine.run(until=1.5)  # client is long gone
    comp.checkpoint(kill=True)
    comp.restart(placement={"node00": "node02"})
    world.engine.run(until=world.engine.now + 10.0)
    assert got == [b"parting", "eof"]
    no_failures(world)


def test_restart_stage_records_cover_table1b(world):
    def main(sys, argv):
        yield from sys.sbrk(8 * 2**20, "numeric")
        for _ in range(50):
            yield from sys.sleep(0.1)

    world.register_program("app", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "app")
    world.engine.run(until=1.0)
    comp.checkpoint(kill=True)
    restart = comp.restart()
    assert len(restart.records) == 1
    stages = restart.records[0]["stages"]
    for name in ("image_read", "restore_files", "reconnect", "restore_memory", "refill"):
        assert name in stages, stages
    assert stages["restore_memory"] > 0
    no_failures(world)
