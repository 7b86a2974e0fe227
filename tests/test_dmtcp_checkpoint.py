"""Integration tests: the 7-stage checkpoint protocol, single and multi
process, with timing-stage sanity checks."""

import pytest

from repro.cluster import build_cluster
from repro.core.launch import DmtcpComputation
from repro.kernel.syscalls import connect_retry


@pytest.fixture()
def world():
    return build_cluster(n_nodes=4, seed=11)


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


def counter_program(log):
    def main(sys, argv):
        for i in range(200):
            yield from sys.sleep(0.05)
            log.append(i)

    return main


def test_single_process_checkpoint_and_continue(world):
    log = []
    world.register_program("counter", counter_program(log))
    comp = DmtcpComputation(world)
    comp.launch("node00", "counter")
    world.engine.run(until=1.0)
    assert log, "app did not start"
    outcome = comp.checkpoint()
    assert outcome.ckpt_id == 1
    assert len(outcome.records) == 1
    rec = outcome.records[0]
    # all five checkpoint stages ran
    for stage in ("suspend", "elect", "drain", "write", "refill"):
        assert stage in rec.stages, rec.stages
    assert rec.image_bytes > 0
    assert rec.stored_bytes < rec.image_bytes  # compression worked
    # write dominates (Table 1a shape).  This toy image streams out under
    # the drain, so the stage keeps only the header: count the whole write
    assert rec.write_hidden_s > 0
    assert rec.stages["write"] + rec.write_hidden_s > rec.stages["elect"]
    # the app keeps running afterwards
    n_before = len(log)
    world.engine.run(until=world.engine.now + 2.0)
    assert len(log) > n_before
    no_failures(world)


def test_checkpoint_image_lands_in_fs(world):
    log = []
    world.register_program("counter", counter_program(log))
    comp = DmtcpComputation(world)
    proc = comp.launch("node00", "counter")
    world.engine.run(until=0.5)
    outcome = comp.checkpoint()
    path = outcome.plan.images_by_host["node00"][0]
    ns = world.node_state("node00")
    file = ns.mounts.resolve(path).namespace.lookup(path)
    assert file is not None
    image = file.payload
    assert image.program == "counter"
    assert image.vpid == proc.pid
    assert image.regions and image.threads
    # restart script was generated next to the coordinator
    script = ns.mounts.resolve("/tmp/dmtcp/dmtcp_restart_script.sh")
    plan_file = script.namespace.lookup("/tmp/dmtcp/dmtcp_restart_script.sh")
    assert plan_file is not None
    assert "dmtcp_restart" in plan_file.payload.render_script()


def test_multiprocess_fork_tree_checkpoints_together(world):
    log = []

    def child(sys):
        for _ in range(100):
            yield from sys.sleep(0.1)
        yield from sys.exit(0)

    def main(sys, argv):
        yield from sys.fork(child)
        yield from sys.fork(child)
        for i in range(100):
            yield from sys.sleep(0.1)
            log.append(i)

    world.register_program("tree", main)
    comp = DmtcpComputation(world)
    comp.launch("node00", "tree")
    world.engine.run(until=1.0)
    outcome = comp.checkpoint()
    assert len(outcome.records) == 3  # parent + 2 children
    no_failures(world)


def test_distributed_socket_app_drains_in_flight_data(world):
    """Producer streams to a slow consumer; checkpoint catches data in
    kernel buffers; totals still add up afterwards."""
    state = {"received": 0, "sent": 0}
    N_MSGS = 60

    def consumer(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 4000)
        yield from sys.listen(lfd)
        fd = yield from sys.accept(lfd)
        while state["received"] < N_MSGS * 1000:
            chunk = yield from sys.recv(fd)
            assert chunk is not None
            state["received"] += chunk.nbytes
            yield from sys.sleep(0.05)  # slow reader: buffers fill

    def producer(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 4000)
        for _ in range(N_MSGS):
            yield from sys.send(fd, 1000)
            state["sent"] += 1000
            yield from sys.sleep(0.01)
        # stay alive so the checkpoint includes both ends
        yield from sys.sleep(60.0)

    world.register_program("consumer", consumer)
    world.register_program("producer", producer)
    comp = DmtcpComputation(world)
    comp.launch("node00", "consumer")
    comp.launch("node01", "producer")
    world.engine.run(until=0.5)  # mid-stream: data in flight
    outcome = comp.checkpoint()
    assert len(outcome.records) == 2
    # run to completion: every sent byte is eventually received
    world.engine.run_until(lambda: state["received"] >= N_MSGS * 1000)
    assert state["received"] == N_MSGS * 1000
    no_failures(world)


def test_two_checkpoints_in_sequence(world):
    log = []
    world.register_program("counter", counter_program(log))
    comp = DmtcpComputation(world)
    comp.launch("node00", "counter")
    world.engine.run(until=0.5)
    first = comp.checkpoint()
    second = comp.checkpoint()
    assert (first.ckpt_id, second.ckpt_id) == (1, 2)
    assert len(comp.state.history) == 2
    no_failures(world)


def test_compression_off_gives_bigger_faster_image(world):
    log1, log2 = [], []
    world.register_program("counter1", counter_program(log1))
    world.register_program("counter2", counter_program(log2))

    comp_gz = DmtcpComputation(world, coordinator_host="node00", port=7001,
                               ckpt_dir="/tmp/d1", compression=True)
    comp_gz.launch("node00", "counter1")
    comp_raw = DmtcpComputation(world, coordinator_host="node01", port=7002,
                                ckpt_dir="/tmp/d2", compression=False)
    comp_raw.launch("node01", "counter2")
    world.engine.run(until=0.5)
    gz = comp_gz.checkpoint()
    raw = comp_raw.checkpoint()
    assert gz.total_stored_bytes < raw.total_stored_bytes
    assert raw.records[0].stored_bytes == raw.records[0].image_bytes
    no_failures(world)


def test_shared_fd_leader_election_is_unique(world):
    """Section 4.3 step 3: for an FD shared by N processes (after fork),
    the F_SETOWN trick elects exactly one drain leader."""
    sockets = {}

    def child(sys):
        yield from sys.sleep(200.0)

    def main(sys, argv):
        a, b = yield from sys.socketpair()
        sockets["fds"] = (a, b)
        for _ in range(3):  # four processes share the socketpair
            yield from sys.fork(child)
        yield from sys.sleep(200.0)

    world.register_program("sharer", main)
    comp = DmtcpComputation(world)
    parent = comp.launch("node00", "sharer")
    world.engine.run(until=1.0)
    outcome = comp.checkpoint()
    assert len(outcome.records) == 4
    # exactly one image carries the drained data for each endpoint: the
    # election winner's (both endpoints led by someone, once)
    a, b = sockets["fds"]
    ns = world.node_state("node00")
    owners = {a: [], b: []}
    for path in outcome.plan.images_by_host["node00"]:
        image = ns.mounts.resolve(path).namespace.lookup(path).payload
        for fd in (a, b):
            if fd in image.drained:
                owners[fd].append(image.vpid)
    assert len(owners[a]) == 1, owners
    assert len(owners[b]) == 1, owners
    no_failures(world)


def test_checkpoint_stage_times_have_table1_shape(world):
    """Suspend ~tens of ms, elect ~ms, write dominant when compressed."""
    def bigheap(sys, argv):
        yield from sys.sbrk(64 * 2**20, "numeric")
        for _ in range(1000):
            yield from sys.sleep(0.1)

    world.register_program("bigheap", bigheap)
    comp = DmtcpComputation(world)
    comp.launch("node00", "bigheap")
    world.engine.run(until=0.5)
    rec = comp.checkpoint().records[0]
    assert 0.001 < rec.stages["suspend"] < 0.2
    assert rec.stages["elect"] < rec.stages["suspend"]
    # 64 MB of gzip outlast the drain: what is exposed still dominates
    assert rec.stages["write"] == max(rec.stages.values())
    assert rec.write_hidden_s == pytest.approx(
        rec.stages["elect"] + rec.stages["drain"], abs=1e-6
    )
    no_failures(world)


def test_forked_checkpoint_slows_app_via_background_compression(world):
    """Section 5.3: "Forked checkpointing has the disadvantage that
    compression runs in parallel and may slow down the user process."
    The writer child's gzip burst contends for the node's cores."""
    progress = []

    def cruncher(sys, argv):
        yield from sys.sbrk(256 * 2**20, "numeric")
        for i in range(400):
            yield from sys.cpu(0.05)
            progress.append((i, (yield from sys.time())))

    world.register_program("cruncher", cruncher)
    # saturate the node: as many compute threads as cores
    comp = DmtcpComputation(world)
    for _ in range(4):
        comp.launch("node00", "cruncher")
    world.engine.run(until=2.0)

    def rate(window):
        lo, hi = window
        pts = [t for _i, t in progress if lo <= t <= hi]
        return len(pts) / (hi - lo)

    baseline = rate((1.0, 2.0))
    comp.checkpoint(forked=True)
    t0 = world.engine.now
    world.engine.run(until=t0 + 2.0)
    during_write = rate((t0, t0 + 2.0))
    # the background gzip steals cycles from the saturated CPU
    assert during_write < 0.9 * baseline, (during_write, baseline)
    no_failures(world)


def test_forked_checkpoint_much_faster_write_stage(world):
    def bigheap(sys, argv):
        yield from sys.sbrk(64 * 2**20, "numeric")
        for _ in range(2000):
            yield from sys.sleep(0.1)

    world.register_program("bigheap", bigheap)
    comp = DmtcpComputation(world)
    comp.launch("node00", "bigheap")
    world.engine.run(until=0.5)
    normal = comp.checkpoint()
    world.engine.run(until=world.engine.now + 20.0)  # let the writer finish
    forked = comp.checkpoint(forked=True)
    w_norm = normal.records[0].stages["write"]
    w_fork = forked.records[0].stages["write"]
    assert w_fork < w_norm / 3, (w_fork, w_norm)
    no_failures(world)
