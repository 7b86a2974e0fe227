"""The image write runs under the drain.

User memory is frozen once ``BARRIER_SUSPENDED`` releases, so the image
payload streams from Barrier 2 while the manager elects and drains; the
header is sealed after ``BARRIER_DRAINED`` and only then does the file
become a checkpoint.  These tests pin what that overlap must not break:
the headline invariant with data in flight and a stream that outlasts
the drain, the ordering (nothing committed early, the header read after
the drain), rollback while a multi-block stream is running, and the
critical-path arithmetic.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.core.launch import DmtcpComputation
from repro.faults import FaultEvent, FaultInjector, FaultPlan
from repro.faults.supervisor import _image_file, _image_valid
from repro.kernel.filesystem import Namespace
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import connect_retry, recv_frame, send_frame
from repro.kernel.world import HIJACK_ENV
from repro.obs.tracer import PH_END

MB = 2**20
N_MSGS = 16
HEAP_MB = 48  # gzips for ~0.7 s: the stream outlasts the 0.13 s of stages 3-4
DRAINED_TRACK = "coordinator/barrier:drained"


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


# ----------------------------------------------------------------------
# The scenario: a pipeline with data in flight, a shared descriptor, a
# peer that is already dead at drain time, and images that outlast the
# drain
# ----------------------------------------------------------------------

def _register_pipeline(world, received: list, done: dict):
    """producer -> relay -> sink over three nodes, each with a big heap.

    The relay forks a child that shares both of its sockets (the
    election has something to decide); a feeder sends the sink three
    frames on a second connection and exits at once, so that endpoint is
    half-open, with unread data, at every checkpoint.
    """

    def heap(sys):
        yield from sys.sbrk(HEAP_MB * MB, "numeric")

    def sink(sys, argv):
        yield from heap(sys)
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 6100)
        yield from sys.listen(lfd)
        side_l = yield from sys.socket()
        yield from sys.bind(side_l, 6102)
        yield from sys.listen(side_l)
        fd = yield from sys.accept(lfd)
        side = yield from sys.accept(side_l)
        asm = FrameAssembler()
        while len(received) < N_MSGS:
            payload, _ = yield from recv_frame(sys, fd, asm)
            received.append(payload)
            yield from sys.sleep(0.05)
        side_asm = FrameAssembler()
        while True:
            frame = yield from recv_frame(sys, side, side_asm)
            if frame is None:
                break
            received.append(frame[0])
        done["ok"] = True
        yield from sys.sleep(300.0)

    def relay_child(sys):
        yield from sys.sleep(300.0)

    def relay(sys, argv):
        yield from heap(sys)
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 6101)
        yield from sys.listen(lfd)
        up = yield from sys.accept(lfd)
        down = yield from sys.socket()
        yield from connect_retry(sys, down, "node00", 6100)
        yield from sys.fork(relay_child)
        asm = FrameAssembler()
        for _ in range(N_MSGS):
            payload, size = yield from recv_frame(sys, up, asm)
            yield from send_frame(sys, down, ("relayed", payload), size)
        yield from sys.sleep(300.0)

    def producer(sys, argv):
        yield from heap(sys)
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node01", 6101)
        for i in range(N_MSGS):
            yield from send_frame(sys, fd, ("msg", i, "x" * i), 30_000)
            yield from sys.sleep(0.02)
        yield from sys.sleep(300.0)

    def feeder(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 6102)
        for i in range(3):
            yield from send_frame(sys, fd, ("side", i), 2_000)

    def bystander(sys, argv):
        yield from heap(sys)
        yield from sys.sleep(300.0)

    for name, main in (("sink", sink), ("relay", relay), ("producer", producer),
                       ("feeder", feeder), ("bystander", bystander)):
        world.register_program(name, main)


MODES = {
    "plain": ({}, None),
    "atomic": ({}, {"DMTCP_ATOMIC_IMAGES": "1"}),
    # a store generation with two before it: it leases the dirtied chunks
    "incremental": ({"store": True}, None),
    "store": ({"store": True}, None),
    "san": ({"ckpt_dir": "/san/dmtcp"}, None),
}


def _pipeline(mode=None, trace: bool = True, n_nodes: int = 3, spec=CLUSTER_2008, **more):
    """The pipeline launched on node00..02 (all on the shared RAID in
    ``san`` mode) and run to 0.45 s, mid-stream; returns ``(world,
    computation, received, done)``."""
    kwargs, env = MODES[mode] if mode else ({}, None)
    san = "ckpt_dir" in kwargs
    world = build_cluster(n_nodes=n_nodes, seed=99, spec=spec, with_san=san)
    if san:
        shared = Namespace("san:ckpt")
        for node in world.nodes.values():
            node.mounts.add("/san", shared, "san")
    if trace:
        world.tracer.enable()
    received, done = [], {"ok": False}
    _register_pipeline(world, received, done)
    comp = DmtcpComputation(world, **kwargs, **more)
    for host, program in (("node00", "sink"), ("node01", "relay"),
                          ("node02", "producer"), ("node02", "feeder")):
        comp.launch(host, program, env=env)
    if n_nodes > 3:
        # a member that holds no connection: its silent death stalls only barriers
        comp.launch("node03", "bystander")
    world.engine.run(until=0.45)
    return world, comp, received, done


def _members(world):
    return [p for p in world.live_processes() if p.env.get(HIJACK_ENV)]


def _dirty_heaps(world, fraction: float) -> None:
    """Every member wrote ``fraction`` of its heap since the last image
    (so a later store generation, too, has a payload that outlasts the
    drain)."""
    for process in _members(world):
        for region in process.address_space.regions:
            if region.size == HEAP_MB * MB:
                region.touch(fraction)


def _run_pipeline(mode=None):
    """Run the pipeline to completion; with ``mode``, checkpoint + kill +
    restart on the way (an incremental run first takes two more
    checkpoints, so the restart is from a third store generation).  Returns
    ``(received, world, kill_outcome)``."""
    world, comp, received, done = _pipeline(mode)
    kill = None
    if mode:
        if mode == "incremental":
            for _ in range(2):
                comp.checkpoint()
                world.engine.run(until=world.engine.now + 0.06)
                _dirty_heaps(world, 0.5)
        kill = comp.checkpoint(kill=True)
        comp.restart(plan=kill.plan)
    world.engine.run_until(lambda: done["ok"])
    no_failures(world)
    return received, world, kill


_REFERENCE = None


def _reference():
    global _REFERENCE
    if _REFERENCE is None:
        _REFERENCE = _run_pipeline()[0]
    return _REFERENCE


def _images(world, outcome):
    return [
        _image_file(world, host, path).payload
        for host, paths in sorted(outcome.plan.images_by_host.items())
        for path in paths
    ]


def test_reference_output_is_complete():
    assert _reference() == (
        [("relayed", ("msg", i, "x" * i)) for i in range(N_MSGS)]
        + [("side", i) for i in range(3)]
    )


# ----------------------------------------------------------------------
# (1) the headline invariant across the overlap
# ----------------------------------------------------------------------

@pytest.mark.parametrize("mode", sorted(MODES))
def test_output_invariant_with_data_in_flight_and_a_stream_outlasting_the_drain(mode):
    received, world, kill = _run_pipeline(mode)
    assert received == _reference()
    assert len(kill.records) == 4  # sink, relay + child, producer
    # the scenario is the one the issue names: the drain/refill path was
    # not empty, a peer was dead at drain time, and every big image was
    # still streaming when the drain barrier released
    snap = world.tracer.snapshot()
    assert snap["dmtcp.drained_bytes"] > 0 and snap["dmtcp.refilled_bytes"] > 0
    images = _images(world, kill)
    assert any(f.peer_dead and image.drained.get(f.fd)
               for image in images for f in image.fds)
    assert len(kill.records) == 4
    for rec in kill.records:
        assert rec.write_hidden_s == pytest.approx(
            rec.stages["elect"] + rec.stages["drain"], abs=1e-4
        )
        assert rec.stages["write"] > 0.01  # and there was payload left
    if mode == "incremental":
        assert {image.ckpt_id for image in images} == {3}


# ----------------------------------------------------------------------
# (2) ordering, from the trace
# ----------------------------------------------------------------------

def _listing(world, prefix):
    """Every file under ``prefix`` on every node's own view, by path."""
    files = {}
    for host in world.machine.hostnames:
        ns = world.node_state(host).mounts.resolve(prefix).namespace
        for path in ns.listdir(prefix):
            files[(ns.name, path)] = ns.lookup(path)
    return files


def _watch_drained_release(world, prefix):
    """Snapshot what exists at the instant ``BARRIER_DRAINED`` releases."""
    seen = []

    def hook(ph, track, name, ts):
        if ph == PH_END and track == DRAINED_TRACK:
            files = _listing(world, prefix)
            snap = world.tracer.snapshot()
            seen.append({
                "t": ts,
                "with_payload": [p for p, f in files.items()
                                 if ".dmtcp" in p[1] and f.payload is not None],
                "image_bytes": sum(f.size for p, f in files.items() if ".dmtcp" in p[1]),
                "renames": snap.get("sys.rename", 0),
                "san_bytes": getattr(world.machine.node("node00").san, "bytes_written", 0),
                "durable": (sum(m.durable for m in world.store.chunks.values())
                            if world.store else 0),
                "lease_waits": [s for s in world.tracer.spans(cat="store")
                                if s["name"] == "store.lease_wait"],
            })

    world.tracer.add_span_hook(hook)
    return seen


@pytest.mark.parametrize("mode", sorted(MODES))
def test_nothing_is_committed_before_the_drain_barrier_releases(mode):
    world, comp, _received, _done = _pipeline(mode)
    seen = _watch_drained_release(world, comp.ckpt_dir)
    renames_before = world.tracer.snapshot().get("sys.rename", 0)
    outcome = comp.checkpoint()
    (at_release,) = seen
    # the payload was on its way ...
    if comp.store is not None:
        assert len(at_release["lease_waits"]) == 4  # leased under the drain
    else:
        assert at_release["image_bytes"] > 0
    if mode == "san":
        assert at_release["san_bytes"] > 0  # the RAID was already at work
    # ... and nothing was a checkpoint yet
    assert at_release["with_payload"] == []
    assert at_release["renames"] == renames_before
    assert at_release["durable"] == 0
    # afterwards the image set is complete
    for image in _images(world, outcome):
        assert image is not None and image.ckpt_id == outcome.ckpt_id
    spans = world.tracer.spans()
    def who(track):  # "<host>/<anything>[<vpid>]" -> (host, vpid)
        return track.split("/")[0], track.split("[")[1]

    suspend_end = {
        who(s["track"]): s["end"]
        for s in spans if s["cat"] == "ckpt" and s["name"] == "suspend"
    }
    writes = [s for s in spans if s["name"] == "mtcp.write"]
    assert len(writes) == 4
    for span in writes:
        assert span["begin"] >= suspend_end[who(span["track"])]
        assert span["begin"] < at_release["t"] < span["end"]
        assert span["args"]["hidden_s"] > 0 and span["args"]["exposed_s"] > 0
    assert world.tracer.snapshot()["mtcp.write_hidden_s"] == pytest.approx(
        sum(s["args"]["hidden_s"] for s in writes), abs=1e-6
    )
    no_failures(world)


#: What ``build_image`` recorded for this scenario at the parent commit
#: (the write-after-drain ordering), per image in plan order:
#: ``(program, [(fd, kind, owner_vpid, peer_dead)], {fd: [chunk bytes]})``.
GOLDEN_HEADERS = [
    ("sink",
     [(4, "listener", 101, False), (5, "listener", 101, False),
      (6, "socket", 101, False), (7, "socket", 101, True)],
     {6: [30016, 30016, 30016], 7: [2016, 2016, 2016]}),
    ("relay",
     [(4, "listener", 101, False), (5, "socket", 101, False), (6, "socket", 101, False)],
     {}),
    ("relay",
     [(4, "listener", 101, False), (5, "socket", 101, False), (6, "socket", 101, False)],
     {5: [30016, 30016, 30016], 6: []}),
    ("producer", [(4, "socket", 100, False)], {4: []}),
]


def _header_rows(world, outcome):
    return [
        (
            image.program,
            [(f.fd, f.kind, f.owner_vpid, f.peer_dead) for f in image.fds],
            {fd: [c.nbytes for c in chunks] for fd, chunks in sorted(image.drained.items())},
        )
        for image in _images(world, outcome)
    ]


@pytest.mark.parametrize("mode", ["plain", "atomic", "store"])
def test_header_is_what_a_build_after_the_drain_recorded(mode):
    """... although the image file, the store segment and the lease
    connection are open while it is sealed: none may enter it."""
    world, comp, _received, _done = _pipeline(mode, trace=False)
    open_before = {p.pid: set(p.fds) for p in _members(world)}
    first = comp.checkpoint()
    # the post-election owners, the dead peer, the drained data
    assert _header_rows(world, first) == GOLDEN_HEADERS
    assert all(len(image.threads) == 1 for image in _images(world, first))
    # a second checkpoint sees whatever the first left open: nothing
    second = comp.checkpoint()
    assert [fds for _prog, fds, _drained in _header_rows(world, second)] == [
        fds for _prog, fds, _drained in GOLDEN_HEADERS
    ]
    assert {p.pid: set(p.fds) for p in _members(world)} == open_before
    no_failures(world)


# ----------------------------------------------------------------------
# (3) abort while a multi-block stream is running
# ----------------------------------------------------------------------

#: Nobody hears of a silent death (no heartbeat inside the window), so a
#: stalled barrier is aborted by the watchdog 0.3 s after it last moved:
#: under the ~0.7 s streams.
ABORT_SPEC = CLUSTER_2008.with_(
    dmtcp=replace(
        CLUSTER_2008.dmtcp,
        barrier_timeout_s=0.3,
        heartbeat_interval_s=30.0,
        member_recv_timeout_s=2.0,
    )
)


def _artifacts(world):
    """Image files, temporaries, manifests and store segments on live nodes."""
    found = []
    for host in world.machine.hostnames:
        node = world.node_state(host)
        if node.down:
            continue
        ns = node.mounts.resolve("/tmp/dmtcp").namespace
        found.extend(
            (host, p) for p in ns.listdir("/tmp/dmtcp")
            if p.endswith((".dmtcp", ".tmp", ".manifest")) or "store_seg_" in p
        )
    return found


@pytest.mark.parametrize("store", [False, True], ids=["monolithic", "store"])
@pytest.mark.parametrize("fault", ["crash@election-completed", "crash@drained", "enospc"])
def test_abort_while_the_stream_is_running_leaves_nothing_behind(fault, store):
    world, comp, received, done = _pipeline(
        n_nodes=4, spec=ABORT_SPEC, supervise=True, store=store
    )
    if fault == "enospc":
        # the sink's disk fills 50 ms into stages 3-4, under its stream
        armed = []

        def fill(ph, track, name, ts):
            if name == "mtcp.write" and track.startswith("node00/") and not armed:
                armed.append(ts)
                world.engine.call_at(ts + 0.05, world.set_disk_full, "node00", ts + 1.0)

        world.tracer.add_span_hook(fill)
    else:
        phase = "coordinator/barrier:" + fault.split("@")[1]
        FaultInjector(world, comp).arm(
            FaultPlan.schedule([FaultEvent("crash-node", target="node03", phase=phase)])
        )
    handle = comp.request_checkpoint()
    world.engine.run_until(lambda: handle["outcome"] is not None)
    assert handle["outcome"] == "aborted"
    # once every member has rolled back (the abort frame is a few network
    # hops away; a manager inside its exposed write meets it at Barrier 5)
    # no writer is left and not one more byte goes to any disk
    survivors = _members(world)
    aborted_at = world.engine.now
    world.engine.run_until(
        lambda: world.tracer.counters.get("dmtcp.checkpoints_aborted") == len(survivors)
    )
    if fault != "crash@drained":
        assert world.engine.now < aborted_at + 0.01  # under the ~0.7 s streams
    assert not [t.name for p in survivors for t in p.live_threads if t.name == "mtcp-writer"]
    disks = [world.machine.node(host).disk for host in world.machine.hostnames]
    written = [disk.bytes_written for disk in disks]
    world.engine.run(until=world.engine.now + 3.0)
    assert [disk.bytes_written for disk in disks] == written
    snap = world.tracer.snapshot()
    assert len(survivors) == (5 if fault == "enospc" else 4)
    assert snap["dmtcp.checkpoints_aborted"] == len(survivors)
    # three windows: the watchdog fires under the streams; the failed
    # writer is met at the join while the others still stream; the victim
    # had arrived at ``drained``, so every image was whole -- and not yet
    # a checkpoint -- when Barrier 5 stalled
    assert snap.get("mtcp.images_written", 0) == (4 if fault == "crash@drained" else 0)
    left = _artifacts(world)
    if store and fault == "crash@drained":
        # every writer had committed its chunks: the segments hold durable
        # store data now, which the next generation dedups against
        assert left and all("store_seg_" in path for _host, path in left)
        assert any(meta.durable for meta in world.store.chunks.values())
    else:
        assert left == []
    # (a crashed process's spans stay open; nobody else's may)
    assert [t for t, stack in world.tracer._stacks.items()
            if stack and not t.startswith("node03/")] == []
    for process in survivors:
        runtime = process.user_state["dmtcp"]
        assert not runtime.in_checkpoint and process.state == "running"
    if store:
        assert [m for m in world.store.chunks.values() if m.lease_owner] == []
        assert comp.state.store_parked == {}
    for host in world.machine.hostnames:
        assert world.machine.node(host).disk._holds == 0
    no_failures(world)
    # the next checkpoint completes (the disk has room again; the next
    # heartbeat has found the dead member)
    world.engine.run(until=world.engine.now + 31.0)
    world.reboot_node("node03")  # its disk, and the chunks on it, are back
    # a whole stream fits between barriers from here on
    comp.state.spec = replace(comp.state.spec, barrier_timeout_s=5.0)
    open_before = {p.pid: set(p.fds) for p in survivors}
    retry = comp.checkpoint()
    assert len(retry.records) == len(survivors)
    for host, paths in retry.plan.images_by_host.items():
        assert all(_image_valid(world, host, path) for path in paths)
    # and records no descriptor of the aborted one
    assert {p.pid: set(p.fds) for p in survivors} == open_before
    no_failures(world)
    if fault == "enospc":
        # nobody the pipeline needs has died: the application lost nothing
        world.engine.run_until(lambda: done["ok"])
        assert received == _reference()
    # nothing the killed writers left in the engine calls into them
    for process in list(world.live_processes()):
        world.destroy_process(process)
    world.engine.run()
    assert world.engine.pending == 0
    no_failures(world)


def test_abort_before_the_drain_with_every_member_alive_loses_and_repeats_nothing():
    """The coordinator's path to the bystander stalls while the election
    barrier is open, the watchdog aborts, and the threads resume with
    nothing drained: the producer's send that sat blocked on flow control
    at suspend is re-issued, and must not be queued a second time."""
    world, comp, received, done = _pipeline(n_nodes=4, spec=ABORT_SPEC, supervise=True)
    FaultInjector(world, comp).arm(
        FaultPlan.schedule([FaultEvent(
            "delay-coord-frames", target="node03",
            phase="coordinator/barrier:election-completed", duration=1.0,
        )])
    )
    handle = comp.request_checkpoint()
    world.engine.run_until(lambda: handle["outcome"] is not None)
    assert handle["outcome"] == "aborted"
    world.engine.run_until(lambda: done["ok"])
    snap = world.tracer.snapshot()
    assert snap.get("dmtcp.drained_chunks", 0) == 0  # the abort came first
    assert len(_members(world)) == 5 and received == _reference()
    no_failures(world)


# ----------------------------------------------------------------------
# (5) the critical path is max(elect + drain, payload), never the sum
# ----------------------------------------------------------------------

def _one_checkpoint(heap_mb, gzip, store, atomic, san):
    """One process, one timed checkpoint (the second, so a store run
    times a generation that leases only the changed chunks).  Returns
    the record, the write span and the trace as JSON lines."""
    import io

    from repro.core.compression import ESTIMATE_CACHE
    from repro.obs.export import write_jsonl

    ESTIMATE_CACHE.clear()  # process-wide; its hit counters are in the trace
    world = build_cluster(n_nodes=2, seed=7, with_san=san)
    if san:
        shared = Namespace("san:ckpt")
        for node in world.nodes.values():
            node.mounts.add("/san", shared, "san")
    world.tracer.enable()

    def app(sys, argv):
        region = yield from sys.sbrk(heap_mb * MB, "numeric")
        for _ in range(4000):
            yield from sys.sleep(0.05)
            yield from sys.mem_touch(region, 0.02)

    world.register_program("app", app)
    comp = DmtcpComputation(
        world, compression=gzip, store=store,
        ckpt_dir="/san/dmtcp" if san else "/tmp/dmtcp",
    )
    comp.launch("node01", "app", env={"DMTCP_ATOMIC_IMAGES": "1"} if atomic else None)
    world.engine.run(until=0.3)
    comp.checkpoint()
    world.engine.run(until=world.engine.now + 0.4)
    t0 = world.engine.now
    outcome = comp.checkpoint()
    (record,) = outcome.records
    (span,) = [s for s in world.tracer.spans(cat="mtcp")
               if s["name"] == "mtcp.write" and s["begin"] >= t0]
    (suspend,) = [s for s in world.tracer.spans(cat="ckpt")
                  if s["name"] == "suspend" and s["begin"] >= t0]
    no_failures(world)
    dump = io.StringIO()
    write_jsonl(world.tracer, dump)
    return record, span, suspend, dump.getvalue()


@settings(max_examples=12, deadline=None)
@given(
    heap_mb=st.integers(min_value=1, max_value=40),
    gzip=st.booleans(),
    store=st.booleans(),
    atomic=st.booleans(),
    san=st.booleans(),
)
def test_checkpoint_costs_the_longer_of_drain_and_payload(heap_mb, gzip, store, atomic, san):
    config = (heap_mb, gzip, store, atomic, san)
    record, span, suspend, dump = _one_checkpoint(*config)
    stages, args = record.stages, span["args"]
    under = stages["elect"] + stages["drain"]
    tol = 1e-8
    # the stream starts where the suspend stage ends and is sealed where
    # the drain stage ends, whatever the manager did in between
    assert span["begin"] == pytest.approx(suspend["end"], abs=tol)
    assert args["hidden_s"] == pytest.approx(under, abs=tol)
    assert record.write_hidden_s == pytest.approx(args["hidden_s"], abs=tol)
    # what is left once both the drain and the payload are done: header,
    # commit, Barrier 5, refill
    payload_s = args["payload_s"]
    tail = (
        args["exposed_s"] - max(payload_s - args["hidden_s"], 0.0)
        + (stages["write"] - args["exposed_s"]) + stages["refill"]
    )
    assert tail > 0
    assert record.total == pytest.approx(
        stages["suspend"] + max(under, payload_s) + tail, abs=1e-7
    )
    # never the serial sum, and short of it by whichever part was hidden
    serial = stages["suspend"] + under + payload_s + tail
    assert record.total == pytest.approx(serial - min(under, payload_s), abs=1e-7)
    assert record.total < serial
    # same seed, same trace, to the byte
    assert _one_checkpoint(*config)[3] == dump


# ----------------------------------------------------------------------
# (6) a --kill checkpoint refills nothing
# ----------------------------------------------------------------------

def test_kill_checkpoint_refills_nothing_and_the_restart_refills_it_all():
    """Its processes retire with the drained bytes in their image
    headers; only the restart sends them back."""
    world, comp, received, done = _pipeline()
    comp.checkpoint()
    snap = world.tracer.snapshot()
    drained, refilled = snap["dmtcp.drained_bytes"], snap["dmtcp.refilled_bytes"]
    # a checkpoint that resumes refills what its drain took, less what
    # sat on the half-open endpoint: no peer re-sends that residue
    residue = 3 * 2016
    assert refilled == drained - residue > 0
    kill = comp.checkpoint(kill=True)
    snap = world.tracer.snapshot()
    kill_drained = snap["dmtcp.drained_bytes"] - drained
    assert kill_drained > residue
    assert snap["dmtcp.refilled_bytes"] == refilled
    comp.restart(plan=kill.plan)
    snap = world.tracer.snapshot()
    assert snap["dmtcp.refilled_bytes"] - refilled == kill_drained - residue
    world.engine.run_until(lambda: done["ok"])
    assert received == _reference()
    no_failures(world)


def test_kill_checkpoint_aborted_at_the_refill_barrier_loses_and_repeats_nothing():
    """No member sent a byte back, so the rollback requeues every drained
    byte exactly once and the application runs on as if never stopped.
    (The watchdog waits out the ~0.7 s streams, then holds the bystander
    past the refill barrier.)"""
    spec = ABORT_SPEC.with_(dmtcp=replace(ABORT_SPEC.dmtcp, barrier_timeout_s=1.5))
    world, comp, received, done = _pipeline(n_nodes=4, spec=spec, supervise=True)
    FaultInjector(world, comp).arm(
        FaultPlan.schedule([FaultEvent(
            "delay-coord-frames", target="node03",
            phase="coordinator/barrier:refilled", duration=3.0,
        )])
    )
    handle = comp.request_checkpoint(kill=True)
    world.engine.run_until(lambda: handle["outcome"] is not None)
    assert handle["outcome"] == "aborted"
    world.engine.run_until(lambda: done["ok"])
    snap = world.tracer.snapshot()
    assert snap["dmtcp.drained_bytes"] > 0  # the abort came after the drain
    assert snap.get("dmtcp.refilled_bytes", 0) == 0
    assert snap["mtcp.images_written"] == 5  # and after the write
    assert len(_members(world)) == 5 and received == _reference()
    no_failures(world)
