"""dmtcp_restart as a pipeline (Section 4.4, Figure 2).

Three serialisations the paper's algorithm does not require are gone:
the header pass reads every image of the host at once, each restored
child streams its payload the moment it is forked (only the host-wide
pid map waits for the last fork), and reconnect sleeps until the next
discovery event instead of polling.  Nothing restored may change: the
tests pin what each child gets and the headline invariant
``output(run) == output(run + checkpoint + kill + restart)``.
"""

import ast
import inspect
from dataclasses import replace

import pytest

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.core import mtcp
from repro.core import restart as restart_mod
from repro.core.launch import DmtcpComputation
from repro.errors import SyscallError
from repro.faults.supervisor import _image_file, _image_valid
from repro.kernel.filesystem import OpenFile
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import connect_retry, recv_frame, send_frame
from repro.kernel.process import Process, ProgramSpec, RegionSpec
from repro.kernel.world import SIGKILL
from repro.mpi import mpi_init, register_openmpi

MB = 2**20

FAST_SPEC = CLUSTER_2008.with_(
    dmtcp=replace(
        CLUSTER_2008.dmtcp,
        barrier_timeout_s=2.0,
        heartbeat_interval_s=0.5,
        member_recv_timeout_s=2.0,
    )
)


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


@pytest.fixture()
def created(monkeypatch):
    """Every process the kernel creates from now on, in creation order.
    The world keeps no such list: an exited process is reaped and freed."""
    log = []
    init = Process.__init__

    def record(self, *args, **kw):
        init(self, *args, **kw)
        log.append(self)

    monkeypatch.setattr(Process, "__init__", record)
    return log


def _counter(out: dict, ticks: int = 40):
    """A process whose output is its tick count and virtual pid."""

    def main(sys, argv):
        yield from sys.sbrk(4 * MB, "numeric")
        for i in range(ticks):
            pid = yield from sys.getpid()
            out.setdefault(argv[1], []).append((i, pid))
            yield from sys.sleep(0.05)

    return main


def _spy_streams(world) -> list:
    """Record ``(pid, path, offset)`` of every ``sys.stream`` call."""
    streamed = []
    raw = world._sys_stream

    def spy(task, thread, process, fd, *args):
        desc = process.get_fd(fd)
        streamed.append((process.pid, desc.file.path, desc.offset))
        return raw(task, thread, process, fd, *args)

    world._sys_handlers["stream"] = spy
    return streamed


def _spy_forks(world) -> list:
    """Record the virtual time at which each forked child starts, which
    is when its ``fork`` returns in the parent."""
    forked = []
    raw = world._sys_fork

    def spy(task, thread, process, child_main, *args):
        def logged(sys, *a):
            forked.append(world.engine.now)
            return (yield from child_main(sys, *a))

        return raw(task, thread, process, logged, *args)

    world._sys_handlers["fork"] = spy
    return forked


# ----------------------------------------------------------------------
# (1) the header pass and the payload stream overlap what they used to wait on
# ----------------------------------------------------------------------

def test_header_pass_is_concurrent_and_children_stream_before_the_last_fork():
    world = build_cluster(n_nodes=2, seed=11)
    world.tracer.enable()
    out: dict = {}
    world.register_program("counter", _counter(out))
    comp = DmtcpComputation(world)
    for i in range(8):
        comp.launch("node01", "counter", ["counter", str(i)])
    world.engine.run(until=0.5)
    kill = comp.checkpoint(kill=True)
    forked = _spy_forks(world)
    comp.restart(plan=kill.plan)

    (header_pass,) = [s for s in world.tracer.spans(cat="mtcp") if s["name"] == "image_read"]
    assert header_pass["args"] == {"n": 8, "bytes": 8 * mtcp.METADATA_BYTES}
    # eight opens at once: one op latency plus the reads, not eight
    assert header_pass["duration"] < 2 * world.spec.disk.op_latency_s
    assert len(forked) == 8
    last_fork = max(forked)
    begins = sorted(
        s["begin"] for s in world.tracer.spans(cat="restart") if s["name"] == "restore_memory"
    )
    assert len(begins) == 8
    # every child but the last started streaming while a sibling was
    # still being forked
    assert sum(b < last_fork for b in begins) == 7
    world.engine.run(until=world.engine.now + 0.5)
    no_failures(world)


# ----------------------------------------------------------------------
# (2) a reader's error fails the restart before any fork
# ----------------------------------------------------------------------

def test_validate_failure_in_one_of_eight_readers_forks_nothing_and_leaks_nothing(created):
    world = build_cluster(n_nodes=2, seed=23, spec=FAST_SPEC)
    world.tracer.enable()
    out: dict = {}
    world.register_program("counter", _counter(out, ticks=4000))
    comp = DmtcpComputation(world, supervise=True)
    for i in range(8):
        comp.launch("node01", "counter", ["counter", str(i)])
    world.engine.run(until=0.5)
    kill = comp.checkpoint(kill=True)
    paths = kill.plan.images_by_host["node01"]
    assert len(paths) == 8
    manifest = _image_file(world, "node01", paths[4] + ".manifest")
    manifest.payload = dict(manifest.payload, checksum="swapped")
    forks_before = world.tracer.snapshot().get("sys.fork", 0)

    handle = comp.restart_async(plan=kill.plan)
    world.engine.run(until=world.engine.now + 5.0)
    assert handle["outcome"] is None
    errors = [str(e) for _t, e in world.scheduler.failures]
    assert any("checksum mismatch" in e and paths[4] in e for e in errors), errors
    assert world.tracer.snapshot().get("sys.fork", 0) == forks_before
    (restarter,) = [p for p in created if p.program == comp._restart_program]
    assert restarter.exit_code == 1
    # the seven headers that were read are not held open by anyone
    held = [
        (p.pid, fd)
        for p in created
        for fd, entry in p.fds.items()
        if isinstance(entry.description, OpenFile) and entry.description.file.path in paths
    ]
    assert held == []
    world.scheduler.failures.clear()


def _supervised_counters(seed: int = 23):
    world = build_cluster(n_nodes=2, seed=seed, spec=FAST_SPEC)
    world.tracer.enable()
    out: dict = {}
    world.register_program("counter", _counter(out))
    comp = DmtcpComputation(world, supervise=True)  # restarts with --validate
    for i in range(8):
        comp.launch("node01", "counter", ["counter", str(i)])
    world.engine.run(until=0.5)
    kill = comp.checkpoint(kill=True)
    return world, comp, kill, out


def test_validated_header_pass_reads_each_manifest_beside_its_header():
    """With --validate the header pass still costs one open latency, not
    one for the image and another for its manifest; an image without a
    manifest (written before manifests existed) is still accepted."""
    world, comp, kill, out = _supervised_counters()
    paths = kill.plan.images_by_host["node01"]
    lacking = paths[2] + ".manifest"
    assert _image_file(world, "node01", lacking) is not None
    world.node_state("node01").mounts.resolve(lacking).namespace.unlink(lacking)
    comp.restart(plan=kill.plan)

    (header_pass,) = [s for s in world.tracer.spans(cat="mtcp") if s["name"] == "image_read"]
    assert header_pass["args"] == {"n": 8, "bytes": 8 * mtcp.METADATA_BYTES}
    latency = world.spec.disk.op_latency_s
    assert latency <= header_pass["duration"] < 2 * latency
    assert world.tracer.snapshot()["restart.forks"] == 8
    world.engine.run(until=world.engine.now + 3.0)
    assert sorted(out) == [str(i) for i in range(8)]
    assert all([i for i, _pid in ticks] == list(range(40)) for ticks in out.values())
    no_failures(world)


def _probe_read_image(world, host: str, path: str) -> dict:
    """Run one validated header pass in a process that outlives it, and
    record what it raised and what it left behind."""
    seen: dict = {}

    def probe(sys, argv):
        pid = yield from sys.getpid()
        process = world.find_process(host, pid)
        try:
            yield from mtcp.read_image(sys, world, process, path, validate=True)
        except SyscallError as err:
            seen["error"] = str(err)
        seen["fds"] = [
            entry.description.file.path
            for entry in process.fds.values()
            if isinstance(entry.description, OpenFile)
        ]
        seen["threads"] = len(process.live_threads)

    world.register_program("probe", probe)
    world.spawn_process(host, "probe", ["probe"])
    world.engine.run(until=world.engine.now + 0.5)
    return seen


@pytest.mark.parametrize("tamper", ["swapped", "torn-manifest", "torn", "missing"])
def test_a_rejected_image_forks_nothing_and_leaves_no_manifest_reader(tamper):
    """A checksum mismatch -- or a torn manifest, which certifies
    nothing, for the supervisor's selection too -- fails after the
    manifest reader has been joined, a torn header after the image was
    opened, a missing image
    while the manifest reader is still opening: each way the restart
    fails before any fork, and the header pass leaves no manifest reader
    running and no image or manifest open."""
    world, comp, kill, _out = _supervised_counters()
    paths = kill.plan.images_by_host["node01"]
    if tamper == "swapped":
        manifest = _image_file(world, "node01", paths[4] + ".manifest")
        manifest.payload = dict(manifest.payload, checksum="swapped")
        expected = "checksum mismatch"
    elif tamper == "torn-manifest":
        _image_file(world, "node01", paths[4] + ".manifest").payload = None
        assert not _image_valid(world, "node01", paths[4])
        expected = "checksum mismatch"
    elif tamper == "torn":
        _image_file(world, "node01", paths[4]).payload = None
        expected = "no checkpoint payload"
    else:
        world.node_state("node01").mounts.resolve(paths[4]).namespace.unlink(paths[4])
        expected = "ENOENT"
    forks_before = world.tracer.snapshot().get("sys.fork", 0)

    handle = comp.restart_async(plan=kill.plan)
    world.engine.run(until=world.engine.now + 5.0)
    assert handle["outcome"] is None
    errors = [str(e) for _t, e in world.scheduler.failures]
    assert any(expected in e and paths[4] in e for e in errors), errors
    assert world.tracer.snapshot().get("sys.fork", 0) == forks_before
    assert "restart.forks" not in world.tracer.snapshot()
    world.scheduler.failures.clear()

    seen = _probe_read_image(world, "node01", paths[4])
    assert expected in seen["error"]
    assert seen["fds"] == []
    assert seen["threads"] == 1  # the probe's own
    no_failures(world)


# ----------------------------------------------------------------------
# (3) store generations of different ages, each to its own child
# ----------------------------------------------------------------------

def _toucher(sys, argv):
    region = yield from sys.mmap((24 if argv[1] == "old" else 8) * MB, "numeric")
    for _ in range(4000):
        yield from sys.sleep(0.05)
        yield from sys.mem_touch(region, 0.05)


def test_each_child_restores_its_own_generation_in_argv_order():
    world = build_cluster(n_nodes=2, seed=23)
    world.register_program("toucher", _toucher)
    comp = DmtcpComputation(world, store=True)
    comp.launch("node00", "toucher", ["toucher", "old"])
    world.engine.run(until=1.0)
    comp.checkpoint()
    world.engine.run(until=world.engine.now + 0.5)
    comp.checkpoint()
    comp.launch("node00", "toucher", ["toucher", "new"])
    world.engine.run(until=world.engine.now + 0.5)
    kill = comp.checkpoint(kill=True)
    paths = kill.plan.images_by_host["node00"]
    images = [_image_file(world, "node00", path).payload for path in paths]
    # one manifest per process, both of this generation, whatever its age
    assert [image.ckpt_id for image in images] == [kill.ckpt_id] * 2
    assert sorted(image.argv[1] for image in images) == ["new", "old"]

    comp.restart(plan=kill.plan)
    restored = sorted(
        (p for p in world.live_processes() if p.user_state.get("dmtcp") is not None),
        key=lambda p: p.pid,
    )
    # forked in argv order: the k-th child restored the k-th image
    assert [p.user_state["dmtcp"].vpid for p in restored] == [i.vpid for i in images]
    for process, image in zip(restored, images):
        assert process.address_space.total_bytes == sum(r.size for r in image.regions)
    world.engine.run(until=world.engine.now + 0.5)
    no_failures(world)


# ----------------------------------------------------------------------
# (4) the vpid-conflict re-fork with stream-at-fork
# ----------------------------------------------------------------------

def _wrap_into_the_first_images_vpid(world, plan, host: str) -> None:
    """Make the restart's second fork a genuine vpid conflict.

    dmtcp_restart takes the last pid before the counter wraps and its
    first child the last one: no vpid, so that child takes the first
    image of the plan.  The counter then wraps onto that image's vpid,
    which is placed already: the second child is killed and re-forked,
    and the third gets the second image's vpid."""
    vpids = [_image_file(world, host, path).payload.vpid for path in plan.images_by_host[host]]
    ns = world.node_state(host)
    assert vpids == [100, 101]  # the pids the wrap lands on
    ns.next_pid = ns.pid_max - 2


def _counter_run(conflict: bool, created: list):
    created.clear()
    world = build_cluster(n_nodes=2, seed=11)
    out: dict = {}
    world.register_program("counter", _counter(out))
    comp = DmtcpComputation(world)
    for i in range(2):
        comp.launch("node01", "counter", ["counter", str(i)])
    world.engine.run(until=0.5)
    streamed = doomed = None
    if conflict:
        kill = comp.checkpoint(kill=True)
        _wrap_into_the_first_images_vpid(world, kill.plan, "node01")
        streamed = _spy_streams(world)
        comp.restart(plan=kill.plan)
        doomed = [
            p for p in created
            if p.program == comp._restart_program and p.parent is not None
            and p.parent.program == comp._restart_program
        ]
    world.engine.run(until=world.engine.now + 4.0)
    no_failures(world)
    return out, streamed, doomed


def test_doomed_child_streams_nothing_and_the_survivors_output_is_unchanged(created):
    reference, _, _ = _counter_run(conflict=False, created=created)
    out, streamed, doomed = _counter_run(conflict=True, created=created)
    assert len(doomed) == 1 and not doomed[0].alive
    assert doomed[0].pid not in {pid for pid, _path, _offset in streamed}
    assert len(streamed) == 2  # one payload per survivor
    assert all(len(v) == 40 for v in reference.values())
    assert out == reference


def _family(out: dict):
    """A parent and the seven children it forks.  After the restart the
    parent kills its last child and reaps all seven by virtual pid; each
    child reports the virtual pid of its parent."""

    def child(sys):
        yield from sys.sbrk(1 * MB, "numeric")
        for _ in range(40):
            yield from sys.sleep(0.05)
        me = yield from sys.getpid()
        out[me] = ("ppid", (yield from sys.getppid()))
        yield from sys.exit(3)

    def main(sys, argv):
        kids = []
        for _ in range(7):
            kids.append((yield from sys.fork(child)))
        yield from sys.sleep(1.0)  # the checkpoint, kill and restart land here
        yield from sys.kill(kids[-1], SIGKILL)
        for kid in kids:
            out.setdefault("reaped", []).append((yield from sys.waitpid(kid)))

    return main


def _family_run(restart: bool):
    world = build_cluster(n_nodes=3, seed=11)
    world.tracer.enable()
    out: dict = {}
    world.register_program("family", _family(out))
    comp = DmtcpComputation(world)
    comp.launch("node01", "family")
    world.engine.run(until=0.5)
    kill = None
    if restart:
        kill = comp.checkpoint(kill=True)
        # a spare host whose pid counter starts where node01's did
        comp.restart(plan=kill.plan, placement={"node01": "node02"})
    world.engine.run(until=world.engine.now + 4.0)
    no_failures(world)
    return out, world, comp, kill


def test_a_fresh_host_forks_one_child_per_image_at_its_own_vpid(created):
    """dmtcp_restart holds pid 100 on the spare host, and the images
    carry vpids 100-107: each fork takes the image whose vpid is its
    pid, the one after the last takes the parent's image, and nothing is
    forked to be killed."""
    reference, _, _, _ = _family_run(restart=False)
    assert sorted(reference["reaped"]) == [(vpid, 3) for vpid in range(101, 107)] + [(107, -SIGKILL)]
    created.clear()
    out, world, comp, kill = _family_run(restart=True)
    paths = kill.plan.images_by_host["node01"]
    vpids = sorted(_image_file(world, "node02", path).payload.vpid for path in paths)
    assert vpids == list(range(100, 108))
    snap = world.tracer.snapshot()
    assert snap["restart.forks"] == 8 and "restart.doomed_forks" not in snap
    (restarter,) = [p for p in created if p.program == comp._restart_program]
    assert restarter.pid == 100
    restored = {
        p.user_state["dmtcp"].vpid: p.pid
        for p in created
        if p.node.hostname == "node02" and p.user_state.get("dmtcp") is not None
    }
    assert sorted(restored) == vpids
    assert sorted(v for v, rpid in restored.items() if rpid == v) == list(range(101, 108))
    assert restored[100] == 108
    # kill and waitpid by vpid, and getppid, see through the real pids
    assert out == reference
    assert all(out[vpid] == ("ppid", 100) for vpid in range(101, 107))


# ----------------------------------------------------------------------
# (5) socket-heavy restarts: discovery wakes the dial-out loop
# ----------------------------------------------------------------------

RANK_SPEC = ProgramSpec(
    "rank", regions=(RegionSpec("code", 256 * 1024, "code"), RegionSpec("heap", 512 * 1024, "numeric"))
)
RANKS, ITERS, NODES = 16, 30, 8


def _mpi_run(monkeypatch, placement=None, restart=True):
    """A Fig-4-style OpenMPI job over eight nodes; returns its per-rank
    output and, for each discovery event, whether the restarter was
    already waiting for it."""
    world = build_cluster(n_nodes=NODES, seed=17)
    register_openmpi(world)
    out: dict = {}

    def app(sys, argv):
        comm = yield from mpi_init(sys)
        for it in range(ITERS):
            value = yield from comm.allreduce(comm.rank + it, nbytes=4096)
            out.setdefault(comm.rank, []).append((it, value))
            yield from sys.sleep(0.05)
        yield from comm.finalize()

    world.register_program("app", app, RANK_SPEC)
    arrivals = []
    raw = restart_mod._discovered

    def spy(discovery):
        arrivals.append(discovery["wake"] is not None and not discovery["wake"].done)
        raw(discovery)

    monkeypatch.setattr(restart_mod, "_discovered", spy)
    comp = DmtcpComputation(world)
    comp.launch("node00", "orterun", ["orterun", "-n", str(RANKS), "app"])
    world.engine.run(until=1.2)
    if restart:
        assert out and len(out[0]) < ITERS
        kill = comp.checkpoint(kill=True)
        comp.restart(plan=kill.plan, placement=placement)
    world.engine.run(until=world.engine.now + 60.0)
    no_failures(world)
    return out, arrivals


def test_socket_heavy_restarts_reconnect_on_discovery_events(monkeypatch):
    reference, _ = _mpi_run(monkeypatch, restart=False)
    assert sorted(reference) == list(range(RANKS))
    assert all(len(v) == ITERS for v in reference.values())
    rotate = {f"node{i:02d}": f"node{(i + 1) % NODES:02d}" for i in range(NODES)}
    for placement in (None, rotate):
        out, arrivals = _mpi_run(monkeypatch, placement=placement)
        assert out == reference
        # some advertisements were there before the dial-out loop first
        # looked, and some woke a restarter that was waiting for them
        assert any(arrivals) and not all(arrivals)


def test_coordinator_killed_before_a_restored_members_hello_is_a_clean_exit():
    """Streaming at fork moves a restored member's hello onto the instant
    the mid-restart coordinator kill lands (when the first restart
    barrier opens).  The member must exit for the supervisor's retry, as
    it does for any death mid-restart, not die with an unhandled EPIPE."""
    from repro.faults.scenarios import run_coordinator_mtbf

    report = run_coordinator_mtbf(7, kills=4, interval_s=5.0, mtbf_s=4.0)
    assert report["records"][-1]["mode"] == "mid-restart"
    assert report["live_failovers"] == report["kills"] == 4
    assert report["process_failures"] == 0


# ----------------------------------------------------------------------
# (6) no polling left in dmtcp_restart
# ----------------------------------------------------------------------

def test_restart_never_sleeps():
    tree = ast.parse(inspect.getsource(restart_mod))
    sleeps = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sleep"
    ]
    assert sleeps == []


# ----------------------------------------------------------------------
# (7) the refill's return trip runs under restore_memory
# ----------------------------------------------------------------------

BULK_FRAMES, BULK_FRAME_BYTES = 4, 50_000  # 200 kB each way: 3 socket buffers


def _bulk_pair(got: dict, frames: int):
    """Two peers that each send the other ``frames`` 50 kB frames, into
    receive buffers enlarged to hold all of them, and only read them a
    second later."""

    def main(sys, argv):
        name, peer = argv[1], argv[2]
        yield from sys.sbrk(16 * MB, "numeric")
        if peer == "-":
            lfd = yield from sys.socket()
            yield from sys.bind(lfd, 7300)
            yield from sys.listen(lfd)
            fd = yield from sys.accept(lfd)
        else:
            fd = yield from sys.socket()
            yield from connect_retry(sys, fd, peer, 7300)
        yield from sys.setsockopt(fd, "SO_RCVBUF", 4 * BULK_FRAMES * BULK_FRAME_BYTES)
        yield from sys.sleep(0.1)  # both buffers are large before a byte moves
        for i in range(frames):
            yield from send_frame(sys, fd, (name, i), BULK_FRAME_BYTES)
        yield from sys.sleep(1.0)
        asm = FrameAssembler()
        for _ in range(frames):
            payload, size = yield from recv_frame(sys, fd, asm)
            got.setdefault(name, []).append((payload, size))

    return main


def _bulk_run(restart: bool, frames: int = BULK_FRAMES):
    world = build_cluster(n_nodes=2, seed=5)
    world.tracer.enable()
    got: dict = {}
    world.register_program("bulk", _bulk_pair(got, frames))
    comp = DmtcpComputation(world)
    comp.launch("node00", "bulk", ["bulk", "a", "-"])
    comp.launch("node01", "bulk", ["bulk", "b", "node00"])
    world.engine.run(until=0.5)
    kill = None
    if restart:
        kill = comp.checkpoint(kill=True)
        comp.restart(plan=kill.plan)
    world.engine.run(until=world.engine.now + 3.0)
    no_failures(world)
    return got, world, kill


def test_refill_larger_than_a_socket_buffer_both_ways_restarts_in_order():
    """Each side's return frame outgrows the restored peer's 64 kB
    buffer, so it completes only as the peer reads: a receiver that
    joined its own return before reading would deadlock both."""
    reference, _, _ = _bulk_run(restart=False)
    assert reference == {
        name: [((name_of_peer, i), BULK_FRAME_BYTES) for i in range(BULK_FRAMES)]
        for name, name_of_peer in (("a", "b"), ("b", "a"))
    }
    got, world, kill = _bulk_run(restart=True)
    buffer = world.spec.network.socket_buffer_bytes
    drained = [
        sum(c.nbytes for c in chunks)
        for host, paths in kill.plan.images_by_host.items()
        for path in paths
        for chunks in _image_file(world, host, path).payload.drained.values()
    ]
    assert len(drained) == 2 and min(drained) > buffer
    assert got == reference
    snap = world.tracer.snapshot()
    assert snap["dmtcp.refilled_bytes"] == sum(drained)


@pytest.mark.parametrize("frames", [1, BULK_FRAMES])
def test_refill_frame_leaves_before_the_childs_memory_is_restored(frames):
    """The return starts with the child's memory restore; one that fits
    the restored peer's buffer is over before the restore is."""
    _got, world, kill = _bulk_run(restart=True, frames=frames)
    restores = {
        s["track"].split("/")[0]: s
        for s in world.tracer.spans(cat="restart") if s["name"] == "restore_memory"
    }
    returns = {
        s["track"].split("/")[0]: s
        for s in world.tracer.spans(cat="mtcp") if s["name"] == "refill_return"
    }
    assert sorted(returns) == sorted(restores) == ["node00", "node01"]
    for host, span in returns.items():
        (path,) = kill.plan.images_by_host[host]
        image = _image_file(world, host, path).payload
        assert span["track"] == f"{host}/mtcp[{image.vpid}]"
        assert span["args"] == {
            "n": 1,
            "bytes": sum(c.nbytes for chunks in image.drained.values() for c in chunks),
        }
        assert span["begin"] == restores[host]["begin"]
        if frames == 1:
            assert span["end"] < restores[host]["end"]
    # what the restart's refill stage has left: the peers' re-sends
    refills = [s for s in world.tracer.spans(cat="restart") if s["name"] == "refill"]
    assert len(refills) == 2


# ----------------------------------------------------------------------
# (8) the restore thread lingers, but no checkpoint holds it
# ----------------------------------------------------------------------

def test_restarts_leave_one_user_thread_per_restored_member():
    """At the hand-off the restore thread stops being a user thread: no
    later checkpoint suspends it or puts it into an image, so a restart
    does not adopt it beside a new one (the count used to climb 2, 3,
    4, 5).  The restored app still ends its process when it returns."""
    world = build_cluster(n_nodes=1, seed=0)

    def sleeper(sys, argv):
        for _ in range(12):
            yield from sys.sleep(1.0)

    world.register_program("sleeper", sleeper)
    comp = DmtcpComputation(world, compression=False)
    for _ in range(2):
        comp.launch("node00", "sleeper")
    world.engine.run(until=0.5)
    counts = []
    for _ in range(4):
        kill = comp.checkpoint(kill=True)
        (image, _other) = [
            _image_file(world, "node00", path).payload
            for path in kill.plan.images_by_host["node00"]
        ]
        assert len(image.threads) == 1
        comp.restart(plan=kill.plan)
        world.engine.run(until=world.engine.now + 1.0)
        members = [p for p in world.live_processes() if p.program == "sleeper"]
        counts.append(sorted(len(p.user_threads) for p in members))
    assert counts == [[1, 1]] * 4
    world.engine.run(until=world.engine.now + 20.0)
    assert [p for p in world.live_processes() if p.program == "sleeper"] == []
    no_failures(world)
