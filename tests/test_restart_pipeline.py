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

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.core import mtcp
from repro.core import restart as restart_mod
from repro.core.launch import DmtcpComputation
from repro.faults.supervisor import _image_file
from repro.kernel.filesystem import OpenFile
from repro.kernel.process import ProgramSpec, RegionSpec
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


def _chain(world, host, leaf):
    """An image's chain, base first."""
    chain, path = [], leaf
    while path is not None:
        chain.append(path)
        path = _image_file(world, host, path).payload.parent_image
    return chain[::-1]


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

def test_validate_failure_in_one_of_eight_readers_forks_nothing_and_leaks_nothing():
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
    (restarter,) = [p for p in world.all_processes if p.program == comp._restart_program]
    assert restarter.exit_code == 1
    # the seven headers that were read are not held open by anyone
    held = [
        (p.pid, fd)
        for p in world.all_processes
        for fd, entry in p.fds.items()
        if isinstance(entry.description, OpenFile) and entry.description.file.path in paths
    ]
    assert held == []
    world.scheduler.failures.clear()


# ----------------------------------------------------------------------
# (3) delta chains of different depths, each to its own child
# ----------------------------------------------------------------------

def _toucher(sys, argv):
    region = yield from sys.mmap(24 * MB, "numeric")
    for _ in range(4000):
        yield from sys.sleep(0.05)
        yield from sys.mem_touch(region, 0.05)


def test_each_child_replays_its_own_chain_base_first_in_argv_order():
    world = build_cluster(n_nodes=1, seed=23)
    world.register_program("toucher", _toucher)
    comp = DmtcpComputation(world, incremental=True)
    comp.launch("node00", "toucher", ["toucher", "deep"])
    world.engine.run(until=1.0)
    comp.checkpoint()
    world.engine.run(until=world.engine.now + 0.5)
    comp.checkpoint()
    comp.launch("node00", "toucher", ["toucher", "shallow"])
    world.engine.run(until=world.engine.now + 0.5)
    kill = comp.checkpoint(kill=True)
    paths = kill.plan.images_by_host["node00"]
    chains = [_chain(world, "node00", leaf) for leaf in paths]
    assert sorted(len(c) for c in chains) == [1, 3]

    streamed = _spy_streams(world)
    comp.restart(plan=kill.plan)
    restored = sorted(
        (p for p in world.live_processes() if p.user_state.get("dmtcp") is not None),
        key=lambda p: p.pid,
    )
    # forked in argv order: the k-th child restored the k-th image
    assert [p.user_state["dmtcp"].vpid for p in restored] == [
        _image_file(world, "node00", leaf).payload.vpid for leaf in paths
    ]
    for process, chain in zip(restored, chains):
        mine = [(path, offset) for pid, path, offset in streamed if pid == process.pid]
        assert mine == [(path, mtcp.METADATA_BYTES) for path in chain]
    world.engine.run(until=world.engine.now + 0.5)
    no_failures(world)


# ----------------------------------------------------------------------
# (4) the vpid-conflict re-fork with stream-at-fork
# ----------------------------------------------------------------------

def _counter_run(conflict: bool):
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
        vpids = sorted(
            _image_file(world, "node01", path).payload.vpid
            for path in kill.plan.images_by_host["node01"]
        )
        # dmtcp_restart takes the next pid, its first child the one
        # after: make that the *second* image's virtual pid
        world.node_state("node01").next_pid = vpids[1] - 1
        streamed = _spy_streams(world)
        comp.restart(plan=kill.plan)
        doomed = [
            p for p in world.all_processes
            if p.program == comp._restart_program and p.parent is not None
            and p.parent.program == comp._restart_program
        ]
    world.engine.run(until=world.engine.now + 4.0)
    no_failures(world)
    return out, streamed, doomed


def test_doomed_child_streams_nothing_and_the_survivors_output_is_unchanged():
    reference, _, _ = _counter_run(conflict=False)
    out, streamed, doomed = _counter_run(conflict=True)
    assert len(doomed) == 1 and not doomed[0].alive
    assert doomed[0].pid not in {pid for pid, _path, _offset in streamed}
    assert len(streamed) == 2  # one payload per survivor
    assert all(len(v) == 40 for v in reference.values())
    assert out == reference


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
