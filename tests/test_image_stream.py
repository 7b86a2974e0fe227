"""The image stream: gzip <-> storage, one block ahead, both directions.

Covers the kernel primitive (``sys.stream``: a chain of one-block
stages between memory and a file's device; ``tests/test_stream_chain.py``
holds its schedule battery) against the serial reference it replaces,
and the DMTCP paths built on it: the multi-block image write (plain,
atomic, forked), ENOSPC noticed at the block that hits it, the restart
header pass plus per-child payload stream, and a store generation's
restart, which reads one manifest and streams nothing.
"""

import ast
import inspect
import pathlib
import textwrap
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.core import compression, mtcp
from repro.core.launch import DmtcpComputation
from repro.errors import SyscallError
from repro.faults.supervisor import _image_file, _image_valid
from repro.kernel.filesystem import Namespace, OpenFile
from repro.kernel.world import (
    HIJACK_ENV,
    STREAM_BLOCK_BYTES as BLOCK,
    STREAM_EDGE_BYTES as EDGE,
    stream_blocks,
)
from tests.test_restart_pipeline import _wrap_into_the_first_images_vpid

MB = 2**20


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


# ----------------------------------------------------------------------
# The primitive against its serial reference
# ----------------------------------------------------------------------

def _stream_world(san: bool):
    world = build_cluster(n_nodes=2, seed=5, with_san=san)
    if san:
        shared = Namespace("san:stream")
        for node in world.nodes.values():
            node.mounts.add("/san", shared, "san")
    return world


def _run_streams(cpu_s: float, nbytes: int, streams: int, san: bool, piped: bool):
    """``streams`` processes each write ``nbytes`` through a ``cpu_s``
    CPU stage, then read it back through half of it.  Returns per-stream
    ``(write_s, read_s)`` and the devices' byte counters."""
    world = _stream_world(san)
    times = {}

    def main(sys, argv):
        path = ("/san" if san else "/tmp") + f"/stream{argv[1]}"
        fd = yield from sys.open(path, "w")
        t0 = yield from sys.time()
        if piped:
            yield from sys.stream(fd, nbytes, cpu_s, EDGE, write=True, payload="img")
        else:
            yield from sys.cpu(cpu_s)
            yield from sys.write(fd, nbytes, payload="img")
        t1 = yield from sys.time()
        yield from sys.close(fd)
        fd = yield from sys.open(path, "r")
        t2 = yield from sys.time()
        if piped:
            yield from sys.stream(fd, 1 << 62, cpu_s / 2, EDGE)
        else:
            yield from sys.read(fd, 1 << 62)
            yield from sys.cpu(cpu_s / 2)
        t3 = yield from sys.time()
        yield from sys.close(fd)
        times[int(argv[1])] = (t1 - t0, t3 - t2)

    world.register_program("streamer", main)
    hosts = world.machine.hostnames
    for i in range(streams):
        # SAN streams spread over both clients; local ones share one disk
        world.spawn_process(hosts[i % 2] if san else hosts[0], "streamer", ["streamer", str(i)])
    world.engine.run()
    assert world.engine.pending == 0
    no_failures(world)
    if san:
        device = world.machine.node(hosts[0]).san
        counters = (device.bytes_written, device.bytes_read)
    else:
        disk = world.machine.node(hosts[0]).disk
        counters = (disk.bytes_written, disk.bytes_read)
    return times, counters


@settings(max_examples=25, deadline=None)
@given(
    cpu_s=st.floats(min_value=0.001, max_value=3.0),
    nbytes=st.integers(min_value=1, max_value=96 * MB),
    streams=st.integers(min_value=1, max_value=4),
    san=st.booleans(),
)
def test_stream_is_bounded_by_its_stages_and_the_serial_reference(cpu_s, nbytes, streams, san):
    piped, counters = _run_streams(cpu_s, nbytes, streams, san, piped=True)
    serial, serial_counters = _run_streams(cpu_s, nbytes, streams, san, piped=False)
    # the device is billed the image's bytes exactly, in either mode
    assert counters == serial_counters == (streams * nbytes, streams * nbytes)
    spec = CLUSTER_2008
    # no stream beats its own CPU stage or the device's peak rate ...
    write_floor = streams * nbytes / (spec.san.backend_bps if san else spec.disk.cache_write_bps)
    read_floor = streams * nbytes / (spec.san.backend_bps if san else spec.disk.cache_read_bps)
    for i in range(streams):
        slack = 1e-9 * (1 + serial[i][0] + serial[i][1])
        # ... and overlap never costs more than running the stages in turn
        assert max(cpu_s, write_floor) - slack <= piped[i][0] <= serial[i][0] + slack
        assert max(cpu_s / 2, read_floor) - slack <= piped[i][1] <= serial[i][1] + slack
    if nbytes > 2 * BLOCK:
        assert piped[0][0] < serial[0][0]  # more than two blocks: a real overlap
    # same inputs, same virtual times, to the last digit
    again, _ = _run_streams(cpu_s, nbytes, streams, san, piped=True)
    assert again == piped


@settings(max_examples=300, deadline=None)
@given(
    nbytes=st.integers(min_value=1, max_value=400 * MB),
    edge=st.one_of(st.just(EDGE), st.integers(min_value=1, max_value=2 * MB)),
)
def test_stream_schedule_ramps_from_an_edge_block_and_back(nbytes, edge):
    sizes = stream_blocks(nbytes, edge)
    assert sum(sizes) == nbytes and min(sizes) > 0
    cap = edge * (BLOCK // EDGE)
    assert max(sizes) <= cap
    if edge == EDGE:
        assert max(sizes) <= 4 * MB
    if nbytes < 4 * edge:  # too short for a ramp: near-equal, at most one edge
        assert max(sizes) <= edge and max(sizes) - min(sizes) <= 1
        return
    assert sizes[0] == sizes[-1] == edge
    # the peak: the first doubling of the edge that holds every block
    k = 0
    while edge << k < max(sizes):
        k += 1
    peak = edge << k
    assert k > 0 and peak <= cap
    # sizes double from the edge below the peak, and halve back to it in
    # mirror image
    ramp = [edge << i for i in range(k)]
    assert sizes[:k] == ramp and sizes[len(sizes) - k:] == ramp[::-1]
    # the plateau: near-equal blocks of at least half the peak, at most
    # the peak
    plateau = sizes[k:len(sizes) - k]
    assert plateau and peak // 2 <= min(plateau) <= max(plateau) <= peak
    assert max(plateau) - min(plateau) <= 1
    # and the largest peak the stream has room for
    assert peak == cap or nbytes < 6 * peak - 2 * edge


def test_stream_without_cpu_stage_is_the_plain_transfer():
    piped, _ = _run_streams(0.0, 40 * MB, 2, san=False, piped=True)
    serial, _ = _run_streams(0.0, 40 * MB, 2, san=False, piped=False)
    # sys.cpu(0) is a syscall of its own in the serial program
    syscall_s = CLUSTER_2008.os.syscall_s
    for i in piped:
        assert piped[i][0] == pytest.approx(serial[i][0] - syscall_s, abs=1e-12)
        assert piped[i][1] == pytest.approx(serial[i][1] - syscall_s, abs=1e-12)


def test_stream_reports_blocks_and_stage_waits_under_the_tracer():
    world = _stream_world(san=False)
    world.tracer.enable()
    stats = {}

    def main(sys, argv):
        fd = yield from sys.open("/tmp/img", "w")
        t0 = yield from sys.time()
        stats["w"] = yield from sys.stream(fd, 10 * MB + 1, 1.0, EDGE, write=True)
        stats["t"] = (yield from sys.time()) - t0

    world.register_program("streamer", main)
    world.spawn_process("node00", "streamer")
    world.engine.run()
    blocks, io_wait, (cpu_wait,), fill, drain = stats["w"]
    # 64 KiB doubling to a 2 MiB peak, four ~1.5 MiB blocks, halving back
    assert blocks == len(stream_blocks(10 * MB + 1, EDGE)) == 14
    # CPU-bound: the device mostly waits for gzip, and busy + wait = elapsed
    assert cpu_wait > io_wait > 0
    io_busy = (10 * MB + 1) / CLUSTER_2008.disk.cache_write_bps
    # (elapsed also holds the two syscall entries around the stream)
    assert io_busy + cpu_wait == pytest.approx(stats["t"], abs=1e-5)
    assert 1.0 + io_wait == pytest.approx(stats["t"], abs=1e-5)
    # the unoverlapped ends are one edge block each: the gzip of the
    # first, the write of the last -- the CPU waits on nothing else
    assert fill == pytest.approx(EDGE / (10 * MB + 1), abs=1e-12)
    assert drain == io_wait == pytest.approx(EDGE / CLUSTER_2008.disk.cache_write_bps, abs=1e-12)


def test_task_killed_mid_stream_issues_nothing_further():
    world = _stream_world(san=False)
    finished = []

    def main(sys, argv):
        fd = yield from sys.open("/tmp/img", "w")
        yield from sys.stream(fd, 64 * MB, 4.0, EDGE, write=True, payload="img")
        finished.append(True)

    world.register_program("streamer", main)
    proc = world.spawn_process("node00", "streamer")
    world.engine.run(until=1.0)
    disk = world.machine.node("node00").disk
    file = _image_file(world, "node00", "/tmp/img")
    written_at_kill = disk.bytes_written
    assert 0 < file.size < 64 * MB and file.payload is None  # torn
    # no byte is billed to the device before its gzip share is spent:
    # 1 s of a 4 s CPU stage has compressed at most 4 of the 16 blocks
    assert written_at_kill <= 4 * BLOCK
    size_at_kill = file.size
    assert disk._holds == 1  # write-back waits for the stream
    world.destroy_process(proc)
    world.engine.run()
    assert world.engine.pending == 0
    assert not finished
    assert disk._holds == 0 and disk.dirty_bytes == 0  # released, drained
    # the blocks in flight drain; no callback starts another or touches the file
    assert disk.bytes_written == written_at_kill
    assert (file.size, file.payload) == (size_at_kill, None)
    no_failures(world)


def test_disk_filling_mid_stream_fails_at_that_block():
    world = _stream_world(san=False)
    seen = {}

    def main(sys, argv):
        fd = yield from sys.open("/tmp/img", "w")
        try:
            yield from sys.stream(fd, 64 * MB, 4.0, EDGE, write=True, payload="img")
        except SyscallError as err:
            seen["errno"] = err.errno
            seen["t"] = yield from sys.time()

    world.register_program("streamer", main)
    world.spawn_process("node00", "streamer")
    # the call-time check passes; the disk fills 1 s into a ~4 s stream
    world.engine.call_at(1.0, world.set_disk_full, "node00", 100.0)
    world.engine.run()
    assert seen["errno"] == "ENOSPC" and 1.0 <= seen["t"] < 1.5
    file = _image_file(world, "node00", "/tmp/img")
    assert 0 < file.size < 64 * MB and file.payload is None
    assert world.engine.pending == 0
    assert world.machine.node("node00").disk._holds == 0


def test_streamed_blocks_stay_dirty_until_the_stream_closes():
    """Blocks trickling in under the platter's speed are not written back
    behind the stream's back: a sync right after costs what it costs
    after a single write of the image, and a sync *during* it drains."""
    world = _stream_world(san=False)
    disk = world.machine.node("node00").disk
    nbytes = 64 * MB
    seen = {}

    def main(sys, argv):
        fd = yield from sys.open("/tmp/img", "w")
        # 16 MB/s into a cache that drains at 100 MB/s
        yield from sys.stream(fd, nbytes, 4.0, EDGE, write=True, payload="img")
        seen["dirty"] = disk.dirty_bytes
        t0 = yield from sys.time()
        yield from sys.sync()
        seen["sync_s"] = (yield from sys.time()) - t0

    def syncer(sys, argv):
        yield from sys.sleep(2.0)
        seen["dirty_mid"] = disk.dirty_bytes
        yield from sys.sync()
        seen["dirty_after_mid_sync"] = disk.dirty_bytes

    world.register_program("streamer", main)
    world.register_program("syncer", syncer)
    world.spawn_process("node00", "streamer")
    world.spawn_process("node00", "syncer")
    world.engine.run()
    assert seen["dirty_mid"] > 6 * BLOCK  # 2 s of a 4 s stream, nothing drained
    assert seen["dirty_after_mid_sync"] == 0  # a waiting sync lifts the hold
    # what the mid-way sync made durable is gone; the rest waited
    assert nbytes / 2 - 2 * BLOCK < seen["dirty"] < nbytes / 2 + 2 * BLOCK
    assert seen["sync_s"] == pytest.approx(seen["dirty"] / CLUSTER_2008.disk.disk_bps, rel=1e-3)
    assert disk._holds == 0 and world.engine.pending == 0
    no_failures(world)


# ----------------------------------------------------------------------
# Checkpoint side
# ----------------------------------------------------------------------

def _bigheap(mb: int):
    def main(sys, argv):
        yield from sys.sbrk(mb * MB, "numeric")
        for _ in range(4000):
            yield from sys.sleep(0.1)

    return main


def _write_spans(world):
    return [s for s in world.tracer.spans(cat="mtcp") if s["name"] == "mtcp.write"]


def test_multiblock_image_overlaps_gzip_with_the_write():
    world = build_cluster(n_nodes=1, seed=3)
    world.tracer.enable()
    world.register_program("bigheap", _bigheap(64))
    comp = DmtcpComputation(world)
    comp.launch("node00", "bigheap")
    world.engine.run(until=0.5)
    ckpt = comp.checkpoint()
    (span,) = _write_spans(world)
    stored = ckpt.records[0].stored_bytes
    args = span["args"]
    # the edge is 64 KiB of memory, whatever it compresses to
    edge = mtcp._device_edge(stored, ckpt.records[0].image_bytes)
    blocks = stream_blocks(stored - mtcp.METADATA_BYTES, edge)
    assert args["blocks"] == len(blocks) > 2 and blocks[0] == blocks[-1] == edge
    write_alone = stored / world.spec.disk.cache_write_bps
    # one writer on an idle node: gzip-bound, the cache absorbs each block
    assert args["cpu_wait_s"] > args["io_wait_s"]
    assert args["cpu_s"] < span["duration"] < args["cpu_s"] + write_alone
    snap = world.tracer.snapshot()
    assert snap["mtcp.stream_cpu_wait_s"] == pytest.approx(args["cpu_wait_s"], abs=1e-8)
    # the disk waited only for the first edge's gzip, the CPU only for
    # the last edge's write
    assert args["fill_s"] == pytest.approx(args["cpu_s"] * edge / (stored - mtcp.METADATA_BYTES), abs=1e-9)
    assert args["drain_s"] == pytest.approx(edge / world.spec.disk.cache_write_bps, abs=1e-9)
    assert snap["mtcp.stream_fill_s"] == pytest.approx(args["fill_s"], abs=1e-9)
    assert snap["mtcp.stream_drain_s"] == pytest.approx(args["drain_s"], abs=1e-9)
    assert world.machine.node("node00").disk.bytes_written >= stored
    no_failures(world)


def test_shared_san_write_reads_io_bound_from_its_spans():
    """Fig 5b in small: many writers, one RAID -- the spans alone say
    the device, not gzip, set the time."""
    world = build_cluster(n_nodes=16, seed=3, with_san=True)
    world.tracer.enable()
    shared = Namespace("san:ckpt")
    for node in world.nodes.values():
        node.mounts.add("/san", shared, "san")

    def incompressible(sys, argv):
        yield from sys.sbrk(32 * MB, "random")
        for _ in range(4000):
            yield from sys.sleep(0.1)

    world.register_program("incompressible", incompressible)
    comp = DmtcpComputation(world, ckpt_dir="/san/dmtcp")
    for i in range(32):
        comp.launch(world.machine.hostnames[i % 16], "incompressible")
    world.engine.run(until=0.5)
    comp.checkpoint()
    spans = _write_spans(world)
    assert len(spans) == 32 and all(s["args"]["blocks"] > 2 for s in spans)
    assert all(s["args"]["io_wait_s"] > s["args"]["cpu_wait_s"] for s in spans)
    snap = world.tracer.snapshot()
    assert snap["mtcp.stream_io_wait_s"] > 10 * snap["mtcp.stream_cpu_wait_s"]
    no_failures(world)


def test_small_compressed_and_uncompressed_images_are_one_stream_call():
    """Every payload is one ``sys.stream``: a 1 MiB compressed image
    ramps from an edge block like any other, an uncompressed one (the
    memcpy of the copy-in, no gzip child) is one block."""
    for compression, mb in ((True, 1), (False, 64)):
        world = build_cluster(n_nodes=1, seed=3)
        world.tracer.enable()
        world.register_program("bigheap", _bigheap(mb))
        comp = DmtcpComputation(world, compression=compression)
        comp.launch("node00", "bigheap")
        world.engine.run(until=0.5)
        ckpt = comp.checkpoint()
        (span,) = _write_spans(world)
        record = ckpt.records[0]
        nbytes = record.stored_bytes - mtcp.METADATA_BYTES
        if compression:
            edge = mtcp._device_edge(record.stored_bytes, record.image_bytes)
            assert span["args"]["blocks"] == len(stream_blocks(nbytes, edge)) > 2
        else:
            assert span["args"]["blocks"] == 1
            # the write waited for the whole copy-in, and the copy-in
            # for nothing
            assert span["args"]["fill_s"] == pytest.approx(span["args"]["cpu_s"], abs=1e-9)
        assert world.tracer.snapshot()["sys.stream"] == 1
        no_failures(world)


def test_forked_checkpoint_visible_stage_unchanged_writer_finishes_sooner():
    """The parent only forks; the COW child streams in the background
    through *its own* fd table (the runtime still names the parent)."""
    world = build_cluster(n_nodes=1, seed=3)
    world.tracer.enable()
    world.register_program("bigheap", _bigheap(64))
    comp = DmtcpComputation(world)
    comp.launch("node00", "bigheap")
    world.engine.run(until=0.5)
    forked = comp.checkpoint(forked=True)
    world.engine.run(until=world.engine.now + 20.0)
    # both pinned at the commit before the stream: the visible stage is
    # fork + barrier and holds to the last digit, the serial writer took
    # gzip plus write in turn
    assert forked.records[0].stages["write"] == 0.02655371520000005
    (span,) = _write_spans(world)
    assert span["args"]["blocks"] > 2 and span["duration"] < 1.1165362155555556
    assert _image_valid(world, "node00", forked.plan.images_by_host["node00"][0])
    no_failures(world)


FAST_SPEC = CLUSTER_2008.with_(
    dmtcp=replace(
        CLUSTER_2008.dmtcp,
        barrier_timeout_s=2.0,  # stream + the fsync of its held blocks
        heartbeat_interval_s=0.5,
        member_recv_timeout_s=2.0,
    )
)


def test_enospc_during_multiblock_write_aborts_and_the_retry_succeeds():
    world = build_cluster(n_nodes=2, seed=9, spec=FAST_SPEC)
    world.tracer.enable()
    world.register_program("bigheap", _bigheap(64))
    comp = DmtcpComputation(world, supervise=True)
    comp.launch("node01", "bigheap")
    world.engine.run(until=0.5)

    armed = []

    def fill_disk_mid_write(ph, track, name, ts):
        if name == "mtcp.write" and ph == "B" and not armed:
            # well after any call-time check: the first blocks are written
            armed.append(ts)
            world.engine.call_at(ts + 1.0, world.set_disk_full, "node01", ts + 3.0)

    world.tracer.add_span_hook(fill_disk_mid_write)
    handle = comp.request_checkpoint()
    world.engine.run(until=world.engine.now + 8.0)
    assert armed and handle["outcome"] == "aborted"
    assert world.tracer.snapshot()["dmtcp.checkpoints_aborted"] == 1
    # atomic images: neither the final name nor the torn .tmp survives
    listing = world.node_state("node01").mounts.resolve("/tmp/dmtcp").namespace.listdir("/tmp/dmtcp")
    assert not [p for p in listing if p.endswith((".dmtcp", ".tmp", ".manifest"))]
    # and the refused descriptor is not left in the process's fd table
    member = next(p for p in world.live_processes() if p.env.get(HIJACK_ENV))
    assert not [
        e for e in member.fds.values() if isinstance(e.description, OpenFile)
    ]
    # the disk has room again: the retry completes and validates
    retry = comp.checkpoint()
    (path,) = retry.plan.images_by_host["node01"]
    assert _image_valid(world, "node01", path)
    assert _image_file(world, "node01", path + ".manifest") is not None
    no_failures(world)


# ----------------------------------------------------------------------
# Restart side
# ----------------------------------------------------------------------

def _holder(sys, argv):
    """Holds a file and a socketpair open across the checkpoint."""
    fd = yield from sys.open(f"/tmp/held-{argv[1]}", "w")
    yield from sys.write(fd, 4096)
    yield from sys.socketpair()
    for _ in range(4000):
        yield from sys.sleep(0.1)


def _assert_fd_tables_match_images(world, comp, plan, host):
    images = [
        _image_file(world, plan_host, path).payload
        for plan_host, paths in plan.images_by_host.items()
        for path in paths
    ]
    by_vpid = {image.vpid: image for image in images}
    restored = [
        p for p in world.live_processes()
        if p.env.get(HIJACK_ENV) and p.node.hostname == host
    ]
    assert len(restored) == len(images)
    for process in restored:
        runtime = process.user_state["dmtcp"]
        image = by_vpid[runtime.vpid]
        # the image's fds plus the manager's fresh coordinator connection
        assert set(process.fds) - {runtime.coord_fd} == {f.fd for f in image.fds}
        for entry in process.fds.values():
            desc = entry.description
            assert not (isinstance(desc, OpenFile) and desc.file.path.endswith(".dmtcp"))


def _restore_blocks(world, image) -> list:
    """The block sizes of a compressed image's restore stream."""
    payload = image.stored_bytes - mtcp.METADATA_BYTES
    raw = compression.estimate_cached(
        image.payload_regions(), world.spec.cpu, enabled=True, nworkers=1
    ).input_bytes
    return stream_blocks(payload, mtcp._device_edge(payload, raw))


def test_no_image_descriptor_leaks_into_restored_processes():
    world = build_cluster(n_nodes=2, seed=11)
    world.tracer.enable()
    world.register_program("holder", _holder)
    comp = DmtcpComputation(world)
    for i in range(9):  # >= 8 images restored by one dmtcp_restart
        comp.launch("node01", "holder", ["holder", str(i)])
    world.engine.run(until=0.5)
    kill = comp.checkpoint(kill=True)
    comp.restart(plan=kill.plan)
    world.engine.run(until=world.engine.now + 0.5)
    _assert_fd_tables_match_images(world, comp, kill.plan, "node01")
    # every child streamed its own payload: nine spans, each with its I/O,
    # ramping from an edge block although each image is under 4 MiB
    spans = [s for s in world.tracer.spans(cat="restart") if s["name"] == "restore_memory"]
    images = [
        _image_file(world, "node01", path).payload
        for path in kill.plan.images_by_host["node01"]
    ]
    assert len(spans) == 9 and all(image.image_bytes < BLOCK for image in images)
    assert sorted(s["args"]["blocks"] for s in spans) == sorted(
        len(_restore_blocks(world, image)) for image in images
    )
    (header_pass,) = [s for s in world.tracer.spans(cat="mtcp") if s["name"] == "image_read"]
    assert header_pass["args"] == {"n": 9, "bytes": 9 * mtcp.METADATA_BYTES}
    no_failures(world)


def test_no_image_descriptor_leaks_on_the_vpid_conflict_refork_path():
    world = build_cluster(n_nodes=2, seed=11)
    world.tracer.enable()
    world.register_program("holder", _holder)
    comp = DmtcpComputation(world)
    for i in range(2):
        comp.launch("node01", "holder", ["holder", str(i)])
    world.engine.run(until=0.5)
    kill = comp.checkpoint(kill=True)
    _wrap_into_the_first_images_vpid(world, kill.plan, "node01")
    forks_before = world.tracer.snapshot().get("sys.fork", 0)
    comp.restart(plan=kill.plan)
    world.engine.run(until=world.engine.now + 0.5)
    assert world.tracer.snapshot()["sys.fork"] - forks_before == 3  # one doomed
    assert world.tracer.snapshot()["restart.doomed_forks"] == 1
    _assert_fd_tables_match_images(world, comp, kill.plan, "node01")
    no_failures(world)


def test_restore_memory_stage_is_each_childs_own_span():
    """A small process no longer reports a big sibling's read time."""
    world = build_cluster(n_nodes=1, seed=3)
    world.register_program("small", _bigheap(1))
    world.register_program("big", _bigheap(96))
    comp = DmtcpComputation(world)
    comp.launch("node00", "small")
    comp.launch("node00", "big")
    world.engine.run(until=0.5)
    kill = comp.checkpoint(kill=True)
    outcome = comp.restart(plan=kill.plan)
    stage = {r["program"]: r["stages"]["restore_memory"] for r in outcome.records}
    assert stage["big"] > 10 * stage["small"] > 0
    # the header pass is the restarter's, shared: one figure for both
    (header_pass,) = {r["stages"]["image_read"] for r in outcome.records}
    assert header_pass > 0
    no_failures(world)


def test_one_block_compressed_restore_overlaps_its_gunzip_with_its_read():
    """An image smaller than one full block still streams, through three
    stages: its gunzip waits for the first edge block's read, not for the
    whole image's, and its page-in for the first block's gunzip."""
    world = build_cluster(n_nodes=1, seed=3)
    world.tracer.enable()
    world.register_program("bigheap", _bigheap(2))
    comp = DmtcpComputation(world)
    comp.launch("node00", "bigheap")
    world.engine.run(until=0.5)
    kill = comp.checkpoint(kill=True)
    comp.restart(plan=kill.plan)
    (span,) = [s for s in world.tracer.spans(cat="restart") if s["name"] == "restore_memory"]
    args = span["args"]
    (path,) = kill.plan.images_by_host["node00"]
    image = _image_file(world, "node00", path).payload
    assert image.image_bytes < BLOCK
    blocks = _restore_blocks(world, image)
    assert args["blocks"] == len(blocks) > 2
    payload = image.stored_bytes - mtcp.METADATA_BYTES
    read_s = payload / world.spec.disk.cache_read_bps
    est = compression.estimate_cached(
        image.payload_regions(), world.spec.cpu, enabled=True, nworkers=1
    )
    gunzip_s = est.decompress_seconds
    page_in_s = est.input_bytes / world.spec.os.page_restore_bps
    assert args["cpu_s"] == pytest.approx(gunzip_s + page_in_s, abs=1e-9)
    # the gunzip waited for one edge block's read, not for the image's
    assert args["fill_s"] == pytest.approx(blocks[0] / world.spec.disk.cache_read_bps, rel=1e-6)
    assert args["fill_s"] < read_s / 10
    # so the three stages overlap: the slowest alone at best, less than
    # reading, then inflating, then paging in
    assert max(read_s, gunzip_s, page_in_s) <= span["duration"] < read_s + gunzip_s + page_in_s
    # each stage's wait is named; the largest names the bottleneck
    waits = {k: args[f"{k}_wait_s"] for k in ("io", "gunzip", "pagein")}
    slowest = max(("io", read_s), ("gunzip", gunzip_s), ("pagein", page_in_s), key=lambda kv: kv[1])
    assert max(waits, key=waits.get) == slowest[0]
    no_failures(world)


def test_stream_memory_is_one_stream_call():
    """The writer's serial ``cpu`` + ``write`` branch stays deleted: the
    payload thread opens its file and streams, nothing else."""
    source = textwrap.dedent(inspect.getsource(mtcp.ImageWriter._stream_memory))
    yielded = [
        node.value.func.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.YieldFrom)
    ]
    assert yielded == ["open", "stream"]
    calls = {
        node.func.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and getattr(node.func.value, "id", None) == "sys"
    }
    assert calls == {"open", "stream"}
    package = pathlib.Path(mtcp.__file__).parents[1]
    offenders = [
        str(path) for path in package.rglob("*.py") if "_no_clock" in path.read_text()
    ]
    assert offenders == []


def test_uncompressed_image_is_read_then_mapped_not_overlapped():
    """No gunzip child reads ahead of an uncompressed restore: the read
    and the page instantiation of its one block run in turn (Fig 6's
    restart curve tracks its checkpoint curve)."""
    world = build_cluster(n_nodes=1, seed=3)
    world.tracer.enable()
    world.register_program("bigheap", _bigheap(96))
    comp = DmtcpComputation(world, compression=False)
    comp.launch("node00", "bigheap")
    world.engine.run(until=0.5)
    kill = comp.checkpoint(kill=True)
    comp.restart(plan=kill.plan)
    (span,) = [s for s in world.tracer.spans(cat="restart") if s["name"] == "restore_memory"]
    args = span["args"]
    assert args["blocks"] == 1
    payload = kill.records[0].stored_bytes - mtcp.METADATA_BYTES
    read_s = payload / world.spec.disk.cache_read_bps
    # each stage sat out the whole of the other
    assert args["io_wait_s"] == pytest.approx(read_s, rel=0.01)
    assert args["cpu_wait_s"] == pytest.approx(args["cpu_s"], rel=0.01)
    assert span["duration"] >= args["cpu_s"] + read_s
    no_failures(world)


def _toucher(sys, argv):
    region = yield from sys.mmap(24 * MB, "numeric")
    for _ in range(4000):
        yield from sys.sleep(0.05)
        yield from sys.mem_touch(region, 0.05)


def test_validate_rejects_a_swapped_manifest_before_any_fork():
    world = build_cluster(n_nodes=1, seed=23, spec=FAST_SPEC)
    world.tracer.enable()
    world.register_program("toucher", _toucher)
    comp = DmtcpComputation(world, supervise=True)
    comp.launch("node00", "toucher")
    world.engine.run(until=1.0)
    kill = comp.checkpoint(kill=True)
    (path,) = kill.plan.images_by_host["node00"]
    # the manifest now certifies some other image
    manifest = _image_file(world, "node00", path + ".manifest")
    manifest.payload = dict(manifest.payload, checksum="swapped")
    forks_before = world.tracer.snapshot().get("sys.fork", 0)
    streams_before = world.tracer.snapshot().get("sys.stream", 0)
    handle = comp.restart_async(plan=kill.plan)
    world.engine.run(until=world.engine.now + 5.0)
    assert handle["outcome"] is None
    errors = [str(e) for _t, e in world.scheduler.failures]
    assert any("checksum mismatch" in e for e in errors), errors
    snap = world.tracer.snapshot()
    assert snap.get("sys.fork", 0) == forks_before
    assert snap.get("sys.stream", 0) == streams_before
    world.scheduler.failures.clear()


def test_store_generation_restart_reads_one_manifest_and_streams_no_payload():
    """Earlier generations are not replayed: the header pass reads the
    newest manifest whole, and the child fetches its chunks from the
    store instead of streaming a payload from the image file."""
    world = build_cluster(n_nodes=2, seed=23)
    world.tracer.enable()
    world.register_program("toucher", _toucher)
    comp = DmtcpComputation(world, store=True)
    comp.launch("node00", "toucher")
    world.engine.run(until=1.0)
    for _ in range(3):
        comp.checkpoint()
        world.engine.run(until=world.engine.now + 0.5)
    kill = comp.checkpoint(kill=True)
    (path,) = kill.plan.images_by_host["node00"]
    image = _image_file(world, "node00", path).payload
    opened = []
    raw_open = world._sys_open

    def spy(task, thread, process, name, flags):
        if name.endswith(".dmtcp"):
            opened.append((name, flags))
        return raw_open(task, thread, process, name, flags)

    world._sys_handlers["open"] = spy
    streams_before = world.tracer.snapshot().get("sys.stream", 0)
    comp.restart(plan=kill.plan)
    assert opened == [(path, "r")]
    (header_pass,) = [s for s in world.tracer.spans(cat="mtcp") if s["name"] == "image_read"]
    assert header_pass["args"] == {"n": 1, "bytes": mtcp.store_manifest_bytes(image)}
    assert world.tracer.snapshot().get("sys.stream", 0) == streams_before
    world.engine.run(until=world.engine.now + 0.5)
    no_failures(world)
