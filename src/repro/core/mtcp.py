"""MTCP: the single-process checkpoint layer (Section 4.1, layer 2).

DMTCP delegates per-process work to MTCP across a small API: build an
image of user-space memory (discovered via the /proc maps rendering),
stream it through gzip to disk, and at restart rebuild memory and threads
so the process resumes at Barrier 5 of the checkpoint algorithm.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Optional

from repro.core import compression
from repro.core import protocol as P
from repro.core.imagefile import (
    CheckpointImage,
    FdImage,
    RegionImage,
    ThreadImage,
    conn_key,
)
from repro.errors import CheckpointAborted, SyscallError
from repro.kernel.filesystem import OpenFile
from repro.kernel.sockets import ListenerSocket, SocketEndpoint
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import Sys, recv_frame, send_frame
from repro.obs.tracer import proc_track

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hijack import DmtcpRuntime

#: Fixed metadata overhead per image (headers, tables), bytes.
METADATA_BYTES = 64 * 1024

#: Memory per block of the gzip <-> storage stream: block k+1 is in gzip
#: (gunzip) while block k is on the device (why 4 MiB: DESIGN.md
#: section 4).
STREAM_BLOCK_BYTES = 4 * 2**20


def _no_clock() -> float:
    return 0.0


def _device_block(stored: int, raw: int) -> int:
    """Bytes on the device of one :data:`STREAM_BLOCK_BYTES` block of
    ``raw`` memory that is stored as ``stored`` bytes (rounded up; at
    least one, also for a link with no payload)."""
    return max(-(-stored * STREAM_BLOCK_BYTES // max(raw, 1)), 1)


def incremental_enabled(env: dict) -> bool:
    """Is the incremental checkpoint pipeline on for this process?"""
    return env.get("DMTCP_INCREMENTAL", "0") == "1"


def store_enabled(env: dict) -> bool:
    """Is the content-addressed chunk store on for this process?"""
    return env.get("DMTCP_STORE", "0") == "1"


def atomic_images_enabled(env: dict) -> bool:
    """Crash-safe image writes (``DMTCP_ATOMIC_IMAGES=1``): write to a
    ``.tmp`` sibling, fsync, rename into place, then record a checksummed
    ``.manifest`` -- a node crash mid-write can never leave a torn file
    under the final name."""
    return env.get("DMTCP_ATOMIC_IMAGES", "0") == "1"


def image_checksum(image: CheckpointImage) -> str:
    """Deterministic content fingerprint recorded in the manifest.

    The simulation has no literal byte stream to hash, so the checksum
    covers the identity and size fields a torn or mismatched image would
    get wrong."""
    return (
        f"{image.ckpt_id}:{image.hostname}:{image.vpid}:{image.program}:"
        f"{image.image_bytes}:{image.stored_bytes}:{image.chain_depth}"
    )


#: Modeled size of a manifest sidecar file, bytes.
MANIFEST_BYTES = 256


def gzip_workers(runtime: "DmtcpRuntime") -> int:
    """Parallel gzip stream count for this process's images.

    The incremental and store pipelines use every core of the node (per
    :class:`CpuSpec`); the classic pipeline keeps the paper's single
    serial gzip.
    """
    if incremental_enabled(runtime.process.env) or store_enabled(runtime.process.env):
        return max(runtime.world.spec.cpu.cores, 1)
    return 1


def _estimate(world, regions: list[tuple[int, str]], enabled: bool, nworkers: int):
    """Memoized compression estimate, counting cache hits for the tracer."""
    tracer = world.tracer
    before = compression.ESTIMATE_CACHE.hits
    est = compression.estimate_cached(
        regions, world.spec.cpu, enabled=enabled, nworkers=nworkers
    )
    if tracer.enabled and compression.ESTIMATE_CACHE.hits > before:
        tracer.count("mtcp.estimate_cache_hits")
    return est


def _chunk_estimate(world, digest: str, nbytes: int, profile: str, enabled: bool):
    """Per-chunk compression estimate, memoized by *content hash*.

    Keying on the digest (not the region multiset) means rank 0's
    estimate of a shared chunk is a first-checkpoint cache hit for every
    other rank holding the same content -- the store's equal-digest ==
    equal-bytes guarantee makes that sound.
    """
    tracer = world.tracer
    before = compression.ESTIMATE_CACHE.hits
    est = compression.estimate_cached(
        [(nbytes, profile)],
        world.spec.cpu,
        enabled=enabled,
        nworkers=1,
        content_key=digest,
    )
    if tracer.enabled and compression.ESTIMATE_CACHE.hits > before:
        tracer.count("store.estimate_cache_hits")
    return est


def endpoint_dead(desc) -> bool:
    """Has the remote side of this endpoint already gone away?"""
    return (
        desc.closed
        or desc.peer is None
        or desc.peer.closed
        or desc.rx.eof
        or desc.rx._eof_pending
    )


def image_path(runtime: "DmtcpRuntime", ckpt_id: int = 0) -> str:
    """Image filename, unique cluster-wide.

    Real DMTCP names images ``ckpt_<program>_<UniquePid>.dmtcp`` where
    UniquePid is (hostid, pid, timestamp) -- vital when the checkpoint
    directory is shared storage, where same-pid processes on different
    hosts would otherwise overwrite each other's images.

    With the incremental pipeline the name additionally carries the
    checkpoint id: a delta image chains to its parent *file*, so
    successive checkpoints must not overwrite each other.
    """
    ckpt_dir = runtime.process.env.get("DMTCP_CKPT_DIR", "/tmp/dmtcp")
    host = runtime.process.node.hostname
    stamp = f"{runtime.process.start_time:.6f}".replace(".", "")
    suffix = f"-c{ckpt_id}" if incremental_enabled(runtime.process.env) else ""
    return (
        f"{ckpt_dir}/ckpt_{runtime.process.program}_"
        f"{host}-{runtime.vpid}-{stamp}{suffix}.dmtcp"
    )


def _page_round(nbytes: float, page_bytes: int) -> int:
    """Round a byte count up to whole pages (what MTCP actually writes)."""
    return -(-int(nbytes) // page_bytes) * page_bytes


def plan_delta(runtime: "DmtcpRuntime") -> bool:
    """Should this checkpoint be a delta image chained to the last one?

    Policy (config: :class:`DmtcpSpec`): incremental must be enabled and a
    parent image must exist; the chain must be shorter than
    ``incremental_max_chain``; and the address-space dirty ratio must not
    exceed ``incremental_dirty_threshold`` (past that a delta saves
    nothing and only lengthens restart replay).
    """
    if store_enabled(runtime.process.env):
        # Store images are always "full" manifests: unchanged chunks dedup
        # against prior generations in the store itself, so delta chains
        # (and their orphaned-lineage failure mode) are unnecessary.
        return False
    if not incremental_enabled(runtime.process.env):
        return False
    if runtime.last_image_path is None:
        return False
    spec = runtime.world.spec.dmtcp
    if runtime.chain_depth >= spec.incremental_max_chain:
        return False
    space = runtime.process.address_space
    total = space.total_bytes
    dirty = sum(r.size * r.dirty_fraction for r in space.regions)
    return total > 0 and dirty / total <= spec.incremental_dirty_threshold


def plan_image(runtime: "DmtcpRuntime", ckpt_id: int) -> CheckpointImage:
    """The half of an image that is frozen once ``BARRIER_SUSPENDED``
    releases: who the process is and what its memory holds.

    That barrier is global and user threads stay suspended until stage
    7, so from here on no region, private or shared, can change: the
    region rows, the delta plan, the store chunk manifest, the
    compression estimate and the sizes computed now are the ones a
    build after the drain would compute.  What the drain can still
    change -- descriptors, connections, drained data -- is left empty
    for :func:`seal_image`.

    With the incremental pipeline (``DMTCP_INCREMENTAL=1``) and a usable
    parent image, the image is a *delta*: every region row keeps its full
    mapping size (restart rebuilds the address space from it) but the
    payload -- and therefore the gzip and disk cost -- covers only the
    pages dirtied since the parent image, page-rounded.
    """
    process = runtime.process
    delta = plan_delta(runtime)
    page_bytes = runtime.world.spec.os.page_bytes
    regions = [
        RegionImage(
            r.kind,
            r.size,
            r.profile.name,
            r.path,
            r.shared,
            dirty_bytes=(
                min(_page_round(r.size * r.dirty_fraction, page_bytes), r.size)
                if delta
                else None
            ),
            region_id=r.region_id,
        )
        for r in process.address_space.regions
    ]
    parent_rt = None
    if process.parent is not None:
        parent_rt = process.parent.user_state.get("dmtcp")
    image = CheckpointImage(
        ckpt_id=ckpt_id,
        hostname=process.node.hostname,
        vpid=runtime.vpid,
        program=process.program,
        argv=list(process.argv),
        env=dict(process.env),
        regions=regions,
        threads=[],
        fds=[],
        connections={},
        parent_vpid=parent_rt.vpid if parent_rt else 0,
        sid_vpid=process.sid,
        ctty_name=process.ctty.name if process.ctty else None,
        termios=dict(process.ctty.termios) if process.ctty else None,
        signal_handlers=dict(process.signal_handlers),
        sys_ref=runtime.sys,
    )
    compressed = runtime.process.env.get("DMTCP_GZIP", "1") == "1"
    image.compressed = compressed
    image.delta = delta
    if delta:
        image.parent_image = runtime.last_image_path
        image.chain_depth = runtime.chain_depth + 1
    image.gzip_workers = gzip_workers(runtime)
    store = runtime.world.store
    if store is not None and store_enabled(process.env):
        _build_store_manifest(runtime, image, store)
    else:
        est = _estimate(
            runtime.world, image.payload_regions(), compressed, image.gzip_workers
        )
        image.image_bytes = est.input_bytes + METADATA_BYTES
        image.stored_bytes = est.output_bytes + METADATA_BYTES
    return image


def seal_image(runtime: "DmtcpRuntime", image: CheckpointImage, drained: dict[int, list], fd_nums) -> None:
    """The half of an image known only after ``BARRIER_DRAINED``: the
    header.  Threads, the FD table with the post-election owners and the
    ``peer_dead`` flags, the connection table, the drained data, the pid
    map and the app state are read now, after the drain.

    ``fd_nums`` is the descriptor set as the suspend barrier left it: a
    descriptor opened since belongs to the checkpoint itself (the image
    file, a lease connection) and never enters an image.
    """
    process = runtime.process
    image.threads = [
        ThreadImage(t.name, t.task)
        for t in process.threads
        if t.kind == "user" and t.task is not None and not t.task.done
    ]
    image.fds = fds = []
    for fd_num in sorted(fd_nums):
        entry = process.fds.get(fd_num)
        if entry is None:
            continue
        desc = entry.description
        info = runtime.conn_table.get(fd_num)
        if isinstance(desc, OpenFile):
            fds.append(
                FdImage(
                    fd=fd_num,
                    kind="file",
                    cloexec=entry.cloexec,
                    path=desc.file.path,
                    offset=desc.offset,
                    flags=desc.flags,
                    desc_key=id(desc),
                )
            )
        elif isinstance(desc, ListenerSocket):
            fds.append(
                FdImage(
                    fd=fd_num,
                    kind="listener",
                    cloexec=entry.cloexec,
                    conn_key=conn_key(info.conn_id) if info and info.conn_id else None,
                    bound_port=desc.addr[1] if desc.addr else None,
                    bound_path=desc.path,
                    owner_vpid=desc.owner_pid,
                    desc_key=id(desc),
                )
            )
        elif isinstance(desc, SocketEndpoint):
            if info is None or info.conn_id is None:
                continue  # raw unconnected socket; nothing to restore
            fds.append(
                FdImage(
                    fd=fd_num,
                    kind="pty" if desc.domain == "pty" else "socket",
                    cloexec=entry.cloexec,
                    conn_key=conn_key(info.conn_id),
                    role=info.role,
                    pty_name=info.pty_name,
                    pty_side=info.pty_side,
                    termios=(
                        dict(desc.pty.termios) if getattr(desc, "pty", None) else None
                    ),
                    owner_vpid=desc.owner_pid,
                    peer_dead=endpoint_dead(desc),
                    desc_key=id(desc),
                )
            )
    image.connections = {
        conn_key(info.conn_id): info.clone()
        for _fd, info in runtime.conn_table.items()
        if info.conn_id is not None
    }
    image.drained = dict(drained)
    image.pid_map = dict(runtime.pids.v2r)
    from repro.core.export import capture_app_state

    image.app_state = capture_app_state(process)


def store_manifest_bytes(image: CheckpointImage) -> int:
    """On-disk size of a store manifest image: metadata plus one fixed
    reference row per chunk (no payload bytes -- those live in the store)."""
    refs = image.store_refs or []
    return METADATA_BYTES + P.STORE_REF_BYTES * len(refs)


def _build_store_manifest(runtime: "DmtcpRuntime", image: CheckpointImage, store) -> None:
    """Attach chunk manifests to every region row of ``image``.

    Bumps the write generations of each region's dirty chunk prefix
    (once per checkpoint -- shared regions are visited by every attached
    process) and records the resulting digests.  ``stored_bytes`` is a
    provisional worst case here; the write path replaces it with the
    manifest size plus this writer's actually-leased bytes.
    """
    from repro.store import advance_generations, region_chunks

    chunk_bytes = store.chunk_bytes
    logical = 0
    stored = 0.0
    for region, rimg in zip(runtime.process.address_space.regions, image.regions):
        if (
            region.written
            and region.dirty_fraction > 0.0
            and region.gen_marker != image.ckpt_id
        ):
            advance_generations(region, chunk_bytes)
            region.gen_marker = image.ckpt_id
        refs = region_chunks(
            region.content_key,
            region.region_id,
            rimg.size,
            region.profile.name,
            region.chunk_gens,
            chunk_bytes,
        )
        rimg.content_key = region.content_key
        rimg.chunk_gens = dict(region.chunk_gens)
        rimg.chunks = [[ref.digest, ref.nbytes, ref.profile] for ref in refs]
        logical += rimg.size
        for ref in refs:
            est = _chunk_estimate(
                runtime.world, ref.digest, ref.nbytes, ref.profile, image.compressed
            )
            stored += est.output_bytes
    image.image_bytes = logical + METADATA_BYTES
    image.stored_bytes = store_manifest_bytes(image) + int(stored)


def _write_manifest(sys: Sys, path: str, image: CheckpointImage):
    """Record the checksummed ``.manifest`` sidecar of a renamed image."""
    mfd = yield from sys.open(path + ".manifest", "w")
    yield from sys.write(
        mfd,
        MANIFEST_BYTES,
        payload={
            "checksum": image_checksum(image),
            "ckpt_id": image.ckpt_id,
            "stored_bytes": image.stored_bytes,
            "delta": image.delta,
            "parent_image": image.parent_image,
        },
    )
    yield from sys.fsync(mfd)
    yield from sys.close(mfd)


def end_stream_span(tracer, track: str, name: str, cat: str, cpu_s: float, stats, **more) -> float:
    """Close a span around ``sys.stream`` calls with what they measured:
    ``io_wait_s`` is the time the CPU stage sat waiting on the device,
    ``cpu_wait_s`` the reverse -- the larger one names the bottleneck."""
    blocks, io_wait, cpu_wait = stats
    if not tracer.enabled:
        return tracer.end(track, name, cat=cat)
    tracer.count("mtcp.stream_io_wait_s", io_wait)
    tracer.count("mtcp.stream_cpu_wait_s", cpu_wait)
    return tracer.end(
        track, name, cat=cat, blocks=blocks, cpu_s=round(cpu_s, 9),
        io_wait_s=round(io_wait, 9), cpu_wait_s=round(cpu_wait, 9), **more,
    )


def _store_rpc(sys: Sys, runtime: "DmtcpRuntime", image: CheckpointImage, request: dict, frame_bytes: int, expect: str, purpose: str):
    """One writer -> coordinator store round-trip with deadline + retry.

    Both store verbs are idempotent on the coordinator (``lease`` hands
    a generation's lease holder the same rows again; ``commit`` re-marks
    digests), so a round-trip that times out or loses its connection --
    coordinator busy, dying, or freshly respawned -- is simply retried on
    a fresh connection, paced by the shared
    :class:`repro.resilience.RetryPolicy`.  Every expiry bumps the
    ``resilience.deadline_expired`` counter; only terminal exhaustion
    lands in the FailureLog and re-raises (the checkpoint's normal
    abort/rollback machinery then owns recovery).  A coordinator abort
    received in place of the reply raises :class:`CheckpointAborted`.

    Returns the reply dict.  Each attempt opens its own connection; a
    ``goodbye`` closes it even on the happy path so the coordinator's
    connection table never accumulates writer sockets.
    """
    from repro.resilience import log_retry_exhausted, policy_from_spec

    world = runtime.world
    env = runtime.process.env
    supervise = env.get("DMTCP_SUPERVISE", "0") == "1"
    timeout = world.spec.dmtcp.member_recv_timeout_s if supervise else None
    attempts = world.spec.dmtcp.command_retry_attempts if supervise else 1
    backoff = policy_from_spec(world.spec.dmtcp).delays(
        image.hostname, image.vpid, purpose
    )
    last_err: SyscallError = SyscallError("EIO", f"{purpose} never attempted")
    for attempt in range(attempts):
        fd = yield from sys.socket()
        try:
            yield from sys.connect(
                fd, env["DMTCP_COORD_HOST"], int(env["DMTCP_COORD_PORT"])
            )
            yield from send_frame(sys, fd, request, frame_bytes)
            assembler = FrameAssembler()
            result = yield from recv_frame(sys, fd, assembler, timeout=timeout)
            if result is None:
                raise SyscallError("ECONNRESET", f"{purpose} connection lost")
            reply = result[0]
            if isinstance(reply, dict) and reply.get("kind") == P.MSG_CKPT_ABORT:
                exc = CheckpointAborted(
                    reply.get("reason", "coordinator aborted the checkpoint")
                )
                exc.from_coordinator = True
                raise exc
            if not isinstance(reply, dict) or reply.get("kind") != expect:
                raise SyscallError("EPROTO", f"unexpected {purpose} reply {reply!r}")
            try:
                yield from send_frame(sys, fd, P.msg(P.MSG_GOODBYE), P.CTL_FRAME_BYTES)
                yield from sys.close(fd)
            except SyscallError:
                pass
            return reply
        except (SyscallError, CheckpointAborted) as err:
            try:
                yield from sys.close(fd)
            except SyscallError:
                pass
            if isinstance(err, CheckpointAborted) or err.errno == "EPROTO":
                raise  # a verdict or a protocol bug, not a liveness problem
            last_err = err
            if err.errno == "ETIMEDOUT":
                world.tracer.count("resilience.deadline_expired")
            if attempt + 1 < attempts:
                yield from sys.sleep(next(backoff))
    log_retry_exhausted(
        world,
        purpose,
        f"{image.program}[{image.vpid}] ckpt {image.ckpt_id}",
        hostname=image.hostname,
    )
    raise last_err


class ImageWriter:
    """One process's image of one checkpoint, from the plan to the file.

    The image goes to storage in two halves, on either side of the
    drain.  The *payload* -- user memory, piped through gzip, or in store
    mode this writer's leased chunks -- is fixed by :func:`plan_image`
    when ``BARRIER_SUSPENDED`` releases, so :meth:`start` streams it from
    there on a manager-kind thread of the process while the manager
    elects and drains.  The *header* exists only after the drain:
    :meth:`seal` fills it in and :meth:`finish` joins the payload thread
    (raising what it failed with), puts the header into the
    :data:`METADATA_BYTES` slot reserved at the front of the file and
    only then makes the file a checkpoint -- payload object attached,
    ``fsync`` + ``rename`` + ``.manifest`` under
    ``DMTCP_ATOMIC_IMAGES=1``, and in store mode the manifest file (all
    header) followed by ``MSG_STORE_COMMIT``.  The layout on storage is
    what a single write of the whole image left there.

    Forked checkpointing calls :meth:`write` instead, in the COW child
    after the seal: the snapshot must contain the drained buffers, and
    its write is off the critical path already.

    :meth:`abort` is the rollback: from :meth:`start` on a partial image
    exists, so it stops the thread where it stands before it unlinks.

    The ``mtcp.write`` span runs on its own tracer track
    (``proc_track(host, "mtcp", vpid, tenant)``, ``<host>/mtcp[<vpid>]``
    outside service mode; the write is concurrent with the manager's
    stage spans) from the first payload call to the commit and closes
    with ``hidden_s`` / ``exposed_s`` -- how much of it ran before the
    seal -- next to the stream's ``blocks``, ``cpu_s``, ``io_wait_s``
    and ``cpu_wait_s``.
    """

    __slots__ = (
        "runtime", "image", "path", "target", "track", "atomic", "store",
        "fds_at_suspend", "thread", "error", "fd", "renamed", "segment",
        "span_open", "began_at", "sealed_at", "payload_s", "hidden_s", "cpu_s",
        "stats", "wire", "need",
    )

    def __init__(self, runtime: "DmtcpRuntime", ckpt_id: int):
        process = runtime.process
        self.runtime = runtime
        self.image = image = plan_image(runtime, ckpt_id)
        self.path = path = image_path(runtime, ckpt_id)
        self.track = proc_track(
            image.hostname, "mtcp", image.vpid, process.env.get("DMTCP_TENANT")
        )
        self.atomic = atomic_images_enabled(process.env)
        #: Crash-safe path: a torn write only ever exists as ``*.tmp``,
        #: and the manifest (written last) certifies the final file.
        self.target = path + ".tmp" if self.atomic else path
        store = runtime.world.store
        self.store = store if store is not None and store_enabled(process.env) else None
        #: The fd table as the suspend barrier left it: what the header
        #: records, and what a rollback leaves open.
        self.fds_at_suspend = frozenset(process.fds)
        self.thread = None
        #: What the payload thread failed with; raised by :meth:`finish`.
        self.error: Optional[BaseException] = None
        #: The image file while it is open.
        self.fd: Optional[int] = None
        #: What a rollback unlinks is :attr:`target` until an atomic image
        #: is renamed (the final name is the *previous* checkpoint until
        #: then, without ``-c<id>`` names), the final name and its
        #: manifest after; and the store segment this writer pushed,
        #: until its chunks are committed.
        self.renamed = False
        self.segment: Optional[str] = None
        self.span_open = False
        self.began_at = self.sealed_at = 0.0
        #: Seconds from the span's begin to the payload's last byte
        #: (clocked under the tracer only).
        self.payload_s = 0.0
        #: Seconds of the write that ran before the seal, under the drain.
        self.hidden_s = 0.0
        self.cpu_s = 0.0
        self.stats = (0, 0.0, 0.0)
        self.wire: list = []
        self.need: list = []

    # -- the protocol's three calls ----------------------------------------
    def start(self) -> None:
        """Stream the payload from now on, beside the calling manager."""
        process = self.runtime.process
        self.thread = self.runtime.world.spawn_thread(
            process, self._payload_thread(Sys()), "mtcp-writer", kind="manager"
        )

    def seal(self, drained: dict[int, list]) -> None:
        """The drain barrier released: complete the header."""
        seal_image(self.runtime, self.image, drained, self.fds_at_suspend)
        self.sealed_at = self.runtime.world.tracer.clock()

    def finish(self, sys: Sys):
        """Join the payload thread, then commit the sealed image."""
        task = self.thread.task
        if not task.done:
            yield task.done_future
        if self.error is not None:
            raise self.error
        yield from self._commit(sys)

    def write(self, sys: Sys):
        """Payload, then commit, in turn: the forked child's whole job,
        on the snapshot of this state that the fork gave it."""
        child = copy.copy(self)
        yield from child._payload(sys)
        yield from child._commit(sys)

    def abort(self, sys: Sys):
        """Rollback: stop the payload where it stands, close what this
        checkpoint opened, unlink what it made.  A killed task's block
        stream issues nothing further and releases the write-back hold."""
        if self.thread is not None:
            self.thread.task.kill()
        self._end_span()
        process = self.runtime.process
        for fd in sorted(set(process.fds) - self.fds_at_suspend):
            try:
                yield from sys.close(fd)
            except SyscallError:
                pass
        doomed = [self.path, self.path + ".manifest"] if self.renamed else [self.target]
        if self.segment:
            doomed.append(self.segment)
        for path in doomed:
            try:
                yield from sys.unlink(path)
            except SyscallError:
                pass

    # -- payload -------------------------------------------------------------
    def _payload_thread(self, sys: Sys):
        try:
            yield from self._payload(sys)
        except (SyscallError, CheckpointAborted) as err:
            self.error = err

    def _payload(self, sys: Sys):
        tracer = self.runtime.world.tracer
        image = self.image
        args = {"store": True} if self.store is not None else {"delta": image.delta}
        self.began_at = tracer.begin(
            self.track, "mtcp.write", cat="mtcp", path=self.path, **args
        )
        self.span_open = True
        try:
            if self.store is not None:
                yield from self._push_chunks(sys)
            else:
                yield from self._stream_memory(sys)
        except (SyscallError, CheckpointAborted):
            self._end_span()
            raise
        if tracer.enabled:
            self.payload_s = tracer.clock() - self.began_at

    def _stream_memory(self, sys: Sys):
        """User memory through gzip into the file, behind the header slot.

        A compressed image is cut into :data:`STREAM_BLOCK_BYTES` blocks
        of memory and piped through ``sys.stream``: block *k*+1 is
        gzipped while block *k* is being written, and a full disk is
        noticed at the block it refuses.  An image of one block, or one
        without a gzip stage, has nothing to overlap and issues the plain
        calls: the CPU burst (gzip, or the memcpy of an uncompressed
        image), then one write.
        """
        world = self.runtime.world
        tracer = world.tracer
        image = self.image
        est = _estimate(
            world, image.payload_regions(), image.compressed, image.gzip_workers
        )
        self.cpu_s = cpu_s = est.compress_seconds
        nbytes = image.stored_bytes - METADATA_BYTES
        piped = image.compressed and image.image_bytes > STREAM_BLOCK_BYTES
        # a serial image's stage waits are clocked only under the tracer
        clock = tracer.clock if tracer.enabled else _no_clock
        serial_cpu = 0.0
        if cpu_s > 0 and not piped:
            t0 = clock()
            yield from sys.cpu(cpu_s)
            serial_cpu = clock() - t0
        self.fd = fd = yield from sys.open(self.target, "w")
        if piped:
            self.stats = yield from sys.stream(
                fd, nbytes, cpu_s,
                _device_block(image.stored_bytes, image.image_bytes),
                write=True, offset=METADATA_BYTES,
            )
        else:
            t0 = clock()
            if nbytes:
                yield from sys.write(fd, nbytes, offset=METADATA_BYTES)
            # serial: each stage sat out the whole of the other
            self.stats = (1, clock() - t0, serial_cpu)

    def _push_chunks(self, sys: Sys):
        """Store mode: dedup against the cluster store, push unique bytes.

        The writer sends its chunk manifest to the coordinator over a
        private connection; the coordinator parks it until the whole
        generation has reported and leases back only the chunks nobody
        has stored yet (everything else is a dedup hit).  Leased chunks
        are compressed (parallel gzip over independent chunk streams) and
        their bytes pushed to each chunk's rendezvous-primary host.
        Checkpoint cost is therefore proportional to this writer's share
        of the *unique* bytes.
        """
        runtime = self.runtime
        world = runtime.world
        tracer = world.tracer
        image = self.image
        env = runtime.process.env
        wire = self.wire
        for digest, nbytes, profile in image.store_refs or []:
            est = _chunk_estimate(world, digest, nbytes, profile, image.compressed)
            wire.append([digest, nbytes, profile, est.output_bytes])
        # the lease arrives once every writer of this generation has
        # reported: this span is the wait, not work
        tracer.begin(self.track, "store.lease_wait", cat="store")
        try:
            reply = yield from _store_rpc(
                sys,
                runtime,
                image,
                P.msg(
                    P.MSG_STORE_MANIFEST,
                    ckpt_id=image.ckpt_id,
                    host=image.hostname,
                    vpid=image.vpid,
                    refs=wire,
                ),
                64 + P.STORE_REF_BYTES * max(len(wire), 1),
                P.MSG_STORE_LEASE,
                "store-lease",
            )
        finally:
            tracer.end(self.track, "store.lease_wait", cat="store")
        self.need = need = reply["need"]
        # Compress only the leased chunks -- independent streams, LPT over
        # the image's gzip workers.
        stream_seconds = []
        for index, _target in need:
            digest, nbytes, profile, _stored = wire[index]
            est = _chunk_estimate(world, digest, nbytes, profile, image.compressed)
            stream_seconds.append(est.compress_seconds)
        compress = sum(stream_seconds)
        if image.gzip_workers > 1 and len(stream_seconds) > 1:
            compress = compression._critical_path(stream_seconds, image.gzip_workers)
        if compress > 0:
            yield from sys.cpu(compress)
        # Push leased payloads to their placed hosts (local ones land in a
        # segment file through the normal write syscall; remote ones
        # stream over the NICs onto the target's disk).
        local_bytes = 0
        remote_bytes: dict[str, float] = {}
        leased_stored = 0.0
        for index, target in need:
            stored = wire[index][3]
            leased_stored += stored
            if target == image.hostname:
                local_bytes += stored
            else:
                remote_bytes[target] = remote_bytes.get(target, 0.0) + stored
        if local_bytes:
            ckpt_dir = env.get("DMTCP_CKPT_DIR", "/tmp/dmtcp")
            self.segment = (
                f"{ckpt_dir}/store_seg_{image.hostname}-{image.vpid}-c{image.ckpt_id}.dat"
            )
            sfd = yield from sys.open(self.segment, "w")
            yield from sys.write(sfd, local_bytes)
            if self.atomic:
                yield from sys.fsync(sfd)
            yield from sys.close(sfd)
        me = world.machine.node(image.hostname)
        push_futures = []
        for target, nbytes in remote_bytes.items():
            dst = world.machine.node(target)
            me.nic_tx.submit(nbytes)
            push_futures.append(dst.nic_rx.submit(nbytes))
            push_futures.append(dst.disk.write(nbytes))
        for fut in push_futures:
            yield fut
        # The image file will be just the manifest.
        image.stored_bytes = store_manifest_bytes(image) + int(leased_stored)

    # -- commit --------------------------------------------------------------
    def _commit(self, sys: Sys):
        """The sealed header goes in front and the file becomes a
        checkpoint.  A store image is all header: its manifest file is
        written whole here, then the pushed chunks are committed."""
        runtime = self.runtime
        image = self.image
        path = self.path
        try:
            if self.store is not None:
                fd = yield from sys.open(self.target, "w")
                yield from sys.write(fd, store_manifest_bytes(image), payload=image)
            else:
                fd = self.fd
                yield from sys.write(fd, METADATA_BYTES, payload=image, offset=0)
            if self.atomic:
                yield from sys.fsync(fd)
            yield from sys.close(fd)
            if self.atomic:
                yield from sys.rename(self.target, path)
                self.renamed = True
                yield from _write_manifest(sys, path, image)
            if self.store is not None:
                digests = [self.wire[index][0] for index, _target in self.need]
                yield from _store_rpc(
                    sys,
                    runtime,
                    image,
                    P.msg(P.MSG_STORE_COMMIT, host=image.hostname, digests=digests),
                    64 + 16 * max(len(digests), 1),
                    P.MSG_STORE_OK,
                    "store-commit",
                )
                self.segment = None  # the store's from here on
        except (SyscallError, CheckpointAborted):
            self._end_span()
            raise
        self._close_span()

    # -- the span ------------------------------------------------------------
    def _end_span(self) -> None:
        """Balance the span stack of a write that did not finish."""
        if self.span_open:
            self.span_open = False
            self.runtime.world.tracer.end(self.track, "mtcp.write", cat="mtcp")

    def _close_span(self) -> None:
        world = self.runtime.world
        tracer = world.tracer
        image = self.image
        self.span_open = False
        begin = self.began_at
        self.hidden_s = hidden = max(self.sealed_at - begin, 0.0)
        if not tracer.enabled:
            tracer.end(self.track, "mtcp.write", cat="mtcp")
            return
        split = {
            "payload_s": round(self.payload_s, 9),
            "hidden_s": round(hidden, 9),
            "exposed_s": round(tracer.clock() - begin - hidden, 9),
        }
        if self.store is not None:
            tracer.end(self.track, "mtcp.write", cat="mtcp", **split)
        else:
            end_stream_span(
                tracer, self.track, "mtcp.write", "mtcp", self.cpu_s, self.stats, **split
            )
        page_bytes = world.spec.os.page_bytes
        tracer.count("mtcp.write_hidden_s", hidden)
        tracer.count("mtcp.images_written")
        tracer.count("mtcp.image_bytes", image.image_bytes)
        tracer.count("mtcp.stored_bytes", image.stored_bytes)
        tracer.count("mtcp.pages_written", -(-image.stored_bytes // page_bytes))
        if self.store is not None:
            refs = image.store_refs or []
            tracer.count("store.manifest_chunks", len(refs))
            tracer.count("store.chunks_leased", len(self.need))
            kind = {"delta": False, "store": True, "chunks": len(refs), "leased": len(self.need)}
        else:
            if image.delta:
                tracer.count("mtcp.delta_images")
                full_pages = sum(
                    -(-r.size // page_bytes) for r in image.regions
                )
                written_pages = sum(
                    -(-payload // page_bytes)
                    for payload, _profile in image.payload_regions()
                )
                tracer.count("mtcp.pages_skipped", full_pages - written_pages)
            kind = {"delta": image.delta, "chain_depth": image.chain_depth}
        tracer.instant(
            self.track,
            "mtcp.compression",
            cat="mtcp",
            compressed=image.compressed,
            **kind,
            image_bytes=image.image_bytes,
            stored_bytes=image.stored_bytes,
            ratio=round(image.stored_bytes / max(image.image_bytes, 1), 6),
        )


def read_image(sys: Sys, path: str, validate: bool = False):
    """Restart step 0: the header pass over one image and its ancestry.

    The restart process needs only what the header holds -- fd table,
    connection table, pid map -- to restore files and reconnect sockets
    before it forks, so it reads :data:`METADATA_BYTES` of each file
    and leaves the descriptor open at that offset: the forked child
    streams the payload itself (:func:`restore_memory`).  A store
    manifest is all header (the reference rows follow the fixed part);
    it is read whole and closed.

    A delta image names its parent via ``parent_image``; every link's
    header is read and the chain attached to the returned leaf image as
    ``image.chain``, base first.  Returns ``(leaf, fds, nbytes)``:
    ``fds`` are the chain's open descriptors in the same order (none
    for a store manifest) and ``nbytes`` is what the pass read.

    With ``validate`` (the supervised path: ``dmtcp_restart --validate``)
    each file's ``.manifest`` sidecar, when present, is read back and its
    checksum compared -- a torn or swapped image fails loudly here,
    before any child is forked, instead of resuming a corrupt computation.
    """
    chain, fds, total = [], [], 0
    while path is not None:
        node, fd, nbytes = yield from _read_header(sys, path, validate)
        chain.append(node)
        if fd is not None:
            fds.append(fd)
        total += nbytes
        path = node.parent_image
    leaf = chain[0]
    leaf.chain = chain[::-1]
    return leaf, fds[::-1], total


def _read_header(sys: Sys, path: str, validate: bool):
    fd = yield from sys.open(path, "r")
    nbytes, image = yield from sys.read(fd, METADATA_BYTES)
    if image is None:
        raise SyscallError("EIO", f"no checkpoint payload in {path}")
    if image.store_refs is not None:
        # the fixed part says how many reference rows follow
        rows = store_manifest_bytes(image) - nbytes
        if rows > 0:
            yield from sys.read(fd, rows)
            nbytes += rows
        yield from sys.close(fd)
        fd = None
    if validate:
        st = yield from sys.stat(path + ".manifest")
        if st is not None:
            mfd = yield from sys.open(path + ".manifest", "r")
            _n, manifest = yield from sys.read(mfd, 1 << 62)
            yield from sys.close(mfd)
            expected = manifest.get("checksum") if manifest else None
            if expected != image_checksum(image):
                raise SyscallError("EIO", f"checksum mismatch in {path}")
    return image, fd, nbytes


def restore_memory(sys: Sys, world, process, image: CheckpointImage, fds=()):
    """Restart step 5a: stream the payload in and rebuild the address space.

    ``fds`` are the descriptors :func:`read_image` left open, inherited
    across ``fork`` and positioned past each header.  The chain is
    replayed base first, link by link: each file is piped through
    ``sys.stream`` -- block *k*+1 is read while block *k* is gunzipped
    and its pages instantiated (an uncompressed link has no gunzip
    child to read ahead and is one block: read, then mapped) -- and
    closed.  The full base
    instantiates every page, each delta only its dirty pages, so the
    cost is honest about the replay work of an incremental restart.
    Returns ``(cpu_s, (blocks, io_wait_s, cpu_wait_s))`` summed over the
    chain, for :func:`end_stream_span`.

    Private regions are re-mapped directly; shared (mmap-backed) regions
    go through the mmap syscall so the paper's backing-file rules apply
    (Section 4.5: recreate the file if missing and writable, overwrite if
    writable, else map file contents as-is).
    """
    refs = image.store_refs
    store = world.store
    blocks, cpu_s, io_wait, cpu_wait = 0, 0.0, 0.0, 0.0
    if refs is not None and store is not None:
        # Store mode: stream every chunk concurrently from its nearest
        # live replica (fetch submits the disk/NIC work immediately, so
        # transfers overlap the decompress/instantiate CPU burst below).
        futures, _info = store.fetch(process.node.hostname, refs)
        nworkers = min(max(image.gzip_workers, 1), max(world.spec.cpu.cores, 1))
        stream_seconds = []
        instantiate_bytes = 0
        for digest, nbytes, profile in refs:
            est = _chunk_estimate(world, digest, nbytes, profile, image.compressed)
            stream_seconds.append(est.decompress_seconds)
            instantiate_bytes += nbytes
        decompress = sum(stream_seconds)
        if nworkers > 1 and len(stream_seconds) > 1:
            decompress = compression._critical_path(stream_seconds, nworkers)
        instantiate = instantiate_bytes / world.spec.os.page_restore_bps
        cpu_s = decompress + instantiate
        if cpu_s > 0:
            yield from sys.cpu(cpu_s)
        for fut in futures:
            yield fut
    else:
        for img, fd in zip(image.chain or [image], fds):
            nworkers = min(max(img.gzip_workers, 1), max(world.spec.cpu.cores, 1))
            est = _estimate(world, img.payload_regions(), img.compressed, nworkers)
            # gunzip plus page instantiation: copying image bytes into
            # fresh mappings and faulting them in (Table 1b's dominant
            # restore cost)
            link_cpu = (
                est.decompress_seconds
                + est.input_bytes / world.spec.os.page_restore_bps
            )
            payload = img.stored_bytes - METADATA_BYTES
            # only a gunzip child in the pipe reads ahead of the process;
            # an uncompressed link is one block: read it, then map it
            block = (
                _device_block(payload, est.input_bytes)
                if img.compressed
                else max(payload, 1)
            )
            n, io_w, cpu_w = yield from sys.stream(fd, payload, link_cpu, block)
            yield from sys.close(fd)
            blocks += n
            cpu_s += link_cpu
            io_wait += io_w
            cpu_wait += cpu_w
    from repro.kernel.memory import AddressSpace, PROFILES

    space = AddressSpace(world.spec.os.page_bytes, world.region_ids)
    process.address_space = space
    for region in image.regions:
        if region.shared and region.path is not None:
            restored = yield from _restore_shared_region(sys, process, region)
        else:
            restored = space.map_region(
                region.size, region.kind, PROFILES[region.profile], path=region.path
            )
            if region.region_id is not None:
                # memory comes back at its original addresses (Section 4.5),
                # so region handles held by the app stay valid
                restored.region_id = region.region_id
        if region.content_key is not None:
            # Store mode: the rebuilt pages hold exactly the checkpointed
            # content -- restore the region's content lineage so the next
            # checkpoint's digests line up with what the store holds.
            restored.content_key = region.content_key
            restored.chunk_gens = dict(region.chunk_gens or {})
            restored.dirty_fraction = 0.0
            restored.written = False
    return cpu_s, (blocks, io_wait, cpu_wait)


def _restore_shared_region(sys: Sys, process, region: RegionImage):
    """Apply the Section 4.5 shared-memory rules for one segment."""
    st = yield from sys.stat(region.path)
    if st is None:
        # backing file missing: recreate it, then map and overwrite
        fd = yield from sys.open(region.path, "w")
        yield from sys.write(fd, region.size)
        yield from sys.close(fd)
    rid = yield from sys.mmap(
        region.size, region.profile, shared=True, path=region.path, kind="shm"
    )
    restored = process.address_space.find(rid)
    if region.region_id is not None:
        restored.region_id = region.region_id
    return restored


def adopt_threads(world, process, image: CheckpointImage) -> list:
    """Restart step 5b: reattach the frozen user-thread continuations.

    The original Thread object is reused and re-pointed at the new
    process: the thread wrapper resolves its owning process through it,
    so 'main thread returns => process exits' keeps working after the
    continuation crosses process incarnations.
    """
    adopted = []
    for timg in image.threads:
        thread = timg.continuation.context
        thread.process = process
        process.threads.append(thread)
        adopted.append(thread)
    return adopted
