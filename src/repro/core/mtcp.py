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
from repro.core.helpers import HelperGroup
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
from repro.kernel.world import STREAM_EDGE_BYTES
from repro.obs.tracer import proc_track

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hijack import DmtcpRuntime

#: Fixed metadata overhead per image (headers, tables), bytes.
METADATA_BYTES = 64 * 1024


def _device_edge(stored: int, raw: int) -> int:
    """Bytes on the device of one ``STREAM_EDGE_BYTES`` edge block of
    ``raw`` memory that is stored as ``stored`` bytes (rounded up; at
    least one, also for an image with no payload)."""
    return max(-(-stored * STREAM_EDGE_BYTES // max(raw, 1)), 1)


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
        f"{image.image_bytes}:{image.stored_bytes}"
    )


#: Modeled size of a manifest sidecar file, bytes.
MANIFEST_BYTES = 256


def manifest_certifies(manifest, image: CheckpointImage) -> bool:
    """Does an image's ``.manifest`` sidecar let it be restored?

    ``manifest`` is the sidecar's contents, None when there is no sidecar
    (nothing to check against: the image passes).  A sidecar must record
    the image's checksum; an empty one -- torn, no payload -- certifies
    nothing.  The one rule for ``dmtcp_restart --validate``
    (:func:`read_image`) and the supervisor's plan selection."""
    if manifest is None:
        return True
    return bool(manifest) and manifest.get("checksum") == image_checksum(image)


def gzip_workers(runtime: "DmtcpRuntime") -> int:
    """Parallel gzip stream count for this process's images.

    The store pipeline uses every core of the node (per :class:`CpuSpec`);
    the classic pipeline keeps the paper's single serial gzip.
    """
    if store_enabled(runtime.process.env):
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

    In store mode the name additionally carries the checkpoint id: each
    generation's manifest is its own file, so an older generation stays
    restorable when the newest one is torn.
    """
    ckpt_dir = runtime.process.env.get("DMTCP_CKPT_DIR", "/tmp/dmtcp")
    host = runtime.process.node.hostname
    stamp = f"{runtime.process.start_time:.6f}".replace(".", "")
    suffix = f"-c{ckpt_id}" if store_enabled(runtime.process.env) else ""
    return (
        f"{ckpt_dir}/ckpt_{runtime.process.program}_"
        f"{host}-{runtime.vpid}-{stamp}{suffix}.dmtcp"
    )


def plan_image(runtime: "DmtcpRuntime", ckpt_id: int) -> CheckpointImage:
    """The half of an image that is frozen once ``BARRIER_SUSPENDED``
    releases: who the process is and what its memory holds.

    That barrier is global and user threads stay suspended until stage
    7, so from here on no region, private or shared, can change: the
    region rows, the store chunk manifest, the compression estimate and
    the sizes computed now are the ones a build after the drain would
    compute.  What the drain can still change -- descriptors,
    connections, drained data -- is left empty for :func:`seal_image`.
    """
    process = runtime.process
    regions = [
        RegionImage(
            r.kind, r.size, r.profile.name, r.path, r.shared, region_id=r.region_id
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
        },
    )
    yield from sys.fsync(mfd)
    yield from sys.close(mfd)


def stream_span_args(tracer, cpu_s: float, stats, names=("cpu",)) -> dict:
    """What a span around ``sys.stream`` calls closes with: ``io_wait_s``
    is the time the stream waited on the device alone and
    ``<name>_wait_s`` the time it waited on that CPU stage alone (``names``
    in pipe order) -- the largest one names the bottleneck.  ``fill_s``
    (the second stage idle before its first block) and ``drain_s`` (the
    first idle after its last) are the stream's unoverlapped ends, a
    share of those waits."""
    blocks, io_wait, cpu_waits, fill, drain = stats
    tracer.count("mtcp.stream_io_wait_s", io_wait)
    for name, wait in zip(names, cpu_waits):
        tracer.count(f"mtcp.stream_{name}_wait_s", wait)
    tracer.count("mtcp.stream_fill_s", fill)
    tracer.count("mtcp.stream_drain_s", drain)
    return {
        "blocks": blocks, "cpu_s": round(cpu_s, 9), "io_wait_s": round(io_wait, 9),
        **{f"{name}_wait_s": round(wait, 9) for name, wait in zip(names, cpu_waits)},
        "fill_s": round(fill, 9), "drain_s": round(drain, 9),
    }


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
    ``DMTCP_ATOMIC_IMAGES=1``, and in store mode ``MSG_STORE_COMMIT``.
    Both kinds open their file in the payload thread and commit through
    the same header write; a store image is all header.  The layout on
    storage is what a single write of the whole image left there.

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
        "fds_at_suspend", "helpers", "fd", "renamed", "segment",
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
        #: The payload thread, from :meth:`start` on.
        self.helpers: Optional[HelperGroup] = None
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
        self.helpers = HelperGroup(self.runtime.world, self.runtime.process)
        self.helpers.spawn("payload", self._payload(Sys()), "mtcp-writer")

    def seal(self, drained: dict[int, list]) -> None:
        """The drain barrier released: complete the header."""
        seal_image(self.runtime, self.image, drained, self.fds_at_suspend)
        self.sealed_at = self.runtime.world.tracer.clock()

    def finish(self, sys: Sys):
        """Join the payload thread (raising what it failed with), then
        commit the sealed image."""
        yield from self.helpers.join()
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
        if self.helpers is not None:
            self.helpers.kill()
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
    def _payload(self, sys: Sys):
        tracer = self.runtime.world.tracer
        args = {"store": True} if self.store is not None else {}
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

        Every payload is piped through ``sys.stream``.  A compressed one
        starts and ends on one pipe buffer (``STREAM_EDGE_BYTES`` of
        memory) and ramps up to 4 MiB blocks in between: block *k*+1 is
        gzipped while block *k* is being written, and a full disk is
        noticed at the block it refuses.  An uncompressed one has no
        gzip child to run ahead and is one block: the memcpy of the
        copy-in, then the write.
        """
        world = self.runtime.world
        image = self.image
        est = _estimate(
            world, image.payload_regions(), image.compressed, image.gzip_workers
        )
        self.cpu_s = cpu_s = est.compress_seconds
        nbytes = image.stored_bytes - METADATA_BYTES
        edge = (
            _device_edge(image.stored_bytes, image.image_bytes)
            if image.compressed
            else max(nbytes, 1)
        )
        self.fd = fd = yield from sys.open(self.target, "w")
        self.stats = yield from sys.stream(
            fd, nbytes, cpu_s, edge, write=True, offset=METADATA_BYTES
        )

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
        # the manifest's file: its open is a fixed latency, paid here under
        # the drain rather than after the seal
        self.fd = yield from sys.open(self.target, "w")
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
        checkpoint.  A store image is all header (its reference rows
        follow the fixed part); once it is in, the pushed chunks are
        committed."""
        runtime = self.runtime
        image = self.image
        path = self.path
        fd = self.fd
        header = METADATA_BYTES if self.store is None else store_manifest_bytes(image)
        try:
            yield from sys.write(fd, header, payload=image, offset=0)
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
        if self.store is None:
            split = {**stream_span_args(tracer, self.cpu_s, self.stats), **split}
        tracer.end(self.track, "mtcp.write", cat="mtcp", **split)
        page_bytes = world.spec.os.page_bytes
        tracer.count("mtcp.write_hidden_s", hidden)
        tracer.count("mtcp.images_written")
        tracer.count("mtcp.image_bytes", image.image_bytes)
        tracer.count("mtcp.stored_bytes", image.stored_bytes)
        tracer.count("mtcp.pages_written", -(-image.stored_bytes // page_bytes))
        kind = {}
        if self.store is not None:
            refs = image.store_refs or []
            tracer.count("store.manifest_chunks", len(refs))
            tracer.count("store.chunks_leased", len(self.need))
            kind = {"store": True, "chunks": len(refs), "leased": len(self.need)}
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


def read_image(sys: Sys, world, process, path: str, validate: bool = False):
    """Restart step 0: the header pass over one image.

    The restart process needs only what the header holds -- fd table,
    connection table, pid map -- to restore files and reconnect sockets
    before it forks, so it reads :data:`METADATA_BYTES` of the file and
    leaves the descriptor open at that offset: the forked child streams
    the payload itself (:func:`restore_memory`).  A store manifest is
    all header (the reference rows follow the fixed part); it is read
    whole and closed.  Returns ``(image, fd, nbytes)``: ``fd`` is the
    open descriptor (None for a store manifest) and ``nbytes`` is what
    the pass read.

    With ``validate`` (the supervised path: ``dmtcp_restart --validate``)
    the file's ``.manifest`` sidecar, when present, is read back and its
    checksum compared -- a torn or swapped image fails loudly here,
    before any child is forked, instead of resuming a corrupt computation.
    The sidecar is read beside the header, by a helper thread of
    ``process``: each open is a fixed latency that the other need not
    wait for.  On a failure the helper is gone and the image closed.
    """
    sidecar = None
    if validate:
        sidecar = HelperGroup(world, process)
        sidecar.spawn(0, _read_manifest(Sys(), path + ".manifest"), "restore-manifest")
    fd = None
    try:
        fd = yield from sys.open(path, "r")
        nbytes, image = yield from sys.read(fd, METADATA_BYTES)
        if image is None:
            raise SyscallError("EIO", f"no checkpoint payload in {path}")
    except SyscallError:
        if sidecar is not None:
            sidecar.kill()
        if fd is not None:
            yield from sys.close(fd)
        raise
    if image.store_refs is not None:
        # the fixed part says how many reference rows follow
        rows = store_manifest_bytes(image) - nbytes
        if rows > 0:
            yield from sys.read(fd, rows)
            nbytes += rows
        yield from sys.close(fd)
        fd = None
    if sidecar is not None:
        (manifest,) = yield from sidecar.join()
        if not manifest_certifies(manifest, image):
            if fd is not None:
                yield from sys.close(fd)
            raise SyscallError("EIO", f"checksum mismatch in {path}")
    return image, fd, nbytes


def _read_manifest(sys: Sys, path: str):
    """The checksummed sidecar of an image: its contents, ``{}`` for an
    empty one, None when there is none (nothing to check against)."""
    st = yield from sys.stat(path)
    if st is None:
        return None
    mfd = yield from sys.open(path, "r")
    _n, manifest = yield from sys.read(mfd, 1 << 62)
    yield from sys.close(mfd)
    return manifest or {}


def restore_memory(sys: Sys, world, process, image: CheckpointImage, fd: Optional[int] = None):
    """Restart step 5a: stream the payload in and rebuild the address space.

    ``fd`` is the descriptor :func:`read_image` left open, inherited
    across ``fork`` and positioned past the header.  The payload is piped
    through ``sys.stream`` and the file closed.  A compressed image is a
    three-stage pipe at any size: block *k*+1 is read while the gunzip
    child inflates block *k* and the process pages in block *k*-1, each
    CPU stage a burst of its own on its own core, so the restore costs
    about its slowest stage, not gunzip plus page-in.  Its first and
    last blocks are one pipe buffer of memory, so even a one-megabyte
    image overlaps its gunzip with its read.  An uncompressed image has
    no gunzip child to read ahead and is one block: read, then mapped.
    A store manifest has no payload of its own (and no ``fd``): its
    chunks are fetched from the store under one CPU burst.  Returns
    ``(cpu_s, stats, names)``: the stream's result and its CPU stages'
    names, for :func:`stream_span_args`.

    Private regions are re-mapped directly; shared (mmap-backed) regions
    go through the mmap syscall so the paper's backing-file rules apply
    (Section 4.5: recreate the file if missing and writable, overwrite if
    writable, else map file contents as-is).
    """
    refs = image.store_refs
    nworkers = min(max(image.gzip_workers, 1), max(world.spec.cpu.cores, 1))
    stats = (0, 0.0, (0.0,), 0.0, 0.0)
    names = ("cpu",)
    if refs is not None:
        # Store mode: stream every chunk concurrently from its nearest
        # live replica (fetch submits the disk/NIC work immediately, so
        # transfers overlap the decompress/instantiate CPU burst below).
        futures, _info = world.store.fetch(process.node.hostname, refs)
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
        est = _estimate(world, image.payload_regions(), image.compressed, nworkers)
        # gunzip plus page instantiation: copying image bytes into fresh
        # mappings and faulting them in (Table 1b's dominant restore cost)
        page_in = est.input_bytes / world.spec.os.page_restore_bps
        cpu_s = est.decompress_seconds + page_in
        payload = image.stored_bytes - METADATA_BYTES
        if image.compressed:
            # the gunzip child reads ahead of the process, the device
            # ahead of the child: three stages, each on its own block
            names = ("gunzip", "pagein")
            stages = (est.decompress_seconds, page_in)
            edge = _device_edge(payload, est.input_bytes)
        else:
            # no gunzip child: one block, read and then mapped
            stages = cpu_s
            edge = max(payload, 1)
        stats = yield from sys.stream(fd, payload, stages, edge)
        yield from sys.close(fd)
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
    return cpu_s, stats, names


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
        process.add_thread(thread)
        adopted.append(thread)
    return adopted
