"""The checkpoint manager thread and the 7-stage protocol (Section 4.3).

One manager thread lives in every checkpointed process.  It connects to
the coordinator, parks at the wait-for-checkpoint pseudo-barrier, and on
request executes, with six cluster-wide barriers:

  1 normal execution -> 2 suspend user threads -> 3 elect shared-FD
  leaders (the F_SETOWN trick) -> 4 drain kernel buffers (token flush +
  peer handshakes) -> 5 write checkpoint to disk -> 6 refill kernel
  buffers (send drained data back; sender re-sends) -> 7 resume.

User memory cannot change between Barrier 2 and stage 7, so the image's
payload starts streaming when Barrier 2 releases, beside stages 3-4;
stage 5 proper is the header, which needs the drain, and the commit
(see ``_checkpoint_stages``).

On restart the recreated manager rejoins at Barrier 5 ("the user process
will resume at Barrier 5 of the checkpoint algorithm", Section 4.4) and
replays stages 6-7.

A ``StageClock`` owns the open stage (error paths call ``clock.close()``)
and every thread a stage starts is a ``HelperGroup`` member
(core/helpers.py), whose error is re-raised at the join.  The
straight-line code below is the stage graph.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core import protocol as P
from repro.core.helpers import HelperGroup
from repro.core.imagefile import CheckpointImage, conn_key
from repro.core.stats import CheckpointRecord, StageClock
from repro.errors import CheckpointAborted, SyscallError
from repro.obs.tracer import proc_track
from repro.kernel.streams import CTRL_DRAIN_TOKEN, FrameAssembler
from repro.kernel.syscalls import Sys, connect_retry, recv_frame, send_frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.hijack import DmtcpRuntime

REFILL_TAG = "dmtcp-refill"


# ----------------------------------------------------------------------
# Coordinator channel helpers
# ----------------------------------------------------------------------

def coord_send(sys: Sys, fd: int, message: dict):
    """Send one control frame to the coordinator."""
    yield from send_frame(sys, fd, message, P.CTL_FRAME_BYTES)


def coord_recv(sys: Sys, fd: int, asm: FrameAssembler, timeout: Optional[float] = None):
    """Receive one control message (None on disconnect)."""
    result = yield from recv_frame(sys, fd, asm, timeout=timeout)
    if result is None:
        return None
    return result[0]


def barrier(sys: Sys, fd: int, asm: FrameAssembler, name: str, timeout: Optional[float] = None, **report):
    """Arrive at a cluster-wide barrier and wait for its release.

    ``report`` rides the arrival frame (the Barrier-6 arrival carries
    the member's done report).  With supervision on, ``timeout`` bounds
    the wait for the release frame; a coordinator-sent abort or a
    timeout raises CheckpointAborted so the caller can roll the process
    back to RUNNING instead of hanging forever on a dead peer's quorum
    slot.
    """
    yield from coord_send(sys, fd, P.msg(P.MSG_BARRIER, name=name, **report))
    while True:
        try:
            message = yield from coord_recv(sys, fd, asm, timeout=timeout)
        except SyscallError as err:
            if err.errno == "ETIMEDOUT":
                raise CheckpointAborted(
                    f"barrier {name!r}: no release within {timeout}s"
                )
            raise
        if message is None:
            raise SyscallError("ECONNRESET", "coordinator vanished at barrier")
        if message["kind"] == P.MSG_CKPT_ABORT:
            exc = CheckpointAborted(
                message.get("reason", "coordinator aborted the checkpoint")
            )
            exc.from_coordinator = True
            raise exc
        if message["kind"] == P.MSG_BARRIER_RELEASE and message["name"] == name:
            return


# ----------------------------------------------------------------------
# Manager thread
# ----------------------------------------------------------------------

def manager_main(runtime: "DmtcpRuntime", restart_image: Optional[CheckpointImage] = None, restart_clock: Optional[StageClock] = None, refill_returns: Optional[HelperGroup] = None):
    """Body of the checkpoint manager thread (kind="manager").

    Uses the *raw* Sys: the real manager calls straight into libc,
    bypassing its own wrappers, and its coordinator socket never appears
    in the connection table.  A restored process's manager finishes its
    restart's ``restart_clock`` and send-backs (``refill_returns``).
    """
    sys = Sys()
    process = runtime.process
    env = process.env
    host = env["DMTCP_COORD_HOST"]
    port = int(env["DMTCP_COORD_PORT"])
    # propagation-tree mode: the whole coordinator channel goes through
    # the node-local gateway, which aggregates barriers and forwards
    # every other verb -- the root never sees per-process connections
    tree_port = env.get("DMTCP_TREE_PORT")
    if tree_port:
        host, port = process.node.hostname, int(tree_port)
    fd = yield from sys.socket()
    yield from connect_retry(sys, fd, host, port)
    # close-on-exec: an exec'ing process drops its membership and the
    # re-injected library's fresh manager re-registers
    yield from sys.fcntl(fd, "F_SETFD_CLOEXEC", 1)
    runtime.coord_fd = fd
    asm = FrameAssembler()
    hello = P.msg(
        P.MSG_HELLO,
        host=process.node.hostname,
        vpid=runtime.vpid,
        program=process.program,
        restart=restart_image is not None,
    )
    # service mode: the first message on a hub connection binds it to a
    # tenant; single-tenant frames stay byte-for-byte what they were
    tenant = env.get("DMTCP_TENANT")
    if tenant:
        hello["tenant"] = tenant
    supervise = env.get("DMTCP_SUPERVISE") == "1"
    timeout = runtime.world.spec.dmtcp.member_recv_timeout_s if supervise else None
    if restart_image is not None:
        try:
            yield from coord_send(sys, fd, hello)
            yield from _rejoin_after_restart(sys, runtime, fd, asm, timeout, restart_image, restart_clock, refill_returns)
        except (SyscallError, CheckpointAborted):
            # the coordinator or a peer died mid-restart (even between our
            # connect and our hello): this attempt is void; exit so the
            # supervisor can retry the whole gang from the images
            restart_clock.close()
            yield from sys.exit(1)
    else:
        yield from coord_send(sys, fd, hello)

    while True:
        try:
            message = yield from coord_recv(sys, fd, asm, timeout=timeout)
        except SyscallError as err:
            if err.errno == "ETIMEDOUT":
                # quiet channel: probe the coordinator before declaring
                # it dead (a healthy one just has nothing to say)
                try:
                    yield from coord_send(sys, fd, P.msg(P.MSG_PING))
                    continue
                except SyscallError:
                    pass
            if not supervise:
                raise
            reconnected = yield from _reconnect_coordinator(sys, runtime)
            if reconnected is None:
                return  # coordinator never came back; give up
            fd, asm = reconnected
            continue
        if message is None:
            if supervise:
                reconnected = yield from _reconnect_coordinator(sys, runtime)
                if reconnected is None:
                    return
                fd, asm = reconnected
                continue
            return  # coordinator gone; computation is over
        if message["kind"] == P.MSG_CHECKPOINT:
            ok = yield from run_checkpoint(sys, runtime, fd, asm, message)
            if ok and message.get("kill"):
                runtime.computation.retire_checkpointed_process(process)
                return
        elif message["kind"] == "die":
            # `dmtcp command --kill`: exit without checkpointing
            yield from sys.exit(0)
        # anything else (stale abort frames, pings) is ignored here


def _reconnect_coordinator(sys: Sys, runtime: "DmtcpRuntime"):
    """Supervised mode: the coordinator died; wait for its replacement.

    Retries on the shared :class:`repro.resilience.RetryPolicy` schedule
    -- capped exponential backoff with jitter seeded by this member's
    identity, so a large gang of orphaned managers neither stampedes the
    fresh coordinator in lockstep nor replays differently across
    same-seed runs.  On success the member re-registers with
    MSG_REREGISTER carrying its restart generation and checkpoint
    lineage, letting the stateless replacement rebuild membership and id
    space purely from its members (DESIGN.md section 15).  Returns the
    new (fd, assembler) pair, or None when every attempt failed -- the
    terminal give-up also lands in the world's FailureLog.
    """
    from repro.resilience import log_retry_exhausted, policy_from_spec

    process = runtime.process
    env = process.env
    spec = runtime.world.spec.dmtcp
    host = env["DMTCP_COORD_HOST"]
    port = int(env["DMTCP_COORD_PORT"])
    tree_port = env.get("DMTCP_TREE_PORT")
    if tree_port:
        # tree mode: reattach to the local gateway (the supervisor
        # respawns a replacement on this node if it died)
        host, port = process.node.hostname, int(tree_port)
    old_fd = runtime.coord_fd
    if old_fd is not None:
        try:
            yield from sys.close(old_fd)
        except SyscallError:
            pass
    policy = policy_from_spec(spec)
    for delay in policy.delays(process.node.hostname, runtime.vpid, "reconnect"):
        yield from sys.sleep(delay)
        fd = yield from sys.socket()
        try:
            yield from sys.connect(fd, host, port)
        except SyscallError:
            try:
                yield from sys.close(fd)
            except SyscallError:
                pass
            continue
        yield from sys.fcntl(fd, "F_SETFD_CLOEXEC", 1)
        runtime.coord_fd = fd
        asm = FrameAssembler()
        reregister = P.msg(
            P.MSG_REREGISTER,
            host=process.node.hostname,
            vpid=runtime.vpid,
            program=process.program,
            restart=False,
            gen=runtime.restarts_done,
            ckpt_id=runtime.last_ckpt_id,
        )
        tenant = env.get("DMTCP_TENANT")
        if tenant:
            reregister["tenant"] = tenant
        yield from coord_send(sys, fd, reregister)
        runtime.world.tracer.count(
            "dmtcp.coordinator_reconnects", tenant=tenant or None
        )
        return fd, asm
    log_retry_exhausted(
        runtime.world,
        "coordinator-reconnect",
        f"{process.program}[{runtime.vpid}]",
        hostname=process.node.hostname,
    )
    return None


def run_checkpoint(sys: Sys, runtime: "DmtcpRuntime", fd: int, asm: FrameAssembler, message: dict):
    """Stages 2-7 of Figure 1, executed in every checkpointed process.

    Returns True when the checkpoint completed, False when it was
    aborted and rolled back (supervised mode only -- without
    supervision any failure propagates as before).
    """
    process = runtime.process
    world = runtime.world
    tracer = world.tracer
    tenant = process.env.get("DMTCP_TENANT") or None
    track = proc_track(process.node.hostname, process.program, runtime.vpid, tenant)
    clock = StageClock(tracer, track, cat="ckpt", tenant=tenant)
    ckpt_id = message["ckpt_id"]
    runtime.in_checkpoint = True
    tracer.count("dmtcp.checkpoints_started", tenant=tenant)
    _fire_hook(runtime, "pre-checkpoint", ckpt_id=ckpt_id)
    supervise = process.env.get("DMTCP_SUPERVISE") == "1"
    timeout = world.spec.dmtcp.member_recv_timeout_s if supervise else None
    # rollback bookkeeping: which irreversible steps have already run
    # (the open stage is the clock's)
    ctx: dict = {"suspended": False, "drained": {}, "writer": None, "refill_done": False}
    try:
        yield from _checkpoint_stages(
            sys, runtime, fd, asm, message, clock, ctx, timeout
        )
        return True
    except (SyscallError, CheckpointAborted) as err:
        if not supervise:
            raise
        yield from _rollback_checkpoint(sys, runtime, fd, clock, ctx, err)
        return False


def _checkpoint_stages(
    sys: Sys,
    runtime: "DmtcpRuntime",
    fd: int,
    asm: FrameAssembler,
    message: dict,
    clock: StageClock,
    ctx: dict,
    timeout: Optional[float],
):
    """The stages of one checkpoint, in the paper's order -- except that
    the image write does not wait for the drain.

    User memory is frozen from the release of ``BARRIER_SUSPENDED`` to
    stage 7 (the barrier is global, user threads stay suspended), and
    all stages 3-4 can still change is what the image *header* holds:
    the manager's drain buffers, the ``peer_dead`` flags, the connection
    table.  So the image is planned and its payload starts streaming at
    Barrier 2, on a manager-kind thread beside the election and the
    drain (:class:`repro.core.mtcp.ImageWriter`); after
    ``BARRIER_DRAINED`` the manager seals the header, joins the payload,
    puts the header in front and commits the file, then arrives at
    Barrier 5.  A checkpoint costs ``suspend + max(elect + drain,
    payload) + header`` instead of their sum.  Forked checkpointing
    forks after the drain: the COW snapshot must contain the drained
    buffers, and its write is off the critical path anyway.

    ``stages["write"]`` stays Barrier 4 -> Barrier 5, what the
    computation waits for; the record's ``write_hidden_s`` is the part
    of the write that ran under stages 3-4.
    """
    from repro.core import mtcp

    process = runtime.process
    world = runtime.world
    tracer = world.tracer
    ckpt_id = message["ckpt_id"]
    forked = bool(message.get("forked"))

    # ---- stage 2: suspend user threads --------------------------------
    clock.begin("suspend")
    while runtime.delay_count > 0:  # dmtcpaware critical section
        yield from sys.sleep(0.001)
    yield from sys.suspend_threads()
    ctx["suspended"] = True
    # external (non-DMTCP) peers cannot participate in drain/restore:
    # their connections are closed now; the peers reconnect afterwards
    # (the TightVNC/vncviewer pattern, Section 5.1)
    for sfd, info in list(runtime.conn_table.items()):
        if info.external and not info.listener:
            try:
                yield from runtime.sys.close(sfd)  # wrapped: drops the entry
            except SyscallError:
                pass
    runtime.saved_owners = {}
    for sfd in runtime.socket_fds():
        try:
            runtime.saved_owners[sfd] = yield from sys.fcntl(sfd, "F_GETOWN")
        except SyscallError:
            continue  # fd closed since recorded
    yield from barrier(sys, fd, asm, P.BARRIER_SUSPENDED, timeout)
    clock.end("suspend")
    # from here until Barrier 5 a partial image may exist: rollback owns it
    ctx["writer"] = writer = mtcp.ImageWriter(runtime, ckpt_id)
    if not forked:
        writer.start()

    # ---- stage 3: elect shared-FD leaders ------------------------------
    clock.begin("elect")
    yield from _set_owners(sys, dict.fromkeys(runtime.socket_fds(), process.pid))
    yield from barrier(sys, fd, asm, P.BARRIER_ELECTED, timeout)
    clock.end("elect")

    # ---- stage 4: drain kernel buffers ---------------------------------
    clock.begin("drain")
    led = yield from _led_endpoints(sys, runtime)
    drained: dict[int, list] = ctx["drained"]
    yield from _drain_all(runtime, led, drained, timeout)
    # one more poll round verifies no data trickled in after the tokens
    yield from sys.sleep(world.spec.dmtcp.drain_poll_s)
    # "The connection information table is then written to disk."
    table_fd = yield from sys.open(
        f"{process.env.get('DMTCP_CKPT_DIR', '/tmp/dmtcp')}/"
        f"conn_{process.node.hostname}-{runtime.vpid}.tbl",
        "w",
    )
    yield from sys.write(
        table_fd, 256 * max(len(runtime.conn_table), 1), payload=None
    )
    yield from sys.close(table_fd)
    yield from barrier(sys, fd, asm, P.BARRIER_DRAINED, timeout)
    clock.end("drain")

    # ---- stage 5: seal the header, commit the image ----------------------
    clock.begin("write")
    writer.seal(drained)
    if forked:
        # forked checkpointing: a COW child compresses and writes in the
        # background while the parent rejoins the barrier immediately
        def _writer_child(child_sys):
            yield from writer.write(child_sys)
            yield from child_sys.exit(0)

        yield from sys.fork(_writer_child)
    else:
        yield from writer.finish(sys)
    yield from barrier(sys, fd, asm, P.BARRIER_CHECKPOINTED, timeout)
    # every member has finished its write: the on-disk set is globally
    # consistent, so even if a later stage aborts the image must survive
    ctx["writer"] = None
    image = writer.image
    if mtcp.store_enabled(process.env):
        # every process has finished writing (Barrier 5 released) and user
        # threads stay suspended until stage 7, so clearing dirty bits --
        # including on regions shared with sibling processes -- cannot race
        # with a write that the image missed
        for region in process.address_space.regions:
            region.clean()
    clock.end("write")

    # ---- stage 6: refill kernel buffers ---------------------------------
    refill_began = clock.begin("refill")
    if not message.get("kill"):
        alive = [
            sfd for sfd in led
            if sfd in process.fds and not mtcp.endpoint_dead(process.get_fd(sfd))
        ]
        yield from _refill_all(runtime, return_drained(world, process, alive, drained), timeout)
        # a dead peer re-sends nothing: what its endpoint held goes back
        _requeue_drained(process, {sfd: drained.get(sfd) for sfd in led if sfd not in alive})
        # the peers' re-sends have landed in our rx buffers: rolling back
        # now must NOT requeue the drained data a second time
        ctx["refill_done"] = True
    # a --kill checkpoint's processes retire and never read these buffers
    # again (the drained bytes live in the image header), so they refill
    # nothing; a rollback still requeues every drained byte exactly once
    record = CheckpointRecord(
        ckpt_id=ckpt_id,
        hostname=process.node.hostname,
        vpid=runtime.vpid,
        program=process.program,
        stages=dict(clock.stages),
        image_bytes=image.image_bytes,
        stored_bytes=image.stored_bytes,
        compressed=image.compressed,
        write_hidden_s=writer.hidden_s,
        refill_began=refill_began,
    )
    # the done report rides the last arrival: when `refilled` releases
    # the coordinator holds every report, and the checkpoint is complete
    yield from barrier(
        sys, fd, asm, P.BARRIER_REFILLED, timeout, record=record, image_path=writer.path
    )
    clock.end("refill")

    # ---- stage 7: restore owners, resume user threads -------------------
    yield from _set_owners(sys, runtime.saved_owners)
    if not message.get("kill"):
        yield from sys.resume_threads()
    runtime.in_checkpoint = False
    runtime.checkpoints_done += 1
    runtime.last_ckpt_id = ckpt_id
    tracer.count("dmtcp.checkpoints_done", tenant=clock.tenant)
    _fire_hook(runtime, "post-checkpoint", ckpt_id=ckpt_id)


def _rollback_checkpoint(sys: Sys, runtime: "DmtcpRuntime", fd: int, clock: StageClock, ctx: dict, err: Exception):
    """Abort path: undo the finished stages and return to RUNNING.

    The checkpoint attempt dies; the computation survives.  Drained but
    not-yet-refilled socket data is pushed back onto the *front* of each
    receive buffer so the application still sees every byte exactly
    once, in order.  From Barrier 2 on a partial image may exist and
    its payload may still be streaming: the writer is stopped first, its
    descriptors closed, then what it made is unlinked
    (:meth:`repro.core.mtcp.ImageWriter.abort`).  A fully written
    (post-Barrier-5) image is kept: every member committed its own, so
    the set is a restorable checkpoint.
    """
    process = runtime.process
    tracer = runtime.world.tracer
    clock.close()
    if not ctx.get("refill_done"):
        _requeue_drained(process, ctx.get("drained", {}))
    writer = ctx.get("writer")
    if writer is not None:
        yield from writer.abort(sys)
    yield from _set_owners(sys, runtime.saved_owners)
    if ctx.get("suspended"):
        yield from sys.resume_threads()
    runtime.in_checkpoint = False
    tracer.count("dmtcp.checkpoints_aborted", tenant=clock.tenant)
    if not getattr(err, "from_coordinator", False):
        # local failure (ENOSPC, drain timeout): tell the coordinator so
        # it aborts the other members too; best-effort, it may be dead
        try:
            yield from coord_send(
                sys, fd, P.msg(P.MSG_CKPT_FAILED, reason=str(err))
            )
        except SyscallError:
            pass
    _fire_hook(runtime, "checkpoint-aborted", reason=str(err))


def _rejoin_after_restart(sys: Sys, runtime: "DmtcpRuntime", fd: int, asm: FrameAssembler, timeout: Optional[float], image: CheckpointImage, clock: StageClock, returns: HelperGroup):
    """Restart steps 5-7 (Figure 2): rejoin at Barrier 5, refill, resume."""
    yield from barrier(sys, fd, asm, "restart-" + P.BARRIER_CHECKPOINTED, timeout)
    clock.begin("refill")
    # the drained bytes went back while memory streamed in (the restored
    # child started the returns): only the re-sends are left
    yield from _refill_all(runtime, returns, timeout)
    yield from barrier(sys, fd, asm, "restart-" + P.BARRIER_REFILLED, timeout)
    yield from _set_owners(sys, {
        f.fd: f.owner_vpid for f in image.fds if f.conn_key is not None and f.owner_vpid
    })
    yield from sys.resume_threads()
    clock.end("refill")
    record = {
        "host": runtime.process.node.hostname,
        "vpid": runtime.vpid,
        "program": runtime.process.program,
        "stages": dict(clock.stages),
    }
    # a restart is complete only once threads resume: its report follows
    yield from coord_send(sys, fd, P.msg(P.MSG_RESTART_DONE, record=record))
    runtime.restarts_done += 1
    runtime.last_ckpt_id = image.ckpt_id
    runtime.world.tracer.count("dmtcp.restarts_done", tenant=clock.tenant)
    _fire_hook(runtime, "post-restart", ckpt_id=image.ckpt_id)


# ----------------------------------------------------------------------
# Drain / refill internals
# ----------------------------------------------------------------------

def _led_endpoints(sys: Sys, runtime: "DmtcpRuntime"):
    """Endpoints this process won the F_SETOWN election for."""
    from repro.kernel.sockets import SocketEndpoint

    process = runtime.process
    led = []
    for sfd in runtime.socket_fds():
        info = runtime.conn_table.get(sfd)
        if info is None or info.listener:
            continue
        entry = process.fds.get(sfd)
        if entry is None or not isinstance(entry.description, SocketEndpoint):
            continue
        ep = entry.description
        if not ep.connected:
            continue
        owner = yield from sys.fcntl(sfd, "F_GETOWN")
        if owner == process.pid:
            led.append(sfd)
    return led


def _drain_all(runtime: "DmtcpRuntime", led: list[int], out: dict, timeout: Optional[float]):
    """Stage 4: drain every led endpoint at once (:func:`_drain_endpoint`)."""
    drains = HelperGroup(runtime.world, runtime.process)
    for sfd in led:
        drains.spawn(sfd, _drain_endpoint(Sys(), runtime, sfd, out, timeout), f"drain-fd{sfd}")
    yield from drains.join()


def _drain_endpoint(sys: Sys, runtime: "DmtcpRuntime", sfd: int, out: dict, timeout: Optional[float] = None):
    """Stage 4 for one endpoint: flush with a token, then drain to it.

    ``timeout`` (supervised mode) bounds each recv so a silently-crashed
    peer -- which will never send its token -- cannot park this thread
    forever; the partial drain is recorded and the barrier layer decides
    the checkpoint's fate.
    """
    spec = runtime.world.spec.dmtcp
    process = runtime.process
    ep = process.get_fd(sfd).peer  # is the peer side still open?
    try:
        yield from sys.send(sfd, spec.drain_token_bytes, ctrl=CTRL_DRAIN_TOKEN)
    except SyscallError:
        pass  # peer already gone; drain whatever remains
    chunks = []
    saw_token = False
    while True:
        try:
            chunk = yield from sys.recv(sfd, timeout=timeout)
        except SyscallError:
            break  # timed out waiting on a dead peer; keep the partial drain
        if chunk is None:  # EOF: peer closed before checkpoint
            break
        if chunk.ctrl == CTRL_DRAIN_TOKEN:
            saw_token = True
            break
        chunks.append(chunk)
    if saw_token:
        # "DMTCP then performs handshakes with all socket peers to
        # discover the globally unique ID of the remote side" -- the
        # channel is quiescent now, so one info exchange each way
        info = runtime.conn_table.get(sfd)
        key = conn_key(info.conn_id) if info and info.conn_id else None
        try:
            yield from sys.send(sfd, 64, data=("dmtcp-peer-info", key), ctrl="dmtcp-peer-info")
            peer_info = yield from sys.recv(sfd, timeout=timeout)
            assert peer_info is None or peer_info.ctrl == "dmtcp-peer-info"
        except SyscallError:
            pass
    tracer = runtime.world.tracer
    if tracer.enabled:
        tenant = process.env.get("DMTCP_TENANT") or None
        tracer.count("dmtcp.drained_chunks", len(chunks), tenant=tenant)
        tracer.count("dmtcp.drained_bytes", sum(c.nbytes for c in chunks), tenant=tenant)
    out[sfd] = chunks


def _requeue_drained(process, drained: dict[int, list]) -> None:
    """Put drained chunks back at the front of the buffers they came out
    of, so the application still sees every byte exactly once, in order."""
    for sfd, chunks in drained.items():
        entry = process.fds.get(sfd)
        if entry is None or not chunks:
            continue
        rx = getattr(entry.description, "rx", None)
        if rx is not None:
            rx.requeue_front(chunks)


def return_drained(world, process, led: list[int], drained: dict[int, list]) -> HelperGroup:
    """Refill, first half: one helper per led endpoint sends its drained
    data back to the sender (Section 4.3 step 6: "DMTCP then sends the
    drained socket buffer data back to the sender"), keyed by fd, for
    :func:`_refill_all`."""
    returns = HelperGroup(world, process)
    for sfd in led:
        chunks = drained.get(sfd, [])
        frame_bytes = P.CTL_FRAME_BYTES + sum(c.nbytes for c in chunks)
        returns.spawn(sfd, send_frame(Sys(), sfd, (REFILL_TAG, chunks), frame_bytes), f"refill-return-fd{sfd}")
    return returns


def _refill_all(runtime: "DmtcpRuntime", returns: HelperGroup, timeout: Optional[float] = None):
    """Refill, second half: per endpoint, take the peer's frame and
    re-send it (:func:`_refill_endpoint`); join them all."""
    tracer = runtime.world.tracer
    tenant = runtime.process.env.get("DMTCP_TENANT") or None
    resends = HelperGroup(runtime.world, runtime.process)
    for sfd in returns.tasks:
        resends.spawn(sfd, _refill_endpoint(Sys(), sfd, returns, tracer, timeout, tenant), f"refill-fd{sfd}")
    yield from resends.join()


def _refill_endpoint(sys: Sys, sfd: int, returns: HelperGroup, tracer, timeout: Optional[float], tenant):
    """Re-send what the peer drained: "The sender refills the kernel
    socket buffers by resending the data."

    The peer's frame is taken *before* our own return (member ``sfd`` of
    ``returns``, from :func:`return_drained`) is joined: when both sides
    drained more than a socket buffer holds, each return completes only
    as the other side reads it.  The re-sends go out after the join,
    behind our frame.
    """
    asm = FrameAssembler()
    try:
        result = yield from recv_frame(sys, sfd, asm, timeout=timeout)
    except SyscallError:
        result = None  # dead peer will never send its refill frame
    try:
        yield from returns.wait(sfd)
    except SyscallError:
        result = None  # peer vanished between drain and refill
    if result is None:
        return  # the peer is gone, or closed before checkpoint
    (tag, peer_chunks), _size = result
    assert tag == REFILL_TAG, f"unexpected frame during refill: {tag}"
    if tracer.enabled:
        tracer.count("dmtcp.refilled_chunks", len(peer_chunks), tenant=tenant)
        tracer.count("dmtcp.refilled_bytes", sum(c.nbytes for c in peer_chunks), tenant=tenant)
    for chunk in peer_chunks:
        # force: the refilled volume is bounded by what the channel held
        # at suspend time (recv queue + send queue + wire), which the
        # model accounts against the receive queue alone
        yield from sys.send_chunk(sfd, chunk, force=True)


def _set_owners(sys: Sys, owners: dict[int, int]):
    """F_SETOWN each fd to its owner; an fd closed since is skipped."""
    for sfd, owner in owners.items():
        try:
            yield from sys.fcntl(sfd, "F_SETOWN", owner)
        except SyscallError:
            continue


def _fire_hook(runtime: "DmtcpRuntime", name: str, **event) -> None:
    hook = runtime.hooks.get(name)
    if hook is not None:
        hook(dict(event))
