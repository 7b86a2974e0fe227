"""dmtcp_restart: the unified per-host restart process (Section 4.4).

One restart process per host executes Figure 2's steps:

0. read every image's header, all images at once (one reader thread
   per image; the payloads stay on storage for the children);
1. reopen files and recreate ptys (and re-bind listener sockets);
2. recreate and reconnect sockets, using the coordinator's discovery
   service to find the new address of each peer's restart process --
   acceptors advertise their restore listener, connectors dial it and
   the two sides handshake on the globally unique connection ID.  The
   restarter sleeps until the next advertisement or accepted
   re-connection, never on a timer;
3. fork into the N user processes (this ordering is what lets sockets
   shared between processes be shared again -- descriptions created
   before fork are inherited); a fork takes its image only once its pid
   is known, the image whose vpid that pid is if there is one, so a
   fresh pid space forks no child it has to kill;
4. each child rearranges file descriptors with dup2/close as soon as it
   is forked;
5. MTCP restores memory and threads -- each child streams its own
   payload while its siblings are still being forked, and only then
   waits for the host-wide pid map; the process rejoins the checkpoint
   algorithm at Barrier 5;
6. kernel buffers are refilled: each child sends its drained bytes
   back to their senders as soon as its descriptors are in place, under
   its own memory restore; after Barrier 5 the manager takes the peers'
   frames and re-sends them (manager.py);
7. user threads resume.

As in a checkpoint, a ``StageClock`` owns the open step (the restarter's
clock hands its times on to each child's) and every thread a step starts
is a ``HelperGroup`` member (core/helpers.py): joined in spawn order,
its error re-raised at the join.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core import mtcp
from repro.core import protocol as P
from repro.core.helpers import HelperGroup
from repro.core.manager import manager_main, return_drained
from repro.core.stats import StageClock
from repro.errors import SyscallError
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import Sys, connect_retry, recv_frame, send_frame
from repro.obs.tracer import proc_track
from repro.sim.tasks import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.launch import DmtcpComputation

RESTORE_TAG = "dmtcp-restore"
_TEMP_FD_BASE = 100_000


def _endpoint_key(f) -> tuple:
    """Restored-description identity for one FdImage."""
    if f.kind == "file":
        return ("file", f.desc_key)
    if f.kind == "listener":
        return ("listener", f.desc_key)
    if f.kind == "pty":
        return ("pty", f.pty_name, f.pty_side)
    role = "accept" if f.role == "accept" else "connect"
    if f.role in ("pair-a", "pair-b", "pipe-r", "pipe-w"):
        role = f.role
    return ("ep", f.conn_key, role)


def make_restart_program(computation: "DmtcpComputation"):
    """Build the dmtcp_restart program (registered with the world)."""

    def dmtcp_restart_main(sys: Sys, argv):
        """argv: dmtcp_restart [--validate] <total_processes> <image_path>...

        ``--validate`` (the supervised path) verifies each image's
        checksummed manifest before resuming from it.
        """
        world = computation.world
        tracer = world.tracer
        validate = "--validate" in argv
        args = [a for a in argv[1:] if not a.startswith("--")]
        total = int(args[0])
        paths = args[1:]
        my_host = yield from sys.gethostname()
        my_pid = yield from sys.getpid()
        my_proc = world.find_process(my_host, my_pid)
        # pid-qualified: relocation can land several restarters on a host
        clock = StageClock(tracer, f"{my_host}/restart[{my_pid}]", cat="restart")
        t0 = yield from sys.time()

        # -- coordinator / discovery connection ---------------------------
        coord_host = yield from sys.getenv("DMTCP_COORD_HOST")
        coord_port = int((yield from sys.getenv("DMTCP_COORD_PORT")))
        cfd = yield from sys.socket()
        yield from connect_retry(sys, cfd, coord_host, coord_port)
        coord_asm = FrameAssembler()
        hello = P.msg(P.MSG_RESTART_HELLO, host=my_host, total=total, t0=t0)
        # service mode: the first message on a hub connection binds it to
        # a tenant; single-tenant frames stay byte-for-byte what they were
        tenant = yield from sys.getenv("DMTCP_TENANT")
        if tenant:
            hello["tenant"] = tenant
        yield from send_frame(sys, cfd, hello, P.CTL_FRAME_BYTES)

        # ---- step 0: header pass -- payloads stay on storage -------------
        # Every open is a fixed latency that no other work waits on, so
        # each image gets its own reader.  The span is MTCP image I/O (cat
        # "mtcp", like ``mtcp.write``: the ledger's declared stage rows
        # are the cat "restart" spans); the stage reaches every restored
        # process's record through the clock's ``stages``.
        clock.begin("image_read", cat="mtcp")
        readers = HelperGroup(world, my_proc)
        for i, path in enumerate(paths):
            readers.spawn(
                i, mtcp.read_image(Sys(), world, my_proc, path, validate), f"restore-read-{i}"
            )
        try:
            headers = yield from readers.join()
        except SyscallError:
            # e.g. a --validate checksum mismatch: fail before any fork
            clock.close()
            raise
        images = [image for image, _fd, _n in headers]
        image_fds = [fd for _image, fd, _n in headers]  # None for a store manifest
        clock.end("image_read", n=len(paths), bytes=sum(n for _image, _fd, n in headers))

        # ---- step 1: reopen files, recreate ptys, re-bind listeners ------
        clock.begin("restore_files")
        desc_fd: dict[tuple, int] = {}
        pty_rename: dict[str, str] = {}
        for image in images:
            for f in image.fds:
                key = _endpoint_key(f)
                if key in desc_fd:
                    continue
                if f.kind == "file":
                    fd = yield from sys.open(f.path, f.flags if f.flags != "w" else "rw")
                    yield from sys.lseek(fd, f.offset)
                    desc_fd[key] = fd
                elif f.kind == "listener":
                    # the cluster-wide port claim happens at listen(), so
                    # the EADDRINUSE guard must cover both calls
                    lfd = yield from sys.socket()
                    try:
                        yield from sys.bind(lfd, f.bound_port or 0, f.bound_path)
                        yield from sys.listen(lfd)
                    except SyscallError as err:
                        if err.errno != "EADDRINUSE":
                            raise
                        yield from sys.close(lfd)
                        lfd = yield from sys.socket()
                        yield from sys.bind(lfd, 0)  # relocated: take a new port
                        yield from sys.listen(lfd)
                    desc_fd[key] = lfd
                elif f.kind == "pty" and ("pty", f.pty_name, "master") not in desc_fd:
                    mfd, sfd = yield from sys.openpty()
                    new_name = yield from sys.ptsname(sfd)
                    pty_rename[f.pty_name] = new_name
                    if f.termios:
                        yield from sys.tcsetattr(sfd, f.termios)
                    desc_fd[("pty", f.pty_name, "master")] = mfd
                    desc_fd[("pty", f.pty_name, "slave")] = sfd
        clock.end("restore_files")

        # ---- step 2: recreate and reconnect sockets ----------------------
        clock.begin("reconnect")
        # socketpairs and promoted pipes: both ends live on this host
        pair_keys_done = set()
        need_accept: set[str] = set()
        need_connect: set[str] = set()
        for image in images:
            for f in image.fds:
                if f.kind != "socket":
                    continue
                info = image.connections.get(f.conn_key)
                domain = info.domain if info else "inet"
                if domain in ("pair", "pipe"):
                    if f.conn_key not in pair_keys_done:
                        a, b = yield from sys.socketpair()
                        first, second = (
                            ("pair-a", "pair-b") if domain == "pair" else ("pipe-r", "pipe-w")
                        )
                        desc_fd[("ep", f.conn_key, first)] = a
                        desc_fd[("ep", f.conn_key, second)] = b
                        pair_keys_done.add(f.conn_key)
                elif f.peer_dead:
                    # the remote side was already gone at checkpoint time:
                    # restore a half-open socket delivering the drained
                    # residue and then EOF, exactly what the app would see
                    key = _endpoint_key(f)
                    if key not in desc_fd:
                        a, b = yield from sys.socketpair()
                        ep = my_proc.get_fd(a)
                        for chunk in image.drained.get(f.fd, []):
                            ep.rx.push(chunk)
                        yield from sys.close(b)
                        desc_fd[key] = a
                elif f.role == "accept":
                    need_accept.add(f.conn_key)
                else:
                    need_connect.add(f.conn_key)

        # restore listener for incoming re-connections
        rlfd = yield from sys.socket()
        rl_addr = yield from sys.bind(rlfd, 0)
        yield from sys.listen(rlfd, backlog=1024)
        for key in sorted(need_accept):
            yield from send_frame(
                sys,
                cfd,
                P.msg(P.MSG_ADVERTISE, key=key, host=my_host, port=rl_addr[1]),
                P.CTL_FRAME_BYTES,
            )
        # the acceptor and the advertisement reader record what they
        # discover here and settle the restarter's pending wake
        pending = set(need_connect)
        discovery = {"accepted": 0, "pending": pending, "wake": None}
        if need_accept:
            world.spawn_thread(
                my_proc,
                _restore_acceptor(Sys(), rlfd, len(need_accept), desc_fd, discovery),
                "restore-acceptor",
                kind="manager",
            )
        # A reader thread drains the coordinator connection for the whole
        # restart: the coordinator broadcasts every advertisement to every
        # restarter, and a restarter that stops reading would wedge the
        # coordinator's writers (and with them the restart barriers).
        adverts: dict[str, tuple] = {}
        world.spawn_thread(
            my_proc,
            _advert_reader(Sys(), cfd, coord_asm, adverts, discovery),
            "restore-advert-reader",
            kind="manager",
        )
        # dial out as advertisements arrive (Section 4.4: asynchronous
        # "until all sockets are restored"; both sides may have moved)
        connectors = HelperGroup(world, my_proc)
        while True:
            for key in sorted(pending & adverts.keys()):
                pending.discard(key)
                host, port = adverts[key]
                connector = _restore_connector(Sys(), key, host, port, desc_fd)
                connectors.spawn(key, connector, f"restore-connect-{key[-8:]}")
            if not pending:
                break
            yield from _next_discovery(discovery)
        yield from connectors.join()
        while discovery["accepted"] < len(need_accept):
            yield from _next_discovery(discovery)
        clock.end("reconnect", accepted=len(need_accept), connected=len(need_connect))

        # ---- step 3: fork into user processes ---------------------------
        # A fork learns its pid before it takes an image (Section 4.5): the
        # unplaced image whose vpid is that pid takes it (real pid ==
        # vpid), a pid that is no vpid of this plan takes the next unplaced
        # image in plan order, and only a pid that is another placed or
        # known vpid is a conflict, killed and re-forked.  On a fresh pid
        # space (a spare host, a container) nothing is forked to be killed.
        # Each child starts restoring the moment its gate resolves; only
        # the host-wide pid map waits for the last fork.
        all_vpids = set()
        for image in images:
            all_vpids.update(image.pid_map.keys())
        unplaced = list(zip(images, image_fds))  # plan order
        children = []
        restore_ctx = {
            "vpid_map": {}, "all_forked": Future("all-forked"), "pty_rename": pty_rename,
        }
        while unplaced:
            gate = Future("restore-gate")
            pid = yield from sys.fork(
                _restore_child, computation, clock.stages, gate, restore_ctx
            )
            tracer.count("restart.forks")
            slot = next((k for k, (image, _fd) in enumerate(unplaced) if image.vpid == pid), None)
            if slot is None and pid not in all_vpids:
                slot = 0
            if slot is None:
                # virtual-pid conflict (Section 4.5): kill and re-fork
                tracer.count("restart.doomed_forks")
                gate.resolve(None)
                try:
                    yield from sys.waitpid(pid)
                except SyscallError:
                    pass
                continue
            image, image_fd = unplaced.pop(slot)
            fdmap = {f.fd: (desc_fd[_endpoint_key(f)], f.cloexec) for f in image.fds}
            gate.resolve((image, fdmap, image_fd))
            children.append((image, pid))
            restore_ctx["vpid_map"][image.vpid] = pid
        # every restored process learns the new real pid of every restored
        # vpid on this host, so kill/waitpid by virtual pid keep working
        restore_ctx["all_forked"].resolve(None)

        # restore parent-child relationships among restored processes
        by_vpid = {
            image.vpid: world.find_process(my_host, pid) for image, pid in children
        }
        for image, pid in children:
            if image.parent_vpid and image.parent_vpid in by_vpid:
                child_proc = world.find_process(my_host, pid)
                parent_proc = by_vpid[image.parent_vpid]
                if child_proc is not None and parent_proc is not None:
                    if my_proc is not None and child_proc in my_proc.children:
                        my_proc.children.remove(child_proc)
                    child_proc.parent = parent_proc
                    parent_proc.children.append(child_proc)
        # the restart process's work is done; children carry on (its exit
        # closes its fd copies, leaving the shared descriptions to them)
        return len(children)

    return dmtcp_restart_main


def _next_discovery(discovery: dict):
    """Sleep until the next pending advertisement or accepted re-connection.

    The caller re-checks what it waits for: a suspend/resume cycle can
    wake a raw future wait spuriously."""
    discovery["wake"] = wake = Future("restore-discovery")
    yield wake


def _discovered(discovery: dict) -> None:
    wake = discovery["wake"]
    if wake is not None and not wake.done:
        wake.resolve(None)


def _advert_reader(sys: Sys, cfd: int, asm: FrameAssembler, adverts: dict, discovery: dict):
    """Drain discovery broadcasts for the lifetime of the restart."""
    while True:
        message = yield from recv_frame(sys, cfd, asm)
        if message is None:
            return
        body = message[0]
        if body["kind"] == P.MSG_ADVERTISE_BCAST:
            adverts[body["key"]] = (body["host"], body["port"])
            # every restarter hears every advertisement; only one this
            # restarter still has to dial is worth a wake
            if body["key"] in discovery["pending"]:
                _discovered(discovery)
        elif body["kind"] == P.MSG_CKPT_ABORT:
            # the coordinator gave up on this restart (a peer restarter
            # died or stalled): exit now so half-restored descriptions --
            # in particular re-bound app listener ports -- are released
            # before the supervisor's next attempt
            yield from sys.exit(1)


def _restore_acceptor(sys: Sys, rlfd: int, expected: int, desc_fd: dict, discovery: dict):
    """Accept re-connections; the first chunk names the connection ID."""
    while discovery["accepted"] < expected:
        fd = yield from sys.accept(rlfd)
        chunk = yield from sys.recv(fd)
        tag, key = chunk.data
        assert tag == RESTORE_TAG, f"unexpected restore handshake {tag!r}"
        desc_fd[("ep", key, "accept")] = fd
        discovery["accepted"] += 1
        _discovered(discovery)


def _restore_connector(sys: Sys, key: str, host: str, port: int, desc_fd: dict):
    fd = yield from sys.socket()
    yield from connect_retry(sys, fd, host, port)
    yield from sys.send(fd, P.CTL_FRAME_BYTES, data=(RESTORE_TAG, key))
    desc_fd[("ep", key, "connect")] = fd


def _restore_child(sys: Sys, computation, stages: dict, gate: Future, restore_ctx: dict):
    """Child body: Figure 2 steps 4-5, then hand off to the manager.

    The child is forked before it has an image: ``gate`` resolves, once
    the restarter knows the child's pid, with ``(image, fdmap,
    image_fd)`` -- ``image_fd`` is the inherited descriptor of the
    child's own image, positioned past the header the restart process
    read (None for a store manifest) -- or with None for a child whose
    pid conflicts with a restored vpid.  ``stages`` are the restarter's
    stage times, which the child's clock carries on into its record.

    This frame lingers for the life of the restored process, so it lets
    go of the placement (and the gate that holds it) before it lingers:
    the image, the fd maps and the restore's clock die with the restore.
    """
    placed = yield gate  # wait for the restarter's placement only
    del gate
    if placed is None:
        return  # our real pid collided with a restored vpid; re-forked
    process, threads = yield from _restore_process(
        sys, computation, stages, restore_ctx, *placed
    )
    del placed
    # linger like MTCP's motherofall thread until the app finishes
    # (manager-kind from the hand-off on: checkpoints leave it waiting)
    yield from HelperGroup(computation.world, process, threads).join()


def _restore_process(
    sys: Sys, computation, stages: dict, restore_ctx: dict, image, fdmap: dict, image_fd
):
    """One restored user process (Figure 2 steps 4-5), up to starting its
    manager.  Returns ``(process, threads)``: the adopted user threads."""
    world = computation.world
    rpid = yield from sys.getpid()
    host = yield from sys.gethostname()
    process = world.find_process(host, rpid)
    (restorer,) = process.threads  # a forked child has only this thread

    # ---- step 4: rearrange FDs with dup2/close -----------------------
    temp_of = {}
    for i, (target_fd, (src_fd, _cloexec)) in enumerate(sorted(fdmap.items())):
        temp = _TEMP_FD_BASE + i
        yield from sys.dup2(src_fd, temp)
        temp_of[target_fd] = temp
    # the image itself moves out of the user's fd range the same way
    own_image = None
    if image_fd is not None:
        own_image = _TEMP_FD_BASE + len(fdmap)
        yield from sys.dup2(image_fd, own_image)
    # one sweep drops everything inherited from the restart process,
    # the siblings' images included: a close per fd would put every
    # image of the host on every child's critical path
    yield from sys.close_range(0, _TEMP_FD_BASE - 1)
    for target_fd, temp in sorted(temp_of.items()):
        yield from sys.dup2(temp, target_fd)
        yield from sys.close(temp)
        if fdmap[target_fd][1]:
            yield from sys.fcntl(target_fd, "F_SETFD_CLOEXEC", 1)

    # ---- step 6, first half: send the drained bytes back -------------
    # every peer socket was reconnected before the fork, so the return
    # trip runs under restore_memory; the manager's refill only takes
    # the peers' frames and re-sends them.  The span is MTCP's, on the
    # process's own MTCP track: it overlaps the stage spans
    tracer = world.tracer
    tenant = image.env.get("DMTCP_TENANT") or None
    dead_fds = {f.fd for f in image.fds if f.peer_dead}
    led = sorted(set(image.drained) - dead_fds)
    returns = return_drained(world, process, led, image.drained)
    if led:
        returns.open_span(
            proc_track(host, "mtcp", image.vpid, tenant), "refill_return", "mtcp",
            "refill-return-span", n=len(led),
            bytes=sum(c.nbytes for fd in led for c in image.drained[fd]),
        )

    # ---- step 5: restore memory and threads --------------------------
    clock = StageClock(tracer, proc_track(host, image.program, image.vpid, tenant), "restart", tenant)
    clock.stages.update(stages)
    clock.begin("restore_memory")
    cpu_s, stats, names = yield from mtcp.restore_memory(sys, world, process, image, own_image)
    threads = mtcp.adopt_threads(world, process, image)
    clock.end("restore_memory", **mtcp.stream_span_args(tracer, cpu_s, stats, names))
    tracer.count("restart.processes_restored")
    tracer.count("restart.threads_adopted", len(threads))

    # identity: program, env, signal dispositions, terminal
    process.program = image.program
    process.argv = list(image.argv)
    process.env = dict(image.env)
    process.signal_handlers = dict(image.signal_handlers)
    if image.ctty_name is not None:
        for f in image.fds:
            if f.kind == "pty" and f.pty_name == image.ctty_name:
                desc = process.get_fd(f.fd)
                pty = getattr(desc, "pty", None)
                if pty is not None:
                    process.ctty = pty
                    pty.session_sid = process.sid
                break

    # the hijack runtime survives inside the image's WrappedSys
    runtime = image.sys_ref.rt
    runtime.process = process
    runtime.world = world
    runtime.pids.rebase_self(rpid)
    all_forked = restore_ctx["all_forked"]
    if not all_forked.done:
        yield all_forked  # for the host-wide pid map
    for vpid, new_rpid in restore_ctx["vpid_map"].items():
        if vpid != image.vpid and runtime.pids.knows_vpid(vpid):
            runtime.pids.record(vpid, new_rpid)
    # ptsname virtualization: the app keeps seeing the original names
    for virt_name, new_real in restore_ctx["pty_rename"].items():
        runtime.map_pty(virt_name, new_real)
    process.user_state["dmtcp"] = runtime
    process.sys = image.sys_ref

    world.spawn_thread(
        process,
        manager_main(runtime, restart_image=image, restart_clock=clock, refill_returns=returns),
        f"ckpt-manager[{rpid}]",
        kind="manager",
    )
    # the hand-off is done: the restore thread only lingers from here, so
    # it is no user thread -- no checkpoint suspends it or puts it into
    # an image, and the next restart does not adopt it beside a new one
    restorer.kind = "manager"
    return process, threads
