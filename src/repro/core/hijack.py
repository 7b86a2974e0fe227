"""The hijack library: dmtcphijack.so for the simulated cluster.

When a process starts with ``DMTCP_HIJACK`` in its environment, the world
calls :func:`make_hijack_factory`'s closure, which (a) builds the
per-process :class:`DmtcpRuntime` (the library's state, living in process
memory), (b) wraps the syscall interface with :class:`WrappedSys` --
overriding exactly the libc functions Section 4.2 lists -- and (c) starts
the checkpoint manager thread.

Wrapper logic runs *in the calling thread*, before/after delegating to
the raw call, exactly like an ``LD_PRELOAD`` interposer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Optional

from repro.core.connection import ConnectionId, ConnectionInfo, ConnectionTable
from repro.core.imagefile import conn_key
from repro.core.pidvirt import PidTable
from repro.core.protocol import CTL_FRAME_BYTES
from repro.errors import SyscallError
from repro.kernel.syscalls import Sys

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.launch import DmtcpComputation
    from repro.kernel.process import Process
    from repro.kernel.world import World

HANDSHAKE_TAG = "dmtcp-handshake"


class DmtcpRuntime:
    """Per-process state of the injected library (lives in user memory)."""

    def __init__(
        self,
        world: "World",
        process: "Process",
        computation: "DmtcpComputation",
        vpid: int,
    ):
        self.world = world
        self.process = process
        self.computation = computation
        self.vpid = vpid
        self.pids = PidTable(vpid, process.pid)
        self.conn_table = ConnectionTable()
        #: fd of the manager's coordinator connection (raw, unwrapped).
        self.coord_fd: Optional[int] = None
        #: dmtcpaware: >0 means checkpoints are delayed (critical section).
        self.delay_count = 0
        #: dmtcpaware hooks: name -> callable(event_dict) (non-blocking).
        self.hooks: dict[str, Any] = {}
        #: pty name virtualization: virtual (original) name <-> current.
        self.pty_virt: dict[str, str] = {}
        self.pty_real: dict[str, str] = {}
        #: Saved F_SETOWN owners (stage 2), restored after refill.
        self.saved_owners: dict[int, int] = {}
        #: Set while the manager runs the checkpoint protocol.
        self.in_checkpoint = False
        #: Count of checkpoints this process has participated in.
        self.checkpoints_done = 0
        self.restarts_done = 0
        #: Checkpoint lineage: the newest ckpt_id this process completed
        #: (written or restored from).  Carried in MSG_REREGISTER after a
        #: coordinator failover so the replacement rebuilds its id space
        #: from the members (resilience layer, DESIGN.md section 15).
        self.last_ckpt_id = 0
        #: The WrappedSys bound to this runtime (set by the factory).
        self.sys: Optional["WrappedSys"] = None

    # ------------------------------------------------------------------
    def fork_child(self, child: "Process") -> "DmtcpRuntime":
        """Runtime for a fork/spawn child: inherited table, own vpid."""
        rt = DmtcpRuntime(self.world, child, self.computation, vpid=child.pid)
        rt.pids = self.pids.fork_copy(child.pid, child.pid)
        rt.conn_table = self.conn_table.fork_copy()
        # prune entries for fds that did not survive (exec closes cloexec)
        rt.conn_table.by_fd = {
            fd: info for fd, info in rt.conn_table.by_fd.items() if fd in child.fds
        }
        rt.pty_virt = dict(self.pty_virt)
        rt.pty_real = dict(self.pty_real)
        return rt

    def new_conn_id(self) -> ConnectionId:
        """Mint the next globally unique connection ID (Section 4.4)."""
        return ConnectionId(
            hostid=self.process.node.hostname,
            pid=self.vpid,
            timestamp=self.process.start_time,
            conn_no=self.conn_table.new_conn_no(),
        )

    def socket_fds(self) -> list[int]:
        """fds with connection-table entries, in stable order."""
        return sorted(self.conn_table.by_fd)

    def virtual_ptsname(self, real_name: str) -> str:
        """Current real pty name -> stable virtual name."""
        return self.pty_real.get(real_name, real_name)

    def real_ptsname(self, virt_name: str) -> str:
        """Stable virtual pty name -> current real name."""
        return self.pty_virt.get(virt_name, virt_name)

    def map_pty(self, virt_name: str, real_name: str) -> None:
        """Bind a virtual pty name to its current real incarnation."""
        self.pty_virt[virt_name] = real_name
        self.pty_real[real_name] = virt_name


class WrappedSys(Sys):
    """Sys with DMTCP wrappers for the Section 4.2 libc list."""

    def __init__(self, raw: Sys, runtime: DmtcpRuntime):
        self.raw = raw
        self.rt = runtime

    # ------------------------------------------------------------------
    # pid virtualization
    # ------------------------------------------------------------------
    def getpid(self):
        """Return the stable virtual pid (Section 4.5)."""
        yield from ()  # keep generator shape without a kernel round-trip
        return self.rt.vpid

    def getppid(self):
        """Return the parent's virtual pid."""
        rpid = yield from self.raw.getppid()
        return self.rt.pids.virtual(rpid)

    def kill(self, pid: int, sig: int):
        """kill wrapper: translates the virtual pid to the current real one."""
        return (yield from self.raw.kill(self.rt.pids.real(pid), sig))

    def waitpid(self, pid: int):
        """waitpid wrapper: translates pids both ways and retires the vpid."""
        rpid, code = yield from self.raw.waitpid(self.rt.pids.real(pid))
        vpid = self.rt.pids.virtual(rpid)
        self.rt.pids.forget(vpid)  # reaped: its virtual pid may be reused
        return (vpid, code)

    # ------------------------------------------------------------------
    # fork / exec / ssh
    # ------------------------------------------------------------------
    def fork(self, child_main, *args):
        """fork with virtual-pid conflict detection (Section 4.5).

        If the child's new real pid collides with a virtual pid already
        known to this process, the child is killed and the fork retried.
        """
        while True:
            child_rpid = yield from self.raw.fork(child_main, *args)
            if not self.rt.pids.knows_vpid(child_rpid):
                self.rt.pids.record(child_rpid, child_rpid)
                return child_rpid
            # conflict: terminate the doomed child and fork again
            try:
                yield from self.raw.kill(child_rpid, 9)
                yield from self.raw.waitpid(child_rpid)
            except SyscallError:
                pass

    def _dmtcp_env(self, env: Optional[dict]) -> Optional[dict]:
        """Ensure DMTCP environment variables survive exec/ssh."""
        if env is None:
            return None
        merged = dict(env)
        for key, value in self.rt.process.env.items():
            if key.startswith("DMTCP_"):
                merged.setdefault(key, value)
        return merged

    def execve(self, program, argv, env=None):
        """exec wrapper: stashes the library state across the image swap."""
        self.rt.computation.stash_for_exec(self.rt)
        return (yield from self.raw.execve(program, argv, self._dmtcp_env(env)))

    def spawn(self, program, argv, env=None):
        """fork+exec wrapper: registers the child and keeps DMTCP env vars."""
        child_rpid = yield from self.raw.spawn(program, argv, self._dmtcp_env(env or {}))
        self.rt.pids.record(child_rpid, child_rpid)
        return child_rpid

    def ssh(self, host, program, argv, env=None):
        """ssh wrapper: the remote command is re-rooted under DMTCP
        (Section 3: ssh calls are "transparently intercepted and modified
        so the remote processes are also run under DMTCP")."""
        remote_env = dict(env or {})
        for key, value in self.rt.process.env.items():
            if key.startswith("DMTCP_"):
                remote_env.setdefault(key, value)
        return (yield from self.raw.ssh(host, program, argv, remote_env))

    # ------------------------------------------------------------------
    # sockets
    # ------------------------------------------------------------------
    def socket(self, domain: str = "inet"):
        """socket wrapper: registers the fd in the connection table."""
        fd = yield from self.raw.socket(domain)
        self.rt.conn_table.add(
            fd, ConnectionInfo(conn_id=None, domain=domain, role="")
        )
        return fd

    def bind(self, fd, port=0, path=None):
        """bind wrapper: records the bound address for restart."""
        addr = yield from self.raw.bind(fd, port, path)
        info = self.rt.conn_table.get(fd)
        if info is not None:
            info.bound = addr if isinstance(addr, tuple) else (None, addr)
        return addr

    def listen(self, fd, backlog=128):
        """listen wrapper: marks the fd as a listener (restored by re-bind)."""
        addr = yield from self.raw.listen(fd, backlog)
        info = self.rt.conn_table.get(fd)
        if info is not None:
            info.listener = True
            info.conn_id = info.conn_id or self.rt.new_conn_id()
            if isinstance(addr, tuple):
                info.bound = addr
        return addr

    def connect(self, fd, host, port=0, path=None):
        """connect wrapper: assigns the globally unique connection ID and
        sends it to the acceptor in-band (Section 4.4)."""
        result = yield from self.raw.connect(fd, host, port, path)
        cid = self.rt.new_conn_id()
        info = self.rt.conn_table.get(fd)
        if info is None:
            info = ConnectionInfo(conn_id=None, domain="inet", role="")
            self.rt.conn_table.add(fd, info)
        info.conn_id = cid
        info.role = "connect"
        info.remote = (host, port, path)
        # Section 4.4: "wrappers around connect and accept had transferred
        # information about the connector to the acceptor", including the
        # globally unique socket ID.
        yield from self.raw.send(
            fd, CTL_FRAME_BYTES, data=(HANDSHAKE_TAG, conn_key(cid), self.rt.vpid)
        )
        return result

    def accept(self, fd):
        """accept wrapper: consumes the connector's handshake and adopts its
        globally unique connection ID (external listeners skip this)."""
        new_fd = yield from self.raw.accept(fd)
        listener_info = self.rt.conn_table.get(fd)
        if listener_info is not None and listener_info.external:
            # connections on an externally-published listener (marked via
            # dmtcpaware) come from peers outside DMTCP: no handshake to
            # consume; recorded so checkpoint can close them cleanly
            info = ConnectionInfo(
                conn_id=self.rt.new_conn_id(), domain="inet", role="accept",
                external=True,
            )
            self.rt.conn_table.add(new_fd, info)
            return new_fd
        chunk = yield from self.raw.recv(new_fd)
        if chunk is None or not (
            isinstance(chunk.data, tuple) and chunk.data and chunk.data[0] == HANDSHAKE_TAG
        ):
            raise SyscallError(
                "EPROTO",
                "peer is not running under DMTCP (no handshake); "
                "all communicating processes must be launched via "
                "dmtcp_checkpoint, or the listener marked external via "
                "dmtcpaware",
            )
        _tag, key, _peer_vpid = chunk.data
        info = ConnectionInfo(conn_id=None, domain="inet", role="accept")
        info.options = {}
        self.rt.conn_table.add(new_fd, info)
        # the acceptor adopts the connector's globally unique ID
        info.conn_id = _parse_conn_key(key)
        return new_fd

    def setsockopt(self, fd, option, value):
        """setsockopt wrapper: records options for replay at restart."""
        result = yield from self.raw.setsockopt(fd, option, value)
        info = self.rt.conn_table.get(fd)
        if info is not None:
            info.options[option] = value
        return result

    def close(self, fd):
        """close wrapper: drops the fd's connection-table entry."""
        self.rt.conn_table.drop(fd)
        return (yield from self.raw.close(fd))

    def dup2(self, oldfd, newfd):
        """dup2 wrapper: the duplicate shares the connection info."""
        result = yield from self.raw.dup2(oldfd, newfd)
        self.rt.conn_table.dup(oldfd, newfd)
        return result

    def socketpair(self):
        """socketpair wrapper: both ends share one connection ID."""
        a, b = yield from self.raw.socketpair()
        cid = self.rt.new_conn_id()
        ia = ConnectionInfo(conn_id=cid, domain="pair", role="pair-a")
        ib = ConnectionInfo(conn_id=cid, domain="pair", role="pair-b")
        self.rt.conn_table.add(a, ia)
        self.rt.conn_table.add(b, ib)
        return a, b

    def pipe(self):
        """Section 4.5: 'a wrapper around the pipe system call promotes
        pipes into sockets' so the drain strategy can re-send data."""
        r, w = yield from self.raw.socketpair()
        cid = self.rt.new_conn_id()
        self.rt.conn_table.add(r, ConnectionInfo(conn_id=cid, domain="pipe", role="pipe-r"))
        self.rt.conn_table.add(w, ConnectionInfo(conn_id=cid, domain="pipe", role="pipe-w"))
        return r, w

    # ------------------------------------------------------------------
    # terminals
    # ------------------------------------------------------------------
    def openpty(self):
        """openpty wrapper: records the pty pair and virtualizes its name."""
        mfd, sfd = yield from self.raw.openpty()
        real = yield from self.raw.ptsname(sfd)
        self.rt.map_pty(real, real)  # virtual name == first real name
        cid = self.rt.new_conn_id()
        im = ConnectionInfo(conn_id=cid, domain="pty", role="pty-m",
                            pty_name=real, pty_side="master")
        is_ = ConnectionInfo(conn_id=cid, domain="pty", role="pty-s",
                             pty_name=real, pty_side="slave")
        self.rt.conn_table.add(mfd, im)
        self.rt.conn_table.add(sfd, is_)
        return mfd, sfd

    def ptsname(self, fd):
        """ptsname wrapper: returns the *virtual* (original) slave name."""
        real = yield from self.raw.ptsname(fd)
        return self.rt.virtual_ptsname(real)

    # ------------------------------------------------------------------
    # syslog (wrapped so state can be replayed at restart)
    # ------------------------------------------------------------------
    def openlog(self, ident):
        """openlog wrapper: records the ident for post-restart replay."""
        self.rt.process.user_state["dmtcp_syslog_ident"] = ident
        return (yield from self.raw.openlog(ident))

    def syslog(self, message):
        """syslog passthrough (wrapped per the Section 4.2 list)."""
        return (yield from self.raw.syslog(message))

    def closelog(self):
        """closelog wrapper: clears the recorded ident."""
        self.rt.process.user_state.pop("dmtcp_syslog_ident", None)
        return (yield from self.raw.closelog())


def _parse_conn_key(key: str) -> ConnectionId:
    hostid, pid, ts, conn_no = key.rsplit(":", 3)
    return ConnectionId(hostid, int(pid), float(ts), int(conn_no))
