"""The syscall surface presented to simulated programs.

Programs are generator functions ``main(sys, argv)`` and invoke every
kernel service as ``result = yield from sys.call(...)``.  Each ``Sys``
method is itself a tiny generator that yields one :class:`Call` object;
the task trampoline hands the call to the world's dispatcher.

This indirection is the simulation's ``libc``: DMTCP's hijack library
subclasses :class:`Sys` and overrides exactly the functions the paper
lists (socket, connect, bind, listen, accept, setsockopt, exec*, fork,
close, dup2, socketpair, openlog/syslog/closelog, ptsname), running its
wrapper logic *in the calling thread* before/after delegating to the raw
call -- precisely how an ``LD_PRELOAD`` interposer behaves.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.kernel.streams import (
    Chunk,
    FrameAssembler,
    frame_chunks,
)
from repro.sim.tasks import Scheduler


_NO_KWARGS: dict = {}


class Call:
    """One syscall request handed to the world dispatcher.

    A slotted plain class, not a dataclass: every simulated syscall
    allocates one of these, and the per-instance ``__dict__`` plus the
    ``field(default_factory=dict)`` empty dict showed up at Fig-5 scale.
    ``kwargs`` defaults to a shared read-only dict; dispatch only ever
    unpacks it.
    """

    __slots__ = ("name", "args", "kwargs")

    def __init__(self, name: str, args: tuple = (), kwargs: dict = _NO_KWARGS):
        self.name = name
        self.args = args
        self.kwargs = kwargs

    def __repr__(self) -> str:  # pragma: no cover
        return f"Call({self.name}, {self.args}, {self.kwargs})"


#: Let the sim-layer trampoline recognize syscall yields with one type
#: check instead of an isinstance chain (see Scheduler._dispatch).
Scheduler._call_type = Call


class Sys:
    """Raw (un-hijacked) syscall interface.

    Every method returns a generator to be driven with ``yield from``.
    """

    # -- process ---------------------------------------------------------
    def getpid(self):
        """Return the calling process's pid."""
        return (yield Call("getpid"))

    def getppid(self):
        """Return the parent's pid (0 for orphans)."""
        return (yield Call("getppid"))

    def gethostname(self):
        """Return the node's hostname."""
        return (yield Call("gethostname"))

    def time(self):
        """Return the current virtual time in seconds."""
        return (yield Call("time"))

    def sleep(self, seconds: float):
        """Suspend the calling thread for ``seconds`` of virtual time."""
        return (yield Call("sleep", (seconds,)))

    def cpu(self, seconds: float):
        """Consume ``seconds`` of dedicated-core compute."""
        return (yield Call("cpu", (seconds,)))

    def fork(self, child_main, *args: Any):
        """Fork; the child runs ``child_main(sys, *args)``.

        Returns the child pid in the parent.  (Python generators cannot be
        cloned, so the child's continuation is passed explicitly -- see
        DESIGN.md; the DMTCP fork wrapper interposes on this call exactly
        as it would on libc ``fork``.)
        """
        return (yield Call("fork", (child_main, *args)))

    def execve(self, program: str, argv: list[str], env: Optional[dict[str, str]] = None):
        """Replace the process image with ``program`` (does not return)."""
        return (yield Call("execve", (program, argv, env)))

    def spawn(self, program: str, argv: list[str], env: Optional[dict[str, str]] = None):
        """fork + exec: start ``program`` as a child process, return pid."""
        return (yield Call("spawn", (program, argv, env)))

    def exit(self, code: int = 0):
        """Terminate the calling process with ``code``."""
        return (yield Call("exit", (code,)))

    def waitpid(self, pid: int):
        """Reap child ``pid``; returns ``(pid, exit_code)``."""
        return (yield Call("waitpid", (pid,)))

    def kill(self, pid: int, sig: int):
        """Send signal ``sig`` to same-node process ``pid``."""
        return (yield Call("kill", (pid, sig)))

    def signal(self, sig: int, action: str):
        """Set the disposition for ``sig`` ("default", "ignore", or a handler tag)."""
        return (yield Call("signal", (sig, action)))

    def getenv(self, key: str, default: Optional[str] = None):
        """Read one environment variable (or ``default``)."""
        return (yield Call("getenv", (key, default)))

    def setenv(self, key: str, value: str):
        """Set one environment variable."""
        return (yield Call("setenv", (key, value)))

    def environ(self):
        """A copy of the full environment (like reading /proc/self/environ)."""
        return (yield Call("environ"))

    def nodes(self):
        """Cluster machine file: the list of hostnames."""
        return (yield Call("nodes"))

    # -- threads and synchronization -------------------------------------
    def thread_create(self, fn, *args: Any):
        """Start ``fn(sys, *args)`` as a new thread; returns its tid."""
        return (yield Call("thread_create", (fn, *args)))

    def thread_join(self, tid: int):
        """Block until thread ``tid`` finishes."""
        return (yield Call("thread_join", (tid,)))

    def sem_create(self, value: int = 1):
        """Create a counting semaphore; returns its id."""
        return (yield Call("sem_create", (value,)))

    def sem_acquire(self, sem_id: int):
        """P operation: decrement or block until positive."""
        return (yield Call("sem_acquire", (sem_id,)))

    def sem_release(self, sem_id: int):
        """V operation: wake one waiter or increment."""
        return (yield Call("sem_release", (sem_id,)))

    # -- memory -----------------------------------------------------------
    def mmap(
        self,
        size: int,
        profile: str = "zero",
        shared: bool = False,
        path: Optional[str] = None,
        kind: str = "anon",
    ):
        """Map ``size`` bytes of ``profile`` content; returns a region id.

        ``shared=True`` with a ``path`` attaches a file-backed segment
        shared across processes (Section 4.5's shared-memory rules).
        """
        return (yield Call("mmap", (size, profile, shared, path, kind)))

    def munmap(self, region_id: int):
        """Unmap a region by id."""
        return (yield Call("munmap", (region_id,)))

    def sbrk(self, nbytes: int, profile: str = "text"):
        """Grow the heap by ``nbytes`` of ``profile`` content; returns a region id."""
        return (yield Call("sbrk", (nbytes, profile)))

    def mem_touch(self, region_id: int, fraction: float = 1.0):
        """Mark ``fraction`` of a region's pages as written (dirty tracking)."""
        return (yield Call("mem_touch", (region_id, fraction)))

    def proc_maps(self):
        """Render /proc/self/maps for the calling process."""
        return (yield Call("proc_maps"))

    # -- files -------------------------------------------------------------
    def open(self, path: str, flags: str = "r"):
        """Open ``path``; flags "r"/"w"/"a"/"rw" ("w" truncates). Returns an fd."""
        return (yield Call("open", (path, flags)))

    def close(self, fd: int):
        """Close an fd (last close releases the description)."""
        return (yield Call("close", (fd,)))

    def close_range(self, lo: int, hi: int):
        """Close every open fd in ``[lo, hi]`` with one call."""
        return (yield Call("close_range", (lo, hi)))

    def dup2(self, oldfd: int, newfd: int):
        """Duplicate ``oldfd`` onto ``newfd`` (shared description)."""
        return (yield Call("dup2", (oldfd, newfd)))

    def read(self, fd: int, nbytes: int):
        """Read up to ``nbytes``; returns ``(n, payload)``."""
        return (yield Call("read", (fd, nbytes)))

    def write(self, fd: int, nbytes: int, payload: Any = None, offset: Optional[int] = None):
        """Write ``nbytes`` (optionally attaching a ``payload`` object) at
        the file offset, or at ``offset`` if given (``pwrite`` that also
        moves the offset); returns n."""
        if offset is None:
            return (yield Call("write", (fd, nbytes, payload)))
        return (yield Call("write", (fd, nbytes, payload), {"offset": offset}))

    def stream(
        self,
        fd: int,
        nbytes: int,
        cpu_s: float,
        block_bytes: int,
        write: bool = False,
        payload: Any = None,
        offset: Optional[int] = None,
    ):
        """Pipe ``nbytes`` between memory and file ``fd`` through a CPU
        stage costing ``cpu_s`` in total, ``block_bytes`` at a time: the
        CPU works on one block while the device moves its neighbour (a
        two-block buffer).  Writing compresses then writes (attaching
        ``payload`` with the last block); reading reads then expands,
        clamped to end of file.  Starts at the file offset, or at
        ``offset`` if given.  Returns ``(blocks, io_wait_s, cpu_wait_s)``."""
        return (
            yield Call("stream", (fd, nbytes, cpu_s, block_bytes, write, payload, offset))
        )

    def lseek(self, fd: int, offset: int):
        """Set the file offset."""
        return (yield Call("lseek", (fd, offset)))

    def fsync(self, fd: int):
        """Block until this file's writes are durable on the platter."""
        return (yield Call("fsync", (fd,)))

    def sync(self):
        """Block until the node's entire dirty page cache has drained."""
        return (yield Call("sync"))

    def unlink(self, path: str):
        """Remove a file."""
        return (yield Call("unlink", (path,)))

    def rename(self, old: str, new: str):
        """Atomically move ``old`` to ``new`` within one namespace."""
        return (yield Call("rename", (old, new)))

    def stat(self, path: str):
        """Return ``{size, perms, path}`` or None if missing."""
        return (yield Call("stat", (path,)))

    def listdir(self, prefix: str):
        """List paths under ``prefix``."""
        return (yield Call("listdir", (prefix,)))

    def fcntl(self, fd: int, cmd: str, arg: Any = None):
        """F_SETOWN/F_GETOWN/F_SETFD_CLOEXEC/F_GETFD on an fd."""
        return (yield Call("fcntl", (fd, cmd, arg)))

    # -- sockets ------------------------------------------------------------
    def socket(self, domain: str = "inet"):
        """Create a stream socket ("inet" or "unix"); returns an fd."""
        return (yield Call("socket", (domain,)))

    def bind(self, fd: int, port: int = 0, path: Optional[str] = None):
        """Bind to a port (0 = ephemeral) or a unix path; returns the address."""
        return (yield Call("bind", (fd, port, path)))

    def listen(self, fd: int, backlog: int = 128):
        """Start listening; returns the bound address."""
        return (yield Call("listen", (fd, backlog)))

    def accept(self, fd: int):
        """Accept one connection; returns the new fd."""
        return (yield Call("accept", (fd,)))

    def connect(self, fd: int, host: str, port: int = 0, path: Optional[str] = None):
        """Connect to ``host:port`` (or a unix ``path``)."""
        return (yield Call("connect", (fd, host, port, path)))

    def send(self, fd: int, nbytes: int, data: Any = None, ctrl: Optional[str] = None):
        """Send one chunk of ``nbytes`` with optional payload ``data``."""
        return (yield Call("send", (fd, nbytes, data, ctrl)))

    def send_chunk(self, fd: int, chunk: Chunk, force: bool = False):
        """Send a pre-built chunk; ``force`` bypasses flow control
        (DMTCP's refill stage only -- see kernel.sockets.transmit)."""
        return (yield Call("send_chunk", (fd, chunk, force)))

    def recv(self, fd: int, timeout: Optional[float] = None):
        """Receive the next chunk (or None at EOF).

        With ``timeout`` the call fails with ETIMEDOUT if nothing arrives
        within that many virtual seconds (SO_RCVTIMEO analogue; the
        supervision layer's barrier waits use this).
        """
        if timeout is None:
            return (yield Call("recv", (fd,)))
        return (yield Call("recv", (fd,), {"timeout": timeout}))

    def setsockopt(self, fd: int, option: str, value: int):
        """Set a socket option (SO_RCVBUF/SO_SNDBUF resize the buffer)."""
        return (yield Call("setsockopt", (fd, option, value)))

    def getsockname(self, fd: int):
        """Return the local address of a socket or listener."""
        return (yield Call("getsockname", (fd,)))

    def socketpair(self):
        """Create a connected same-node pair; returns ``(fd_a, fd_b)``."""
        return (yield Call("socketpair"))

    def pipe(self):
        """Create a unidirectional pipe; returns ``(read_fd, write_fd)``."""
        return (yield Call("pipe"))

    # -- terminals ------------------------------------------------------------
    def openpty(self):
        """Allocate a pseudo-terminal; returns ``(master_fd, slave_fd)``."""
        return (yield Call("openpty"))

    def ptsname(self, fd: int):
        """Return the slave name of a pty ("/dev/pts/N")."""
        return (yield Call("ptsname", (fd,)))

    def tcgetattr(self, fd: int):
        """Read the terminal attributes of a pty."""
        return (yield Call("tcgetattr", (fd,)))

    def tcsetattr(self, fd: int, attrs: dict):
        """Update the terminal attributes of a pty."""
        return (yield Call("tcsetattr", (fd, attrs)))

    def setsid(self):
        """Start a new session; returns the new session id."""
        return (yield Call("setsid"))

    def setctty(self, fd: int):
        """Make a pty this session's controlling terminal."""
        return (yield Call("setctty", (fd,)))

    # -- syslog ------------------------------------------------------------
    def openlog(self, ident: str):
        """Open a syslog channel under ``ident``."""
        return (yield Call("openlog", (ident,)))

    def syslog(self, message: str):
        """Emit one syslog message."""
        return (yield Call("syslog", (message,)))

    def closelog(self):
        """Close the syslog channel."""
        return (yield Call("closelog"))

    # -- checkpoint support (signal-based thread control) ----------------------
    def suspend_threads(self):
        """Suspend all *user* threads of the calling process (MTCP-style)."""
        return (yield Call("suspend_threads"))

    def resume_threads(self):
        """Thaw every user thread frozen by :meth:`suspend_threads`."""
        return (yield Call("resume_threads"))

    # -- remote spawn ---------------------------------------------------------
    def ssh(self, host: str, program: str, argv: list[str], env: Optional[dict[str, str]] = None):
        """Spawn ``program`` on ``host`` (auth + connection cost charged).

        Returns (host, remote_pid).
        """
        return (yield Call("ssh", (host, program, argv, env)))


# ----------------------------------------------------------------------
# Stream helpers built on the raw calls (used with ``yield from``)
# ----------------------------------------------------------------------

def connect_retry(
    sys: Sys,
    fd: int,
    host: str,
    port: int = 0,
    path: Optional[str] = None,
    attempts: int = 50,
    backoff: float = 0.01,
):
    """``connect`` with retry/backoff, for races with a starting server."""
    from repro.errors import SyscallError

    for attempt in range(attempts):
        try:
            return (yield from sys.connect(fd, host, port, path))
        except SyscallError as err:
            if err.errno != "ECONNREFUSED" or attempt == attempts - 1:
                raise
            yield from sys.sleep(backoff * (attempt + 1))


def send_frame(sys: Sys, fd: int, payload: Any, sim_size: int):
    """Send one framed application message of modelled size ``sim_size``."""
    for chunk in frame_chunks(payload, sim_size):
        yield from sys.send_chunk(fd, chunk)


def recv_frame(sys: Sys, fd: int, assembler: FrameAssembler, timeout: Optional[float] = None):
    """Receive one complete framed message: returns (payload, sim_size).

    ``assembler`` must persist across calls on the same stream (keep it
    next to the fd) so a message split by a checkpoint still reassembles.
    Returns None at EOF.  ``timeout`` bounds each underlying recv (the
    call raises ETIMEDOUT if the stream stalls that long).
    """
    while True:
        ready = assembler.pop()
        if ready is not None:
            return ready
        chunk = yield from sys.recv(fd, timeout=timeout)
        if chunk is None:
            return None
        assembler.feed(chunk)
