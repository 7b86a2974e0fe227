"""Processes, threads, and program images.

A *program* is registered with the :class:`~repro.kernel.world.World` as a
``(ProgramSpec, main)`` pair: the spec declares the initial address-space
layout (code, libraries, heap -- with content profiles), and ``main`` is a
generator function ``main(sys, argv)`` driven by the task trampoline.

Processes own an address space, an FD table (entries reference *shared
open-file descriptions*, so descriptors stay shared after ``fork`` exactly
as POSIX mandates -- the detail DMTCP's leader election exists for), an
environment, signal dispositions, and a controlling terminal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import KernelError, SyscallError
from repro.kernel.memory import AddressSpace, ContentProfile, PROFILES
from repro.sim.tasks import Future, Task

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node
    from repro.kernel.world import World


@dataclass(frozen=True)
class RegionSpec:
    """One class of mappings a program sets up at exec time."""

    kind: str
    size: int
    profile: str = "text"
    count: int = 1
    shared: bool = False
    path: Optional[str] = None

    def resolve_profile(self) -> ContentProfile:
        """Look up this spec's content profile by name."""
        try:
            return PROFILES[self.profile]
        except KeyError:
            raise KernelError(f"unknown content profile {self.profile!r}") from None


@dataclass(frozen=True)
class ProgramSpec:
    """Initial memory image of a program."""

    name: str
    regions: tuple[RegionSpec, ...] = ()
    description: str = ""

    @property
    def total_bytes(self) -> int:
        """Total mapped bytes the spec describes."""
        return sum(r.size * r.count for r in self.regions)


#: A small default image: code + stack + a modest heap.
DEFAULT_SPEC = ProgramSpec(
    name="default",
    regions=(
        RegionSpec("code", 512 * 1024, "code"),
        RegionSpec("stack", 128 * 1024, "random"),
        RegionSpec("heap", 1024 * 1024, "text"),
    ),
)


class Thread:
    """One thread of a process; wraps a sim task."""

    __slots__ = ("tid", "process", "name", "kind", "task", "parked")

    def __init__(self, process: "Process", name: str, kind: str = "user"):
        self.tid = next(process.world.thread_ids)
        self.process = process
        self.name = name
        #: "user" threads are suspended at checkpoint time; "manager" is
        #: the DMTCP checkpoint-manager thread, which keeps running.
        self.kind = kind
        self.task: Optional[Task] = None
        #: The ticket of this thread's last send that blocked on flow
        #: control, or of its timed recv while it waits: a re-issue of
        #: that same call finds the first issue's reservation or timer
        #: here instead of making another (``World._sys_send_chunk``,
        #: ``World._sys_recv``).
        self.parked = None

    def retire(self) -> None:
        """A finished manager-kind thread, or a finished thread of a
        reaped process, leaves its process.

        It drops out of ``process.threads`` and lets go of its task, so
        the task's ``context`` back-pointer forms no cycle: whoever still
        holds the task (a helper group, the failure log) frees both by
        reference counting.
        """
        threads = self.process.threads
        if self in threads:
            threads.remove(self)
        self.task = self.parked = None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Thread {self.name} tid={self.tid} of pid={self.process.pid}>"


class FdEntry:
    """A slot in the FD table: points at a shared description."""

    __slots__ = ("description", "cloexec")

    def __init__(self, description: Any, cloexec: bool = False):
        self.description = description
        self.cloexec = cloexec


class Process:
    """A simulated Unix process."""

    def __init__(
        self,
        world: "World",
        node: "Node",
        pid: int,
        program: str,
        argv: list[str],
        env: dict[str, str],
        parent: Optional["Process"] = None,
    ):
        self.world = world
        self.node = node
        self.pid = pid
        self.program = program
        self.argv = list(argv)
        self.env = dict(env)
        self.parent = parent
        self.children: list[Process] = []
        self.address_space = AddressSpace(world.spec.os.page_bytes, world.region_ids)
        self.fds: dict[int, FdEntry] = {}
        self._next_fd = 3  # 0-2 notionally reserved for stdio
        self.threads: list[Thread] = []
        #: Threads started since exec, finished manager threads included:
        #: names ``thread_create`` threads, so it must not shrink when a
        #: manager thread retires.
        self.threads_started = 0
        self.state = "running"  # running | zombie | dead
        self.exit_code: Optional[int] = None
        self.exited = Future(f"exit:{pid}")
        self.signal_handlers: dict[int, str] = {}
        self.pending_signals: list[int] = []
        #: Controlling terminal (a PtyPair) and session id.
        self.ctty: Any = None
        self.sid: int = pid
        #: Scratch space for in-process runtimes (the DMTCP hijack library
        #: keeps its connection table here -- it lives in process memory).
        self.user_state: dict[str, Any] = {}
        #: Syscall interface factory result cached by the world.
        self.sys: Any = None
        #: Creation timestamp (used in globally unique connection IDs).
        self.start_time = world.engine.now

    # ------------------------------------------------------------------
    # FD table
    # ------------------------------------------------------------------
    def alloc_fd(self, description: Any, cloexec: bool = False) -> int:
        """Install a description at the next free fd; returns the fd."""
        fd = self._next_fd
        self._next_fd += 1
        description.incref()
        self.fds[fd] = FdEntry(description, cloexec)
        return fd

    def install_fd(self, fd: int, description: Any, cloexec: bool = False) -> None:
        """Place a description at a specific slot (dup2 / restart path)."""
        if fd in self.fds:
            self.drop_fd(fd)
        description.incref()
        self.fds[fd] = FdEntry(description, cloexec)
        self._next_fd = max(self._next_fd, fd + 1)

    def get_fd(self, fd: int) -> Any:
        """The description behind ``fd`` (EBADF if closed)."""
        entry = self.fds.get(fd)
        if entry is None:
            raise SyscallError("EBADF", f"pid {self.pid}: fd {fd}")
        return entry.description

    def drop_fd(self, fd: int) -> None:
        """Close one fd slot (decrefs the shared description)."""
        entry = self.fds.pop(fd, None)
        if entry is None:
            raise SyscallError("EBADF", f"pid {self.pid}: fd {fd}")
        entry.description.decref()

    def fork_fd_table(self, child: "Process") -> None:
        """POSIX fork semantics: the child shares every open description."""
        for fd, entry in self.fds.items():
            entry.description.incref()
            child.fds[fd] = FdEntry(entry.description, entry.cloexec)
        child._next_fd = self._next_fd

    # ------------------------------------------------------------------
    def add_thread(self, thread: Thread) -> None:
        """Count ``thread`` in and list it among this process's threads."""
        self.threads.append(thread)
        self.threads_started += 1

    @property
    def alive(self) -> bool:
        """Is the process still running (not zombie/dead)?"""
        return self.state == "running"

    @property
    def user_threads(self) -> list[Thread]:
        """Live application threads (the ones checkpoints suspend)."""
        return [t for t in self.threads if t.kind == "user" and t.task is not None and not t.task.done]

    @property
    def live_threads(self) -> list[Thread]:
        """Every live thread including DMTCP manager threads."""
        return [t for t in self.threads if t.task is not None and not t.task.done]

    def build_image_from_spec(self, spec: ProgramSpec) -> None:
        """Lay out the initial address space at exec time."""
        self.address_space = AddressSpace(
            self.world.spec.os.page_bytes, self.world.region_ids
        )
        # Program name keys content identity: every rank of the same
        # binary lays out the same regions, so the chunk store dedups
        # their unwritten pages across the whole computation.
        self.address_space.content_tag = self.program or spec.name
        for region_spec in spec.regions:
            profile = region_spec.resolve_profile()
            for i in range(region_spec.count):
                path = region_spec.path
                if path is not None and region_spec.count > 1:
                    path = f"{path}.{i}"
                self.address_space.map_region(
                    region_spec.size,
                    region_spec.kind,
                    profile,
                    path=path,
                    shared=region_spec.shared,
                )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Process pid={self.pid} {self.program} on {self.node.hostname} {self.state}>"


class Description:
    """Base class for shared open-file descriptions (refcounted)."""

    def __init__(self) -> None:
        self.refcount = 0
        #: fcntl(F_SETOWN) owner pid -- lives on the *description*, shared
        #: by every process holding a duplicate of the descriptor.  DMTCP
        #: misuses exactly this for shared-FD leader election.
        self.owner_pid: int = 0

    def incref(self) -> None:
        """One more fd slot references this description."""
        self.refcount += 1

    def decref(self) -> None:
        """Drop one reference; the last close tears the object down."""
        if self.refcount <= 0:
            raise KernelError(f"{self!r}: decref below zero")
        self.refcount -= 1
        if self.refcount == 0:
            self.on_last_close()

    def on_last_close(self) -> None:  # pragma: no cover - overridden
        """Subclass hook: run teardown when the refcount hits zero."""
        pass
