"""The cluster kernel: processes, syscall dispatch, nodes, ssh fabric.

One :class:`World` spans the whole simulated cluster.  Each node has its
own pid space, port space, filesystem namespace and mount table; the
world routes syscalls from running tasks to the node-local state of the
issuing process.

The world is deliberately ignorant of DMTCP.  The only integration point
is :attr:`World.hijack_factory`: when a process starts with the hijack
environment variable set, the factory wraps its syscall interface --
the simulation's ``LD_PRELOAD``.
"""

from __future__ import annotations

import itertools
from functools import partial
from typing import Any, Callable, Optional

from repro.config import HardwareSpec
from repro.errors import KernelError, SyscallError
from repro.hardware.topology import Machine
from repro.kernel.filesystem import Mount, MountTable, Namespace, OpenFile
from repro.kernel.ipc import PtyPair, check_pipe_direction, make_pipe
from repro.kernel.process import (
    DEFAULT_SPEC,
    Process,
    ProgramSpec,
    Thread,
)
from repro.kernel.sockets import (
    ListenerSocket,
    SocketEndpoint,
    connect_endpoints,
    make_socketpair,
    transmit,
)
from repro.kernel.streams import Chunk
from repro.kernel.sync import Semaphore
from repro.kernel.syscalls import Sys
from repro.obs.tracer import Tracer
from repro.sim.rng import RandomStreams
from repro.sim.tasks import Completion, Scheduler, Task, TaskState, _FINISHED_STATES

#: Environment variable that triggers hijack-library injection, the
#: simulation's LD_PRELOAD=dmtcphijack.so.
HIJACK_ENV = "DMTCP_HIJACK"

SIGHUP, SIGINT, SIGKILL, SIGTERM, SIGCHLD = 1, 2, 9, 15, 17


class _Settle(Completion):
    """Completes a task's pending call when ``fut`` settles.

    Registered directly via ``Future.add_done`` (zero-arg): one slotted
    object per blocking syscall, no closure cells (see DESIGN.md §8).
    """

    __slots__ = ("fut",)

    def __init__(self, task: Task, fut, value=None):
        Completion.__init__(self, task, value)
        self.fut = fut

    def __call__(self) -> None:
        self.settle(self.fut)


class _FileIO(Completion):
    """Applies a completed file read or write (see _sys_write, _sys_read):
    the descriptor and the file move only if the caller is still there."""

    __slots__ = ("world", "desc", "fut", "write", "payload")

    def __init__(self, world, task, desc, nbytes, fut, write, payload=None):
        Completion.__init__(self, task, nbytes)
        self.world = world
        self.desc = desc
        self.fut = fut
        self.write = write
        self.payload = payload

    def __call__(self) -> None:
        if self.fut._exc is not None or not self.live:
            return
        desc = self.desc
        nbytes = self.value
        desc.offset += nbytes
        if not self.write:
            self.ok((nbytes, desc.file.payload))
            return
        file = desc.file
        file.size = max(file.size, desc.offset)
        file.last_write_time = self.world.engine.now
        if self.payload is not None:
            file.payload = self.payload
        self.ok(nbytes)


#: Memory per full block of a stream: block *k*+1 is in gzip while block
#: *k* is on the device; reading, block *k*+1 is on the device while block
#: *k* is in gunzip and block *k*-1 is paged in (why 4 MiB: DESIGN.md
#: section 4.1).
STREAM_BLOCK_BYTES = 4 * 2**20

#: Memory per edge block, a stream's first and last: one Linux pipe
#: buffer, all a gzip child has handed on when the device can start and
#: all the device has read when a gunzip child can.
STREAM_EDGE_BYTES = 64 * 2**10


def stream_blocks(nbytes: int, edge: int) -> list[int]:
    """Block sizes of an ``nbytes`` stream whose edge block is ``edge``.

    Sizes double from the edge up to a peak of at most ``edge *
    STREAM_BLOCK_BYTES // STREAM_EDGE_BYTES``, stay there, and halve back
    to the edge over the last blocks.  The plateau holds what the two
    ramps leave, in near-equal blocks no larger than the peak; the peak
    is the largest that leaves the plateau at least one peak's worth.  A
    stream of fewer than four edges has no ramp: it is cut in near-equal
    blocks of at most one edge.
    """
    cap = edge * (STREAM_BLOCK_BYTES // STREAM_EDGE_BYTES)
    peak = edge
    # below a peak p the ramps hold 2 * (p - edge); a peak of 2p needs
    # 2 * (2p - edge) for its ramps plus one 2p block
    while peak < cap and nbytes >= 6 * peak - 2 * edge:
        peak *= 2
    ramp = []
    size = edge
    while size < peak:
        ramp.append(size)
        size *= 2
    plateau = nbytes - 2 * (peak - edge)
    n = -(-plateau // peak)
    q, r = divmod(plateau, n)
    return ramp + [q + 1] * r + [q] * (n - r) + ramp[::-1]


class _BlockStream:
    """A chain of stages between memory and the storage device behind an
    open file, each working on one block (see ``World._sys_stream``).

    The stages run in pipe order.  Writing, the CPU stages (gzip) come
    first and the device last; reading, the device comes first and the
    CPU stages follow (for a gzipped image: the gunzip child, then the
    process paging the image in).  Step *j* runs stage *i* on block
    *j*-*i* and ends when every stage has finished its block, so each
    stage holds at most one block and a block enters stage *i*+1 only
    after stage *i* is done with it: a byte is billed to a writing device
    only after its CPU share has been spent.  Each CPU stage is its own
    ``cpu_burst`` on the node's fair-share CPU, so two CPU stages keep
    two cores busy, and each bills its own per-byte share.  Stage
    completions are resource callbacks: the calling task is resumed
    once, when the last block has left the last stage.

    The blocks follow :func:`stream_blocks`: the unoverlapped ends of a
    stream -- the second stage idle before its first block, the first
    idle after its last -- are edge blocks, a pipe buffer each, not full
    blocks.  Without CPU work there is nothing to overlap and the stream
    is one block.

    A write stream into a page cache holds that cache's write-back until
    it ends (``PageCachedDisk.hold_writeback``): blocks trickling in
    under the platter's speed would otherwise all be durable when the
    last one lands, and a ``sync`` after the image would cost nothing.
    """

    __slots__ = (
        "world", "current", "process", "desc", "write", "payload", "sizes",
        "per_byte", "device", "held", "waiting", "blocks", "timed",
        "started", "t", "waits", "fill", "drain", "first_done", "cache",
    )

    def __init__(self, world, task, process, desc, nbytes, cpu_stages, edge_bytes, write, payload):
        self.world = world
        #: Dead once the task was killed or its kernel context sealed.
        self.current = Completion(task)
        self.process = process
        self.desc = desc
        self.write = write
        self.payload = payload
        #: Sizes of the blocks the first stage has not taken, last first.
        self.sizes = stream_blocks(nbytes, edge_bytes)[::-1] if sum(cpu_stages) > 0 else [nbytes]
        #: Per stage in pipe order, CPU seconds per byte; None is the device.
        per_byte = [cpu_s / nbytes for cpu_s in cpu_stages]
        self.per_byte = per_byte + [None] if write else [None] + per_byte
        self.device = len(per_byte) if write else 0
        #: Per stage, the size of the block it works on this step (0: idle).
        self.held = [0] * len(self.per_byte)
        self.waiting = 0
        self.blocks = 0
        #: Stage-wait accounting runs only under the tracer (_trace_hot).
        self.timed = world.engine._trace_hot is not None
        self.started = 0.0
        #: Per stage, when it finished this step's block (idle: the start).
        self.t = [0.0] * len(self.per_byte)
        #: Per stage, the time the stream waited on that stage alone.
        self.waits = [0.0] * len(self.per_byte)
        self.fill = self.drain = self.first_done = 0.0
        #: The page cache whose write-back this stream holds, if any.
        self.cache = desc.table.page_cache(desc.mount) if write else None
        if self.cache is not None:
            self.cache.hold_writeback()

    def _live(self) -> bool:
        """Is the caller still there?  If not, issue nothing further."""
        if self.current.live:
            return True
        self._release()
        return False

    def _release(self) -> None:
        cache, self.cache = self.cache, None
        if cache is not None:
            cache.release_writeback()

    def step(self) -> None:
        """Begin one step: every stage hands its block on to the next one
        and the first stage takes the next block."""
        if not self._live():
            return
        held = self.held
        held.pop()  # the block the last stage finished has left
        held.insert(0, self.sizes.pop() if self.sizes else 0)
        if not any(held):
            self._release()
            waits = self.waits
            device = self.device
            self.current.ok((
                self.blocks, waits[device],
                tuple(w for i, w in enumerate(waits) if i != device),
                self.fill, self.drain,
            ))
            return
        if held[0]:
            self.blocks += 1
        if self.timed:
            now = self.world.engine.now
            self.started = now
            self.t = [now] * len(held)
        # one count for the issue itself: a stage that finishes at once
        # must not begin the next step before every stage has its block
        self.waiting = 1
        io_bytes = held[self.device]
        if io_bytes:
            desc = self.desc
            if self.write:
                try:
                    self.world._check_disk_space(self.process, desc)
                except SyscallError as err:
                    self._release()
                    self.current.fail(err)
                    return
                fut = desc.table.charge_write(desc.mount, io_bytes)
            else:
                fut = desc.table.charge_read(
                    desc.mount, io_bytes, self.world._page_cached(desc)
                )
            self.waiting += 1
            fut.add_done(self._io_done)
        node = self.process.node
        for stage, per_byte in enumerate(self.per_byte):
            if per_byte is not None and held[stage]:
                self.waiting += 1
                node.cpu_burst(held[stage] * per_byte).add_done(
                    partial(self._cpu_done, stage)
                )
        self._stage_done(None)

    def _io_done(self) -> None:
        if not self._live():
            return
        desc = self.desc
        desc.offset += self.held[self.device]
        if self.write:
            file = desc.file
            file.size = max(file.size, desc.offset)
            file.last_write_time = self.world.engine.now
            if self.payload is not None and not any(self.held[:-1]):
                file.payload = self.payload  # the last block completes the file
        self._stage_done(self.device)

    def _cpu_done(self, stage: int) -> None:
        if not self._live():
            return
        self._stage_done(stage)

    def _stage_done(self, stage) -> None:
        if self.timed and stage is not None:
            self.t[stage] = self.world.engine.now
        self.waiting -= 1
        if self.waiting:
            return
        if self.timed:
            t = self.t
            now = self.world.engine.now
            # the step waited on the stage that finished last for as long
            # as it ran alone (an idle stage kept the step's start time)
            last = max(range(len(t)), key=t.__getitem__)
            self.waits[last] += t[last] - max(t[:last] + t[last + 1:])
            held = self.held
            if not held[0]:  # the first stage is done: the stream drains
                self.drain = now - self.first_done
            elif not self.sizes:  # the first stage finished its last block
                self.first_done = t[0]
            if self.blocks == 1 and held[0]:  # the first step: only the first ran
                self.fill = now - self.started
        self.step()


class _RecvAttempt(Completion):
    """One blocking recv: retries itself whenever data may have arrived.

    A chunk is taken only for an awake caller: a frozen thread leaves it
    in the queue for the drain and re-issues the recv at thaw.  A timed
    recv (SO_RCVTIMEO analogue) keeps its timeout in the value slot and
    :meth:`expire` as its timer.
    """

    __slots__ = ("ep",)

    def __init__(self, task: Task, ep, timeout=None):
        Completion.__init__(self, task, timeout)
        self.ep = ep

    def __call__(self) -> None:
        if not self.awake:
            return
        ep = self.ep
        chunk = ep.rx.take()
        if chunk is not None:
            self.ok(chunk)
        elif ep.rx.eof or ep.closed:
            self.ok(None)
        else:
            ep.rx.add_data_waiter(self)

    def expire(self) -> None:
        """ETIMEDOUT, if the caller is still parked on this same recv."""
        if self.awake:
            self.ep.rx.remove_data_waiter(self)
            self.fail(SyscallError("ETIMEDOUT", f"recv idle for {self.value}s"))


class _AcceptAttempt(Completion):
    """One blocking accept: retries itself whenever the backlog may have
    grown.  Only an awake caller takes a backlog entry."""

    __slots__ = ("listener", "process")

    def __init__(self, task: Task, listener: ListenerSocket, process: Process):
        Completion.__init__(self, task)
        self.listener = listener
        self.process = process

    def __call__(self) -> None:
        if not self.awake:
            return
        listener = self.listener
        if listener.backlog:
            ep = listener.backlog.pop(0)
            ep.origin = "accept"
            self.ok(self.process.alloc_fd(ep))
        elif listener.closed:
            self.fail(SyscallError("EBADF", "listener closed"))
        else:
            listener.wait_backlog().add_done(self)


class _NodeState:
    """Per-node kernel tables."""

    def __init__(self, world: "World", node) -> None:
        self.node = node
        self.next_pid = 100
        self.pid_max = world.pid_max
        self.processes: dict[int, Process] = {}
        self.root_ns = Namespace(f"{node.hostname}:root")
        self.mounts = MountTable(node, self.root_ns)
        self.next_port = 30000
        #: Fault state: a crashed node refuses spawns until rebooted.
        self.down = False
        #: Fault state: local writes fail with ENOSPC until this time.
        self.disk_full_until = -1.0

    def alloc_pid(self) -> int:
        """Allocate a free pid, wrapping like a real pid counter."""
        for _ in range(self.pid_max):
            pid = self.next_pid
            self.next_pid += 1
            if self.next_pid >= self.pid_max:
                self.next_pid = 100
            if pid not in self.processes:
                return pid
        raise KernelError(f"{self.node.hostname}: pid space exhausted")

    def alloc_port(self) -> int:
        """Allocate the next ephemeral port."""
        port = self.next_port
        self.next_port += 1
        return port


class World:
    """The simulated cluster operating system."""

    def __init__(
        self,
        machine: Machine,
        seed: int = 0,
        pid_max: int = 30000,
        tracer: Optional[Tracer] = None,
    ):
        self.machine = machine
        self.engine = machine.engine
        self.spec: HardwareSpec = machine.spec
        #: The cluster-wide tracer (disabled by default, zero-cost).
        #: Every layer -- engine, scheduler, syscalls, DMTCP -- reports
        #: into this one instance, keyed on virtual time.
        self.tracer = tracer or Tracer(clock=lambda: self.engine.now)
        self.engine.tracer = self.tracer
        self.scheduler = Scheduler(self.engine)
        #: Hot-path caches for _dispatch (per-syscall attribute chains).
        self._syscall_s = self.spec.os.syscall_s
        self._call_after = self.engine.call_after
        self.rng = RandomStreams(seed)
        self.pid_max = pid_max
        self.nodes: dict[str, _NodeState] = {
            node.hostname: _NodeState(self, node) for node in machine.nodes
        }
        self.programs: dict[str, tuple[ProgramSpec, Callable]] = {}
        self._listeners: dict[tuple[str, int], ListenerSocket] = {}
        self._unix_listeners: dict[tuple[str, str], ListenerSocket] = {}
        self.shm_segments: dict[tuple[str, str], Any] = {}
        #: Memory-region ids, handed to every address space of this world.
        self.region_ids = itertools.count(1)
        #: Interposition registry: env-var name -> factory.  A process
        #: whose environment carries the variable gets its syscall
        #: interface wrapped by the factory (the LD_PRELOAD analogue).
        #: DMTCP registers under HIJACK_ENV; baselines register their own.
        self.interpose_factories: dict[str, Callable[["World", Process, Sys], Sys]] = {}
        #: Processes created since boot, spawned and forked (the
        #: ``processes`` line of Linux's /proc/stat).  The world keeps no
        #: list of them: a process that has exited and been reaped is
        #: referenced by whoever still holds it, or freed.
        self.processes_created = 0
        #: Sharded execution (repro.sim.parallel): the shard binding and
        #: its kernel fabric layer, or None when running serially.  When
        #: set, spawns filter to owned nodes and cross-node connects go
        #: through the fabric.
        self.shard = None
        self.fabric = None
        #: Content-addressed checkpoint chunk store (repro.store); set by
        #: DmtcpComputation(store=True), None on the monolithic path.
        self.store = None
        #: Syscall-name -> bound handler cache (avoids a per-dispatch
        #: f-string + getattr on the hot path).
        self._sys_handlers: dict[str, Callable] = {}

    # ------------------------------------------------------------------
    # Program registry and spawning
    # ------------------------------------------------------------------
    def register_program(
        self, name: str, main: Callable, spec: Optional[ProgramSpec] = None
    ) -> None:
        """Register ``main(sys, argv)`` under ``name``."""
        self.programs[name] = (spec or DEFAULT_SPEC, main)

    def lookup_program(self, name: str) -> tuple[ProgramSpec, Callable]:
        """Resolve a registered program or raise ENOENT."""
        try:
            return self.programs[name]
        except KeyError:
            raise SyscallError("ENOENT", f"no such program: {name}") from None

    def node_state(self, hostname: str) -> _NodeState:
        """Per-node kernel tables for ``hostname``."""
        try:
            return self.nodes[hostname]
        except KeyError:
            raise SyscallError("EHOSTUNREACH", hostname) from None

    def spawn_process(
        self,
        hostname: str,
        program: str,
        argv: Optional[list[str]] = None,
        env: Optional[dict[str, str]] = None,
        parent: Optional[Process] = None,
    ) -> Process:
        """Create a process running ``program`` (init/sshd entry point)."""
        spec, main = self.lookup_program(program)
        ns = self.node_state(hostname)
        if ns.down:
            raise SyscallError("EHOSTDOWN", hostname)
        shard = self.shard
        if shard is not None and not shard.owns(hostname):
            # SPMD spawn filter: the owning shard instantiates the real
            # process; this replica holds a stub (per-node pid/port
            # counters stay untouched, so owned sequences never skew)
            from repro.kernel.fabric import RemoteProcess

            shard.stats["remote_spawns"] += 1
            return RemoteProcess(hostname, program, argv or [program])
        pid = ns.alloc_pid()
        process = Process(self, ns.node, pid, program, argv or [program], env or {}, parent)
        ns.processes[pid] = process
        self.processes_created += 1
        if parent is not None:
            parent.children.append(process)
        process.build_image_from_spec(spec)
        process.sys = self._make_sys(process)
        self._start_main_thread(process, main)
        return process

    @property
    def hijack_factory(self):
        """The DMTCP interposition factory (back-compat accessor)."""
        return self.interpose_factories.get(HIJACK_ENV)

    @hijack_factory.setter
    def hijack_factory(self, factory) -> None:
        self.interpose_factories[HIJACK_ENV] = factory

    def _make_sys(self, process: Process) -> Sys:
        base = Sys()
        for env_key, factory in self.interpose_factories.items():
            if process.env.get(env_key):
                return factory(self, process, base)
        return base

    def _start_main_thread(self, process: Process, main: Callable) -> Thread:
        thread = Thread(process, f"{process.program}[{process.pid}]")
        process.add_thread(thread)
        gen = self._thread_body(thread, main(process.sys, process.argv), is_main=True)
        task = self.scheduler.spawn(gen, name=thread.name, handler=self._dispatch)
        task.context = thread
        thread.task = task
        return thread

    def spawn_thread(
        self, process: Process, gen, name: str, kind: str = "user",
        detached: bool = False,
    ) -> Thread:
        """Start an extra thread in ``process`` driving ``gen``.

        A manager-kind or detached thread retires when its task finishes;
        any other user thread stays listed, for ``thread_join`` to find
        by tid.
        """
        thread = Thread(process, name, kind=kind)
        process.add_thread(thread)
        task = self.scheduler.spawn(
            self._thread_body(thread, gen, is_main=False), name=name, handler=self._dispatch
        )
        task.context = thread
        thread.task = task
        if kind == "manager" or detached:
            task.done_future.add_done(thread.retire)
        return thread

    def _thread_body(self, thread: Thread, gen, is_main: bool):
        """Wrap a thread generator: main-thread return implies exit(0).

        The owning process is read through ``thread`` *at exit time*, not
        captured: a checkpointed continuation adopted into a restarted
        process must terminate the new process, not the dead original.
        """
        try:
            result = yield from gen
        except Exception:
            # an unhandled error kills the whole process, like an uncaught
            # exception / fatal signal would; the scheduler records it
            self.terminate_process(thread.process, code=1)
            raise
        if is_main and thread.process.alive:
            self.terminate_process(thread.process, code=0)
        return result

    # ------------------------------------------------------------------
    # Process lifecycle
    # ------------------------------------------------------------------
    def terminate_process(self, process: Process, code: int) -> None:
        """Normal exit / fatal signal: threads die, fds close, and a zombie
        is left for a living parent to wait for (init reaps any other)."""
        if process.state != "running":
            return
        process.state = "zombie"
        process.exit_code = code
        for thread in process.live_threads:
            task = thread.task
            if task is None or task.done:
                continue
            if task.state is TaskState.FROZEN:
                # a checkpoint image may still reference this frozen
                # continuation (a restored member exiting after an
                # aborted restart): seal it for the dead context but
                # keep it thawable for the next restore attempt
                task.seal()
            else:
                task.drop()
        for fd in list(process.fds):
            entry = process.fds.pop(fd)
            entry.description.decref()
        parent = process.parent
        if parent is not None and parent.alive:
            parent.pending_signals.append(SIGCHLD)
        self._orphan_children(process)
        process.exited.resolve(code)
        if parent is None or not parent.alive:
            # nobody will wait for it: init reaps it at once
            self.reap_process(process)

    def _orphan_children(self, process: Process) -> None:
        """``process`` is gone: init adopts its children and reaps those
        that have already exited."""
        for child in process.children:
            child.parent = None
            self.reap_process(child)

    def reap_process(self, process: Process) -> None:
        """Retire a zombie and free its pid.

        Its finished threads retire too (:meth:`Thread.retire`), so the
        process and its threads form no reference cycle and are freed by
        reference counting once nobody holds the process (DESIGN.md §8).
        A frozen continuation stays listed: a checkpoint image holds it
        for the restart to adopt.
        """
        if process.state != "zombie":
            return
        process.state = "dead"
        self.node_state(process.node.hostname).processes.pop(process.pid, None)
        for thread in list(process.threads):
            if thread.task is None or thread.task.done:
                thread.retire()

    def destroy_process(self, process: Process, keep_continuations: bool = False) -> None:
        """Hard kill from outside (cluster failure / checkpoint teardown).

        With ``keep_continuations`` the user threads' tasks are left
        frozen and sealed -- the restart path thaws them inside rebuilt
        processes.  Manager-kind threads are dropped: an image never holds
        one (the restored process starts a fresh manager).
        """
        if process.state == "dead":
            return
        if keep_continuations:
            for thread in process.live_threads:
                task = thread.task
                if thread.kind == "manager":
                    task.drop()
                    continue
                if task.state is not TaskState.FROZEN and not task.done:
                    task.freeze()
                task.seal()
            process.state = "zombie"
            process.exit_code = -SIGKILL
            for fd in list(process.fds):
                entry = process.fds.pop(fd)
                entry.description.decref()
            if not process.exited.done:
                process.exited.resolve(-SIGKILL)
            self.reap_process(process)
        else:
            self.terminate_process(process, code=-SIGKILL)
            self.reap_process(process)

    # ------------------------------------------------------------------
    # Crash semantics (fault injection)
    # ------------------------------------------------------------------
    def crash_process(self, process: Process, *, reset_peers: bool = False) -> None:
        """Silent vanish: the process dies without closing anything.

        Unlike :meth:`terminate_process`, no FIN reaches the peers: their
        ``recv`` keeps hanging and their sends raise ECONNRESET -- the
        exact failure mode a kernel panic or power loss produces, and the
        deadlock the supervision layer exists to break.  No SIGCHLD is
        delivered (the parent may itself be gone).

        With ``reset_peers=True`` the host kernel is assumed to survive
        the crash and reset the dead process's connections, so blocked
        peers wake to EOF immediately instead of hanging until their recv
        deadline -- the failure mode of an infrastructure process (the
        coordinator, a tree gateway) dying on an otherwise healthy host.
        """
        if process.state == "dead":
            return
        process.state = "zombie"
        process.exit_code = -SIGKILL
        for thread in process.live_threads:
            task = thread.task
            if task is None or task.done:
                continue
            # continuations survive the crash, exactly as in checkpoint
            # teardown: a checkpoint image taken earlier references these
            # same task objects, and the restart path must still be able
            # to thaw them inside rebuilt processes (DESIGN.md's
            # continuation substitution for memory contents)
            if task.state is not TaskState.FROZEN:
                task.freeze()
            task.seal()
        for fd in list(process.fds):
            entry = process.fds.pop(fd)
            desc = entry.description
            if desc.refcount > 1:
                desc.refcount -= 1  # a surviving sharer keeps it open
            else:
                desc.refcount = 0
                peer = (
                    desc.peer
                    if reset_peers and isinstance(desc, SocketEndpoint)
                    else None
                )
                self._vanish_description(desc)
                if peer is not None:
                    self._vanish_description(peer)
        self._orphan_children(process)
        if not process.exited.done:
            process.exited.resolve(-SIGKILL)
        self.reap_process(process)

    def _vanish_description(self, desc) -> None:
        """Tear a description down without graceful-close side effects."""
        if isinstance(desc, SocketEndpoint):
            desc.closed = True
            desc.connected = False
            desc.rx.cancel_waiters()
        elif isinstance(desc, ListenerSocket):
            desc.closed = True
            if desc.addr is not None:
                self.release_port(desc.node, desc.addr[1])
            if desc.path is not None:
                self.release_unix_path(desc.node, desc.path)
            for ep in desc.backlog:
                ep.closed = True
            desc.backlog.clear()

    def reset_connections(self, a: str, b: str) -> int:
        """Abort every established stream between hosts ``a`` and ``b``.

        Models a dropped-frame storm / middlebox reset: in-flight bytes
        are lost and no FIN is exchanged -- both sides are vanished, so
        each blocked reader wakes to EOF and each later send raises
        ECONNRESET, which is exactly the broken-channel signal the
        resilience layer's reconnect machinery keys on.  Both hosts stay
        up; only the connections die.  Returns the number of streams
        reset.
        """
        reset = 0
        for process in self.live_processes():
            if process.node.hostname != a:
                continue
            for entry in list(process.fds.values()):
                desc = entry.description
                if (
                    isinstance(desc, SocketEndpoint)
                    and desc.connected
                    and desc.peer_hostname == b
                ):
                    peer = desc.peer
                    self._vanish_description(desc)
                    if peer is not None:
                        self._vanish_description(peer)
                    reset += 1
        return reset

    def crash_node(self, hostname: str) -> None:
        """Power the node off: every process vanishes, spawns fail with
        EHOSTDOWN until :meth:`reboot_node`.  The local filesystem is
        non-volatile and survives (checkpoint images stay readable after
        a reboot or from a relocated restart)."""
        ns = self.node_state(hostname)
        ns.down = True
        if self.store is not None:
            self.store.drop_cache(hostname)  # page cache is volatile
        for process in list(ns.processes.values()):
            self.crash_process(process)

    def reboot_node(self, hostname: str) -> None:
        """Bring a crashed node back with a fresh (empty) process table."""
        self.node_state(hostname).down = False

    def set_disk_full(self, hostname: str, until: float) -> None:
        """Local writes on ``hostname`` fail with ENOSPC until ``until``."""
        self.node_state(hostname).disk_full_until = until

    def find_process(self, hostname: str, pid: int) -> Optional[Process]:
        """Look up a (possibly dead) process by node and pid."""
        return self.node_state(hostname).processes.get(pid)

    def live_processes(self) -> list[Process]:
        """Every currently running process, cluster-wide."""
        return [
            p
            for ns in self.nodes.values()
            for p in ns.processes.values()
            if p.alive
        ]

    # ------------------------------------------------------------------
    # Listener registries
    # ------------------------------------------------------------------
    def register_listener(self, listener: ListenerSocket) -> None:
        """Claim the listener's port/path in the cluster-wide registry."""
        if listener.addr is not None:
            key = (listener.node.hostname, listener.addr[1])
            if key in self._listeners:
                raise SyscallError("EADDRINUSE", str(key))
            self._listeners[key] = listener
        if listener.path is not None:
            ukey = (listener.node.hostname, listener.path)
            if ukey in self._unix_listeners:
                raise SyscallError("EADDRINUSE", str(ukey))
            self._unix_listeners[ukey] = listener

    def release_port(self, node, port: int) -> None:
        """Free a TCP port (listener closed)."""
        self._listeners.pop((node.hostname, port), None)

    def release_unix_path(self, node, path: str) -> None:
        """Free a unix-socket path (listener closed)."""
        self._unix_listeners.pop((node.hostname, path), None)

    def lookup_listener(
        self, hostname: str, port: int, path: Optional[str]
    ) -> Optional[ListenerSocket]:
        """Find the listener a connect() should reach, if any."""
        if path is not None:
            return self._unix_listeners.get((hostname, path))
        return self._listeners.get((hostname, port))

    # ------------------------------------------------------------------
    # Syscall dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, task: Task, call) -> None:
        thread: Thread = task.context
        process: Process = thread.process
        if not process.alive:
            return  # process died under this thread's feet
        handler = self._sys_handlers.get(call.name)
        if handler is None:
            handler = getattr(self, f"_sys_{call.name}", None)
            if handler is None:
                task.fail_call(SyscallError("ENOSYS", call.name))
                return
            self._sys_handlers[call.name] = handler
        tracer = self.engine._trace_hot
        if tracer is not None:
            tracer.count("sys.total")
            tracer.count(f"sys.{call.name}")
        # args ride in the Event's tuple; no per-syscall callable object
        self._call_after(
            self._syscall_s, self._run_syscall, task, task.epoch, handler,
            thread, process, call,
        )

    def _run_syscall(self, task: Task, epoch: int, handler, thread, process, call) -> None:
        """The deferred body of one dispatched syscall (after syscall_s)."""
        if task.state in _FINISHED_STATES or task.epoch != epoch or task.state is TaskState.FROZEN:
            return
        try:
            handler(task, thread, process, *call.args, **call.kwargs)
        except SyscallError as err:
            task.fail_call(err)

    def _settle(self, task: Task, fut, value=None) -> _Settle:
        """Complete ``task``'s pending call when ``fut`` settles, with the
        future's value or, if not None, with ``value``."""
        ticket = _Settle(task, fut, value)
        fut.add_done(ticket)
        return ticket

    # ------------------------------------------------------------------
    # Trivial process syscalls
    # ------------------------------------------------------------------
    def _sys_getpid(self, task, thread, process) -> None:
        task.complete_call(process.pid)

    def _sys_getppid(self, task, thread, process) -> None:
        task.complete_call(process.parent.pid if process.parent else 0)

    def _sys_gethostname(self, task, thread, process) -> None:
        task.complete_call(process.node.hostname)

    def _sys_time(self, task, thread, process) -> None:
        task.complete_call(self.engine.now)

    def _sys_sleep(self, task, thread, process, seconds: float) -> None:
        self._call_after(seconds, Completion(task))

    def _sys_cpu(self, task, thread, process, seconds: float) -> None:
        self._settle(task, process.node.cpu_burst(seconds))

    def _sys_nodes(self, task, thread, process) -> None:
        task.complete_call(list(self.nodes))

    def _sys_getenv(self, task, thread, process, key, default) -> None:
        task.complete_call(process.env.get(key, default))

    def _sys_setenv(self, task, thread, process, key, value) -> None:
        process.env[key] = value
        task.complete_call(None)

    def _sys_environ(self, task, thread, process) -> None:
        task.complete_call(dict(process.env))

    def _sys_signal(self, task, thread, process, sig, action) -> None:
        process.signal_handlers[sig] = action
        task.complete_call(None)

    def _sys_kill(self, task, thread, process, pid, sig) -> None:
        target = self.find_process(process.node.hostname, pid)
        if target is None or not target.alive:
            raise SyscallError("ESRCH", f"pid {pid}")
        action = target.signal_handlers.get(sig, "default")
        if sig == SIGKILL or (action == "default" and sig in (SIGHUP, SIGINT, SIGTERM)):
            self.terminate_process(target, code=-sig)
        elif action == "ignore":
            pass
        else:
            target.pending_signals.append(sig)
        task.complete_call(None)

    # ------------------------------------------------------------------
    # fork / exec / exit / wait
    # ------------------------------------------------------------------
    def _fork_cost(self, process: Process) -> float:
        mb = process.address_space.total_bytes / 2**20
        return self.spec.os.fork_base_s + mb * self.spec.os.fork_per_mb_s

    def _sys_fork(self, task, thread, process, child_main, *args) -> None:
        done = Completion(task)

        def do_fork() -> None:
            if not done.live:
                return
            ns = self.node_state(process.node.hostname)
            pid = ns.alloc_pid()
            child = Process(
                self, process.node, pid, process.program, process.argv, dict(process.env), process
            )
            ns.processes[pid] = child
            self.processes_created += 1
            process.children.append(child)
            child.address_space = process.address_space.fork_copy()
            process.fork_fd_table(child)
            child.signal_handlers = dict(process.signal_handlers)
            child.ctty = process.ctty
            child.sid = process.sid
            child.sys = self._make_sys(child)
            self._start_main_thread(child, lambda sys, argv: child_main(sys, *args))
            done.ok(pid)

        self.engine.call_after(self._fork_cost(process), do_fork)

    def _sys_execve(self, task, thread, process, program, argv, env) -> None:
        spec, main = self.lookup_program(program)

        def do_exec() -> None:
            if not process.alive:
                return
            for fd in [f for f, e in process.fds.items() if e.cloexec]:
                process.drop_fd(fd)
            for t in process.live_threads:
                if t.task is not task and not t.task.done:
                    t.task.drop()
            process.threads = []
            process.threads_started = 0
            process.user_state.clear()
            process.signal_handlers = {}
            process.program = program
            process.argv = list(argv)
            if env is not None:
                process.env = dict(env)
            process.build_image_from_spec(spec)
            process.sys = self._make_sys(process)
            self._start_main_thread(process, main)
            task.drop()  # execve does not return

        self.engine.call_after(self.spec.os.exec_s, do_exec)

    def _sys_spawn(self, task, thread, process, program, argv, env) -> None:
        spec, main = self.lookup_program(program)
        done = Completion(task)

        def do_spawn() -> None:
            if not done.live:
                return
            merged = dict(process.env)
            if env:
                merged.update(env)
            child = self.spawn_process(
                process.node.hostname, program, argv, merged, parent=process
            )
            done.ok(child.pid)

        self.engine.call_after(
            self._fork_cost(process) + self.spec.os.exec_s, do_spawn
        )

    def _sys_exit(self, task, thread, process, code) -> None:
        self.terminate_process(process, code)
        # task was dropped by terminate_process

    def _sys_waitpid(self, task, thread, process, pid) -> None:
        child = next((c for c in process.children if c.pid == pid), None)
        if child is None:
            raise SyscallError("ECHILD", f"pid {pid}")
        done = Completion(task)

        def reap() -> None:
            if not done.live:
                return
            if child in process.children:
                process.children.remove(child)
            self.reap_process(child)
            done.ok((pid, child.exit_code))

        if child.state == "zombie":
            reap()
        else:
            child.exited.add_done(reap)

    # ------------------------------------------------------------------
    # Threads and semaphores
    # ------------------------------------------------------------------
    def _sys_thread_create(self, task, thread, process, fn, *args, detached=False) -> None:
        name = f"{process.program}[{process.pid}]-t{process.threads_started}"
        new_thread = self.spawn_thread(
            process, fn(process.sys, *args), name, detached=detached
        )
        task.complete_call(new_thread.tid)

    def _sys_thread_join(self, task, thread, process, tid) -> None:
        target = next((t for t in process.threads if t.tid == tid), None)
        if target is None or target.task is None:
            raise SyscallError("ESRCH", f"tid {tid}")
        target.task.done_future.add_done(Completion(task))

    def _semaphores(self, process: Process) -> dict[int, Semaphore]:
        return process.user_state.setdefault("_semaphores", {})

    def _sys_sem_create(self, task, thread, process, value) -> None:
        sem = Semaphore(value)
        self._semaphores(process)[sem.sem_id] = sem
        task.complete_call(sem.sem_id)

    def _sys_sem_acquire(self, task, thread, process, sem_id) -> None:
        sem = self._semaphores(process).get(sem_id)
        if sem is None:
            raise SyscallError("EINVAL", f"semaphore {sem_id}")
        sem.unpark(task)  # drop any stale park from a pre-freeze attempt
        if sem.try_acquire():
            task.complete_call(None)
        else:
            sem.park(task)

    def _sys_sem_release(self, task, thread, process, sem_id) -> None:
        sem = self._semaphores(process).get(sem_id)
        if sem is None:
            raise SyscallError("EINVAL", f"semaphore {sem_id}")
        sem.release()
        task.complete_call(None)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------
    def _sys_mmap(self, task, thread, process, size, profile, shared, path, kind) -> None:
        from repro.kernel.memory import PROFILES

        prof = PROFILES.get(profile)
        if prof is None:
            raise SyscallError("EINVAL", f"profile {profile}")
        if shared and path is not None:
            mount = self.node_state(process.node.hostname).mounts.resolve(path)
            key = (mount.namespace.name, path)
            region = self.shm_segments.get(key)
            if region is None:
                region = process.address_space.map_region(
                    size, "shm", prof, path=path, shared=True
                )
                self.shm_segments[key] = region
                if mount.namespace.lookup(path) is None:
                    backing = mount.namespace.create(path)
                    backing.size = region.size
            else:
                process.address_space.attach(region)
            task.complete_call(region.region_id)
            return
        region = process.address_space.map_region(size, kind, prof, path=path, shared=shared)
        task.complete_call(region.region_id)

    def _sys_munmap(self, task, thread, process, region_id) -> None:
        try:
            process.address_space.unmap(region_id)
        except KernelError as err:
            raise SyscallError("EINVAL", str(err)) from None
        task.complete_call(None)

    def _sys_sbrk(self, task, thread, process, nbytes, profile) -> None:
        from repro.kernel.memory import PROFILES

        prof = PROFILES.get(profile)
        if prof is None:
            raise SyscallError("EINVAL", f"profile {profile}")
        region = process.address_space.sbrk(nbytes, prof)
        task.complete_call(region.region_id)

    def _sys_mem_touch(self, task, thread, process, region_id, fraction) -> None:
        try:
            process.address_space.find(region_id).touch(fraction)
        except KernelError as err:
            raise SyscallError("EINVAL", str(err)) from None
        task.complete_call(None)

    def _sys_proc_maps(self, task, thread, process) -> None:
        from repro.kernel.procfs import render_maps

        task.complete_call(render_maps(process))

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------
    def _sys_open(self, task, thread, process, path, flags) -> None:
        ns = self.node_state(process.node.hostname)
        mount = ns.mounts.resolve(path)
        file = mount.namespace.lookup(path)
        if file is None:
            if "r" == flags:
                raise SyscallError("ENOENT", path)
            file = mount.namespace.create(path)
        if flags == "w":  # write-only open truncates; "rw" does not
            file.size = 0
            file.payload = None
        desc = OpenFile(file, mount, ns.mounts, flags)
        fd = process.alloc_fd(desc)
        self._call_after(self.spec.disk.op_latency_s, Completion(task, fd))

    def _sys_close(self, task, thread, process, fd) -> None:
        process.drop_fd(fd)
        task.complete_call(None)

    def _sys_close_range(self, task, thread, process, lo, hi) -> None:
        for fd in sorted(f for f in process.fds if lo <= f <= hi):
            process.drop_fd(fd)
        # a dict keeps the capacity of its largest size: a restored child
        # that sweeps away the restarter's table holds a table its size
        process.fds = dict(process.fds)
        task.complete_call(None)

    def _sys_dup2(self, task, thread, process, oldfd, newfd) -> None:
        desc = process.get_fd(oldfd)
        process.install_fd(newfd, desc)
        task.complete_call(newfd)

    def _sys_write(self, task, thread, process, fd, nbytes, payload, offset=None) -> None:
        desc = process.get_fd(fd)
        if not isinstance(desc, OpenFile):
            raise SyscallError("EINVAL", f"fd {fd} is not a file; use send")
        if not desc.writable:
            raise SyscallError("EBADF", f"fd {fd} not writable")
        self._check_disk_space(process, desc)
        if offset is not None:
            desc.offset = offset
        fut = desc.table.charge_write(desc.mount, nbytes)
        fut.add_done(_FileIO(self, task, desc, nbytes, fut, True, payload))

    def _check_disk_space(self, process, desc) -> None:
        """ENOSPC while the node's local disk is full (fault injection)."""
        if desc.mount.storage == "local":
            ns = self.nodes[process.node.hostname]
            if ns.disk_full_until > self.engine.now:
                raise SyscallError("ENOSPC", desc.file.path)

    def _page_cached(self, desc) -> bool:
        """Is the file still resident in the page cache (just written)?"""
        return (
            self.engine.now - desc.file.last_write_time
            < self.spec.disk.cache_retention_s
        )

    def _sys_read(self, task, thread, process, fd, nbytes) -> None:
        desc = process.get_fd(fd)
        if not isinstance(desc, OpenFile):
            raise SyscallError("EINVAL", f"fd {fd} is not a file; use recv")
        avail = desc.file.size - desc.offset
        n = max(min(nbytes, avail), 0)
        if n == 0:
            task.complete_call((0, None))
            return
        fut = desc.table.charge_read(desc.mount, n, self._page_cached(desc))
        fut.add_done(_FileIO(self, task, desc, n, fut, False))

    def _sys_stream(self, task, thread, process, fd, nbytes, cpu_s, edge_bytes, write, payload, offset=None) -> None:
        """See :meth:`Sys.stream` and :class:`_BlockStream`; the stage
        waits in the result are measured only under the tracer."""
        desc = process.get_fd(fd)
        if not isinstance(desc, OpenFile):
            raise SyscallError("EINVAL", f"fd {fd} is not a file")
        if edge_bytes <= 0:
            raise SyscallError("EINVAL", f"edge block size {edge_bytes}")
        stages = tuple(cpu_s) if isinstance(cpu_s, (tuple, list)) else (cpu_s,)
        if not stages:
            raise SyscallError("EINVAL", "a stream needs a CPU stage")
        if offset is not None:
            desc.offset = offset
        if write:
            if not desc.writable:
                raise SyscallError("EBADF", f"fd {fd} not writable")
        else:
            nbytes = max(min(nbytes, desc.file.size - desc.offset), 0)
        if nbytes <= 0:  # nothing to move: the CPU stages alone
            self._settle(
                task,
                process.node.cpu_burst(sum(stages)),
                value=(0, 0.0, (0.0,) * len(stages), 0.0, 0.0),
            )
            return
        _BlockStream(
            self, task, process, desc, nbytes, stages, edge_bytes, write, payload
        ).step()

    def _sys_lseek(self, task, thread, process, fd, offset) -> None:
        desc = process.get_fd(fd)
        if not isinstance(desc, OpenFile):
            raise SyscallError("ESPIPE", f"fd {fd}")
        desc.offset = offset
        task.complete_call(offset)

    def _sys_fsync(self, task, thread, process, fd) -> None:
        desc = process.get_fd(fd)
        if isinstance(desc, OpenFile) and desc.mount.storage == "local":
            self._settle(task, process.node.disk.sync())
        else:
            task.complete_call(None)

    def _sys_sync(self, task, thread, process) -> None:
        self._settle(task, process.node.disk.sync())

    def _sys_unlink(self, task, thread, process, path) -> None:
        ns = self.node_state(process.node.hostname)
        mount = ns.mounts.resolve(path)
        mount.namespace.unlink(path)
        task.complete_call(None)

    def _sys_rename(self, task, thread, process, old, new) -> None:
        ns = self.node_state(process.node.hostname)
        mount = ns.mounts.resolve(old)
        if ns.mounts.resolve(new) is not mount:
            raise SyscallError("EXDEV", f"{old} -> {new}")
        mount.namespace.rename(old, new)
        self._call_after(self.spec.disk.op_latency_s, Completion(task))

    def _sys_stat(self, task, thread, process, path) -> None:
        ns = self.node_state(process.node.hostname)
        mount = ns.mounts.resolve(path)
        file = mount.namespace.lookup(path)
        if file is None:
            task.complete_call(None)
        else:
            task.complete_call({"size": file.size, "perms": file.perms, "path": path})

    def _sys_listdir(self, task, thread, process, prefix) -> None:
        ns = self.node_state(process.node.hostname)
        mount = ns.mounts.resolve(prefix)
        task.complete_call(mount.namespace.listdir(prefix))

    def _sys_fcntl(self, task, thread, process, fd, cmd, arg) -> None:
        entry = process.fds.get(fd)
        if entry is None:
            raise SyscallError("EBADF", f"fd {fd}")
        if cmd == "F_SETOWN":
            entry.description.owner_pid = arg
            task.complete_call(None)
        elif cmd == "F_GETOWN":
            task.complete_call(entry.description.owner_pid)
        elif cmd == "F_SETFD_CLOEXEC":
            entry.cloexec = bool(arg)
            task.complete_call(None)
        elif cmd == "F_GETFD":
            task.complete_call(int(entry.cloexec))
        else:
            raise SyscallError("EINVAL", f"fcntl cmd {cmd}")

    # ------------------------------------------------------------------
    # Sockets
    # ------------------------------------------------------------------
    def _socket_desc(self, process, fd) -> SocketEndpoint:
        desc = process.get_fd(fd)
        if not isinstance(desc, SocketEndpoint):
            raise SyscallError("ENOTSOCK", f"fd {fd}")
        return desc

    def _sys_socket(self, task, thread, process, domain) -> None:
        ep = SocketEndpoint(self, process.node, domain)
        task.complete_call(process.alloc_fd(ep))

    def _sys_bind(self, task, thread, process, fd, port, path) -> None:
        ep = self._socket_desc(process, fd)
        if path is not None:
            ep.local_path = path
        else:
            if port == 0:
                port = self.node_state(process.node.hostname).alloc_port()
            ep.local_addr = (process.node.hostname, port)
        task.complete_call(ep.local_addr or ep.local_path)

    def _sys_listen(self, task, thread, process, fd, backlog) -> None:
        ep = self._socket_desc(process, fd)
        listener = ListenerSocket(self, process.node, ep.domain)
        if ep.local_addr is None and ep.local_path is None:
            # listen on an unbound socket: auto-bind an ephemeral port
            port = self.node_state(process.node.hostname).alloc_port()
            ep.local_addr = (process.node.hostname, port)
        listener.addr = ep.local_addr
        listener.path = ep.local_path
        listener.options = dict(ep.options)
        self.register_listener(listener)
        # replace the description in this slot with the listener
        entry = process.fds[fd]
        entry.description.decref()
        listener.incref()
        entry.description = listener
        task.complete_call(listener.addr or listener.path)

    def _sys_accept(self, task, thread, process, fd) -> None:
        desc = process.get_fd(fd)
        if not isinstance(desc, ListenerSocket):
            raise SyscallError("EINVAL", f"fd {fd} is not listening")
        _AcceptAttempt(task, desc, process)()

    def _sys_connect(self, task, thread, process, fd, host, port, path) -> None:
        ep = self._socket_desc(process, fd)
        if ep.connected:
            raise SyscallError("EISCONN", f"fd {fd}")
        if self.shard is not None and path is None and host != process.node.hostname:
            # sharded runtime: every cross-node connect handshakes over
            # the fabric (even shard-locally -- identical timing at any
            # shard count is what pins shards=1 == shards=N)
            self.fabric.connect(task, process, ep, host, port)
            return
        listener = self.lookup_listener(host, port, path)
        rtt = 2 * self.spec.network.latency_s if process.node.hostname != host else 1e-6
        done = Completion(task)
        refused = SyscallError("ECONNREFUSED", f"{host}:{port or path}")
        if listener is None or listener.closed:
            self.engine.call_after(rtt, done.fail, refused)
            return
        server_ep = SocketEndpoint(self, listener.node, ep.domain)
        server_ep.origin = "accept"
        server_ep.local_addr = listener.addr
        server_ep.local_path = listener.path
        if ep.local_addr is None and path is None:
            ep.local_addr = (
                process.node.hostname,
                self.node_state(process.node.hostname).alloc_port(),
            )
        ep.origin = ep.origin or "connect"
        connect_endpoints(ep, server_ep)

        def establish() -> None:
            if not done.live:
                return
            if listener.closed:
                done.fail(refused)
                return
            listener.push_established(server_ep)
            done.ok()

        self.engine.call_after(rtt, establish)

    def _sys_send(self, task, thread, process, fd, nbytes, data, ctrl) -> None:
        self._sys_send_chunk(task, thread, process, fd, Chunk(nbytes, data=data, ctrl=ctrl))

    def _sys_send_chunk(self, task, thread, process, fd, chunk, force=False) -> None:
        parked = thread.parked_send
        if parked is not None and parked.live:
            # this same call, re-issued at a thaw that no drain came
            # before: its first issue's reservation still stands in the
            # peer's queue and its ticket completes this one
            return
        ep = self._socket_desc(process, fd)
        check_pipe_direction(ep, "send")
        accepted = transmit(self, ep, chunk, force=force)
        if accepted is None:  # copied into the kernel synchronously
            task.complete_call(chunk.nbytes)
        else:
            thread.parked_send = self._settle(task, accepted, value=chunk.nbytes)

    def _sys_recv(self, task, thread, process, fd, timeout=None) -> None:
        ep = self._socket_desc(process, fd)
        check_pipe_direction(ep, "recv")
        attempt = _RecvAttempt(task, ep, timeout)
        attempt()
        if timeout is not None and task.pending_call is not None:
            # the function and a 1-tuple, not a bound method: ~10^4 of these
            # timers sit in the heap at once on the service workloads
            self.engine.call_after(timeout, _RecvAttempt.expire, attempt)

    def _sys_setsockopt(self, task, thread, process, fd, option, value) -> None:
        desc = process.get_fd(fd)
        if not isinstance(desc, (SocketEndpoint, ListenerSocket)):
            raise SyscallError("ENOTSOCK", f"fd {fd}")
        desc.options[option] = value
        if option in ("SO_RCVBUF", "SO_SNDBUF") and isinstance(desc, SocketEndpoint):
            desc.set_buffer_size(value)
        task.complete_call(None)

    def _sys_getsockname(self, task, thread, process, fd) -> None:
        desc = process.get_fd(fd)
        if isinstance(desc, ListenerSocket):
            task.complete_call(desc.addr or desc.path)
        elif isinstance(desc, SocketEndpoint):
            task.complete_call(desc.local_addr or desc.local_path)
        else:
            raise SyscallError("ENOTSOCK", f"fd {fd}")

    def _sys_socketpair(self, task, thread, process) -> None:
        a, b = make_socketpair(self, process.node)
        task.complete_call((process.alloc_fd(a), process.alloc_fd(b)))

    def _sys_pipe(self, task, thread, process) -> None:
        r, w = make_pipe(self, process.node)
        task.complete_call((process.alloc_fd(r), process.alloc_fd(w)))

    # ------------------------------------------------------------------
    # Terminals
    # ------------------------------------------------------------------
    def _sys_openpty(self, task, thread, process) -> None:
        pair = PtyPair(self, process.node)
        mfd = process.alloc_fd(pair.master)
        sfd = process.alloc_fd(pair.slave)
        task.complete_call((mfd, sfd))

    def _pty_of(self, process, fd) -> PtyPair:
        desc = process.get_fd(fd)
        pty = getattr(desc, "pty", None)
        if pty is None:
            raise SyscallError("ENOTTY", f"fd {fd}")
        return pty

    def _sys_ptsname(self, task, thread, process, fd) -> None:
        task.complete_call(self._pty_of(process, fd).name)

    def _sys_tcgetattr(self, task, thread, process, fd) -> None:
        task.complete_call(dict(self._pty_of(process, fd).termios))

    def _sys_tcsetattr(self, task, thread, process, fd, attrs) -> None:
        self._pty_of(process, fd).termios.update(attrs)
        task.complete_call(None)

    def _sys_setsid(self, task, thread, process) -> None:
        process.sid = process.pid
        process.ctty = None
        task.complete_call(process.sid)

    def _sys_setctty(self, task, thread, process, fd) -> None:
        pty = self._pty_of(process, fd)
        process.ctty = pty
        pty.session_sid = process.sid
        task.complete_call(None)

    # ------------------------------------------------------------------
    # Syslog
    # ------------------------------------------------------------------
    def _syslog_state(self, process) -> dict:
        if not hasattr(process, "syslog_state"):
            process.syslog_state = {"open": False, "ident": "", "messages": 0}
        return process.syslog_state

    def _sys_openlog(self, task, thread, process, ident) -> None:
        st = self._syslog_state(process)
        st["open"] = True
        st["ident"] = ident
        task.complete_call(None)

    def _sys_syslog(self, task, thread, process, message) -> None:
        self._syslog_state(process)["messages"] += 1
        task.complete_call(None)

    def _sys_closelog(self, task, thread, process) -> None:
        self._syslog_state(process)["open"] = False
        task.complete_call(None)

    # ------------------------------------------------------------------
    # Remote spawn
    # ------------------------------------------------------------------
    def _sys_ssh(self, task, thread, process, host, program, argv, env) -> None:
        self.node_state(host)  # raises EHOSTUNREACH for unknown hosts
        done = Completion(task)

        def spawn_remote() -> None:
            if not done.live:
                return
            try:
                child = self.spawn_process(host, program, argv, env or {}, parent=None)
            except SyscallError as err:  # e.g. EHOSTDOWN mid-connect
                done.fail(err)
                return
            done.ok((host, child.pid))

        self.engine.call_after(self.spec.os.ssh_connect_s, spawn_remote)

    # ------------------------------------------------------------------
    # Checkpoint support (implementable with signals in a real kernel)
    # ------------------------------------------------------------------
    def _sys_suspend_threads(self, task, thread, process) -> None:
        """Suspend every *user* thread of the calling process.

        The calling thread (DMTCP's checkpoint manager) keeps running.
        Cost: a quiesce constant plus one signal delivery per thread --
        MTCP really does this with per-thread signals.
        """
        targets = [
            t
            for t in process.user_threads
            if t is not thread and t.task is not None and not t.task.done
        ]
        cost = self.spec.os.suspend_quiesce_s + len(targets) * self.spec.os.signal_delivery_s

        done = Completion(task)

        def do_suspend() -> None:
            if not done.live:
                return
            for t in targets:
                sems = self._semaphores(process)
                if t.task.state is not TaskState.FROZEN and not t.task.done:
                    t.task.freeze()
                # remove from any semaphore wait queue; the acquire
                # re-issues at thaw
                for sem in sems.values():
                    sem.unpark(t.task)
            done.ok(len(targets))

        self.engine.call_after(cost, do_suspend)

    def _sys_resume_threads(self, task, thread, process) -> None:
        count = 0
        for t in process.user_threads:
            if t.task is not None and t.task.state is TaskState.FROZEN:
                t.task.thaw(handler=self._dispatch)
                count += 1
        task.complete_call(count)
