"""Cooperative tasks: simulated threads written as Python generators.

A task's body is a generator that *yields* the operations it wants the
surrounding world to perform:

* ``yield Timeout(dt)`` -- sleep ``dt`` seconds of virtual time;
* ``yield fut`` where ``fut`` is a :class:`Future` -- park until resolved;
* ``yield other_task`` -- join (park until the other task finishes);
* ``yield None`` -- cooperative reschedule at the current time;
* ``yield anything_else`` -- delegated to the task's *handler* (the
  simulated kernel installs a syscall dispatcher here).

The handler contract is central to how checkpoint/restart works in this
reproduction.  While a yielded call is being serviced, it is stored in
``task.pending_call``.  If the task is **frozen** mid-call (the moment
DMTCP suspends user threads), the handler abandons the call, and on thaw
the *same call object* is re-dispatched -- possibly against a brand-new
kernel context on a different simulated host.  This mirrors Linux's
``ERESTARTSYS``: the generator never observes the interruption, which is
exactly the transparency property the paper's MTCP layer provides with
signals.  Handlers must therefore make call effects atomic-at-completion.

A call that finishes *later* than its handler returned (a timer, a device
or network future, a wait queue) is finished through one
:class:`Completion` -- a ticket taken at dispatch that records
``(task, pending_call, epoch)`` and answers two questions:

* **live** -- the task is not finished, its epoch has not moved and it
  still waits on that same call.  A live ticket may deliver a *result*;
  if the task is frozen, ``complete_call`` parks the result for thaw and
  the call is not re-issued.
* **awake** -- live and not frozen.  Only an awake ticket may *take
  something on the task's behalf* (a chunk, a backlog entry, a permit, a
  fabric ack): a frozen task leaves it where it is, for the drain, and
  takes it when its call is re-issued at thaw.

A call whose *effect* happens at completion (fork, connect, a file
offset) checks the ticket **before** the effect.  :meth:`Task.seal` moves
the epoch, which makes every ticket of the old kernel context dead at
once: nothing that context still delivers changes the continuation, a
descriptor, a file or a process table of the restarted one.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Callable, Generator, Optional

from repro.errors import TaskCancelled, TaskError
from repro.sim.engine import Engine, Event

TaskGen = Generator[Any, Any, Any]
Handler = Callable[["Task", Any], None]


class Timeout:
    """Yieldable: suspend the task for ``delay`` virtual seconds."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise TaskError(f"negative timeout {delay}")
        self.delay = delay

    def __repr__(self) -> str:
        return f"Timeout({self.delay})"


class Future:
    """A write-once container tasks can wait on.

    ``resolve``/``reject`` wake all waiters.  Waiters may be discarded
    (by ``Task.freeze``) without disturbing other waiters.
    """

    __slots__ = ("_done", "_value", "_exc", "_waiters", "_callbacks", "name")

    def __init__(self, name: str = ""):
        self._done = False
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        # lazily created: most futures settle with one callback and no
        # task waiters, and the hot paths create hundreds of thousands
        self._waiters: Optional[list[Task]] = None
        self._callbacks: Optional[list[Callable[[], None]]] = None
        self.name = name

    def add_done(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` when the future settles (immediately if already done)."""
        if self._done:
            fn()
        elif self._callbacks is None:
            self._callbacks = [fn]
        else:
            self._callbacks.append(fn)

    @property
    def done(self) -> bool:
        """Has the future settled?"""
        return self._done

    @property
    def value(self) -> Any:
        """The settled value (raises the stored exception if rejected)."""
        if not self._done:
            raise TaskError(f"future {self.name!r} not resolved")
        if self._exc is not None:
            raise self._exc
        return self._value

    def resolve(self, value: Any = None) -> None:
        """Settle successfully, waking all waiters."""
        if self._done:
            raise TaskError(f"future {self.name!r} resolved twice")
        self._done = True
        self._value = value
        # _wake() inlined: settling is the single hottest Future path
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for fn in callbacks:
                fn()
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None
            for task in waiters:
                task._waiting_future = None
                task._scheduler._schedule_resume(task, value)

    def reject(self, exc: BaseException) -> None:
        """Settle with an error, throwing into all waiters."""
        if self._done:
            raise TaskError(f"future {self.name!r} resolved twice")
        self._done = True
        self._exc = exc
        self._wake()

    def _wake(self) -> None:
        callbacks = self._callbacks
        if callbacks is not None:
            self._callbacks = None
            for fn in callbacks:
                fn()
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None
            for task in waiters:
                task._waiting_future = None
                if self._exc is not None:
                    task._scheduler._schedule_throw(task, self._exc)
                else:
                    task._scheduler._schedule_resume(task, self._value)

    def _add_waiter(self, task: "Task") -> None:
        if self._waiters is None:
            self._waiters = [task]
        else:
            self._waiters.append(task)
        task._waiting_future = self

    def _discard_waiter(self, task: "Task") -> None:
        if self._waiters is not None:
            try:
                self._waiters.remove(task)
            except ValueError:
                pass
        if task._waiting_future is self:
            task._waiting_future = None

    def __repr__(self) -> str:
        state = "done" if self._done else f"pending({len(self._waiters or ())} waiters)"
        return f"<Future {self.name!r} {state}>"


class TaskState(enum.Enum):
    """Lifecycle of a task (see class docstring of Task)."""

    READY = "ready"  # resume scheduled on the engine
    RUNNING = "running"  # currently advancing inside the trampoline
    BLOCKED = "blocked"  # parked on a future / handler / timeout
    FROZEN = "frozen"  # checkpoint-suspended; continuation retained
    DONE = "done"
    CANCELLED = "cancelled"


#: Terminal task states, precomputed for the hot ``Task.done`` check.
_FINISHED_STATES = (TaskState.DONE, TaskState.CANCELLED)


class Task:
    """A simulated thread of control.

    Not created directly -- use :meth:`Scheduler.spawn`.
    """

    _ids = 0

    def __init__(self, scheduler: "Scheduler", gen: TaskGen, name: str, handler: Optional[Handler]):
        Task._ids += 1
        self.tid = Task._ids
        self.name = name or f"task-{self.tid}"
        self.gen = gen
        self.handler = handler
        self.state = TaskState.READY
        #: Yielded call currently being serviced by the handler (if any).
        self.pending_call: Any = None
        #: Resolves with the generator's return value (or its exception).
        self.done_future = Future(f"done:{self.name}")
        #: Arbitrary context slot for the owner (the kernel stores the
        #: simulated Thread object here).
        self.context: Any = None
        self._scheduler = scheduler
        self._waiting_future: Optional[Future] = None
        self._resume_event: Optional[Event] = None
        #: Result of a call that completed while the task was frozen:
        #: (value, exc) delivered at thaw -- the simulated analogue of a
        #: syscall finishing while the process is stopped.
        self._frozen_result: Optional[tuple[Any, Optional[BaseException]]] = None
        #: Bumped by :meth:`seal`.  A :class:`Completion` records the epoch
        #: at dispatch time and is dead once it has moved on -- this severs
        #: a checkpointed continuation from stale events of the dead
        #: pre-checkpoint kernel context.
        self.epoch = 0

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """Has the task finished (normally or cancelled)?"""
        return self.state in _FINISHED_STATES

    @property
    def result(self) -> Any:
        """The generator's return value (raises if the task failed)."""
        return self.done_future.value

    def complete_call(self, value: Any = None) -> None:
        """Handler callback: the pending call finished with ``value``.

        If the task is frozen (checkpoint suspension), the result is
        parked and delivered at :meth:`thaw` instead of resuming now.
        Completions aimed at finished tasks are dropped silently, like a
        wakeup delivered to a process that died.
        """
        if self.state in _FINISHED_STATES:
            return
        if self.pending_call is None:
            raise TaskError(f"{self.name}: no pending call to complete")
        self.pending_call = None
        if self.state is TaskState.FROZEN:
            self._frozen_result = (value, None)
        else:
            # _schedule_resume inlined (hot: one per completed syscall)
            sched = self._scheduler
            self.state = TaskState.READY
            self._resume_event = sched.engine.call_soon(sched._advance, self, value, None)

    def fail_call(self, exc: BaseException) -> None:
        """Handler callback: the pending call failed with ``exc``."""
        if self.state in _FINISHED_STATES:
            return
        if self.pending_call is None:
            raise TaskError(f"{self.name}: no pending call to fail")
        self.pending_call = None
        if self.state is TaskState.FROZEN:
            self._frozen_result = (None, exc)
        else:
            self._scheduler._schedule_throw(self, exc)

    # ------------------------------------------------------------------
    # Checkpoint machinery
    # ------------------------------------------------------------------
    def freeze(self) -> None:
        """Detach this task from the engine, retaining its continuation.

        Any scheduled resume is cancelled, any future wait is abandoned.
        ``pending_call`` is kept so the call can be re-dispatched on thaw.
        The *handler-side* bookkeeping (wait queues inside the kernel) must
        be cleaned up by the handler's owner before or after freezing.
        """
        if self.done:
            raise TaskError(f"{self.name}: cannot freeze a finished task")
        if self._resume_event is not None:
            # A resume was already scheduled (e.g. a completed syscall).
            # Capture its (value, exc) so the result is not lost: it is
            # delivered at thaw, like a syscall return pending on a
            # stopped process.  Event args are (task, value, exc).
            ev = self._resume_event
            ev.cancel()
            self._resume_event = None
            self._frozen_result = (ev.args[1], ev.args[2])
        if self._waiting_future is not None:
            self._waiting_future._discard_waiter(self)
        self.state = TaskState.FROZEN

    def thaw(self, handler: Optional[Handler] = None, resume_value: Any = None) -> None:
        """Reactivate a frozen task, optionally under a new handler.

        If a call was pending at freeze time it is re-dispatched; otherwise
        the generator is resumed with ``resume_value``.
        """
        if self.state is not TaskState.FROZEN:
            raise TaskError(f"{self.name}: thaw on non-frozen task ({self.state})")
        if handler is not None:
            self.handler = handler
        if self._frozen_result is not None:
            value, exc = self._frozen_result
            self._frozen_result = None
            if exc is not None:
                self._scheduler._schedule_throw(self, exc)
            else:
                self._scheduler._schedule_resume(self, value)
        elif self.pending_call is not None:
            call, self.pending_call = self.pending_call, None
            self.state = TaskState.RUNNING  # _dispatch expects running state
            self._scheduler._dispatch(self, call)
        else:
            self._scheduler._schedule_resume(self, resume_value)

    def seal(self) -> None:
        """Invalidate every :class:`Completion` taken under the old epoch.

        Called when a frozen continuation's kernel context is destroyed
        (checkpoint-then-kill): whatever the dead context still delivers
        must not leak into the restarted one.  Any result already parked
        is part of the checkpointed state and is kept.
        """
        self.epoch += 1

    def cancel(self) -> None:
        """Throw :class:`TaskCancelled` into the generator."""
        if self.done:
            return
        if self._resume_event is not None:
            self._resume_event.cancel()
            self._resume_event = None
        if self._waiting_future is not None:
            self._waiting_future._discard_waiter(self)
        self.pending_call = None
        self._scheduler._schedule_throw(self, TaskCancelled(self.name))

    def drop(self) -> None:
        """Abandon the task entirely without closing its generator.

        Used when a checkpointed process image is discarded; the generator
        is simply released to the garbage collector.  The task leaves the
        scheduler's live set at once.
        """
        self._scheduler.tasks.discard(self)
        if self._resume_event is not None:
            self._resume_event.cancel()
            self._resume_event = None
        if self._waiting_future is not None:
            self._waiting_future._discard_waiter(self)
        self.state = TaskState.CANCELLED
        if not self.done_future.done:
            self.done_future.reject(TaskCancelled(self.name))

    def kill(self) -> None:
        """:meth:`drop` the task and unwind its generator at once.

        For a task whose owner lives on (a checkpoint rollback stopping
        its image writer): the generator's ``finally`` blocks -- which
        must not yield -- run now, in order, instead of whenever the
        collector finds the abandoned frame.
        """
        self.drop()
        self.gen.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Task {self.name} {self.state.value}>"


class Completion:
    """The ticket that finishes a pending call after its handler returned
    (the rule is in the module docstring).

    Taken at dispatch, held by whatever fires later: a timer, a
    ``Future.add_done``, a wait queue, a cross-shard message.  A stale
    ticket delivers nothing.  Calling the ticket delivers its ``value``
    slot, so a parked completion is this one object.
    """

    __slots__ = ("task", "call", "epoch", "value")

    def __init__(self, task: "Task", value: Any = None):
        self.task = task
        self.call = task.pending_call
        self.epoch = task.epoch
        self.value = value

    @property
    def live(self) -> bool:
        """May a result be delivered?  (Parked by the task if frozen.)"""
        task = self.task
        return (
            task.state not in _FINISHED_STATES
            and task.epoch == self.epoch
            and task.pending_call is self.call
            and self.call is not None
        )

    @property
    def awake(self) -> bool:
        """May something be taken on the task's behalf right now?"""
        return self.live and self.task.state is not TaskState.FROZEN

    def ok(self, value: Any = None) -> None:
        """Complete the call with ``value`` if the ticket is live."""
        if self.live:
            self.task.complete_call(value)

    def fail(self, exc: BaseException) -> None:
        """Fail the call with ``exc`` if the ticket is live."""
        if self.live:
            self.task.fail_call(exc)

    def settle(self, fut: Future) -> None:
        """Deliver a settled future's outcome; a ``value`` that is not
        None replaces the future's own."""
        if fut._exc is not None:
            self.fail(fut._exc)
        else:
            self.ok(fut._value if self.value is None else self.value)

    def __call__(self) -> None:
        self.ok(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Completion {self.call!r} -> {self.task.name} epoch={self.epoch}>"


class FailureLog:
    """Bounded, queryable record of tasks that died with an error.

    Drop-in for the grow-only list it replaces (append / len / iter /
    truthiness / indexing / clear), but capped: under sustained fault
    injection the log keeps only the newest ``maxlen`` records while
    ``total``/``dropped`` keep exact counts.  Entries are
    ``(task, exception)`` pairs.
    """

    def __init__(self, maxlen: int = 256):
        self._entries: deque = deque(maxlen=maxlen)
        #: Every failure ever recorded (monotonic, never trimmed).
        self.total = 0
        #: Records evicted by the bound.
        self.dropped = 0

    def append(self, entry) -> None:
        """Record one ``(task, exc)`` pair, evicting the oldest if full."""
        if len(self._entries) == self._entries.maxlen:
            self.dropped += 1
        self._entries.append(entry)
        self.total += 1

    def clear(self) -> None:
        """Drop all retained records (counters are kept)."""
        self._entries.clear()

    def by_program(self, program: str) -> list:
        """Retained failures whose task belonged to process ``program``."""
        return [e for e in self._entries if self._program_of(e[0]) == program]

    def by_host(self, hostname: str) -> list:
        """Retained failures that occurred on node ``hostname``."""
        return [e for e in self._entries if self._host_of(e[0]) == hostname]

    def by_nodeset(self, nodes) -> list:
        """Retained failures on any host of ``nodes``.

        ``nodes`` is a :class:`repro.coord.nodeset.NodeSet`, a folded
        spec string like ``"node[00-03,17]"``, or any hostname
        container.  Matching is by hostname, never by rank, so sparse
        memberships (nodes missing from the middle of a range) select
        exactly the hosts they name.
        """
        if isinstance(nodes, str):
            from repro.coord.nodeset import NodeSet

            nodes = NodeSet(nodes)
        wanted = set(nodes)
        return [e for e in self._entries if self._host_of(e[0]) in wanted]

    @staticmethod
    def _program_of(task) -> Optional[str]:
        thread = task.context
        process = getattr(thread, "process", None)
        return getattr(process, "program", None)

    @staticmethod
    def _host_of(task) -> Optional[str]:
        thread = task.context
        process = getattr(thread, "process", None)
        node = getattr(process, "node", None)
        return getattr(node, "hostname", None)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self._entries)[index]
        return self._entries[index]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FailureLog {len(self._entries)}/{self.total} (dropped {self.dropped})>"


class Scheduler:
    """Drives task generators over an :class:`Engine`."""

    def __init__(self, engine: Engine):
        self.engine = engine
        #: Live (unfinished) tasks, for leak detection in tests.
        self.tasks: set[Task] = set()
        #: Tasks that died with an error and were never joined.  Tests
        #: assert this stays empty; chaos runs query and bound it.
        self.failures = FailureLog()

    def spawn(self, gen: TaskGen, name: str = "", handler: Optional[Handler] = None) -> Task:
        """Create a task and schedule its first step at the current time."""
        task = Task(self, gen, name, handler)
        self.tasks.add(task)
        self._schedule_resume(task, None)
        return task

    # ------------------------------------------------------------------
    # Internal trampoline
    # ------------------------------------------------------------------
    def _schedule_resume(self, task: Task, value: Any) -> None:
        if task.state in _FINISHED_STATES:
            raise TaskError(f"{task.name}: resume after completion")
        task.state = TaskState.READY
        task._resume_event = self.engine.call_soon(self._advance, task, value, None)

    def _schedule_throw(self, task: Task, exc: BaseException) -> None:
        if task.state in _FINISHED_STATES:
            raise TaskError(f"{task.name}: throw after completion")
        task.state = TaskState.READY
        task._resume_event = self.engine.call_soon(self._advance, task, None, exc)

    def _advance(self, task: Task, value: Any, exc: Optional[BaseException]) -> None:
        task._resume_event = None
        task.state = TaskState.RUNNING
        # _trace_hot is the tracer iff enabled (rebound on enable/disable),
        # so the disabled path does no tracer attribute work at all
        tracer = self.engine._trace_hot
        if tracer is not None:
            tracer.count("sched.context_switches")
        try:
            if exc is not None:
                yielded = task.gen.throw(exc)
            else:
                yielded = task.gen.send(value)
        except StopIteration as stop:
            self._finish(task, TaskState.DONE, stop.value, None)
            return
        except TaskCancelled as tc:
            self._finish(task, TaskState.CANCELLED, None, tc)
            return
        except BaseException as err:
            self._finish(task, TaskState.DONE, None, err)
            return
        # hot path of _dispatch inlined: syscall yields dominate
        if yielded.__class__ is self._call_type and task.handler is not None:
            task.state = TaskState.BLOCKED
            task.pending_call = yielded
            task.handler(task, yielded)
            return
        self._dispatch(task, yielded)

    #: The kernel's syscall request type (registered from
    #: repro.kernel.syscalls to avoid a sim->kernel import).  Checked
    #: first in _dispatch: syscalls dominate the yield stream.
    _call_type: Optional[type] = None

    def _dispatch(self, task: Task, yielded: Any) -> None:
        if yielded.__class__ is self._call_type:
            handler = task.handler
            if handler is None:
                self._schedule_throw(
                    task, TaskError(f"{task.name}: no handler for yielded {yielded!r}")
                )
                return
            task.state = TaskState.BLOCKED
            task.pending_call = yielded
            handler(task, yielded)
        elif yielded is None:
            self._schedule_resume(task, None)
        elif isinstance(yielded, Timeout):
            task.state = TaskState.BLOCKED
            task._resume_event = self.engine.call_after(
                yielded.delay, self._advance, task, None, None
            )
        elif isinstance(yielded, Future):
            if yielded.done:
                try:
                    self._schedule_resume(task, yielded.value)
                except BaseException as err:
                    self._schedule_throw(task, err)
            else:
                task.state = TaskState.BLOCKED
                yielded._add_waiter(task)
        elif isinstance(yielded, Task):
            self._dispatch(task, yielded.done_future)
        else:
            if task.handler is None:
                self._schedule_throw(
                    task, TaskError(f"{task.name}: no handler for yielded {yielded!r}")
                )
                return
            task.state = TaskState.BLOCKED
            task.pending_call = yielded
            task.handler(task, yielded)

    def _finish(self, task: Task, state: TaskState, value: Any, exc: Optional[BaseException]) -> None:
        self.tasks.discard(task)
        if exc is not None and state is not TaskState.CANCELLED:
            self.failures.append((task, exc))
            tracer = self.engine._trace_hot
            if tracer is not None:
                tracer.count("sched.task_failures")
        if task.done_future.done:
            # already dropped (e.g. the thread's own exit() tore the
            # process down while the generator was returning)
            task.state = task.state if task.done else state
            return
        task.state = state
        if exc is not None and state is not TaskState.CANCELLED:
            task.done_future.reject(exc)
        elif state is TaskState.CANCELLED:
            if not task.done_future.done:
                task.done_future.reject(exc or TaskCancelled(task.name))
        else:
            task.done_future.resolve(value)
