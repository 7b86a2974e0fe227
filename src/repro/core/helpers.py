"""One stage's helper threads: spawn them, join them, unwind them.

A helper is a manager-kind thread of the stage's process.  Its
``SyscallError`` / ``CheckpointAborted`` is kept by the group -- it
neither kills the process nor lands in ``scheduler.failures`` -- and the
join re-raises the first one in spawn order.  A join re-checks after
every wake: a suspend/resume cycle wakes a raw future wait spuriously.
The group's span closes on the normal and the caught-error path only,
never in ``finally`` (``Task.drop`` leaves a crashed process's
generators unclosed for the collector).  DESIGN.md section 4.1.

The group holds its members' tasks, not their threads: a finished
manager thread retires from its process and lets go of its task.
"""

from __future__ import annotations

from repro.errors import CheckpointAborted, SyscallError


class HelperGroup:
    """Helper threads of one stage of one process, keyed, in spawn order.

    Every member is spawned before the group is joined.  ``threads``
    adopts already-running threads (a restored process's user threads)
    as members keyed by position; they are joined, but their errors are
    theirs.
    """

    __slots__ = ("world", "process", "tasks", "results", "errors", "span", "watcher")

    def __init__(self, world, process, threads=()):
        self.world = world
        self.process = process
        self.tasks = {key: thread.task for key, thread in enumerate(threads)}
        self.results: dict = {}
        self.errors: dict = {}
        self.span = None
        self.watcher = None

    def _spawn(self, gen, name: str):
        return self.world.spawn_thread(self.process, gen, name, kind="manager").task

    def spawn(self, key, gen, name: str) -> None:
        """Run ``gen`` as member ``key`` on a manager-kind thread."""
        self.tasks[key] = self._spawn(self._run(key, gen), name)

    def _run(self, key, gen):
        try:
            self.results[key] = yield from gen
        except (SyscallError, CheckpointAborted) as err:
            self.errors[key] = err

    def _wait_all(self):
        for task in self.tasks.values():
            while not task.done:
                yield task.done_future

    def wait(self, key):
        """Join member ``key``: its result, or the error it raised."""
        task = self.tasks[key]
        while not task.done:
            yield task.done_future
        if key in self.errors:
            raise self.errors[key]
        return self.results.get(key)

    def join(self) -> list:
        """Join every member: their results in spawn order, or the first
        error in spawn order."""
        yield from self._wait_all()
        for key in self.tasks:
            if key in self.errors:
                raise self.errors[key]
        return [self.results.get(key) for key in self.tasks]

    def open_span(self, track: str, name: str, cat: str, watcher: str, **args) -> None:
        """Open a span now that closes with ``args`` when the last member
        returns (thread ``watcher`` joins them), or at :meth:`kill`."""
        self.world.tracer.begin(track, name, cat=cat)
        self.span = (track, name, cat)
        self.watcher = self._spawn(self._watch(args), watcher)

    def _watch(self, args: dict):
        yield from self._wait_all()
        self._close_span(**args)

    def _close_span(self, **args) -> None:
        if self.span is not None:
            track, name, cat = self.span
            self.span = None
            self.world.tracer.end(track, name, cat=cat, **args)

    def kill(self) -> None:
        """Rollback: stop every live member where it stands (each one's
        ``finally`` blocks run now), then close the span."""
        for task in [*self.tasks.values(), self.watcher]:
            if task is not None and not task.done:
                task.kill()
        self._close_span()
