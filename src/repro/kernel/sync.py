"""Thread synchronization objects: mutexes and counting semaphores.

These are process-local (pthread-style).  Their wait queues interact with
checkpoint suspension: a grant offered to a frozen task is *retracted* and
re-offered to the next waiter, and the frozen task re-issues its acquire
when thawed -- mirroring how futex waits restart after a signal.
"""

from __future__ import annotations

from repro.errors import SyscallError
from repro.sim.tasks import Completion, Task


class Semaphore:
    """Counting semaphore; a Mutex is a Semaphore(1) with owner tracking."""

    def __init__(self, sem_id: int, value: int = 1, name: str = ""):
        if value < 0:
            raise SyscallError("EINVAL", f"semaphore value {value}")
        self.sem_id = sem_id
        self.name = name or f"sem-{self.sem_id}"
        self.value = value
        self._waiters: list[Completion] = []

    def try_acquire(self) -> bool:
        """Take a permit if immediately available (no queue-jumping)."""
        if self.value > 0 and not self._waiters:
            self.value -= 1
            return True
        return False

    def park(self, task: Task) -> None:
        """Queue a task waiting for a permit."""
        self._waiters.append(Completion(task))

    def unpark(self, task: Task) -> None:
        """Remove a (frozen) task from the wait queue if still present."""
        self._waiters = [w for w in self._waiters if w.task is not task]

    def release(self) -> None:
        """Hand the permit to the first runnable waiter, else increment."""
        while self._waiters:
            waiter = self._waiters.pop(0)
            if waiter.awake:  # frozen waiters re-issue their acquire at thaw
                waiter.ok()
                return
        self.value += 1
