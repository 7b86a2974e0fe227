"""Kernel suspension semantics: the foundation of checkpointing.

These tests pin down the ERESTARTSYS-like contract: threads frozen at
arbitrary syscall boundaries lose nothing -- blocked syscalls re-issue,
results that land during suspension are delivered at thaw, and data in
flight keeps moving into kernel buffers while user threads sleep.
"""

import pytest

from repro.cluster import build_cluster
from repro.errors import SyscallError
from repro.kernel.syscalls import connect_retry
from repro.sim.tasks import Completion, TaskState


@pytest.fixture()
def world():
    return build_cluster(n_nodes=2, seed=7)


def run(world):
    world.engine.run()
    assert not world.scheduler.failures, world.scheduler.failures


def _manager_suspend_resume(sys, delay, hold):
    """A manager-thread body: suspend users after `delay`, hold, resume."""
    yield from sys.sleep(delay)
    n = yield from sys.suspend_threads()
    yield from sys.sleep(hold)
    m = yield from sys.resume_threads()
    return (n, m)


def test_suspend_freezes_and_resume_continues_counting(world):
    counts = []

    def counter(sys):
        for i in range(20):
            yield from sys.sleep(0.1)
            counts.append((i, (yield from sys.time())))

    def main(sys, argv):
        tid = yield from sys.thread_create(counter)
        result = yield from _manager_suspend_resume(sys, 0.55, 2.0)
        yield from sys.thread_join(tid)
        counts.append(("suspended", result[0]))

    world.register_program("count", main)
    world.spawn_process("node00", "count")
    run(world)
    assert ("suspended", 1) in counts
    # the counter lost ~2s: its total runtime is > 2 + 20*0.1
    last_time = [t for i, t in counts if i == 19][0]
    assert last_time > 2.5


def test_blocked_recv_reissues_after_resume(world):
    """A thread blocked in recv at suspend time still gets its data."""
    got = []

    def receiver(sys, fd):
        chunk = yield from sys.recv(fd)
        got.append(chunk.data)

    def main(sys, argv):
        a, b = yield from sys.socketpair()
        tid = yield from sys.thread_create(receiver, b)
        yield from sys.sleep(0.1)  # receiver is now parked in recv
        yield from sys.suspend_threads()
        yield from sys.sleep(1.0)
        # data arrives while the receiver is frozen
        yield from sys.send(a, 5, data=b"later")
        yield from sys.sleep(0.5)
        yield from sys.resume_threads()
        yield from sys.thread_join(tid)

    world.register_program("p", main)
    world.spawn_process("node00", "p")
    run(world)
    assert got == [b"later"]


def test_data_sent_during_suspension_lands_in_kernel_buffer(world):
    """In-flight data keeps moving while user threads are suspended --
    the reason DMTCP must drain kernel buffers."""
    state = {}

    def receiver(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 6000)
        yield from sys.listen(lfd)
        cfd = yield from sys.accept(lfd)
        state["proc_fd"] = cfd
        yield from sys.sleep(100.0)  # never reads; data must buffer

    def sender(sys, argv):
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", 6000)
        yield from sys.sleep(1.0)
        yield from sys.send(fd, 1000, data=b"x" * 1000)
        state["sent"] = True

    world.register_program("receiver", receiver)
    world.register_program("sender", sender)
    proc = world.spawn_process("node00", "receiver")
    world.spawn_process("node01", "sender")

    # suspend the receiver's user threads from outside at t=0.5
    def external_suspend():
        for thread in proc.user_threads:
            if thread.task.state is not TaskState.FROZEN and not thread.task.done:
                thread.task.freeze()

    world.engine.call_at(0.5, external_suspend)
    world.engine.run(until=5.0)
    assert state.get("sent") is True
    ep = proc.get_fd(state["proc_fd"])
    assert ep.rx.available_bytes == 1000  # buffered in the kernel
    chunks = ep.rx.drain_all()
    assert [c.data for c in chunks] == [b"x" * 1000]


def test_result_completed_during_suspension_delivered_at_thaw(world):
    events = []

    def sleeper(sys):
        yield from sys.sleep(1.0)  # completes while frozen
        events.append((yield from sys.time()))

    def main(sys, argv):
        tid = yield from sys.thread_create(sleeper)
        yield from sys.sleep(0.5)
        yield from sys.suspend_threads()
        yield from sys.sleep(3.0)  # sleeper's timer fires at t=1.0, frozen
        yield from sys.resume_threads()
        yield from sys.thread_join(tid)

    world.register_program("p", main)
    world.spawn_process("node00", "p")
    run(world)
    # sleeper resumed at ~3.5 (thaw), not 1.0
    assert events[0] >= 3.5 - 0.1


def test_semaphore_holder_frozen_blocks_waiter_until_thaw(world):
    trace = []

    def holder(sys, sem):
        yield from sys.sem_acquire(sem)
        trace.append("holder in")
        yield from sys.sleep(1.0)
        trace.append("holder out")
        yield from sys.sem_release(sem)

    def waiter(sys, sem):
        yield from sys.sleep(0.1)
        yield from sys.sem_acquire(sem)
        trace.append("waiter in")
        yield from sys.sem_release(sem)

    def main(sys, argv):
        sem = yield from sys.sem_create(1)
        t1 = yield from sys.thread_create(holder, sem)
        t2 = yield from sys.thread_create(waiter, sem)
        yield from sys.sleep(0.5)
        yield from sys.suspend_threads()
        yield from sys.sleep(5.0)
        yield from sys.resume_threads()
        yield from sys.thread_join(t1)
        yield from sys.thread_join(t2)

    world.register_program("p", main)
    world.spawn_process("node00", "p")
    run(world)
    assert trace == ["holder in", "holder out", "waiter in"]


def test_destroy_with_continuations_keeps_generators_thawable(world):
    """The checkpoint-kill path: processes die, continuations survive."""
    progress = []

    def main(sys, argv):
        progress.append("started")
        yield from sys.sleep(1.0)
        progress.append("middle")
        yield from sys.sleep(1000.0)
        progress.append("end")

    world.register_program("longjob", main)
    proc = world.spawn_process("node00", "longjob")
    world.engine.run(until=2.0)
    assert progress == ["started", "middle"]

    tasks = [t.task for t in proc.live_threads]
    world.destroy_process(proc, keep_continuations=True)
    assert proc.state == "dead"
    assert all(t.state is TaskState.FROZEN for t in tasks)
    # generators intact: no GeneratorExit ran, 'end' not appended
    assert progress == ["started", "middle"]


def test_sealed_task_ignores_stale_completions(world):
    """After seal(), events from the dead kernel context cannot touch the
    continuation (no spurious EPIPE into a restarted process)."""
    eng = world.engine
    sched = world.scheduler
    delivered = []
    tickets = []

    def handler_never(task, call):
        tickets.append(Completion(task))  # taken at dispatch, never fired

    def body():
        value = yield "op"
        delivered.append(value)

    task = sched.spawn(body(), handler=handler_never)
    eng.run()
    (stale,) = tickets
    assert stale.live and stale.awake
    task.freeze()
    assert stale.live and not stale.awake  # a result would be parked
    task.seal()
    assert not stale.live and not stale.awake
    # stale completions from the old context: dropped, nothing is parked
    stale.ok("stale")
    stale.fail(SyscallError("EPIPE", "from the dead context"))
    stale()
    assert task._frozen_result is None and task.pending_call == "op"
    # thaw under a completing handler: the call re-issues cleanly

    def handler_completes(task2, call):
        task2.complete_call("fresh")

    task.thaw(handler=handler_completes)
    stale.ok("stale")  # ... and not after the thaw either
    eng.run()
    assert delivered == ["fresh"]
    assert not sched.failures


def test_send_parked_on_flow_control_is_sent_once_when_resumed_undrained(world):
    """A checkpoint that aborts before the drain resumes the threads with
    nothing read: the re-issued send must wait on the reservation its
    first issue queued, not queue a second one beside it."""
    got = []

    def producer(sys, fd):
        for i in range(8):
            yield from sys.send(fd, 30_000, data=i)

    def main(sys, argv):
        a, b = yield from sys.socketpair()
        tid = yield from sys.thread_create(producer, a)
        yield from sys.sleep(0.5)  # the producer is parked on a full buffer
        yield from sys.suspend_threads()
        yield from sys.sleep(0.5)  # nobody drains
        yield from sys.resume_threads()
        try:
            while True:
                got.append((yield from sys.recv(b, timeout=1.0)).data)
        except SyscallError as err:
            assert err.errno == "ETIMEDOUT"
        yield from sys.thread_join(tid)

    world.register_program("p", main)
    world.spawn_process("node00", "p")
    run(world)
    assert got == [0, 1, 2, 3, 4, 5, 6, 7]
