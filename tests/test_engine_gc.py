"""The engine suspends CPython's cyclic collector while it fires events.

That is safe only while a run creates almost no cyclic garbage, so the
suite pins both halves:

* (a) every way out of ``run`` / ``run_until`` / ``step`` / a sharded window
  restores the caller's ``gc.isenabled()``, also when two runs overlap
  in threads (the inline shard backend);
* (b) a checkpoint -> kill -> restart leaves the same count of cyclic
  garbage at 64 and at 512 processes, and three rounds of requests
  leave what one round does;
* (c) repeated checkpoints keep every process's thread list and the
  tracked heap flat, apart from one ``CheckpointRecord`` per process;
* (d) nothing outlives what it belongs to: a killed member is freed
  once its computation is restarted, an idle socket buffer holds no
  ``deque``, and a restored process's threads let go of its image once
  the restart is done;
* (e) a finished wait leaves nothing armed: supervised checkpoints keep
  the heap flat, and no timed recv's ticket or timer outlives its wait,
  whether it completed, expired, was re-issued at a thaw or was killed.

Plus the profiler's collector line, which reads ``gc.callbacks``.
"""

import gc
import sys
import threading
import weakref
from collections import Counter, deque

import pytest

from repro.cluster import build_cluster
from repro.core.launch import DmtcpComputation
from repro.errors import SimulationError, SyscallError
from repro.faults.supervisor import _image_file
from repro.kernel.world import World, _RecvAttempt
from repro.obs.profiler import CollectorClock, ProfileReport, format_report
from repro.sim.engine import Engine, Event
from repro.sim.parallel import run_sharded


@pytest.fixture(autouse=True)
def collector_restored():
    """Whatever a test does to the collector, the next test starts as
    this one did."""
    was = gc.isenabled()
    gc.enable()
    yield
    gc.set_debug(0)
    gc.garbage.clear()
    (gc.enable if was else gc.disable)()


def _drive(engine: Engine, how: str, **kw) -> None:
    if how == "run":
        engine.run(**kw)
    elif how == "step":
        engine.step()
    else:
        engine.run_until(lambda: False, **kw)


# ----------------------------------------------------------------------
# (a) the caller's setting survives every exit
# ----------------------------------------------------------------------

@pytest.mark.parametrize("caller_enabled", [True, False])
@pytest.mark.parametrize("how", ["run", "run_until", "step"])
def test_a_run_suspends_the_collector_and_restores_the_callers_setting(how, caller_enabled):
    engine = Engine()
    seen = []
    engine.call_after(1.0, lambda: seen.append(gc.isenabled()))
    (gc.enable if caller_enabled else gc.disable)()
    if how == "run_until":
        engine.run_until(lambda: bool(seen))
    else:
        _drive(engine, how)
    assert seen == [False]
    assert gc.isenabled() is caller_enabled


@pytest.mark.parametrize("how", ["run", "run_until"])
def test_the_max_events_exit_restores_the_collector(how):
    engine = Engine()

    def spin():
        engine.call_soon(spin)

    engine.call_soon(spin)
    with pytest.raises(SimulationError, match="exceeded 100 events"):
        _drive(engine, how, max_events=100)
    assert gc.isenabled()


@pytest.mark.parametrize("how", ["run", "run_until", "step"])
def test_a_raising_callback_restores_the_collector(how):
    engine = Engine()

    def boom():
        raise RuntimeError("callback failed")

    engine.call_after(0.5, boom)
    with pytest.raises(RuntimeError, match="callback failed"):
        _drive(engine, how)
    assert gc.isenabled()


def test_overlapping_runs_in_threads_restore_only_when_the_last_one_leaves():
    """First in, first out: the run that found the collector enabled
    ends while the other is still firing events."""
    first, second = Engine(), Engine()
    first_inside, second_inside, first_left = (threading.Event() for _ in range(3))
    seen = []

    def in_first():
        first_inside.set()
        second_inside.wait(10)

    def in_second():
        second_inside.set()
        first_left.wait(10)
        seen.append(gc.isenabled())  # the first run has returned by now

    first.call_soon(in_first)
    second.call_soon(in_second)

    def run_first():
        first.run()
        first_left.set()

    threads = [threading.Thread(target=run_first), threading.Thread(target=second.run)]
    threads[0].start()
    first_inside.wait(10)
    threads[1].start()
    for t in threads:
        t.join(10)
    assert seen == [False]
    assert gc.isenabled()


def test_many_threads_running_engines_leave_the_collector_as_found():
    """Stress: more threads than cores, short switch interval.  A lost
    update to the shared run count would leave the collector enabled
    inside some run, or disabled after the last one."""
    seen = []

    def worker():
        engine = Engine()
        for _ in range(2000):
            engine.call_soon(lambda: seen.append(gc.isenabled()))
            engine.run()

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 * 2000 and not any(seen)
    assert gc.isenabled()


def _rendezvous_scenario(ctx, meet: threading.Barrier, seen: list):
    world = build_cluster(n_nodes=2)
    ctx.bind(world)

    def rendezvous():
        meet.wait(timeout=30)  # both shards are inside a window at once
        seen.append(gc.isenabled())

    def app(sys, argv):
        for _ in range(3):
            yield from sys.sleep(0.1)

    world.engine.call_at(0.05, rendezvous)
    world.register_program("app", app)
    for host in world.machine.hostnames:
        world.spawn_process(host, "app")
    world.engine.run(until=0.5)


def test_two_inline_shards_overlapping_in_threads_restore_the_collector():
    seen: list = []
    run_sharded(_rendezvous_scenario, 2, threading.Barrier(2), seen, backend="inline", timeout_s=60)
    assert seen == [False, False]
    assert gc.isenabled()


# ----------------------------------------------------------------------
# (b), (c): a run makes no cyclic garbage per process
# ----------------------------------------------------------------------

def _sleepers(n: int, n_nodes: int):
    world = build_cluster(n_nodes=n_nodes, seed=0)

    def main(sys, argv):
        while True:
            yield from sys.sleep(1.0)

    world.register_program("sleeper", main)
    comp = DmtcpComputation(world, compression=False)
    hosts = world.machine.hostnames
    members = [comp.launch(hosts[i % n_nodes], "sleeper") for i in range(n)]
    world.engine.run(until=0.5)
    return world, comp, members


def _cyclic_garbage(step) -> int:
    """Objects that ``step()`` left for the collector alone to free."""
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        step()
        gc.collect()
        return len(gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_checkpoint_kill_restart_garbage_does_not_grow_with_processes():
    garbage = {}
    for n in (64, 512):
        world, comp, _members = _sleepers(n, n_nodes=n // 16)

        def cycle():
            kill = comp.checkpoint(kill=True)
            assert len(comp.restart(plan=kill.plan).records) == n

        garbage[n] = _cyclic_garbage(cycle)
    assert garbage[64] == garbage[512], garbage


def test_checkpoint_and_restart_requests_leave_no_garbage_per_request():
    """The host-side outcome handles: three requests leave what one does."""
    garbage = {}
    for rounds in (1, 3):
        world, comp, _members = _sleepers(16, n_nodes=1)

        def cycles():
            for _ in range(rounds):
                comp.checkpoint()
                comp.restart(plan=comp.checkpoint(kill=True).plan)

        garbage[rounds] = _cyclic_garbage(cycles)
    assert garbage[1] == garbage[3], garbage


def test_checkpoints_keep_thread_lists_and_the_heap_flat():
    """Five checkpoints; the last three must each grow the heap by the
    same amount, and that amount less the new records must not depend
    on the process count (the plan's per-host lists do, so the hosts
    stay fixed)."""
    growth = {}
    for n in (16, 64):
        world, comp, members = _sleepers(n, n_nodes=2)
        heap, threads = [], []
        for _ in range(5):
            comp.checkpoint()
            # a frozen sleeper's abandoned timer fires within its 1 s sleep
            world.engine.run(until=world.engine.now + 2.0)
            gc.collect()
            heap.append(len(gc.get_objects()))
            threads.append(sorted({len(p.threads) for p in members}))
        assert threads == [[2]] * 5  # main + checkpoint manager
        (step,) = {b - a for a, b in zip(heap[2:], heap[3:])}
        growth[n] = step - n  # one CheckpointRecord per process in history
    assert growth[16] == growth[64], growth


# ----------------------------------------------------------------------
# (d) what outlives a process
# ----------------------------------------------------------------------

def test_a_killed_member_and_its_address_space_are_freed_by_the_restart():
    """The kernel keeps no list of every process ever spawned: once the
    restart has adopted its continuation, nothing holds a killed
    member."""
    world, comp, members = _sleepers(16, n_nodes=1)
    victim = weakref.ref(members[0])
    space = weakref.ref(members[0].address_space)
    del members
    ckpt = comp.checkpoint()
    comp.kill_computation()
    comp.restart(plan=ckpt.plan)
    gc.collect()
    assert victim() is None
    assert space() is None


def test_an_idle_socket_pair_allocates_no_deque():
    world = build_cluster(n_nodes=1, seed=0)
    ends = {}

    def main(sys, argv):
        a, b = yield from sys.socketpair()
        process = world.find_process("node00", (yield from sys.getpid()))
        ends["idle"] = [process.get_fd(fd) for fd in (a, b)]
        yield from sys.send(a, 64)
        yield from sys.recv(b)
        yield from sys.sleep(1.0)

    world.register_program("pair", main)
    world.spawn_process("node00", "pair")
    world.engine.run(until=0.5)
    queues = [q for ep in ends["idle"] for q in (ep.rx._chunks, ep.rx._space_waiters)]
    # a buffer whose last chunk was taken is idle again, too
    assert not any(isinstance(q, deque) for q in queues)


def test_a_restored_process_lets_go_of_its_image_once_restarted():
    """The image is the file's: once the restart is done, dropping the
    file's payload frees it, so no restored thread (the lingering
    restore thread, the manager) still holds it."""
    world, comp, _members = _sleepers(4, n_nodes=1)
    ckpt = comp.checkpoint()
    comp.kill_computation()
    comp.restart(plan=ckpt.plan)
    files = [_image_file(world, "node00", path) for path in ckpt.plan.images_by_host["node00"]]
    images = [weakref.ref(f.payload) for f in files]
    for f in files:
        f.payload = None
    assert [ref() for ref in images] == [None] * 4


# ----------------------------------------------------------------------
# (e) a finished wait leaves nothing armed
# ----------------------------------------------------------------------

def _supervised(program, n: int):
    world = build_cluster(n_nodes=2, seed=0)
    world.register_program("member", program)
    comp = DmtcpComputation(world, compression=False, supervise=True)
    hosts = world.machine.hostnames
    for i in range(n):
        comp.launch(hosts[i % 2], "member")
    world.engine.run(until=0.5)
    return world, comp


def _sleeper(sys, argv):
    while True:
        yield from sys.sleep(1.0)


def test_supervised_checkpoints_keep_the_heap_flat():
    """Every supervised barrier wait is a timed recv whose timeout
    outlives the checkpoint.  A finished wait's timer goes, so twelve
    checkpoints leave no more events pending than six, and the heap
    holds what is pending plus at most the floor below which cancelled
    events are not shed."""
    from repro.sim.engine import _SHED_FLOOR

    world, comp = _supervised(_sleeper, 16)
    engine = world.engine
    pending, heap = [], []
    for _ in range(12):
        comp.checkpoint()
        engine.run(until=engine.now + 0.5)
        pending.append(engine.pending)
        heap.append(len(engine._heap))
    assert max(pending[6:]) <= max(pending[:6]), pending
    assert max(heap) <= _SHED_FLOOR + 2 * pending[-1], heap


def _ticker(sys, fd):
    while True:
        for pause in (0.1, 0.5):
            yield from sys.sleep(pause)
            yield from sys.send(fd, 64)


def _timed_reader(outcomes):
    """A member that reads a socketpair with a 0.3 s timeout while its
    writer thread pauses 0.1 and 0.5 s in turn: every other wait
    completes and every other one expires."""

    def main(sys, argv):
        a, b = yield from sys.socketpair()
        yield from sys.thread_create(_ticker, b)
        while True:
            try:
                yield from sys.recv(a, timeout=0.3)
                outcomes["completed"] += 1
            except SyscallError as err:
                outcomes[err.errno] += 1

    return main


def test_timed_recvs_leave_nothing_behind_on_any_path(monkeypatch):
    """Completion, expiry, freeze and re-issue (a reader parked across
    each checkpoint takes its first issue's timer over at resume) and
    kill (``--kill`` and restart): no ticket or event becomes cyclic
    garbage, and once the heap has shed its cancelled events, every recv
    ticket still alive belongs to a wait in flight."""
    outcomes = Counter()
    sys_recv = World._sys_recv

    def counting_recv(self, task, thread, process, fd, timeout=None):
        first = thread.parked
        if first is not None and first.live:
            outcomes["re-issued"] += 1
        sys_recv(self, task, thread, process, fd, timeout)

    monkeypatch.setattr(World, "_sys_recv", counting_recv)
    world, comp = _supervised(_timed_reader(outcomes), 4)
    engine = world.engine

    def rounds():
        for _ in range(3):
            comp.checkpoint()
            engine.run(until=engine.now + 0.45)
        comp.restart(plan=comp.checkpoint(kill=True).plan)
        engine.run(until=engine.now + 2.0)

    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        rounds()
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, (_RecvAttempt, Event))]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert min(outcomes[k] for k in ("completed", "ETIMEDOUT", "re-issued")) > 0, outcomes
    assert cyclic == []
    engine._shed()
    gc.collect()
    tickets = [o for o in gc.get_objects() if type(o) is _RecvAttempt]
    assert tickets and all(t.live for t in tickets), len(tickets)


# ----------------------------------------------------------------------
# The profiler's collector line
# ----------------------------------------------------------------------

def test_collector_clock_counts_passes_per_generation():
    gc.disable()  # only the explicit passes below
    with CollectorClock() as clock:
        gc.collect(0)
        gc.collect(2)
        gc.collect(2)
    assert clock not in gc.callbacks
    assert clock.collections == [1, 0, 2]
    assert clock.seconds > 0.0


def test_format_report_prints_the_collector_line():
    report = ProfileReport(
        scenario="s", seed=0, wall_s=1.0, total_calls=1, subsystems={},
        top_functions=[], counters={}, collections=[3, 1, 0], collector_s=0.25,
    )
    assert "collector: 3 gen0 / 1 gen1 / 0 gen2 passes, 0.250 s host" in format_report(report)
