"""Kernel tests: process lifecycle, fork/exec/wait, threads, semaphores."""

import pytest

from repro.cluster import build_cluster
from repro.errors import SyscallError


@pytest.fixture()
def world():
    return build_cluster(n_nodes=2, seed=1)


def run(world):
    world.engine.run()
    assert not world.scheduler.failures, world.scheduler.failures


def test_program_runs_and_exits(world):
    log = []

    def main(sys, argv):
        pid = yield from sys.getpid()
        host = yield from sys.gethostname()
        log.append((pid, host, argv))

    world.register_program("hello", main)
    proc = world.spawn_process("node00", "hello", argv=["hello", "x"])
    run(world)
    assert log == [(proc.pid, "node00", ["hello", "x"])]
    assert proc.state in ("zombie", "dead")
    assert proc.exit_code == 0


def test_sleep_advances_virtual_time(world):
    times = []

    def main(sys, argv):
        yield from sys.sleep(3.0)
        times.append((yield from sys.time()))

    world.register_program("sleeper", main)
    world.spawn_process("node00", "sleeper")
    run(world)
    assert times[0] >= 3.0


def test_cpu_burst_contends_on_cores(world):
    # node has 4 cores; 8 concurrent 1s bursts take ~2s
    done = []

    def worker(sys):
        yield from sys.cpu(1.0)
        done.append((yield from sys.time()))

    def main(sys, argv):
        tids = []
        for _ in range(8):
            tids.append((yield from sys.thread_create(worker)))
        for tid in tids:
            yield from sys.thread_join(tid)

    world.register_program("burner", main)
    world.spawn_process("node00", "burner")
    run(world)
    assert len(done) == 8
    assert all(t == pytest.approx(2.0, abs=0.1) for t in done)


def test_fork_runs_child_and_waitpid_reaps(world):
    events = []

    def child(sys, tag):
        pid = yield from sys.getpid()
        ppid = yield from sys.getppid()
        events.append(("child", tag, pid, ppid))
        yield from sys.exit(7)

    def main(sys, argv):
        mypid = yield from sys.getpid()
        pid = yield from sys.fork(child, "t1")
        events.append(("parent", mypid, pid))
        reaped, code = yield from sys.waitpid(pid)
        events.append(("reaped", reaped, code))

    world.register_program("forker", main)
    world.spawn_process("node00", "forker")
    run(world)
    kinds = [e[0] for e in events]
    assert "child" in kinds and "reaped" in kinds
    child_ev = next(e for e in events if e[0] == "child")
    reaped_ev = next(e for e in events if e[0] == "reaped")
    assert reaped_ev[1] == child_ev[2]  # same pid
    assert reaped_ev[2] == 7


def test_fork_child_inherits_env_and_fds(world):
    seen = {}

    def child(sys):
        seen["env"] = yield from sys.getenv("MARK")
        # fd 10 inherited and shared
        yield from sys.send(10, 4, data=b"ping")
        yield from sys.exit(0)

    def main(sys, argv):
        yield from sys.setenv("MARK", "yes")
        a, b = yield from sys.socketpair()
        yield from sys.dup2(a, 10)
        pid = yield from sys.fork(child)
        chunk = yield from sys.recv(b)
        seen["data"] = chunk.data
        yield from sys.waitpid(pid)

    world.register_program("inherit", main)
    world.spawn_process("node00", "inherit")
    run(world)
    assert seen == {"env": "yes", "data": b"ping"}


def test_exec_replaces_image(world):
    events = []

    def second(sys, argv):
        events.append(("second", argv))

    def first(sys, argv):
        events.append("first")
        yield from sys.execve("prog2", ["prog2", "arg"])
        events.append("unreachable")  # pragma: no cover

    world.register_program("prog1", first)

    def second_main(sys, argv):
        events.append(("second", argv))
        yield from sys.exit(0)

    world.register_program("prog2", second_main)
    world.spawn_process("node00", "prog1")
    run(world)
    assert events == ["first", ("second", ["prog2", "arg"])]


def test_spawn_creates_child_process(world):
    events = []

    def child_prog(sys, argv):
        events.append((yield from sys.getenv("FROM_PARENT")))
        yield from sys.exit(3)

    def main(sys, argv):
        pid = yield from sys.spawn("childp", ["childp"], {"FROM_PARENT": "v"})
        _, code = yield from sys.waitpid(pid)
        events.append(code)

    world.register_program("childp", child_prog)
    world.register_program("parentp", main)
    world.spawn_process("node00", "parentp")
    run(world)
    assert events == ["v", 3]


def test_kill_terminates_target(world):
    events = []

    def victim(sys, argv):
        yield from sys.sleep(1000.0)
        events.append("survived")  # pragma: no cover

    def main(sys, argv):
        pid = yield from sys.fork(lambda s: victim(s, []))
        yield from sys.sleep(1.0)
        yield from sys.kill(pid, 15)
        _, code = yield from sys.waitpid(pid)
        events.append(("killed", code))

    world.register_program("killer", main)
    world.spawn_process("node00", "killer")
    run(world)
    assert events == [("killed", -15)]


def test_signal_handler_prevents_termination(world):
    events = []

    def victim(sys, argv):
        yield from sys.signal(15, "handler:noted")
        yield from sys.sleep(5.0)
        events.append("survived")

    def main(sys, argv):
        pid = yield from sys.fork(lambda s: victim(s, []))
        yield from sys.sleep(1.0)
        yield from sys.kill(pid, 15)
        yield from sys.waitpid(pid)

    world.register_program("tough", main)
    world.spawn_process("node00", "tough")
    run(world)
    assert events == ["survived"]


def test_waitpid_on_nonchild_fails(world):
    failures = []

    def main(sys, argv):
        try:
            yield from sys.waitpid(99999)
        except SyscallError as err:
            failures.append(err.errno)

    world.register_program("w", main)
    world.spawn_process("node00", "w")
    run(world)
    assert failures == ["ECHILD"]


def test_semaphore_mutual_exclusion(world):
    trace = []

    def worker(sys, sem, label):
        yield from sys.sem_acquire(sem)
        trace.append(("enter", label))
        yield from sys.sleep(1.0)
        trace.append(("exit", label))
        yield from sys.sem_release(sem)

    def main(sys, argv):
        sem = yield from sys.sem_create(1)
        t1 = yield from sys.thread_create(worker, sem, "a")
        t2 = yield from sys.thread_create(worker, sem, "b")
        yield from sys.thread_join(t1)
        yield from sys.thread_join(t2)

    world.register_program("mutex", main)
    world.spawn_process("node00", "mutex")
    run(world)
    # no interleaving: enter/exit strictly paired
    assert trace[0][0] == "enter" and trace[1][0] == "exit"
    assert trace[2][0] == "enter" and trace[3][0] == "exit"
    assert trace[0][1] == trace[1][1]


def test_ssh_spawns_on_remote_node(world):
    events = []

    def remote(sys, argv):
        events.append((yield from sys.gethostname()))

    def main(sys, argv):
        host, pid = yield from sys.ssh("node01", "remoteprog", ["remoteprog"])
        events.append(("spawned", host, pid > 0))

    world.register_program("remoteprog", remote)
    world.register_program("launcher", main)
    world.spawn_process("node00", "launcher")
    run(world)
    assert ("spawned", "node01", True) in events
    assert "node01" in events


def test_pid_reuse_after_reap(world):
    small = build_cluster(n_nodes=1, seed=2, pid_max=103)
    pids = []

    def child(sys):
        yield from sys.exit(0)

    def main(sys, argv):
        for _ in range(6):
            pid = yield from sys.fork(child)
            pids.append(pid)
            yield from sys.waitpid(pid)

    small.register_program("loop", main)
    small.spawn_process("node00", "loop")
    small.engine.run()
    assert len(pids) == 6
    assert len(set(pids)) < 6  # pid space of 3 forces reuse


def test_init_reaps_parentless_and_orphaned_processes(world):
    """A process nobody can wait for leaves the pid table when it exits:
    one spawned without a parent at once, a zombie child when its parent
    exits, a running child when it exits after its parent.  A child of a
    living parent stays a zombie until the parent waits."""
    pids = {}

    def early(sys):
        yield from sys.exit(3)

    def late(sys):
        yield from sys.sleep(2.0)

    def main(sys, argv):
        pids["early"] = yield from sys.fork(early)
        pids["late"] = yield from sys.fork(late)
        yield from sys.sleep(1.0)

    world.register_program("parent", main)
    parent = world.spawn_process("node00", "parent")
    table = world.node_state("node00").processes
    world.engine.run(until=0.5)
    assert table[pids["early"]].state == "zombie"  # its parent may still wait
    world.engine.run(until=1.5)
    assert parent.pid not in table and pids["early"] not in table
    assert table[pids["late"]].parent is None  # adopted by init
    run(world)
    assert pids["late"] not in table
    assert world.processes_created == 3


def test_unhandled_app_exception_kills_process_and_is_recorded(world):
    def main(sys, argv):
        yield from sys.sleep(1.0)
        raise RuntimeError("app bug")

    world.register_program("buggy", main)
    proc = world.spawn_process("node00", "buggy")
    world.engine.run()
    assert proc.exit_code == 1
    assert len(world.scheduler.failures) == 1


def test_syslog_state_tracked(world):
    def main(sys, argv):
        yield from sys.openlog("mydaemon")
        yield from sys.syslog("hello")
        yield from sys.syslog("world")
        yield from sys.closelog()

    world.register_program("logger", main)
    proc = world.spawn_process("node00", "logger")
    run(world)
    assert proc.syslog_state == {"open": False, "ident": "mydaemon", "messages": 2}
