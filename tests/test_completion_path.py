"""One ticket finishes a syscall.

A call that completes later than its handler returned is finished through
``repro.sim.tasks.Completion`` and nothing else.  These tests pin what
that buys: an in-flight ``write`` / ``read`` across ``--checkpoint
--kill`` leaves the run's output alone, no completion issued under an
older epoch changes a task, a descriptor, a file or a process table, a
result that lands during a plain freeze is still delivered at thaw, and
no hand-written staleness guard can come back into ``kernel/``.
"""

import ast
import pathlib

import pytest

import repro.kernel
from repro.cluster import build_cluster
from repro.core.launch import DmtcpComputation
from repro.errors import SyscallError
from repro.kernel.filesystem import OpenFile
from repro.sim.tasks import Completion, TaskState

MB = 2**20
GIB2 = 2 * 2**30


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


# ----------------------------------------------------------------------
# (1) the headline invariant with a file syscall in flight across --kill
# ----------------------------------------------------------------------

def _twin(op: str, restart: str):
    """An app inside a 2 GiB ``write`` (or cold ``read``) at t = 1.0;
    with ``restart``, checkpoint + kill there and restart ``"now"`` or
    10 virtual seconds ``"later"``.  Returns what the app saw."""
    world = build_cluster(n_nodes=2, seed=5)
    path = f"/tmp/{op}.dat"
    log = []

    def app(sys, argv):
        if op == "write":
            fd = yield from sys.open(path, "w")
            log.append(("write", (yield from sys.write(fd, GIB2))))
            log.append(("write", (yield from sys.write(fd, 10))))
        else:
            fd = yield from sys.open(path, "r")
            log.append(("read", (yield from sys.read(fd, GIB2))[0]))
            log.append(("read", (yield from sys.read(fd, 10))[0]))
        # a completion that strays out of the dead context, or out of
        # the first issue, lands in one of these
        for _ in range(12):
            log.append(("sleep", (yield from sys.sleep(1.0))))
        log.append(("time", type((yield from sys.time())).__name__))
        log.append(("size", (yield from sys.stat(path))["size"]))

    world.register_program("app", app)
    if op == "read":
        ns = world.node_state("node01").mounts.resolve(path).namespace
        ns.create(path).size = GIB2 + 10
    comp = DmtcpComputation(world)
    proc = comp.launch("node01", "app")
    world.engine.run(until=1.0)
    if restart:
        sealed = [t.task for t in proc.user_threads]
        assert [t.pending_call.name for t in sealed] == [op]
        kill = comp.checkpoint(kill=True)
        if restart == "later":
            world.engine.run(until=world.engine.now + 10.0)
        # the dead context parked nothing in the continuation it lost
        assert [t._frozen_result for t in sealed] == [None]
        comp.restart(plan=kill.plan)
    world.engine.run_until(lambda: log[-1:] == [("size", GIB2 + 10)])
    no_failures(world)
    return log


@pytest.mark.parametrize("restart", ["now", "later"])
@pytest.mark.parametrize("op", ["write", "read"])
def test_file_io_in_flight_across_checkpoint_kill_restart(op, restart):
    reference = _twin(op, None)
    assert reference[:2] == [(op, GIB2), (op, 10)]
    assert reference[-1] == ("size", GIB2 + 10)
    assert _twin(op, restart) == reference


# ----------------------------------------------------------------------
# (2), (3) every syscall that completes after its handler returned
# ----------------------------------------------------------------------
# A row is ``(setup, call, left, take)``: the victim runs ``setup`` and
# then the one ``call`` under test; helpers that ``setup`` starts make
# the call's completion land some time later.  ``take`` marks the calls
# that complete by taking something (a chunk, a backlog entry, a permit)
# and so must be awake, not just live; ``left(ctx)`` says that the thing
# a dead or frozen caller must not take or make is still where it was.

def _child(sys, argv):
    yield from sys.sleep(0.3)


def _server(ctx):
    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, 7000)
        yield from sys.listen(lfd)
        ctx["server_lfd"] = lfd
        while True:
            ctx["accepted"].append((yield from sys.accept(lfd)))

    return server


def _client(sys, argv):
    yield from sys.sleep(0.3)
    fd = yield from sys.socket()
    yield from sys.connect(fd, "node00", 7001)
    yield from sys.sleep(0.3)


def _later(fn):
    """A helper thread that does ``fn(sys)`` 0.3 s from now."""

    def thread(sys):
        yield from sys.sleep(0.3)
        yield from fn(sys)

    return thread


def _open_w(sys, ctx):
    ctx["fd"] = yield from sys.open("/tmp/f", "w")


def _open_r(sys, ctx):
    world = ctx["world"]
    world.node_state("node00").mounts.resolve("/tmp/f").namespace.create("/tmp/f").size = 64 * MB
    ctx["fd"] = yield from sys.open("/tmp/f", "r")


def _dirty_file(sys, ctx):
    yield from _open_w(sys, ctx)
    yield from sys.write(ctx["fd"], 32 * MB)


def _renamed(sys, ctx):
    yield from _open_w(sys, ctx)
    yield from sys.close(ctx["fd"])


def _socket(sys, ctx):
    ctx["fd"] = yield from sys.socket()
    yield from sys.sleep(0.1)  # the server is listening by now


def _listening(sys, ctx):
    ctx["fd"] = yield from sys.socket()
    yield from sys.bind(ctx["fd"], 7001)
    yield from sys.listen(ctx["fd"])
    ctx["world"].spawn_process("node01", "client")


def _pair(sys, ctx):
    ctx["a"], ctx["b"] = yield from sys.socketpair()


def _pair_with_late_data(sys, ctx):
    yield from _pair(sys, ctx)
    yield from sys.thread_create(_later(lambda s: s.send(ctx["a"], 5, data=b"later")))


def _pair_full_with_late_reader(sys, ctx):
    yield from _pair(sys, ctx)
    yield from sys.send(ctx["a"], ctx["world"].spec.network.socket_buffer_bytes)
    yield from sys.thread_create(_later(lambda s: s.recv(ctx["b"])))


def _child_running(sys, ctx):
    ctx["pid"] = yield from sys.spawn("child", ["child"])


def _worker_running(sys, ctx):
    ctx["tid"] = yield from sys.thread_create(_later(lambda s: s.time()))


def _sem_with_late_release(sys, ctx):
    ctx["sem"] = yield from sys.sem_create(0)
    yield from sys.thread_create(_later(lambda s: s.sem_release(ctx["sem"])))


def _sibling(sys, ctx):
    def ticking(s):
        for _ in range(10):
            yield from s.sleep(0.1)

    yield from sys.thread_create(ticking)


def _nothing(sys, ctx):
    yield from sys.time()


def _desc(ctx, key):
    return ctx["proc"].get_fd(ctx[key])


ROWS = {
    "sleep": (_nothing, lambda s, c: s.sleep(1.0), None, False),
    "cpu": (_nothing, lambda s, c: s.cpu(0.5), None, False),
    "open": (_nothing, lambda s, c: s.open("/tmp/new", "w"), None, False),
    "rename": (_renamed, lambda s, c: s.rename("/tmp/f", "/tmp/g"), None, False),
    "write": (_open_w, lambda s, c: s.write(c["fd"], 64 * MB), None, False),
    "read": (_open_r, lambda s, c: s.read(c["fd"], 64 * MB), None, False),
    "stream": (
        _open_w,
        lambda s, c: s.stream(c["fd"], 64 * MB, 0.4, 4 * MB, write=True),
        None, False,
    ),
    "fsync": (_dirty_file, lambda s, c: s.fsync(c["fd"]), None, False),
    "sync": (_dirty_file, lambda s, c: s.sync(), None, False),
    "connect-refused": (_socket, lambda s, c: s.connect(c["fd"], "node01", 9999), None, False),
    "connect-established": (
        _socket,
        lambda s, c: s.connect(c["fd"], "node01", 7000),
        lambda c: not c["accepted"]
        and not c["server"].get_fd(c["server_lfd"]).backlog,
        False,
    ),
    "accept": (
        _listening,
        lambda s, c: s.accept(c["fd"]),
        lambda c: len(_desc(c, "fd").backlog) == 1,
        True,
    ),
    "recv": (
        _pair_with_late_data,
        lambda s, c: s.recv(c["b"]),
        lambda c: _desc(c, "b").rx.available_chunks == 1,
        True,
    ),
    "recv-timeout": (_pair, lambda s, c: s.recv(c["b"], timeout=0.3), None, True),
    "send-full": (_pair_full_with_late_reader, lambda s, c: s.send(c["a"], 1000), None, False),
    "waitpid": (
        _child_running,
        lambda s, c: s.waitpid(c["pid"]),
        lambda c: [ch.state for ch in c["proc"].children] == ["zombie"],
        False,
    ),
    "thread_join": (_worker_running, lambda s, c: s.thread_join(c["tid"]), None, False),
    "sem_acquire": (
        _sem_with_late_release,
        lambda s, c: s.sem_acquire(c["sem"]),
        lambda c: c["world"]._semaphores(c["proc"])[c["sem"]].value == 1,
        True,
    ),
    "fork": (_nothing, lambda s, c: s.fork(lambda cs: _child(cs, [])), None, False),
    "spawn": (_nothing, lambda s, c: s.spawn("child", ["child"]), None, False),
    "ssh": (_nothing, lambda s, c: s.ssh("node01", "child", ["child"]), None, False),
    "suspend_threads": (_sibling, lambda s, c: s.suspend_threads(), None, False),
}


def _effects(ctx, task):
    """Everything a completion could change on the task's behalf."""
    world, proc = ctx["world"], ctx["proc"]
    ns = world.node_state("node00").mounts.resolve("/tmp/f").namespace
    return {
        "processes": world.processes_created,
        "children": [c.pid for c in proc.children],
        "fds": sorted(proc.fds),
        "offsets": [
            (fd, e.description.offset)
            for fd, e in sorted(proc.fds.items())
            if isinstance(e.description, OpenFile)
        ],
        "files": {p: ns.lookup(p).size for p in ns.listdir("/tmp")},
        "frozen": [
            t.name for t in proc.threads
            if t.task is not task and t.task.state is TaskState.FROZEN
        ],
        "parked": task._frozen_result,
        "pending": task.pending_call,
    }


def _start(name):
    """The victim, run until the handler of the call under test has
    returned and the call is pending.  Returns ``(ctx, task)``."""
    setup, call, _left, _take = ROWS[name]
    world = build_cluster(n_nodes=2, seed=11)
    ctx = {"world": world, "results": [], "accepted": [], "armed": False}

    def victim(sys, argv):
        yield from setup(sys, ctx)
        ctx["armed"] = True
        try:
            ctx["results"].append((yield from call(sys, ctx)))
        except SyscallError as err:
            ctx["results"].append(err.errno)

    world.register_program("victim", victim)
    world.register_program("child", _child)
    world.register_program("client", _client)
    world.register_program("server", _server(ctx))
    ctx["server"] = world.spawn_process("node01", "server")
    ctx["proc"] = proc = world.spawn_process("node00", "victim")
    task = proc.threads[0].task
    world.engine.run_until(lambda: ctx["armed"] and task.pending_call is not None)
    world.engine.run(until=world.engine.now + world.spec.os.syscall_s)
    assert task.pending_call is not None and task.state is TaskState.BLOCKED
    return ctx, task


def _undisturbed(name):
    ctx, _task = _start(name)
    ctx["world"].engine.run()
    no_failures(ctx["world"])
    assert len(ctx["results"]) == 1
    return ctx["results"]


@pytest.mark.parametrize("name", sorted(ROWS))
def test_nothing_of_a_sealed_context_reaches_the_restarted_one(name):
    _setup, _call, left, _take = ROWS[name]
    ctx, task = _start(name)
    world = ctx["world"]
    call = task.pending_call
    task.freeze()
    task.seal()
    before = _effects(ctx, task)
    world.engine.run()  # whatever the old context still delivers lands now
    assert _effects(ctx, task) == before
    assert before["parked"] is None and before["pending"] is call
    assert left is None or left(ctx)
    reissued = []
    fresh = object()

    def new_context(task_, call_):
        reissued.append(call_)
        task_.complete_call(fresh)

    task.thaw(handler=new_context)
    world.engine.run()
    assert len(reissued) == 1 and reissued[0] is call
    assert ctx["results"] == [fresh]
    no_failures(world)
    assert world.engine.pending == 0


@pytest.mark.parametrize("name", sorted(ROWS))
def test_a_result_that_lands_during_a_freeze_is_delivered_at_thaw(name):
    _setup, _call, left, take = ROWS[name]
    ctx, task = _start(name)
    world = ctx["world"]
    call = task.pending_call
    task.freeze()
    world.engine.run()  # the completion lands while the caller is frozen
    if take:
        # nothing was taken for a frozen caller: the call waits for thaw
        assert task._frozen_result is None and task.pending_call is call
        assert left is None or left(ctx)
    else:
        assert task._frozen_result is not None and task.pending_call is None
    reissued = []

    def recording(task_, call_):
        reissued.append(call_)
        world._dispatch(task_, call_)

    task.thaw(handler=recording)
    world.engine.run()
    assert reissued == ([call] if take else [])
    assert ctx["results"] == _undisturbed(name)
    no_failures(world)
    assert world.engine.pending == 0


def test_send_reissued_after_a_seal_queues_its_own_reservation():
    # the first issue's reservation belongs to the dead context: a
    # re-issue that waited on it would wait for a ticket that is dead
    ctx, task = _start("send-full")
    task.freeze()
    task.seal()
    task.thaw(handler=ctx["world"]._dispatch)
    ctx["world"].engine.run()
    assert ctx["results"] == [1000]
    no_failures(ctx["world"])


# ----------------------------------------------------------------------
# The ticket itself
# ----------------------------------------------------------------------

def test_completion_exposes_two_predicates_and_parks_as_one_object():
    public = {n for n in vars(Completion) if not n.startswith("_")}
    assert public == {"task", "call", "epoch", "value", "live", "awake", "ok", "fail", "settle"}
    assert {n for n in public if isinstance(vars(Completion)[n], property)} == {"live", "awake"}
    assert Completion.__dictoffset__ == 0  # slotted: no per-ticket dict


# ----------------------------------------------------------------------
# The fence: kernel/ holds no staleness predicate of its own
# ----------------------------------------------------------------------

KERNEL_DIR = pathlib.Path(repro.kernel.__file__).parent
DISPATCH_GUARD = {"_dispatch", "_run_syscall"}


def _fence(source: str, filename: str = "<kernel>") -> list[str]:
    """Lines of ``source`` that read ``.epoch`` / ``_FINISHED_STATES``
    outside the dispatch guard, or that complete a call later than its
    handler (from a nested function or a ``__call__``) without going
    through the ticket."""
    found = []

    def visit(node, funcs):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            funcs = funcs + [getattr(node, "name", "<lambda>")]
        outside = not (funcs and funcs[0] in DISPATCH_GUARD)
        late = len(funcs) > 1 or "__call__" in funcs
        where = f"{filename}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Attribute) and node.attr == "epoch" and outside:
            found.append(f"{where} reads .epoch")
        if isinstance(node, ast.Name) and node.id == "_FINISHED_STATES" and funcs and outside:
            found.append(f"{where} reads _FINISHED_STATES")
        if isinstance(node, ast.Attribute) and node.attr in ("complete_call", "fail_call") and late:
            found.append(f"{where} calls {node.attr} after the handler returned")
        for child in ast.iter_child_nodes(node):
            visit(child, funcs)

    tree = ast.parse(source)
    for top in ast.walk(tree):
        if isinstance(top, ast.ClassDef) or top is tree:
            for node in top.body:
                if not isinstance(node, ast.ClassDef):
                    visit(node, [])
    return found


def test_kernel_holds_no_staleness_predicate_of_its_own():
    for path in sorted(KERNEL_DIR.glob("*.py")):
        assert _fence(path.read_text(), path.name) == []


@pytest.mark.parametrize("guard", [
    # the closure guards this fence exists to keep out
    """
def _sys_ssh(self, task, thread, process, host):
    epoch = task.epoch
    def spawn_remote():
        if task.done or task.epoch != epoch:
            return
        task.complete_call((host, 1))
    self.engine.call_after(0.1, spawn_remote)
""",
    """
class _CompleteAfter:
    def __call__(self):
        if self.task.state not in _FINISHED_STATES:
            self.task.complete_call(self.value)
""",
    """
def _sys_fork(self, task, thread, process):
    def do_fork():
        if not task.done:
            task.complete_call(1)
    self.engine.call_after(0.1, do_fork)
""",
])
def test_the_fence_fails_when_a_hand_written_guard_comes_back(guard):
    assert _fence(guard)
