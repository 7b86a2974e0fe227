"""Unit tests for the discrete-event engine."""

import ast
import pathlib
import sys
import tracemalloc

import pytest

import repro
from repro.errors import SimulationError
from repro.sim import Engine, Future, Scheduler
from tests.test_perf_core import record_firings


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.call_at(2.0, order.append, "b")
    eng.call_at(1.0, order.append, "a")
    eng.call_at(3.0, order.append, "c")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 3.0


def test_ties_break_by_insertion_order():
    eng = Engine()
    order = []
    for label in "abcde":
        eng.call_at(1.0, order.append, label)
    eng.run()
    assert order == list("abcde")


def test_call_after_is_relative():
    eng = Engine()
    seen = []
    eng.call_at(5.0, lambda: eng.call_after(2.5, lambda: seen.append(eng.now)))
    eng.run()
    assert seen == [7.5]


def test_call_soon_runs_at_current_time():
    eng = Engine()
    times = []
    eng.call_at(1.0, lambda: eng.call_soon(times.append, eng.now))
    eng.run()
    assert times == [1.0]


def test_cannot_schedule_in_the_past():
    eng = Engine()
    eng.call_at(1.0, lambda: None)
    eng.run()
    with pytest.raises(SimulationError):
        eng.call_at(0.5, lambda: None)


def test_negative_delay_rejected():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.call_after(-1.0, lambda: None)


def test_cancelled_events_do_not_fire():
    eng = Engine()
    fired = []
    ev = eng.call_at(1.0, fired.append, "x")
    eng.call_at(2.0, fired.append, "y")
    ev.cancel()
    eng.run()
    assert fired == ["y"]


def test_pending_counts_live_events_only():
    eng = Engine()
    ev = eng.call_at(1.0, lambda: None)
    eng.call_at(2.0, lambda: None)
    assert eng.pending == 2
    ev.cancel()
    assert eng.pending == 1


def test_pending_is_o1_no_heap_scan():
    # regression: `pending` used to scan the whole heap on every call;
    # it must now read a live-event counter.  A heap whose iteration is
    # poisoned proves no rescan happens on the cancel-then-pending path.
    class NoIterList(list):
        def __iter__(self):
            raise AssertionError("pending scanned the heap")

    eng = Engine()
    events = [eng.call_at(float(i), lambda: None) for i in range(8)]
    eng._heap = NoIterList(eng._heap)
    assert eng.pending == 8
    events[3].cancel()
    events[5].cancel()
    assert eng.pending == 6


def test_pending_counter_survives_double_cancel_and_fire():
    eng = Engine()
    ev = eng.call_at(1.0, lambda: None)
    other = eng.call_at(2.0, lambda: None)
    ev.cancel()
    ev.cancel()  # idempotent: must not decrement twice
    assert eng.pending == 1
    eng.run()
    assert eng.pending == 0
    other.cancel()  # cancelling a fired event must not go negative
    assert eng.pending == 0


def test_run_until_time_stops_clock_at_bound():
    eng = Engine()
    fired = []
    eng.call_at(1.0, fired.append, 1)
    eng.call_at(10.0, fired.append, 10)
    eng.run(until=5.0)
    assert fired == [1]
    assert eng.now == 5.0
    eng.run()
    assert fired == [1, 10]


def test_run_until_predicate():
    eng = Engine()
    hits = []
    for i in range(10):
        eng.call_at(float(i), hits.append, i)
    eng.run_until(lambda: len(hits) >= 3)
    assert hits == [0, 1, 2]


def test_run_until_predicate_raises_on_drain():
    eng = Engine()
    eng.call_at(1.0, lambda: None)
    with pytest.raises(SimulationError):
        eng.run_until(lambda: False)


def test_run_is_not_reentrant():
    eng = Engine()
    errors = []

    def nested():
        try:
            eng.run()
        except SimulationError as exc:
            errors.append(exc)

    eng.call_at(1.0, nested)
    eng.run()
    assert len(errors) == 1


def test_run_until_is_not_reentrant():
    # regression: run_until() used to skip the _running guard entirely,
    # so a callback could re-enter the scheduling loop and corrupt `now`
    eng = Engine()
    errors = []

    def nested():
        try:
            eng.run_until(lambda: True)
        except SimulationError as exc:
            errors.append(exc)

    eng.call_at(1.0, nested)
    eng.call_at(2.0, lambda: None)
    eng.run()
    assert len(errors) == 1
    assert eng.now == 2.0


def test_step_is_not_reentrant():
    """A callback's ``step()`` would fire past the guard and outside the
    collector suspension of the run that called it."""
    eng = Engine()
    errors = []

    def nested():
        with pytest.raises(SimulationError, match="not reentrant") as exc:
            eng.step()
        errors.append(exc.value)

    eng.call_at(1.0, nested)
    eng.call_at(2.0, lambda: None)
    eng.run()
    assert len(errors) == 1
    assert eng.now == 2.0 and eng.events_fired == 2


def test_run_until_guard_resets_after_error():
    eng = Engine()
    with pytest.raises(SimulationError):
        eng.run_until(lambda: False)  # drains with predicate unmet
    # the guard must be released even when run_until raises
    eng.call_at(eng.now + 1.0, lambda: None)
    eng.run_until(lambda: eng.pending == 0)


def test_step_returns_false_when_idle():
    eng = Engine()
    assert eng.step() is False


def test_max_events_guard_catches_livelock():
    eng = Engine()

    def respawn():
        eng.call_soon(respawn)

    eng.call_soon(respawn)
    with pytest.raises(SimulationError):
        eng.run(max_events=100)


def test_events_fired_counter():
    eng = Engine()
    for i in range(5):
        eng.call_at(float(i), lambda: None)
    eng.run()
    assert eng.events_fired == 5


def test_peek_time_skips_cancelled():
    eng = Engine()
    ev = eng.call_at(1.0, lambda: None)
    eng.call_at(2.0, lambda: None)
    ev.cancel()
    assert eng.peek_time() == 2.0


# ----------------------------------------------------------------------
# An event is its own heap entry
# ----------------------------------------------------------------------

def _noop():
    pass


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or not (3, 10) <= sys.version_info[:2] <= (3, 12),
    reason="object sizes sized on CPython 3.10-3.12",
)
def test_a_pending_event_is_one_small_object():
    """A queued callback is one object (plus its heap key's items), its
    time and its seq: 172 traced bytes on CPython 3.11, the heap's own
    slot included (212 while a (time, seq, event) tuple ordered a
    separate event object)."""
    eng = Engine()
    eng.call_after(0.5, _noop)
    n = 20_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            eng.call_after(1.0 + i * 1e-6, _noop)
        per_event = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert per_event <= 176, per_event


def test_queues_hold_the_events_themselves_and_events_are_unhashable():
    eng = Engine()
    later = eng.call_at(1.0, _noop)
    now = eng.call_soon(_noop)
    assert eng._heap[0] is later and eng._ready[0] is now
    with pytest.raises(TypeError):
        hash(later)


def test_cancel_before_and_after_firing_keeps_pending_exact():
    eng = Engine()
    soon = eng.call_soon(_noop)  # the same-time FIFO
    spent = eng.call_at(1.0, _noop)  # the heap
    late = eng.call_at(2.0, _noop)
    box = []
    box.append(eng.call_at(1.5, lambda: box[0].cancel()))  # cancels itself
    assert eng.pending == 4
    soon.cancel()
    assert eng.pending == 3 and soon.cancelled and not soon.fired
    eng.run(until=1.7)
    assert eng.pending == 1
    for ev in (spent, box[0]):
        assert ev.fired and not ev.cancelled
        ev.cancel()  # after firing: a no-op
        assert ev.fired and not ev.cancelled
    assert eng.pending == 1
    late.cancel()
    late.cancel()
    assert eng.pending == 0 and late.cancelled and not late.fired
    eng.run()
    assert not late.fired and eng.now == 1.7 and not eng._heap


def test_a_frozen_task_gets_the_value_of_a_resume_already_scheduled():
    """``Task.freeze`` cancels the scheduled resume and reads the value
    out of the cancelled event's args; ``thaw`` delivers it."""
    eng = Engine()
    sched = Scheduler(eng)
    box = Future("box")
    got = []

    def body():
        got.append((yield box))

    task = sched.spawn(body(), name="waiter")
    eng.run()  # blocked on the box

    def settle_then_freeze():
        box.resolve(42)
        resume = task._resume_event
        task.freeze()
        assert resume.cancelled and resume.args[1:] == (42, None)

    eng.call_soon(settle_then_freeze)
    eng.run()
    assert got == [] and eng.pending == 0
    task.thaw()
    eng.run()
    assert got == [42]


def _fired_stream(drive) -> list:
    """(time, seq, callback) of every event a small workload fires: ties
    at one time, same-time FIFO events and cancellations, under the
    loop that ``drive`` runs."""
    record = []
    with pytest.MonkeyPatch.context() as mp:
        record_firings(mp, record)
        eng = Engine()

        def tick(k):
            if k < 60:
                eng.call_after((k % 3) * 0.5, tick, k + 1)
                eng.call_soon(_noop)
                victim = eng.call_after((k % 2) * 0.5, _noop)
                if k % 3 == 1:
                    victim.cancel()

        eng.call_at(0.0, tick, 0)
        eng.call_at(0.0, tick, 30)
        drive(eng)
    return record


def test_step_run_and_run_until_fire_the_same_stream():
    def by_step(eng):
        while eng.step():
            pass

    stepped = _fired_stream(by_step)
    assert len(stepped) > 200
    assert _fired_stream(lambda eng: eng.run()) == stepped
    assert _fired_stream(lambda eng: eng.run_until(lambda: eng.pending == 0)) == stepped


#: The engine's scheduling calls: what they return is an event.
_SCHEDULING = frozenset({"call_at", "call_after", "call_soon", "_call_after"})
#: Calls that hash their first argument or compare it by value.
_KEYED_CALLS = frozenset({"add", "discard", "remove", "index", "count", "setdefault", "get", "pop"})


def _event_names(tree) -> set:
    """Names and attributes a module binds to a scheduled event."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and isinstance(node.value, ast.Call):
            func = node.value.func
            if isinstance(func, ast.Attribute) and func.attr in _SCHEDULING:
                for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                    names.add(getattr(target, "attr", None) or getattr(target, "id", None))
    return names


def _keyed_uses(source: str) -> list:
    """Lines where ``source`` hashes an event or looks one up by value."""
    tree = ast.parse(source)
    names = _event_names(tree)

    def is_event(expr) -> bool:
        return (isinstance(expr, ast.Name) and expr.id in names) or (
            isinstance(expr, ast.Attribute) and expr.attr in names
        )

    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args and is_event(node.args[0]):
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr in _KEYED_CALLS) or (
                isinstance(func, ast.Name) and func.id in ("set", "frozenset", "dict")
            ):
                hits.append(node.lineno)
        elif isinstance(node, ast.Set) and any(map(is_event, node.elts)):
            hits.append(node.lineno)
        elif isinstance(node, ast.Dict) and any(k is not None and is_event(k) for k in node.keys):
            hits.append(node.lineno)
        elif isinstance(node, ast.Subscript) and is_event(node.slice):
            hits.append(node.lineno)
        elif isinstance(node, ast.Compare) and is_event(node.left) and any(
            isinstance(op, (ast.In, ast.NotIn, ast.Eq, ast.NotEq)) for op in node.ops
        ):
            hits.append(node.lineno)
    return hits


def test_no_event_is_a_set_member_or_a_dict_key():
    """Events compare as lists now: ``src/repro`` holds them by identity
    only (``is``, ``is not None``), never in a set, a dict key or an
    ``in`` / ``==`` lookup."""
    root = pathlib.Path(repro.__file__).parent
    assert {path.relative_to(root).as_posix(): _keyed_uses(path.read_text())
            for path in root.rglob("*.py") if _keyed_uses(path.read_text())} == {}
    # the fence sees each idiom when it is put back
    snippet = "\n".join([
        "self._timer = self.engine.call_after(1.0, fire)",
        "ev = engine.call_soon(fire)",
        "live.add(ev)",
        "owners[self._timer] = 1",
        "queued = {ev}",
        "if ev in pending: pass",
    ])
    assert _keyed_uses(snippet) == [3, 4, 5, 6]


#: What only the fire loop may do: pop a queue (past the cancelled-front
#: drain), call a fired callback, suspend the collector, count a fire.
_FIRE_WORK = ("pops", "calls", "suspends", "counts")


def _fire_work(source: str) -> dict:
    """For each kind of fire-loop work, the functions of ``source`` that do it."""
    found = {kind: set() for kind in _FIRE_WORK}
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, ast.FunctionDef):
            continue
        callbacks = {  # names bound to an event's callback: ``fn = ev.fn``
            target.id
            for node in ast.walk(func) if isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Attribute) and node.value.attr == "fn"
            for target in node.targets if isinstance(target, ast.Name)
        }
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", None) or getattr(node.func, "id", None)
                if name in ("heappop", "popleft"):
                    found["pops"].add(func.name)
                elif name == "_suspend_gc":
                    found["suspends"].add(func.name)
                elif name in callbacks or name == "fn" and isinstance(node.func, ast.Attribute):
                    found["calls"].add(func.name)
            elif isinstance(node, ast.AugAssign) and getattr(node.target, "attr", None) == "events_fired":
                found["counts"].add(func.name)
    found["pops"].discard("_drain_cancelled")
    return found


def test_one_loop_fires_every_event():
    """``step``, ``run``, ``run_window`` and ``run_until`` share one fire
    loop: no other function of the engine pops a queue and calls the
    callback it popped."""
    source = pathlib.Path(repro.__file__).parent.joinpath("sim", "engine.py").read_text()
    assert _fire_work(source) == {kind: {"_fire"} for kind in _FIRE_WORK}
    # the fence sees a second copy of the loop when one is put back
    copy = "\n".join([
        "def step(self):",
        "    ev = self._ready.popleft()",
        "    fn = ev.fn",
        "    fn(*ev.args)",
        "    self.events_fired += 1",
    ])
    work = _fire_work(source + "\n" + copy)
    assert [work[kind] for kind in ("pops", "calls", "counts")] == [{"_fire", "step"}] * 3
