"""The hub's batched dispatcher drains on arrival, with no flush window.

When the doorbell wakes the dispatcher, or when it finishes an apply,
everything pending is one batch: frames that land while a batch is
charged and applied form the next one (group commit).  These tests pin
the latency that buys (a lone barrier waits one batch charge, not a
timer), the batching it keeps, and that the timer and its knob are gone.
"""

import ast
import inspect
from collections import defaultdict, deque
from pathlib import Path

from repro.core import protocol as P
from repro.service import CoordinatorHub
from repro.service import hub as hub_mod
from tests.test_coordinator_publish import _hub_tenants, _storm

SRC = Path(hub_mod.__file__).resolve().parents[1]


def test_lone_barrier_is_released_one_batch_charge_after_it_is_queued(monkeypatch):
    """One tenant, one rank: each barrier's only arrival is queued on an
    idle hub.  It is applied -- and the barrier released -- one batch
    charge later (plus the doorbell's release and acquire syscalls), not
    after a 100 us flush window."""
    queued = defaultdict(list)
    enqueue = hub_mod._enqueue

    def recording(sys, hub, item):
        message = item[2]
        if message is not None and message.get("kind") == P.MSG_BARRIER:
            queued[message["name"]].append(hub.world.engine.now)
        yield from enqueue(sys, hub, item)

    monkeypatch.setattr(hub_mod, "_enqueue", recording)
    world, hub, (comp,) = _hub_tenants(("solo",), ranks=1)
    _storm(world, [comp])
    charge = hub.batch_overhead_s + hub.batch_msg_s
    bound = charge + 2 * world.spec.os.syscall_s
    released = comp.state.barrier_stats
    assert [b["name"] for b in released] == [
        "suspended", "election-completed", "drained", "checkpointed", "refilled",
    ]
    for barrier in released:
        wait = barrier["release_t"] - max(queued[barrier["name"]])
        assert charge <= wait <= bound + 1e-12, (barrier["name"], wait, bound)


class _DrainLog(deque):
    """The hub's pending queue, logging each frame queued and each drain
    with its virtual time."""

    def __init__(self, log: list, clock):
        super().__init__()
        self.log = log
        self.clock = clock

    def append(self, item) -> None:
        self.log.append(("queued", item, self.clock()))
        super().append(item)

    def clear(self) -> None:
        self.log.append(("drained", None, self.clock()))
        super().clear()


def test_frames_landing_during_an_apply_form_the_next_batch(monkeypatch):
    """Under an eight-tenant storm: each batch holds exactly the frames
    queued since the previous drain; frames pending when an apply ends
    are drained at that instant, with no window; and no frame is lost
    or applied twice."""
    log: list = []
    apply_batch = hub_mod._apply_batch

    def recording(sys, hub, batch):
        log.append(("apply", list(batch), hub.world.engine.now))
        yield from apply_batch(sys, hub, batch)
        log.append(("applied", None, hub.world.engine.now))

    monkeypatch.setattr(hub_mod, "_apply_batch", recording)
    world, hub, comps = _hub_tenants([f"t{i}" for i in range(8)], ranks=4)
    assert hub.idle and not hub.pending
    log.clear()  # startup traffic
    hub.pending = _DrainLog(log, lambda: world.engine.now)
    before = hub.messages
    _storm(world, comps)
    world.engine.run_until(lambda: hub.idle)  # apply the stragglers

    since_drain: list = []  # queued since the last drain
    drained: list = []  # the last drain's frames
    applied = back_to_back = 0
    pending_at_end = False
    ended_at = None
    for kind, payload, t in log:
        if kind == "queued":
            since_drain.append(payload)
        elif kind == "drained":
            if pending_at_end:
                # frames landed while the dispatcher was busy: the next
                # batch is drained the instant the last apply ended
                assert t == ended_at, (t, ended_at)
                back_to_back += 1
            drained, since_drain = since_drain, []
            pending_at_end = False
        elif kind == "apply":
            assert [id(i) for i in payload] == [id(i) for i in drained]
            applied += len(payload)
        else:
            ended_at = t
            pending_at_end = bool(since_drain)
    queued = sum(1 for kind, _, _ in log if kind == "queued")
    assert not since_drain
    assert queued == applied == hub.messages - before
    assert back_to_back > 0  # the storm did land frames during an apply


def test_dispatcher_makes_no_sleep_call():
    """``ast`` fence: the batched dispatcher waits only on its doorbell."""
    tree = ast.parse(inspect.getsource(hub_mod._hub_dispatcher))
    sleeps = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "sleep"
    ]
    assert sleeps == []


def test_flush_window_knob_is_gone():
    """Neither the spec field nor the hub parameter survives anywhere."""
    hits = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if "service_tick_s" in path.read_text()
    ]
    assert hits == []
    assert "tick_s" not in inspect.signature(CoordinatorHub).parameters
