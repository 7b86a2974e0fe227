"""Property tests for the discrete-event engine.

A random sequence of schedule/cancel/step/peek operations must preserve
the engine's core invariants: the pending count matches the live events,
the clock never runs backwards, peek_time() names the next live event,
and same-time events fire in insertion order.  Under heavy cancellation,
inside callbacks too, the heap sheds its dead events and fires exactly
the live ones in the heap-only oracle's order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Engine
from tests.test_perf_core import _heap_only

# One operation per list element:
#   ("schedule", delay)  -- call_after(delay, ...)
#   ("cancel", i)        -- cancel the i-th scheduled event (mod count)
#   ("step",)            -- fire the next event
#   ("peek",)            -- check peek_time against live events
op = st.one_of(
    st.tuples(st.just("schedule"), st.floats(min_value=0.0, max_value=10.0,
                                             allow_nan=False, allow_infinity=False)),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=63)),
    st.tuples(st.just("step")),
    st.tuples(st.just("peek")),
)


@settings(max_examples=200, deadline=None)
@given(ops=st.lists(op, max_size=60))
def test_property_engine_invariants(ops):
    eng = Engine()
    scheduled = []  # every Event ever created, in creation order
    fired = []      # (time, seq) of fired events, in firing order

    def live():
        return [ev for ev in scheduled if not ev.cancelled and not ev.fired]

    for operation in ops:
        if operation[0] == "schedule":
            ev = eng.call_after(operation[1], lambda e=None: fired.append(e),)
            ev.args = ((ev.time, ev.seq),)
            scheduled.append(ev)
        elif operation[0] == "cancel":
            if scheduled:
                target = scheduled[operation[1] % len(scheduled)]
                if not target.fired:
                    target.cancel()
        elif operation[0] == "step":
            before = eng.now
            had_work = bool(live())
            assert eng.step() is had_work
            assert eng.now >= before, "clock ran backwards"
        else:  # peek
            expected = min((ev.time for ev in live()), default=None)
            assert eng.peek_time() == expected

        # invariant: pending counts exactly the live events
        assert eng.pending == len(live())

    # drain; firing order must be (time, insertion-seq) sorted -- the
    # determinism contract every layer above the engine relies on
    while eng.step():
        pass
    assert fired == sorted(fired)
    assert eng.pending == 0
    assert [ev for ev in scheduled if not ev.cancelled and not ev.fired] == []


@settings(max_examples=100, deadline=None)
@given(delays=st.lists(st.floats(min_value=0.0, max_value=5.0,
                                 allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=30))
def test_property_same_time_events_fire_in_insertion_order(delays):
    eng = Engine()
    order = []
    for i, delay in enumerate(delays):
        eng.call_after(delay, order.append, (delay, i))
    eng.run()
    assert order == sorted(order), "ties must break by insertion order"
    assert eng.now == max(d for d in delays)


# ----------------------------------------------------------------------
# Heavy cancellation: the heap sheds its dead events and nothing else
# ----------------------------------------------------------------------

def _cancel_storm(seed: int, n: int, cancel_share: float, fanout: int, oracle: bool):
    """``n`` events at tied and untied times, ``cancel_share`` of them
    cancelled before the run; each callback, as it fires, cancels up to
    ``fanout`` of the latest events and schedules up to three more, until
    ``4 n`` were made.  Every choice comes from ``seed`` and the firing
    order alone, so the engine and the heap-only oracle make the same
    ones.  Returns ``(fired, events, checks, sheds)``: the ``(time, seq)``
    of each fired event in firing order, every event ever made, one
    ``(pending, live, heap size)`` triple per cancel made inside ``run``,
    and how many times the heap was rebuilt inside ``run``."""
    rng = random.Random(seed)
    with pytest.MonkeyPatch.context() as mp:
        if oracle:
            _heap_only(mp)
        sheds = []
        shed = Engine._shed

        def counted_shed(self):
            sheds.append(self._running)
            shed(self)

        mp.setattr(Engine, "_shed", counted_shed)
        eng = Engine()
        events, fired, checks = [], [], []
        live = [0]

        def cancel(ev):
            if not ev.cancelled and not ev.fired:
                live[0] -= 1
            ev.cancel()

        def schedule(delay):
            events.append(eng.call_after(delay, fire, len(events)))
            live[0] += 1

        def fire(index):
            ev = events[index]
            live[0] -= 1
            fired.append((ev.time, ev.seq))
            for _ in range(rng.randrange(fanout + 1)):
                cancel(events[-1 - rng.randrange(min(len(events), 300))])
                checks.append((eng.pending, live[0], len(eng._heap)))
            for _ in range(rng.randrange(4) if len(events) < 4 * n else 0):
                schedule(rng.choice((0.0, rng.randrange(40) / 4)))

        for _ in range(n):
            schedule(rng.randrange(40) / 4)
        for ev in rng.sample(events, int(cancel_share * n)):
            cancel(ev)
        eng.run()
    return fired, events, checks, sum(sheds)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1000, max_value=2000),
    cancel_share=st.floats(min_value=0.5, max_value=0.8),
    fanout=st.integers(min_value=2, max_value=3),
)
def test_property_heavy_cancellation_fires_exactly_the_live_events(seed, n, cancel_share, fanout):
    from repro.sim.engine import _SHED_FLOOR

    fired, events, checks, sheds = _cancel_storm(seed, n, cancel_share, fanout, oracle=False)
    oracle, _events, _checks, _sheds = _cancel_storm(seed, n, cancel_share, fanout, oracle=True)
    # exactly the events nobody cancelled fired, in (time, seq) order,
    # and in the heap-only oracle's order
    assert fired == oracle
    assert fired == sorted(fired)
    assert sorted(fired, key=lambda ts: ts[1]) == [
        (ev.time, ev.seq) for ev in events if not ev.cancelled
    ]
    assert all(ev.fired for ev in events if not ev.cancelled)
    # ``pending`` stays exact through every cancel made while firing;
    # cancels inside callbacks rebuilt the heap more than once, and right
    # after each cancel a heap past the floor holds no more dead events
    # than live ones
    assert checks and all(pending == live for pending, live, _heap in checks)
    assert sheds >= 2
    assert all(heap <= max(_SHED_FLOOR, 2 * pending) for pending, _live, heap in checks)
