"""The discrete-event engine: a virtual clock and an ordered event heap.

The engine knows nothing about processes or checkpoints; it schedules
callbacks at virtual times.  Determinism is guaranteed by breaking ties in
(time, insertion sequence) order, so two runs with the same seed replay the
same interleaving.

``Engine._fire`` is the one loop that fires events: ``step`` is one
pass of it, and ``run``, ``run_window`` and ``run_until`` only set its
bounds.  Three hot-path design points (see DESIGN.md §8):

* An event is its own heap entry: a slotted ``list`` subclass whose list
  part ``[time, seq]`` ``heapq`` compares at C speed.  One object per
  pending callback instead of an event plus a ``(time, seq, event)``
  tuple: 164 traced bytes instead of 212.
* Events scheduled at the *current* time (``call_soon`` and zero-delay
  ``call_after``) bypass the heap entirely and go to a FIFO deque.  This
  is safe because every heap entry at time ``t`` was pushed while the
  clock was strictly before ``t`` (scheduling at ``now`` takes the FIFO
  path, scheduling in the past raises), so heap entries at the current
  time always carry smaller sequence numbers than anything in the FIFO
  -- draining the heap first, then the FIFO, replays the exact global
  ``(time, seq)`` order a heap-only engine produces (the oracle that
  ``tests/test_perf_core.py`` compares against).
* CPython's cyclic collector is suspended while events fire (the
  ``timeit`` pattern).  A run frees what it drops by reference counting,
  so an automatic collection would only re-scan the live world; an
  explicit ``gc.collect()`` still works.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import threading
from collections import deque
from typing import Any, Callable, Optional

from repro.errors import SimulationError

#: Runs in flight across every engine of the interpreter (inline shard
#: backends overlap in threads), and whether the collector was enabled
#: when the first of them began: the last one out restores it.
_gc_lock = threading.Lock()
_gc_runs = 0
_gc_was_enabled = False

#: Why ``Engine._fire`` stopped: the queues drained, the next event lies
#: after ``until``, the predicate held, or the event limit was reached.
_DRAINED, _LATER, _HELD, _SPENT = range(4)


def _suspend_gc() -> None:
    global _gc_runs, _gc_was_enabled
    with _gc_lock:
        if not _gc_runs:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_runs += 1


def _restore_gc() -> None:
    global _gc_runs
    with _gc_lock:
        _gc_runs -= 1
        if not _gc_runs and _gc_was_enabled:
            gc.enable()


def _drain_cancelled(heap: list, ready: deque) -> None:
    """Drop cancelled events from the front of both queues.

    The fire loop keeps its borrowed ``heap``/``ready`` locals and a
    two-comparison inline guard, and only calls here when a cancelled
    event is actually at the front, so the common case pays no call.
    """
    while heap and heap[0].fn is None:
        heapq.heappop(heap)
    while ready and ready[0].fn is None:
        ready.popleft()


class Event(list):
    """A cancellable scheduled callback, and its own heap entry.

    The list part is the heap key ``[time, seq]``: ``heapq`` compares it
    at C speed and never past ``seq``, which is unique per engine.  A
    ``call_soon`` event never enters the heap and leaves it empty.  The
    callback rides in slots, which the fire loop reads at attribute
    speed (CPython specializes no subscript of a list subclass).  Firing
    clears ``fn``; cancelling clears ``fn`` and ``engine``.
    Cancellation is O(1): the entry stays queued and is skipped when it
    reaches the front.  A list is unhashable, so an event is never a
    set member or dict key.
    """

    __slots__ = ("time", "seq", "fn", "args", "engine")

    @property
    def cancelled(self) -> bool:
        return self.engine is None

    @property
    def fired(self) -> bool:
        return self.fn is None and self.engine is not None

    def cancel(self) -> None:
        """Mark the event dead; it is skipped when popped."""
        if self.fn is not None:
            self.fn = None
            self.engine._live -= 1
            self.engine = None


class Engine:
    """Virtual clock plus event queues.

    Typical use::

        eng = Engine()
        eng.call_after(1.5, hello)
        eng.run()          # runs until the queues drain
        assert eng.now == 1.5
    """

    #: Sharded execution (repro.sim.parallel): when a ShardGate is
    #: installed, the driver-facing ``run``/``run_until`` become global
    #: windowed operations synchronized with the other shards; the gate
    #: drives local execution through ``run_window``.
    _shard_gate = None

    def __init__(self) -> None:
        self.now: float = 0.0
        #: Future events, each its own heap entry (C-speed ordering).
        self._heap: list[Event] = []
        #: Events scheduled at the current timestamp, in seq (FIFO) order.
        self._ready: deque[Event] = deque()
        self._seq = itertools.count()
        #: Live (scheduled, not cancelled, not fired) event count, kept in
        #: step with push/cancel/fire so ``pending`` never scans the heap.
        self._live: int = 0
        self._running = False
        #: Total events executed; useful for complexity assertions in tests.
        self.events_fired: int = 0
        self._tracer = None
        #: The tracer iff it is enabled -- rebound by the tracer's
        #: enable/disable notifications so the disabled path does zero
        #: tracer attribute work (one slot load + an ``is None`` test).
        self._trace_hot = None

    # ------------------------------------------------------------------
    # Tracer wiring
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        """The attached repro.obs.Tracer (None by default)."""
        return self._tracer

    @tracer.setter
    def tracer(self, tracer) -> None:
        self._tracer = tracer
        if tracer is None:
            self._trace_hot = None
            return
        watch = getattr(tracer, "add_watcher", None)
        if watch is not None:
            watch(self._on_tracer_toggle)  # fires once immediately
        else:  # bare stand-in tracer without toggle support
            self._trace_hot = tracer if getattr(tracer, "enabled", False) else None

    def _on_tracer_toggle(self, tracer) -> None:
        if tracer is self._tracer:
            self._trace_hot = tracer if tracer.enabled else None

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual ``time``."""
        if time < self.now:
            raise SimulationError(f"cannot schedule event at t={time} before now={self.now}")
        seq = next(self._seq)
        ev = Event((time, seq))
        ev.time = time
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        ev.engine = self
        if time == self.now:
            self._ready.append(ev)
        else:
            heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def call_after(self, delay: float, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` after ``delay`` seconds of virtual time."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        # call_at inlined: this is the hottest scheduling entry point
        time = self.now + delay
        seq = next(self._seq)
        ev = Event((time, seq))
        ev.time = time
        ev.seq = seq
        ev.fn = fn
        ev.args = args
        ev.engine = self
        if time == self.now:
            self._ready.append(ev)
        else:
            heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def call_soon(self, fn: Callable[..., Any], *args: Any) -> Event:
        """Schedule ``fn(*args)`` at the current time, after pending events."""
        ev = Event()
        ev.time = self.now
        ev.seq = next(self._seq)
        ev.fn = fn
        ev.args = args
        ev.engine = self
        self._ready.append(ev)
        self._live += 1
        return ev

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live

    def peek_time(self) -> Optional[float]:
        """Virtual time of the next live event, or None if idle."""
        _drain_cancelled(self._heap, self._ready)
        if self._ready:
            return self.now
        return self._heap[0].time if self._heap else None

    def _advance_now(self, time: float) -> None:
        """Jump the clock forward to ``time`` (shard-gate normalization).

        Used by repro.sim.parallel when a windowed run stops: every shard
        adopts the same global stop time so subsequent driver actions see
        an identical clock in every sharding.  Going backwards is a bug.
        """
        if time < self.now:
            raise SimulationError(f"cannot move clock backwards: now={self.now}, target={time}")
        self.now = time

    def step(self) -> bool:
        """Fire the next event (one pass of the fire loop); False if the
        queues were empty.  There is no ``until`` clamp: use ``run``.
        """
        if self._shard_gate is not None:
            raise SimulationError(
                "Engine.step() is unavailable under sharded execution; "
                "use run()/run_until(), which synchronize across shards"
            )
        return self._fire(math.inf, None, 1) == _SPENT

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        """Run events until the queues drain or ``until`` is passed.

        Calling with ``until < now`` is a no-op: virtual time never moves
        backwards (it used to silently rewind the clock).  ``max_events``
        is a runaway-loop backstop; hitting it raises
        :class:`SimulationError` rather than hanging the test suite.
        """
        if self._shard_gate is not None:
            return self._shard_gate.run(until=until, max_events=max_events)
        if until is None:
            until = math.inf
        elif until < self.now:
            return
        stop = self._fire(until, None, max_events)
        if stop == _LATER:
            self.now = until
        elif stop == _SPENT:
            raise SimulationError(f"engine exceeded {max_events} events; likely a livelock")

    def run_window(
        self, horizon: float, inclusive: bool = False, max_events: int = 50_000_000
    ) -> None:
        """Run local events with ``time < horizon`` (``<=`` if inclusive).

        This is the shard-local half of a conservative lookahead window
        (repro.sim.parallel): the gate guarantees no cross-shard message
        can arrive before ``horizon``, so everything strictly earlier is
        safe to execute.  Unlike ``run`` it never touches the clock on
        return -- ``now`` stays at the last fired event so the next
        window (or an injected completion at exactly ``horizon``) can
        still be scheduled with ``call_at``.
        """
        # below the last float before horizon is exactly below horizon
        until = horizon if inclusive else math.nextafter(horizon, -math.inf)
        if self._fire(until, None, max_events) == _SPENT:
            raise SimulationError(f"engine exceeded {max_events} events; likely a livelock")

    def run_until(self, predicate: Callable[[], bool], max_events: int = 50_000_000) -> None:
        """Run until ``predicate()`` becomes true.  Raises if the queues drain first."""
        if self._shard_gate is not None:
            return self._shard_gate.run_until(predicate, max_events=max_events)
        stop = self._fire(math.inf, predicate, max_events)
        if stop == _DRAINED:
            raise SimulationError("event heap drained before predicate held")
        if stop == _SPENT:
            raise SimulationError(f"engine exceeded {max_events} events waiting for predicate")

    def _fire(
        self, until: float, predicate: Optional[Callable[[], bool]], limit: int
    ) -> int:
        """Fire events in ``(time, seq)`` order until the queues drain, the
        next event lies after ``until`` (the clock stays put), ``predicate()``
        holds before an event or ``limit`` events have fired; say which.

        The only code that pops the queues, advances the clock through
        events, counts them, suspends the collector and calls a callback.
        """
        if self._running:
            raise SimulationError("the engine is not reentrant: a callback ran step() or run()")
        self._running = True
        heap = self._heap
        ready = self._ready
        heappop = heapq.heappop
        fired = 0
        _suspend_gc()
        try:
            while fired < limit:
                if predicate is not None and predicate():
                    return _HELD
                if (heap and heap[0].fn is None) or (ready and ready[0].fn is None):
                    _drain_cancelled(heap, ready)
                if ready:
                    # ready events sit at the current time, inside any
                    # ``until`` (the clock only reaches in-bound times);
                    # heap entries at the same time are older: they go first
                    if heap and heap[0].time <= self.now:
                        ev = heappop(heap)
                    else:
                        ev = ready.popleft()
                elif heap:
                    next_time = heap[0].time
                    if next_time > until:
                        return _LATER
                    ev = heappop(heap)
                    self.now = next_time
                else:
                    return _DRAINED
                self._live -= 1
                tracer = self._trace_hot
                if tracer is not None:
                    tracer.count("sim.events_fired")
                    tracer.count_max("sim.heap_depth_max", len(heap) + len(ready) + 1)
                fn = ev.fn
                ev.fn = None
                fn(*ev.args)
                fired += 1
            return _SPENT
        finally:
            _restore_gc()
            self.events_fired += fired
            self._running = False
