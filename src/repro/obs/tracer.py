"""The virtual-time tracer: spans, instant events, and counters.

Every layer of the reproduction (sim engine, kernel world, coordinator,
MTCP, restart) reports into one :class:`Tracer` owned by the
:class:`~repro.kernel.world.World`.  Timestamps are *virtual* seconds
read from the engine clock, so traces are deterministic: the same seed
replays the same event interleaving and therefore the same trace, byte
for byte.

Design rules:

* **Spans always measure.**  ``begin``/``end`` return virtual timestamps
  and durations whether or not tracing is enabled, and the Table-1
  harness derives its stage numbers from exactly these return values --
  benchmarks and traces can never disagree, because they are the same
  measurement.
* **Recording is zero-cost when disabled.**  With ``enabled=False`` no
  event objects are allocated, no counters accumulate, and memory does
  not grow; the only residual work is a clock read and a span-stack
  push/pop (needed so durations stay correct).
* **Spans are strictly nested per track.**  A *track* is one timeline
  (one process, one barrier, one restarter).  ``end`` must close the
  innermost open span of its track; mismatches raise :class:`TraceError`
  immediately instead of producing a silently corrupt trace.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import TraceError

__all__ = ["Tracer", "TraceEvent", "proc_track"]

#: Event phases, mirroring the Chrome trace_event vocabulary.
PH_BEGIN = "B"
PH_END = "E"
PH_INSTANT = "i"


class TraceEvent:
    """One recorded trace event (span edge or instant)."""

    __slots__ = ("ph", "ts", "track", "name", "cat", "args", "tenant")

    def __init__(
        self,
        ph: str,
        ts: float,
        track: str,
        name: str,
        cat: Optional[str] = None,
        args: Optional[dict] = None,
        tenant: Optional[str] = None,
    ):
        self.ph = ph
        self.ts = ts
        self.track = track
        self.name = name
        self.cat = cat
        self.args = args
        self.tenant = tenant

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TraceEvent {self.ph} t={self.ts:.9f} {self.track} {self.name}>"


def proc_track(hostname: str, program: str, vpid: int, tenant: Optional[str] = None) -> str:
    """Canonical track name for one simulated process.

    Virtual pids are unique per computation, not per host: a tenant
    restored onto another tenant's host can hold the vpids that tenant's
    processes hold as real pids.  In service mode the tenant therefore
    qualifies the process part (``host/tenant:program[vpid]``); without
    one the name is ``host/program[vpid]``."""
    if tenant:
        return f"{hostname}/{tenant}:{program}[{vpid}]"
    return f"{hostname}/{program}[{vpid}]"


class Tracer:
    """Low-overhead span/instant/counter recorder on a virtual clock.

    ``clock`` is any zero-argument callable returning the current virtual
    time; the world wires it to ``engine.now``.
    """

    __slots__ = (
        "clock", "enabled", "events", "counters", "tenant_counters",
        "_stacks", "_watchers", "_span_hooks",
    )

    def __init__(self, clock: Optional[Callable[[], float]] = None, enabled: bool = False):
        self.clock: Callable[[], float] = clock if clock is not None else (lambda: 0.0)
        self.enabled = enabled
        #: Recorded events, in execution order (deterministic per seed).
        self.events: list[TraceEvent] = []
        #: Cumulative counters, name -> value.
        self.counters: dict[str, float] = {}
        #: Per-tenant counter breakdown, tenant -> {name -> value}.  Only
        #: populated when callers pass ``tenant=`` (the multi-tenant
        #: service); single-tenant runs never touch it.
        self.tenant_counters: dict[str, dict[str, float]] = {}
        #: Per-track stacks of open spans: track -> [(name, begin_ts), ...]
        self._stacks: dict[str, list[tuple[str, float]]] = {}
        #: enable/disable listeners -- hot loops (engine step, scheduler
        #: trampoline) register here so they can rebind their cached
        #: "tracer-or-None" slot instead of re-testing ``enabled`` per event.
        self._watchers: list[Callable[["Tracer"], None]] = []
        #: Span-edge hooks ``fn(ph, track, name, ts)`` fired on every
        #: begin/end *whether or not recording is enabled* -- spans always
        #: measure, so hooks always see edges.  The fault injector uses
        #: these to target "during barrier X" without the tracer on.  The
        #: empty-list truthiness test keeps the no-hooks path free.
        self._span_hooks: list[Callable[[str, str, str, float], None]] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def add_watcher(self, fn: Callable[["Tracer"], None]) -> None:
        """Call ``fn(self)`` now and after every enable()/disable()."""
        if fn not in self._watchers:
            self._watchers.append(fn)
        fn(self)

    def _notify(self) -> None:
        for fn in self._watchers:
            fn(self)

    def enable(self) -> None:
        """Start recording events and counters."""
        self.enabled = True
        self._notify()

    def disable(self) -> None:
        """Stop recording; open spans keep measuring."""
        self.enabled = False
        self._notify()

    def reset(self) -> None:
        """Drop all recorded events, counters, and open spans."""
        self.events.clear()
        self.counters.clear()
        self.tenant_counters.clear()
        self._stacks.clear()

    # ------------------------------------------------------------------
    # Span hooks (fault injection, phase-targeted instrumentation)
    # ------------------------------------------------------------------
    def add_span_hook(self, fn: Callable[[str, str, str, float], None]) -> None:
        """Fire ``fn(ph, track, name, ts)`` on every span begin ("B") and
        end ("E"), independent of ``enabled``."""
        if fn not in self._span_hooks:
            self._span_hooks.append(fn)

    def remove_span_hook(self, fn: Callable[[str, str, str, float], None]) -> None:
        """Detach a previously added span hook (no-op if absent)."""
        try:
            self._span_hooks.remove(fn)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def begin(
        self, track: str, name: str, cat: Optional[str] = None,
        tenant: Optional[str] = None, **args: Any,
    ) -> float:
        """Open a span on ``track``; returns its begin timestamp."""
        now = self.clock()
        stack = self._stacks.get(track)
        if stack is None:
            stack = self._stacks[track] = []
        stack.append((name, now))
        if self.enabled:
            self.events.append(
                TraceEvent(PH_BEGIN, now, track, name, cat, args or None, tenant)
            )
        if self._span_hooks:
            for fn in list(self._span_hooks):
                fn(PH_BEGIN, track, name, now)
        return now

    def end(
        self, track: str, name: Optional[str] = None, cat: Optional[str] = None,
        tenant: Optional[str] = None, **args: Any,
    ) -> float:
        """Close the innermost open span on ``track``; returns its duration.

        If ``name`` is given it must match the open span (balance check).
        """
        now = self.clock()
        stack = self._stacks.get(track)
        if not stack:
            raise TraceError(f"end({name!r}) on track {track!r} with no open span")
        open_name, begin_ts = stack.pop()
        if name is not None and name != open_name:
            stack.append((open_name, begin_ts))
            raise TraceError(
                f"end({name!r}) on track {track!r} does not match open span {open_name!r}"
            )
        if self.enabled:
            self.events.append(
                TraceEvent(PH_END, now, track, open_name, cat, args or None, tenant)
            )
        if self._span_hooks:
            for fn in list(self._span_hooks):
                fn(PH_END, track, open_name, now)
        return now - begin_ts

    def instant(
        self, track: str, name: str, cat: Optional[str] = None,
        tenant: Optional[str] = None, **args: Any,
    ) -> float:
        """Record a point-in-time event; returns its timestamp."""
        now = self.clock()
        if self.enabled:
            self.events.append(
                TraceEvent(PH_INSTANT, now, track, name, cat, args or None, tenant)
            )
        return now

    def open_spans(self, track: Optional[str] = None) -> int:
        """Number of currently open spans (on one track, or overall)."""
        if track is not None:
            return len(self._stacks.get(track, ()))
        return sum(len(stack) for stack in self._stacks.values())

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------
    def count(self, name: str, value: float = 1, tenant: Optional[str] = None) -> None:
        """Add ``value`` to counter ``name`` (no-op when disabled)."""
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + value
            if tenant:
                per = self.tenant_counters.setdefault(tenant, {})
                per[name] = per.get(name, 0) + value

    def count_max(self, name: str, value: float, tenant: Optional[str] = None) -> None:
        """Track the maximum of ``value`` under ``name`` (no-op when disabled)."""
        if self.enabled:
            current = self.counters.get(name)
            if current is None or value > current:
                self.counters[name] = value
            if tenant:
                per = self.tenant_counters.setdefault(tenant, {})
                current = per.get(name)
                if current is None or value > current:
                    per[name] = value

    def snapshot(self) -> dict[str, float]:
        """A copy of all counters, for tests and benchmarks to assert on."""
        return dict(self.counters)

    # ------------------------------------------------------------------
    # Queries and export
    # ------------------------------------------------------------------
    def spans(self, cat: Optional[str] = None, track: Optional[str] = None) -> list[dict]:
        """Completed spans as dicts with begin/end/duration.

        Pairs each ``E`` event with the matching ``B`` on its track,
        honouring nesting.  Optionally filtered by category and track.
        """
        open_by_track: dict[str, list[TraceEvent]] = {}
        out: list[dict] = []
        for ev in self.events:
            if ev.ph == PH_BEGIN:
                open_by_track.setdefault(ev.track, []).append(ev)
            elif ev.ph == PH_END:
                stack = open_by_track.get(ev.track)
                if not stack:
                    continue  # span began before recording was enabled
                b = stack.pop()
                out.append(
                    {
                        "track": ev.track,
                        "name": b.name,
                        "cat": b.cat or ev.cat,
                        "begin": b.ts,
                        "end": ev.ts,
                        "duration": ev.ts - b.ts,
                        "args": {**(b.args or {}), **(ev.args or {})} or None,
                    }
                )
        if cat is not None:
            out = [s for s in out if s["cat"] == cat]
        if track is not None:
            out = [s for s in out if s["track"] == track]
        return out

    def write_jsonl(self, path: str) -> None:
        """Export all events as JSON Lines (see repro.obs.export)."""
        from repro.obs.export import write_jsonl

        write_jsonl(self, path)

    def write_chrome(self, path: str) -> None:
        """Export as a Chrome trace_event file (see repro.obs.export)."""
        from repro.obs.export import write_chrome

        write_chrome(self, path)
