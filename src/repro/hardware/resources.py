"""Fair-share fluid bandwidth server.

One abstraction covers CPUs, disk channels, NIC queues and SAN backends:
``n`` concurrent jobs each progress at ``min(job_cap, rate / n)`` and a job
completes when its remaining volume reaches zero.  The server recomputes
the next completion whenever a job arrives or departs, so progress is
exact (piecewise-linear), not approximated by polling.

Per-job caps model heterogeneous access paths -- e.g. a SAN backend whose
Fibre-Channel clients can individually push 500 MB/s while NFS clients are
capped by their GigE link.  Unused capped bandwidth is *not* redistributed
(no max-min iteration); with the writer counts in the paper's experiments
the equal share is the binding constraint, and the simplification is
slightly pessimistic, never optimistic.

Progress is kept by virtual-finish-time accounting (DESIGN.md §8).  Jobs
sharing an effective rate cap (``min(per_job_cap, cap)``) form a group
that progresses at one rate, so the group keeps a single cumulative
served counter instead of a remaining volume per job.  A job's finish is
a fixed credit on that counter (``served`` at arrival plus its volume),
and a per-group heap keyed by ``(finish_credit, seq)`` yields the next
completion: an arrival or a completion costs O(log jobs) plus O(groups),
never a pass over every job.  A group is dropped when its last job
finishes, so its counter restarts at zero with the next arrival.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional

from repro.errors import SimulationError
from repro.sim.engine import Engine, Event
from repro.sim.tasks import Future


class _CapGroup:
    """Jobs sharing one effective rate cap, under one served counter."""

    __slots__ = ("cap", "served", "heap")

    def __init__(self, cap: float):
        self.cap = cap  # effective cap: min(per_job_cap, job cap), inf if none
        self.served = 0.0  # cumulative per-job service since group creation
        #: ``(finish credit, seq, eps, notify)`` per job.  ``eps`` is the
        #: job's float-residue threshold (relative to its volume); without
        #: it the last ulp of a job reschedules zero-length events forever.
        #: ``notify`` is the zero-arg completion callback.
        self.heap: list[tuple[float, int, float, object]] = []


class BandwidthResource:
    """A shared resource measured in volume/second (bytes/s, core-s/s...)."""

    def __init__(
        self,
        engine: Engine,
        rate: float,
        per_job_cap: Optional[float] = None,
        name: str = "",
    ):
        if rate <= 0:
            raise SimulationError(f"resource rate must be positive, got {rate}")
        self.engine = engine
        self.rate = rate
        self.per_job_cap = per_job_cap
        self._cap = math.inf if per_job_cap is None else per_job_cap
        self.name = name
        self._fut_name = f"{name}:job"
        self._seq = itertools.count()
        self._groups: dict[float, _CapGroup] = {}
        self._count = 0
        self._last_update = 0.0
        self._next_event: Optional[Event] = None
        #: Cumulative volume served; used by utilization assertions in tests.
        self.volume_served = 0.0

    # ------------------------------------------------------------------
    @property
    def active_jobs(self) -> int:
        """Number of jobs currently sharing the resource."""
        return self._count

    def submit(
        self,
        volume: float,
        cap: Optional[float] = None,
        on_done=None,
    ) -> Optional[Future]:
        """Start a job of ``volume`` units; the future resolves on completion.

        ``cap`` optionally bounds this job's individual rate.  With
        ``on_done`` no Future is created: the zero-arg callback fires on
        completion instead and ``submit`` returns None -- the network
        path runs two jobs per chunk and the futures were pure overhead.
        """
        if on_done is None:
            fut = Future(self._fut_name)
            notify = fut.resolve
        else:
            fut = None
            notify = on_done
        if volume < 0:
            raise SimulationError(f"negative job volume {volume}")
        if volume == 0:
            notify()
            return fut
        self._advance()
        volume = float(volume)
        eff = self._cap if cap is None or cap >= self._cap else cap
        group = self._groups.get(eff)
        if group is None:
            group = self._groups[eff] = _CapGroup(eff)
        eps = volume * 1e-9
        heapq.heappush(
            group.heap,
            (group.served + volume, next(self._seq), eps if eps > 1e-12 else 1e-12, notify),
        )
        self._count += 1
        self._reschedule()
        return fut

    def estimate_unloaded(self, volume: float) -> float:
        """Seconds the job would take if it were alone on the resource."""
        rate = self.rate if self.per_job_cap is None else min(self.rate, self.per_job_cap)
        return volume / rate

    # ------------------------------------------------------------------
    def _advance(self) -> None:
        """Credit every group's counter for time elapsed since last update."""
        now = self.engine.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0 or not self._count:
            return
        share = self.rate / self._count
        for group in self._groups.values():
            rate = share if share < group.cap else group.cap
            group.served += rate * dt
            self.volume_served += rate * dt * len(group.heap)

    def _reschedule(self) -> None:
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        if not self._count:
            return
        dt = math.inf
        share = self.rate / self._count
        for group in self._groups.values():
            rate = share if share < group.cap else group.cap
            if rate > 0:
                gap = (group.heap[0][0] - group.served) / rate
                if gap < dt:
                    dt = gap
        if dt == math.inf:
            raise SimulationError(f"resource {self.name!r} stalled with zero rates")
        # never schedule below the clock's representable increment, or the
        # event fires at an identical timestamp and no progress is made
        now = self.engine.now
        anow = now if now >= 0.0 else -now
        min_dt = (anow if anow > 1.0 else 1.0) * 1e-15
        self._next_event = self.engine.call_after(
            dt if dt > min_dt else min_dt, self._on_completion
        )

    def _on_completion(self) -> None:
        self._next_event = None
        self._advance()
        now = self.engine.now
        anow = now if now >= 0.0 else -now
        scale = anow if anow > 1.0 else 1.0
        share = self.rate / self._count
        groups = self._groups
        finished: list[tuple[float, int, float, object]] = []
        for cap in list(groups):
            group = groups[cap]
            # absolute-clock subtraction error: dt carries ~ulp(now) of
            # error, which at rate r corresponds to r*ulp(now) volume
            clock_eps = (share if share < cap else cap) * scale * 1e-16 * 8
            served = group.served
            heap = group.heap
            while heap:
                credit, _, eps, _ = heap[0]
                if credit - served > (eps if eps > clock_eps else clock_eps):
                    break
                finished.append(heapq.heappop(heap))
            if not heap:
                del groups[cap]
        if finished:
            self._count -= len(finished)
            if len(finished) > 1:
                finished.sort(key=lambda entry: entry[1])
        self._reschedule()
        for entry in finished:
            entry[3]()
        # `finished` can be empty on numerical residue; _reschedule covers it.
