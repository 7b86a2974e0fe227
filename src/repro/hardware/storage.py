"""Disk and centralized-storage models.

:class:`PageCachedDisk` reproduces the behaviour the paper leans on in
Figure 6 and the sync ablation: checkpoint writes land in the kernel page
cache at memory-like speed until the dirty limit is reached, after which
writers throttle to raw disk bandwidth; a ``sync`` blocks until the dirty
set drains.  Concurrent writers share the fill rate equally and are
tracked by virtual finish times, the accounting every fair-share server
in :mod:`repro.hardware` uses (see :mod:`repro.hardware.resources`).

:class:`SanDevice` reproduces the Figure 5b setup: one RAID backend whose
bandwidth is shared by every writer, reachable either over Fibre Channel
(8 of the 32 nodes) or over NFS re-exported across GigE (the rest).
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Optional

from repro.config import DiskSpec, NetworkSpec, SanSpec
from repro.errors import SimulationError
from repro.sim.engine import Engine, Event
from repro.sim.tasks import Future

from repro.hardware.resources import BandwidthResource


class PageCachedDisk:
    """Local disk behind a write-back page cache (fluid model).

    State evolves piecewise-linearly between events:

    * per-writer fill rate = ``cache_write_bps / n`` while dirty < limit,
      else ``disk_bps / n``;
    * the dirty set drains at ``disk_bps`` whenever it is non-empty --
      except while a block stream holds write-back (``hold_writeback``):
      the flusher leaves a file that is still being appended alone
      unless a ``sync`` waits, so a trickled image is as dirty when its
      stream closes as one written in a single call;
    * ``sync()`` resolves when all writers have finished and the dirty set
      has fully drained.

    Every writer progresses at the same rate, so writers are kept by
    virtual-finish-time accounting (DESIGN.md §8): one cumulative served
    counter, each writer's finish a fixed credit on it, and a heap keyed
    by ``(finish_credit, seq)`` for the next completion --
    :class:`~repro.hardware.resources.BandwidthResource` with a single
    cap group.  The counter restarts at zero whenever the last writer
    finishes.
    """

    def __init__(self, engine: Engine, spec: DiskSpec, ram_bytes: int, name: str = "disk"):
        self.engine = engine
        self.spec = spec
        self.name = name
        self.dirty_limit = spec.dirty_ratio * ram_bytes
        self.dirty_bytes = 0.0
        #: float-residue threshold for dirty-level transitions
        self._eps = max(1e-3, self.dirty_limit * 1e-9)
        self._wseq = itertools.count()
        #: Cumulative per-writer service and the writer heap:
        #: ``(finish credit, seq, eps, future)`` per pending write, ``eps``
        #: being its relative float-residue threshold.
        self._wserved = 0.0
        self._wheap: list[tuple[float, int, float, Future]] = []
        self._last_update = 0.0
        self._next_event: Optional[Event] = None
        self._sync_waiters: list[Future] = []
        #: Open block streams deferring write-back (see hold_writeback).
        self._holds = 0
        self._write_name = f"{name}:write"
        #: Reads of data still resident in the cache (just-written images).
        self._cached_reads = BandwidthResource(
            engine, spec.cache_read_bps, name=f"{name}:cached-read"
        )
        self._disk_reads = BandwidthResource(
            engine, spec.disk_bps, name=f"{name}:disk-read"
        )
        #: Total bytes accepted / served; test hooks.
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    # ------------------------------------------------------------------
    def write(self, nbytes: float) -> Future:
        """Write ``nbytes``; resolves when the *application* write returns
        (data in cache or on disk -- not necessarily durable; see sync)."""
        fut = Future(self._write_name)
        if nbytes < 0:
            raise SimulationError(f"negative write size {nbytes}")
        if nbytes == 0:
            fut.resolve(None)
            return fut
        self.bytes_written += nbytes
        self._advance()
        volume = float(nbytes)
        heapq.heappush(
            self._wheap,
            (self._wserved + volume, next(self._wseq), max(1e-9, volume * 1e-9), fut),
        )
        self._reschedule()
        return fut

    def read(self, nbytes: float, cached: bool = False) -> Future:
        """Read ``nbytes`` from the cache (hot) or the platter (cold)."""
        self.bytes_read += nbytes
        res = self._cached_reads if cached else self._disk_reads
        return res.submit(nbytes)

    def hold_writeback(self) -> None:
        """A block stream opens: defer write-back until it releases."""
        self._advance()
        self._holds += 1
        self._reschedule()

    def release_writeback(self) -> None:
        """The stream closed (or died): its blocks may drain now."""
        self._advance()
        self._holds -= 1
        self._reschedule()

    def sync(self) -> Future:
        """Resolve when every pending write is durable on the platter."""
        fut = Future(f"{self.name}:sync")
        self._advance()
        if not self._wheap and self.dirty_bytes <= 0.0:
            fut.resolve(None)
        else:
            self._sync_waiters.append(fut)
            self._reschedule()
        return fut

    # ------------------------------------------------------------------
    def _fill_rate_total(self) -> float:
        if not self._wheap:
            return 0.0
        if self.dirty_bytes < self.dirty_limit - self._eps:
            return self.spec.cache_write_bps
        return self.spec.disk_bps

    def _drain_rate(self) -> float:
        if self._holds and not self._sync_waiters:
            return 0.0  # write-back deferred (at the limit writers throttle)
        if self.dirty_bytes > self._eps:
            return self.spec.disk_bps
        # empty cache: drain tracks inflow up to disk speed
        return min(self._fill_rate_total(), self.spec.disk_bps)

    def _advance(self) -> None:
        now = self.engine.now
        dt = now - self._last_update
        self._last_update = now
        if dt <= 0:
            return
        fill_total = self._fill_rate_total()
        drain = self._drain_rate()
        if self._wheap:
            self._wserved += (fill_total / len(self._wheap)) * dt
        self.dirty_bytes += (fill_total - drain) * dt
        if self.dirty_bytes <= self._eps:
            self.dirty_bytes = 0.0
        if self.dirty_bytes >= self.dirty_limit - self._eps:
            self.dirty_bytes = self.dirty_limit
        self.dirty_bytes = min(max(self.dirty_bytes, 0.0), self.dirty_limit)

    def _reschedule(self) -> None:
        if self._next_event is not None:
            self._next_event.cancel()
            self._next_event = None
        fill_total = self._fill_rate_total()
        drain = self._drain_rate()
        dt = math.inf
        if self._wheap:
            per_writer = fill_total / len(self._wheap)
            if per_writer > 0:
                dt = (self._wheap[0][0] - self._wserved) / per_writer
        slope = fill_total - drain
        if slope > 1e-9 and self.dirty_bytes < self.dirty_limit:
            dt = min(dt, (self.dirty_limit - self.dirty_bytes) / slope)
        elif slope < -1e-9 and self.dirty_bytes > 0.0:  # draining
            dt = min(dt, self.dirty_bytes / -slope)
        if math.isinf(dt):
            return  # fully idle
        min_dt = max(abs(self.engine.now), 1.0) * 1e-15
        self._next_event = self.engine.call_after(max(dt, min_dt), self._on_event)

    def _on_event(self) -> None:
        self._next_event = None
        self._advance()
        heap = self._wheap
        done: list[tuple[float, int, float, Future]] = []
        if heap:
            per_writer = self._fill_rate_total() / len(heap)
            clock_eps = per_writer * max(abs(self.engine.now), 1.0) * 1e-16 * 8
            served = self._wserved
            while heap and heap[0][0] - served <= max(heap[0][2], clock_eps):
                done.append(heapq.heappop(heap))
            if not heap:
                self._wserved = 0.0
            done.sort(key=lambda entry: entry[1])
        for entry in done:
            entry[3].resolve(None)
        if not heap and self.dirty_bytes <= 0.0 and self._sync_waiters:
            waiters, self._sync_waiters = self._sync_waiters, []
            for fut in waiters:
                fut.resolve(None)
        self._reschedule()


class SanDevice:
    """Centralized RAID storage shared by the whole cluster (Fig. 5b).

    Every write consumes the RAID backend's bandwidth, individually capped
    by the client's access path: ``fc`` (direct Fibre Channel mount) or
    ``nfs`` (re-exported over the GigE fabric).
    """

    def __init__(self, engine: Engine, spec: SanSpec, net: NetworkSpec, name: str = "san"):
        self.engine = engine
        self.spec = spec
        self.name = name
        self._backend = BandwidthResource(engine, spec.backend_bps, name=f"{name}:raid")
        self._fc_cap = spec.fc_bandwidth_bps / max(spec.san_clients, 1)
        self._nfs_cap = net.bandwidth_bps * spec.nfs_overhead
        #: Test hooks.
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    def write(self, nbytes: float, path: str) -> Future:
        """Write through the FC switch or an NFS mount."""
        if path not in ("fc", "nfs"):
            raise SimulationError(f"unknown SAN path {path!r}")
        self.bytes_written += nbytes
        cap = self._fc_cap if path == "fc" else self._nfs_cap
        return self._backend.submit(nbytes, cap=cap)

    def read(self, nbytes: float, path: str) -> Future:
        """Reads share the same backend and path caps as writes."""
        if path not in ("fc", "nfs"):
            raise SimulationError(f"unknown SAN path {path!r}")
        self.bytes_read += nbytes
        cap = self._fc_cap if path == "fc" else self._nfs_cap
        return self._backend.submit(nbytes, cap=cap)
