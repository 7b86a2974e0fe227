"""The coordinator hub: N tenants' coordinators behind one port.

The multi-tenant service cannot afford one coordinator *process* per
tenant on the head node -- with hundreds of tenants the head node would
drown in threads each blocking on its own accept loop.  The hub is one
process that owns the shared control port, binds each incoming
connection to a tenant (the first frame carries a ``tenant`` field), and
drives the unmodified per-tenant :class:`CoordinatorState` machines
through :func:`repro.core.coordinator._dispatch_message` -- the exact
code path the single-tenant coordinator runs, so the two deployments
cannot diverge.

Two dispatch modes, selected per hub (the bench compares them):

* **per-message** (the pre-service baseline shape): every frame wakes the
  dispatcher, pays the full per-message handling cost
  (``coord_msg_s``), and is applied alone.  Under a synchronized
  checkpoint storm the queue serializes thousands of frames and the
  tail tenant's barrier waits behind all of them, every stage.
* **batched**: the dispatcher drains the whole queue as one batch the
  moment the doorbell wakes it or its last apply finishes, charges it
  ``coord_batch_overhead_s + n * coord_batch_msg_s`` -- the wakeup and
  dispatch machinery is paid once per batch instead of once per frame
  (the gateway MSG_BARRIER_COUNT coalescing shape, applied at the
  coordinator itself) -- and applies it.  There is no flush window:
  a batch is whatever landed while the previous one was charged and
  applied (group commit), so batches grow with load and a lone frame
  waits only for one batch charge.  Same-barrier arrivals within the
  batch collapse into one :func:`_barrier_arrive_batch` call with one
  release check.

Fairness: a batch is applied tenant-by-tenant in round-robin rotation
(the start tenant advances every batch), so one chatty tenant's frames
cannot sit permanently ahead of everyone else's checkpoint traffic.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core import protocol as P
from repro.core.coordinator import (
    CoordinatorState,
    _barrier_arrival,
    _barrier_arrive_batch,
    _dispatch_message,
    _handle_disconnect,
    _ping_members,
    _watchdog_check,
)
from repro.errors import SyscallError
from repro.kernel.process import ProgramSpec, RegionSpec
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import Sys, recv_frame, send_frame

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.world import World

__all__ = ["CoordinatorHub"]

#: The hub serves many tenants from one heap; give it more room than a
#: single coordinator but keep it checkpoint-irrelevant (never hijacked).
_HUB_SPEC = ProgramSpec(
    "dmtcp_hub",
    regions=(
        RegionSpec("code", 512 * 1024, "code"),
        RegionSpec("heap", 2 * 1024 * 1024, "text"),
    ),
)


class CoordinatorHub:
    """Host-side handle for the shared coordinator process."""

    def __init__(
        self,
        world: "World",
        host: Optional[str] = None,
        port: int = 7779,
        batched: bool = True,
    ):
        self.world = world
        self.host = host or world.machine.hostnames[0]
        self.port = port
        self.batched = batched
        spec = world.spec.dmtcp
        self.msg_cost_s = spec.coord_msg_s
        self.batch_overhead_s = spec.coord_batch_overhead_s
        self.batch_msg_s = spec.coord_batch_msg_s
        #: tenant name -> that tenant's CoordinatorState
        self.states: dict[str, CoordinatorState] = {}
        #: inbound queue: (tenant, cfd, message-or-None, queued-at) --
        #: None marks a disconnect observed by the connection thread
        self.pending: deque = deque()
        #: admission control: per-tenant count of queued-but-undrained
        #: frames.  A tenant at its bound gets *command* admissions shed
        #: with a busy + retry-after reply (the retry layer honours the
        #: hint); protocol frames -- barriers (the last carries a
        #: member's done report), restart-done, disconnects -- always
        #: enqueue, because shedding those would wedge an in-flight
        #: round mid-protocol
        self.inbox: dict[str, int] = {}
        self.inbox_limit = spec.hub_inbox_limit
        self.retry_after_s = spec.hub_retry_after_s
        #: load-shed metric: commands refused at admission
        self.shed = 0
        #: cfds the dispatcher retired mid-stream (a store reply whose
        #: peer died -- ``_dispatch_message`` returned keep=False on a
        #: non-GOODBYE frame).  The reader consumes the tombstone at its
        #: EOF instead of enqueueing a duplicate disconnect; a disconnect
        #: already queued when the tombstone lands consumes it instead,
        #: so entries never outlive their connection (cfds are reused)
        self.finished: set = set()
        #: doorbell semaphore: the dispatcher blocks on it only when the
        #: queue is empty (``idle``); enqueuers ring it at most once per
        #: idle period, so queue throughput costs no per-frame syscalls
        self.sem_id: Optional[int] = None
        self.idle = False
        #: dispatch statistics (the bench's amortization evidence)
        self.batches = 0
        self.messages = 0
        self.max_batch = 0
        #: longest virtual time one apply held the dispatcher (the
        #: head-of-line wait every later frame in the queue inherits);
        #: read off the engine clock, so it costs no simulated time
        self.apply_max_s = 0.0
        #: virtual time from a frame being queued to the apply that
        #: handles it starting (engine clock, no simulated cost)
        self.queue_wait_max_s = 0.0
        self.queue_wait_sum_s = 0.0
        self._rr = 0
        world.register_program("dmtcp_hub", _make_hub_program(self), _HUB_SPEC)
        self.process = world.spawn_process(self.host, "dmtcp_hub", argv=["dmtcp_hub"])

    def register(self, tenant: str, state: CoordinatorState) -> None:
        """Attach one tenant's coordinator state to the hub."""
        if tenant in self.states:
            raise ValueError(f"tenant {tenant!r} already registered")
        self.states[tenant] = state

    @property
    def mean_batch(self) -> float:
        """Mean messages per dispatch (1.0 in per-message mode)."""
        return self.messages / self.batches if self.batches else 0.0

    def stats(self) -> dict:
        """JSON-able dispatch statistics."""
        return {
            "mode": "batched" if self.batched else "per-message",
            "batches": self.batches,
            "messages": self.messages,
            "max_batch": self.max_batch,
            "mean_batch": round(self.mean_batch, 3),
            "apply_max_s": round(self.apply_max_s, 9),
            "queue_wait_max_s": round(self.queue_wait_max_s, 9),
            "queue_wait_mean_s": round(
                self.queue_wait_sum_s / self.messages if self.messages else 0.0, 9
            ),
            "shed": self.shed,
            "inbox_limit": self.inbox_limit,
        }


def _make_hub_program(hub: CoordinatorHub):
    """Build the hub's main generator (registered as ``dmtcp_hub``)."""

    def hub_main(sys: Sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, hub.port)
        yield from sys.listen(lfd, backlog=4096)
        hub.sem_id = yield from sys.sem_create(0)
        yield from sys.thread_create(_hub_dispatcher, hub)
        yield from sys.thread_create(_hub_watchdog, hub)
        yield from sys.thread_create(_hub_heartbeat, hub)
        while True:
            cfd = yield from sys.accept(lfd)
            yield from sys.thread_create(_hub_connection, hub, cfd, detached=True)

    return hub_main


def _hub_connection(sys: Sys, hub: CoordinatorHub, cfd: int):
    """Per-connection reader: bind to a tenant, enqueue every frame.

    The first frame's ``tenant`` field binds the connection; a frame
    without one (or naming an unknown tenant) drops the connection --
    single-tenant clients belong on a plain coordinator, not the hub.

    The reader closes the connection at its EOF, after queueing the
    disconnect: the peer is gone, so a send the dispatcher makes before
    it applies the disconnect fails either way, and the close stays off
    the dispatcher's critical path.
    """
    asm = FrameAssembler()
    tenant: Optional[str] = None
    admitted = False
    said_goodbye = False
    while True:
        result = yield from recv_frame(sys, cfd, asm)
        if result is None:
            if cfd in hub.finished:
                # the dispatcher already retired this connection; the
                # coordinator state dropped the cfd, so a second
                # disconnect would be noise -- consume the tombstone
                hub.finished.discard(cfd)
            elif tenant is not None and admitted and not said_goodbye:
                yield from _enqueue(sys, hub, (tenant, cfd, None, hub.world.engine.now))
            yield from sys.close(cfd)
            return
        if said_goodbye:
            continue  # the dispatcher drops the connection at the goodbye
        message = result[0]
        if tenant is None:
            tenant = message.get("tenant")
            if tenant is None or tenant not in hub.states:
                try:
                    yield from sys.close(cfd)
                except SyscallError:
                    pass
                return
        if (
            message.get("kind") == P.MSG_COMMAND
            and hub.inbox.get(tenant, 0) >= hub.inbox_limit
        ):
            # admission control: this tenant's inbox is full -- shed the
            # command with a retry-after hint instead of letting an
            # unbounded queue smear every tenant's p99.  Protocol frames
            # are never shed (see CoordinatorHub.inbox).
            hub.shed += 1
            hub.world.tracer.count("hub.load_shed", tenant=tenant)
            try:
                yield from send_frame(
                    sys,
                    cfd,
                    P.msg("busy", retry_after=hub.retry_after_s, shed=True),
                    P.CTL_FRAME_BYTES,
                )
            except SyscallError:
                return
            continue
        admitted = True
        yield from _enqueue(sys, hub, (tenant, cfd, message, hub.world.engine.now))
        # the dispatcher drops the connection when it applies a goodbye;
        # read on only to close at the peer's EOF, which then queues no
        # redundant disconnect
        said_goodbye = message.get("kind") == P.MSG_GOODBYE


def _enqueue(sys: Sys, hub: CoordinatorHub, item: tuple):
    hub.pending.append(item)
    hub.inbox[item[0]] = hub.inbox.get(item[0], 0) + 1
    if hub.idle:
        # ring the doorbell exactly once per idle period: between this
        # check and the release no other thread runs (cooperative
        # scheduling -- host-side mutations are atomic between yields)
        hub.idle = False
        yield from sys.sem_release(hub.sem_id)


def _hub_dispatcher(sys: Sys, hub: CoordinatorHub):
    """The hub's single dispatch thread -- both modes live here."""
    while True:
        if not hub.pending:
            hub.idle = True
            yield from sys.sem_acquire(hub.sem_id)
        if hub.batched:
            # group commit: everything queued since the last drain is
            # one batch; what lands while it is charged and applied
            # waits for the next
            batch = list(hub.pending)
            hub.pending.clear()
            hub.inbox.clear()  # pending fully drained: all inboxes empty
            yield from sys.cpu(
                hub.batch_overhead_s + hub.batch_msg_s * len(batch)
            )
            hub.batches += 1
            hub.messages += len(batch)
            if len(batch) > hub.max_batch:
                hub.max_batch = len(batch)
            t0 = hub.world.engine.now
            _note_queue_wait(hub, batch, t0)
            yield from _apply_batch(sys, hub, batch)
            hub.apply_max_s = max(hub.apply_max_s, hub.world.engine.now - t0)
        else:
            item = hub.pending.popleft()
            n = hub.inbox.get(item[0], 0)
            if n > 1:
                hub.inbox[item[0]] = n - 1
            else:
                hub.inbox.pop(item[0], None)
            yield from sys.cpu(hub.msg_cost_s)
            hub.batches += 1
            hub.messages += 1
            if hub.max_batch < 1:
                hub.max_batch = 1
            t0 = hub.world.engine.now
            _note_queue_wait(hub, (item,), t0)
            state = hub.states.get(item[0])
            if state is not None:
                yield from _apply_tenant(sys, hub, state, [item])
                hub.apply_max_s = max(hub.apply_max_s, hub.world.engine.now - t0)


def _note_queue_wait(hub: CoordinatorHub, items, now: float) -> None:
    """Fold each item's queued-to-applied wait into the hub's stats."""
    for item in items:
        wait = now - item[3]
        hub.queue_wait_sum_s += wait
        if wait > hub.queue_wait_max_s:
            hub.queue_wait_max_s = wait


def _apply_batch(sys: Sys, hub: CoordinatorHub, batch: list):
    """Apply a drained batch: group by tenant, rotate for fairness."""
    by_tenant: dict[str, list] = {}
    for item in batch:
        by_tenant.setdefault(item[0], []).append(item)
    tenants = list(by_tenant)
    if len(tenants) > 1:
        start = hub._rr % len(tenants)
        tenants = tenants[start:] + tenants[:start]
    hub._rr += 1
    for tenant in tenants:
        state = hub.states.get(tenant)
        if state is None:
            continue
        yield from _apply_tenant(sys, hub, state, by_tenant[tenant])


def _apply_tenant(sys: Sys, hub: CoordinatorHub, state: CoordinatorState, items: list):
    """One tenant's slice of a batch, in FIFO order with runs of barrier
    arrivals coalesced (same-name arrivals become one
    ``_barrier_arrive_batch`` call and therefore one release check; each
    arrival keeps the done report it carries).
    Coalesced arrivals are flushed before any non-barrier verb so
    cross-kind ordering within the tenant is preserved.  Per-message
    mode is this same applier on a one-item slice."""
    arrivals: dict[str, list] = {}

    def flush():
        for name in list(arrivals):
            yield from _barrier_arrive_batch(sys, state, name, arrivals.pop(name))

    for _tenant, cfd, message, _queued_at in items:
        kind = message["kind"] if message is not None else None
        if kind == P.MSG_BARRIER or kind == P.MSG_BARRIER_COUNT:
            arrivals.setdefault(message["name"], []).append(
                _barrier_arrival(cfd, message)
            )
            continue
        yield from flush()
        if message is None:
            hub.finished.discard(cfd)
            yield from _handle_disconnect(sys, state, cfd)
        else:
            keep = yield from _dispatch_message(sys, state, cfd, message)
            if not keep and message["kind"] != P.MSG_GOODBYE:
                # retired mid-stream (dead store peer): tombstone the cfd so
                # the reader's eventual EOF does not re-disconnect it.
                # GOODBYE needs no tombstone -- the reader queues nothing
                # after the frame itself
                hub.finished.add(cfd)
    yield from flush()


def _hub_watchdog(sys: Sys, hub: CoordinatorHub):
    """The coordinator's watchdog, swept over every supervised tenant.

    Tenants register after the hub process starts, so per-tenant threads
    cannot be spawned at boot; one sweep over ``hub.states`` covers the
    dynamic population.
    """
    spec = hub.world.spec.dmtcp
    while True:
        yield from sys.sleep(max(spec.barrier_timeout_s / 4.0, 0.25))
        now = yield from sys.time()
        for name in sorted(hub.states):
            if hub.states[name].supervise:
                yield from _watchdog_check(sys, hub.states[name], now)


def _hub_heartbeat(sys: Sys, hub: CoordinatorHub):
    """The coordinator's heartbeat, swept over every supervised tenant."""
    spec = hub.world.spec.dmtcp
    while True:
        yield from sys.sleep(spec.heartbeat_interval_s)
        for name in sorted(hub.states):
            if hub.states[name].supervise:
                yield from _ping_members(sys, hub.states[name])
