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
* **batched**: the dispatcher sleeps one flush window
  (``service_tick_s``) after the first frame lands, then drains the
  whole queue as a single batch charged
  ``coord_batch_overhead_s + n * coord_batch_msg_s`` -- the wakeup and
  dispatch machinery is paid once per tick instead of once per frame
  (the gateway MSG_BARRIER_COUNT coalescing shape, applied at the
  coordinator itself).  Same-barrier arrivals within the batch collapse
  into one :func:`_barrier_arrive_batch` call with one release check.

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
        tick_s: Optional[float] = None,
    ):
        self.world = world
        self.host = host or world.machine.hostnames[0]
        self.port = port
        self.batched = batched
        spec = world.spec.dmtcp
        self.tick_s = spec.service_tick_s if tick_s is None else tick_s
        self.msg_cost_s = spec.coord_msg_s
        self.batch_overhead_s = spec.coord_batch_overhead_s
        self.batch_msg_s = spec.coord_batch_msg_s
        #: tenant name -> that tenant's CoordinatorState
        self.states: dict[str, CoordinatorState] = {}
        #: inbound queue: (tenant, cfd, message-or-None) -- None marks a
        #: disconnect observed by the connection thread
        self.pending: deque = deque()
        #: admission control: per-tenant count of queued-but-undrained
        #: frames.  A tenant at its bound gets *command* admissions shed
        #: with a busy + retry-after reply (the retry layer honours the
        #: hint); protocol frames -- barriers, ckpt-done, disconnects --
        #: always enqueue, because shedding those would wedge an
        #: in-flight round mid-protocol
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
            yield from sys.thread_create(_hub_connection, hub, cfd)

    return hub_main


def _hub_connection(sys: Sys, hub: CoordinatorHub, cfd: int):
    """Per-connection reader: bind to a tenant, enqueue every frame.

    The first frame's ``tenant`` field binds the connection; a frame
    without one (or naming an unknown tenant) drops the connection --
    single-tenant clients belong on a plain coordinator, not the hub.
    """
    asm = FrameAssembler()
    tenant: Optional[str] = None
    admitted = False
    while True:
        result = yield from recv_frame(sys, cfd, asm)
        if result is None:
            if cfd in hub.finished:
                # the dispatcher already retired this connection; the
                # coordinator state dropped the cfd, so a second
                # disconnect would be noise -- consume the tombstone
                hub.finished.discard(cfd)
            elif tenant is not None and admitted:
                yield from _enqueue(sys, hub, (tenant, cfd, None))
            return
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
        yield from _enqueue(sys, hub, (tenant, cfd, message))
        if message.get("kind") == P.MSG_GOODBYE:
            # the dispatcher will drop the connection when it applies
            # this frame; stop reading now rather than waiting for the
            # peer's close to enqueue a redundant disconnect
            return


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
            # flush window: let the rest of the wave land, then drain it
            yield from sys.sleep(hub.tick_s)
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
            yield from _apply_batch(sys, hub, batch)
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
            state = hub.states.get(item[0])
            if state is not None:
                yield from _apply_tenant(sys, hub, state, [item])


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
    ``_barrier_arrive_batch`` call and therefore one release check).
    Coalesced arrivals are flushed before any non-barrier verb so
    cross-kind ordering within the tenant is preserved.  Per-message
    mode is this same applier on a one-item slice."""
    arrivals: dict[str, list] = {}

    def flush():
        for name in list(arrivals):
            yield from _barrier_arrive_batch(sys, state, name, arrivals.pop(name))

    for _tenant, cfd, message in items:
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
                # GOODBYE needs no tombstone -- the reader stopped at the
                # frame itself and will never report an EOF
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
