"""The checkpoint coordinator (Sections 3, 4.1, 4.3).

A single ordinary process.  It implements the one global primitive the
algorithm needs -- the cluster-wide barrier -- plus checkpoint requests
(`dmtcp command --checkpoint`, `--interval`), collection of per-process
stage records, generation of the restart script, and, during restart, the
discovery service that maps globally unique connection IDs to the new
addresses of relocated processes (Section 4.4).

Control frames are small (single-chunk), so concurrent handler threads
can write to any member connection without interleaving torn frames.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.core import protocol as P
from repro.core.imagefile import RestartPlan
from repro.core.stats import CheckpointRecord
from repro.errors import SyscallError
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import Sys, connect_retry, recv_frame, send_frame


def _send_safe(
    sys: Sys, state: "CoordinatorState", fd: int, message: dict,
    frame_bytes: int = P.CTL_FRAME_BYTES,
):
    """Send a control frame, dropping the connection if the peer died.

    A member or restarter can exit between our decision to send and the
    send itself (kill-mode checkpoints, finished restarts); the
    coordinator must never die over it.
    """
    try:
        yield from send_frame(sys, fd, message, frame_bytes)
    except SyscallError:
        _drop_connection(state, fd)


@dataclass
class CheckpointOutcome:
    """Host-visible result of one completed checkpoint."""

    ckpt_id: int
    started_at: float
    finished_at: float
    records: list[CheckpointRecord]
    plan: RestartPlan
    kill: bool

    @property
    def duration(self) -> float:
        """Wall (virtual) seconds from request to completion."""
        return self.finished_at - self.started_at

    @property
    def total_image_bytes(self) -> int:
        """Cluster-wide uncompressed image bytes."""
        return sum(r.image_bytes for r in self.records)

    @property
    def total_stored_bytes(self) -> int:
        """Cluster-wide on-disk (possibly gzipped) bytes."""
        return sum(r.stored_bytes for r in self.records)


@dataclass
class RestartOutcome:
    """Host-visible result of one completed restart."""

    started_at: float
    finished_at: float
    records: list[dict]

    @property
    def duration(self) -> float:
        """Wall (virtual) seconds from first restarter to resumed app."""
        return self.finished_at - self.started_at


@dataclass
class BarrierRecord:
    """Everything the root knows about one open barrier.

    Created by the first arrival, dropped by the release (or an abort).
    The barrier's tracer span is open exactly as long as its record
    exists, and began at ``open_t``.
    """

    #: first / latest arrival clock (host-side; straggler latency)
    open_t: float
    last_t: float = 0.0
    #: members that arrived on their own connection
    direct: set = field(default_factory=set)
    #: members counted by gateways, and the gateway fds to release through
    counted: int = 0
    via: set = field(default_factory=set)


@dataclass
class CoordinatorState:
    """Shared between the coordinator program and the host-side harness."""

    port: int
    #: observability: the world tracer.  Its clock is the host-side
    #: virtual time the watchdog and the failover deadline run on.
    tracer: Any
    #: the computation's :class:`~repro.config.DmtcpSpec`: the
    #: supervision timeouts are read here, never copied
    spec: Any
    interval: float = 0.0
    #: member fd -> info dict (host, vpid, program, restart)
    members: dict[int, dict] = field(default_factory=dict)
    phase: str = "idle"  # idle | checkpoint | restart
    quorum: int = 0
    #: the one barrier table: name -> record of every open barrier
    barriers: dict[str, BarrierRecord] = field(default_factory=dict)
    ckpt_id: int = 0
    ckpt_options: dict = field(default_factory=dict)
    ckpt_started_at: float = 0.0
    pending_command_fds: list[int] = field(default_factory=list)
    records: list[CheckpointRecord] = field(default_factory=list)
    images_by_host: dict[str, list[str]] = field(default_factory=dict)
    #: completed checkpoints, newest last.  An outcome is recorded here
    #: only once its restart script is on disk (see :func:`_publish`).
    history: list[CheckpointOutcome] = field(default_factory=list)
    #: finished checkpoints awaiting publication, oldest first:
    #: ``(outcome, command fds owed an "ok")``.  Non-empty exactly while
    #: one detached publisher thread drains it.
    unpublished: deque = field(default_factory=deque)
    #: restart machinery
    restarter_fds: set = field(default_factory=set)
    restart_total: int = 0
    restart_done: int = 0
    #: monotonically counts restarts; members record the generation they
    #: joined under, so a stale member's late-detected death (a silently
    #: crashed node is only noticed at the next send) cannot shrink the
    #: quorum of a *newer* restart
    restart_gen: int = 0
    restart_started_at: float = 0.0
    restart_records: list[dict] = field(default_factory=list)
    restart_history: list[RestartOutcome] = field(default_factory=list)
    adverts: dict[str, tuple] = field(default_factory=dict)
    #: host-side callbacks fired on completion events
    on_checkpoint_complete: list[Callable[[CheckpointOutcome], None]] = field(default_factory=list)
    on_restart_complete: list[Callable[[RestartOutcome], None]] = field(default_factory=list)
    #: total barrier messages processed (ablation: coordinator load)
    barrier_messages: int = 0
    #: propagation-tree mode (repro.coord.tree): connections that are
    #: gateway subtrees, not members.  Members reached through a gateway
    #: are keyed ("m", host, vpid) in ``members`` with info["via"] set to
    #: the top-level gateway fd they are reachable through.
    gateway_fds: set = field(default_factory=set)
    #: release log, one entry per released barrier (always on; pure
    #: host-side bookkeeping): {name, n, open_t, release_t}.  The
    #: equivalence tests pin release ordering on it and the coordination
    #: benches read barrier latency (release_t - open_t) from it.
    barrier_stats: list = field(default_factory=list)
    #: members whose done report is filed this round (a checkpoint
    #: member's rides its ``refilled`` arrival, a restored member's is
    #: MSG_RESTART_DONE): their disconnect -- kill mode -- is expected
    done_fds: set = field(default_factory=set)
    #: when this round's ``refilled`` barrier released (None before):
    #: every record's refill stage closes here
    refilled_at: Optional[float] = None
    #: supervision layer (DMTCP_SUPERVISE=1): watchdog and heartbeat
    #: (timed by ``spec``), barrier-progress tracking, and abort
    #: accounting.  All inert -- zero extra threads, syscalls, or frames
    #: -- when ``supervise`` is off, so healthy-path runs and committed
    #: benchmarks are unchanged.
    supervise: bool = False
    last_progress: float = 0.0
    aborts: int = 0
    last_abort_reason: Optional[str] = None
    #: content-addressed chunk store (DMTCP_STORE=1): shared with the
    #: host-side DmtcpComputation and the world; deliberately NOT reset
    #: by coordinator respawns -- the store's metadata plane survives a
    #: coordinator crash the way a real external metadata service would.
    store: Optional[Any] = None
    #: manifests of the in-flight generation parked until every quorum
    #: writer has reported: (host, vpid) -> (private writer fd, refs).
    #: ``store_leased_ckpt`` is the generation already assigned, whose
    #: late manifests (a writer retrying a lost reply) are answered at once.
    store_parked: dict = field(default_factory=dict)
    store_leased_ckpt: int = 0
    #: ckpt_ids whose lineage skip was already logged (supervisor-side
    #: dedup so a polling loop cannot inflate the counters).
    lineage_skips_logged: set = field(default_factory=set)
    #: multi-tenant service mode (repro.service): which tenant this state
    #: belongs to.  Empty for plain single-tenant computations, so spans,
    #: counters, and barrier tracks are byte-identical to pre-service runs.
    tenant: str = ""
    #: resilience layer (section 15): a checkpoint that coordinator
    #: failover interrupted, to be retried once the membership re-forms.
    #: ``{"expected": member count at crash, "options": ckpt options,
    #: "deadline": virtual time after which any quorum suffices}`` --
    #: stamped by the host-side respawn, consumed by
    #: :func:`_maybe_retry_failover`.
    failover_retry: Optional[dict] = None

    @property
    def track(self) -> str:
        """The coordinator's tracer track; tenant-qualified in service
        mode so concurrent tenants' spans never share (and corrupt) a
        stack."""
        return f"coordinator[{self.tenant}]" if self.tenant else "coordinator"

    def barrier_track(self, name: str) -> str:
        """Tracer track for one barrier."""
        return f"{self.track}/barrier:{name}"

    @property
    def publish_track(self) -> str:
        """Tracer track of the publisher, which may still be writing one
        generation's script while the next round's span is open."""
        return f"{self.track}/publish"

    def close_round(self, **args) -> None:
        """End the open checkpoint round's span (opened by
        :func:`_start_checkpoint`)."""
        self.tracer.end(
            self.track, "checkpoint", cat="coord", tenant=self.tenant or None, **args
        )

    @property
    def script_path(self) -> str:
        """Where the restart script lands on the coordinator's host: a
        hub tenant's goes under its own checkpoint directory, since every
        tenant shares the hub's host."""
        if self.tenant:
            return f"/tmp/dmtcp/{self.tenant}/dmtcp_restart_script.sh"
        return "/tmp/dmtcp/dmtcp_restart_script.sh"

    @property
    def checkpoint_unrecorded(self) -> bool:
        """A requested checkpoint is not in ``history`` yet: still in
        flight, or finished with its publication pending.  Coordinator
        failover retries exactly these."""
        if self.phase == "checkpoint":
            return True
        return bool(self.unpublished) and self.unpublished[-1][0] is not self.last_checkpoint

    def drop_barriers(self) -> None:
        """Forget every open barrier, closing its tracer span as aborted."""
        for name in self.barriers:
            self.tracer.end(
                self.barrier_track(name), name, cat="barrier",
                tenant=self.tenant or None, aborted=True,
            )
        self.barriers = {}

    def reset_connections(self) -> None:
        """Coordinator respawn: drop everything scoped to the dead
        process's connections.  History, the restart discovery service's
        knowledge and the store survive."""
        self.drop_barriers()
        if self.phase == "checkpoint":
            self.close_round(aborted=True)
        if self.tracer.open_spans(self.publish_track):
            self.tracer.end(
                self.publish_track, "publish", cat="coord", tenant=self.tenant or None,
                aborted=True,
            )
        self.unpublished = deque()  # the publisher died with the process
        self.members = {}
        self.restarter_fds = set()
        self.gateway_fds = set()
        self.pending_command_fds = []
        self.done_fds = set()
        self.store_parked = {}
        self.records = []
        self.images_by_host = {}
        self.phase = "idle"
        self.last_progress = 0.0

    @property
    def member_count(self) -> int:
        """Number of connected checkpointed processes."""
        return len(self.members)

    @property
    def direct_member_fds(self) -> list[int]:
        """Members holding their own connection (star mode); in tree
        mode members are tuple-keyed and reached via gateways instead."""
        return sorted(fd for fd in self.members if isinstance(fd, int))

    def clock(self) -> float:
        """Current virtual time, host-side (never charges sim time)."""
        return self.tracer.clock()

    @property
    def last_checkpoint(self) -> Optional[CheckpointOutcome]:
        """The most recent completed checkpoint, if any."""
        return self.history[-1] if self.history else None


def make_coordinator_program(state: CoordinatorState):
    """Build the coordinator's main generator (registered as a program)."""

    def coordinator_main(sys: Sys, argv):
        """Accept manager/command/restart connections forever."""
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, state.port)
        yield from sys.listen(lfd, backlog=1024)
        # always armed: `dmtcp command --interval N` can enable it later
        yield from sys.thread_create(_interval_timer, state)
        if state.supervise:
            yield from sys.thread_create(_watchdog, state)
            yield from sys.thread_create(_heartbeat, state)
        while True:
            cfd = yield from sys.accept(lfd)
            yield from sys.thread_create(_handle_connection, state, cfd, detached=True)

    return coordinator_main


def _interval_timer(sys: Sys, state: CoordinatorState):
    """--interval N: request a checkpoint every N seconds while idle.

    Also the failover-retry fallback clock: the timer ticks every second
    even with no interval configured, so a pending retry whose stragglers
    never re-register still fires once its deadline passes.
    """
    while True:
        yield from sys.sleep(state.interval if state.interval > 0 else 1.0)
        yield from _maybe_retry_failover(sys, state)
        if state.interval > 0 and state.phase == "idle" and state.members:
            yield from _start_checkpoint(sys, state, {})


def _maybe_retry_failover(sys: Sys, state: CoordinatorState):
    """Retry a checkpoint that coordinator failover rolled back.

    The respawned coordinator carries a pending-retry record stamped at
    respawn time.  The retry fires as soon as the pre-crash membership
    has fully re-registered -- the common case, within one reconnect
    backoff -- or, if stragglers never return, once the fallback
    deadline passes with any members at all.
    """
    pending = state.failover_retry
    if pending is None or state.phase != "idle" or not state.members:
        return
    if (
        state.member_count < pending["expected"]
        and state.clock() < pending["deadline"]
    ):
        return
    state.failover_retry = None
    state.tracer.count("coord.failover_retries", tenant=state.tenant or None)
    yield from _start_checkpoint(sys, state, pending.get("options", {}))


def _watchdog(sys: Sys, state: CoordinatorState):
    """Supervision: abort a stalled checkpoint or restart.

    ``last_progress`` advances on the checkpoint broadcast and on every
    barrier arrival; if it stops advancing for ``barrier_timeout_s`` a
    member died mid-protocol and the survivors would otherwise block at
    their barrier forever.  Aborting rolls everyone back to RUNNING.
    """
    while True:
        yield from sys.sleep(max(state.spec.barrier_timeout_s / 4.0, 0.25))
        if state.phase == "idle":
            continue  # an idle tick never reads the clock
        now = yield from sys.time()
        yield from _watchdog_check(sys, state, now)


def _watchdog_check(sys: Sys, state: CoordinatorState, now: float):
    """One watchdog tick against one state (the hub sweeps its tenants
    with this, sharing a single clock read)."""
    timeout = state.spec.barrier_timeout_s
    if state.phase == "idle" or now - state.last_progress < timeout:
        return
    if state.phase == "checkpoint":
        yield from _abort_checkpoint(sys, state, f"no barrier progress for {timeout}s")
    else:
        yield from _abort_restart(sys, state, f"restart stalled for {timeout}s")


def _heartbeat(sys: Sys, state: CoordinatorState):
    """Supervision: ping every member periodically."""
    while True:
        yield from sys.sleep(state.spec.heartbeat_interval_s)
        yield from _ping_members(sys, state)


def _ping_members(sys: Sys, state: CoordinatorState):
    """One heartbeat sweep over one state's connections.

    A silently-crashed member (no FIN) never triggers the connection
    handler's recv path, but its dead socket turns our ping send into
    ECONNRESET -- which is then handled exactly like an observed
    disconnect (quorum shrink, barrier re-check, possible early finish).
    """
    # tree mode: members are reached through gateways, so probing
    # the gateway connections covers whole subtrees at once
    for mfd in sorted(state.direct_member_fds + list(state.gateway_fds)):
        try:
            yield from send_frame(sys, mfd, P.msg(P.MSG_PING), P.CTL_FRAME_BYTES)
        except SyscallError:
            yield from _handle_disconnect(sys, state, mfd)


def _begin_abort(state: CoordinatorState, phase: str, counter: str, reason: str) -> bool:
    """Shared first half of an abort: if ``phase`` is in flight, account
    for the abort, drop the open barriers and go idle."""
    if state.phase != phase:
        return False
    state.aborts += 1
    state.last_abort_reason = reason
    state.tracer.count(counter, tenant=state.tenant or None)
    if phase == "checkpoint":
        state.close_round(aborted=True)
    state.drop_barriers()
    state.phase = "idle"
    return True


def _abort_checkpoint(sys: Sys, state: CoordinatorState, reason: str):
    """Supervision: abandon the in-flight checkpoint, roll back to idle.

    Members roll back locally (requeue drained data, delete half-written
    images, resume user threads) when they see MSG_CKPT_ABORT or when
    their own member-side recv timeout fires -- whichever happens first.
    """
    if not _begin_abort(state, "checkpoint", "coord.ckpt_aborts", reason):
        return
    state.records = []
    state.images_by_host = {}
    state.done_fds = set()
    # writers parked on their lease connection are not reading the member
    # channel: flush them there so they roll back now
    parked, state.store_parked = state.store_parked, {}
    for owner in sorted(parked):
        yield from _bounce_stale_arrival(sys, state, parked[owner][0])
    if state.store is not None:
        # every writer of the generation rolls back (or is dead): the
        # leases go back, whoever still counts as a member
        state.store.release()
    yield from _broadcast_members(sys, state, P.msg(P.MSG_CKPT_ABORT, reason=reason))
    for cmd_fd in state.pending_command_fds:
        yield from _send_safe(sys, state, cmd_fd, P.msg("aborted", reason=reason))
    state.pending_command_fds = []


def _abort_restart(sys: Sys, state: CoordinatorState, reason: str):
    """Supervision: give up on a stalled restart (a node died mid-restore).

    Restarters blocked at a restart barrier get MSG_CKPT_ABORT, exit, and
    the AutoRestartSupervisor tries again from the newest valid images.
    """
    if not _begin_abort(state, "restart", "coord.restart_aborts", reason):
        return
    abort = P.msg(P.MSG_CKPT_ABORT, reason=reason)
    for rfd in sorted(set(state.restarter_fds) - set(state.members)):
        yield from _send_safe(sys, state, rfd, abort)
    yield from _broadcast_members(sys, state, abort)
    state.restarter_fds = set()


def _abort_in_flight(sys: Sys, state: CoordinatorState, reason: str):
    """Abort whichever round (checkpoint or restart) is in flight."""
    abort = _abort_checkpoint if state.phase == "checkpoint" else _abort_restart
    yield from abort(sys, state, reason)


def _handle_connection(sys: Sys, state: CoordinatorState, cfd: int):
    """Serve one connection until it leaves, then close our end: a
    departed member, restarter or command client holds no descriptor."""
    asm = FrameAssembler()
    while True:
        result = yield from recv_frame(sys, cfd, asm)
        if result is None:
            yield from _handle_disconnect(sys, state, cfd)
            break
        keep = yield from _dispatch_message(sys, state, cfd, result[0])
        if not keep:
            break
    yield from sys.close(cfd)


def _dispatch_message(sys: Sys, state: CoordinatorState, cfd: int, message: dict):
    """Apply one control message against one computation's state.

    Returns False when the connection is finished (GOODBYE, or a store
    reply whose peer died), True to keep receiving.  This is the whole
    per-message protocol; the multi-tenant hub (repro.service) drives the
    same function from its batched dispatcher, so the two deployments can
    never diverge.
    """
    kind = message["kind"]
    if kind == P.MSG_HELLO or kind == P.MSG_REREGISTER:
        # a hello arriving over a gateway connection is a *forwarded*
        # member registration: key it by identity, not by fd
        key = (
            ("m", message["host"], message["vpid"])
            if cfd in state.gateway_fds
            else cfd
        )
        state.members[key] = {
            "host": message["host"],
            "vpid": message["vpid"],
            "program": message["program"],
            "restart": message.get("restart", False),
            # a re-registration carries the restart generation the member
            # joined under; a fresh hello joins the current one
            "gen": message.get("gen", state.restart_gen),
            "via": cfd if cfd in state.gateway_fds else None,
        }
        if kind == P.MSG_REREGISTER:
            # rebuild lineage from the members: the respawned coordinator
            # must never reissue a ckpt_id its predecessor already used
            state.ckpt_id = max(state.ckpt_id, message.get("ckpt_id", 0))
            state.tracer.count("coord.reregistrations", tenant=state.tenant or None)
            if state.supervise:
                state.last_progress = state.clock()
        # membership re-forming may satisfy a pending failover retry
        yield from _maybe_retry_failover(sys, state)
    elif kind == P.MSG_GW_HELLO:
        state.gateway_fds.add(cfd)
    elif kind == P.MSG_MEMBER_GONE:
        yield from _member_gone(sys, state, message)
    elif kind == P.MSG_SUBTREE_GONE:
        yield from _subtree_gone(sys, state, message)
    elif kind == P.MSG_BARRIER or kind == P.MSG_BARRIER_COUNT:
        yield from _barrier_arrive_batch(
            sys, state, message["name"], [_barrier_arrival(cfd, message)]
        )
    elif kind == P.MSG_CKPT_REPORT:
        # tree mode: reports too many to ride their gateway's count
        # follow it
        _file_reports(state, cfd, message["reports"])
        yield from _maybe_finish_checkpoint(sys, state)
    elif kind == P.MSG_RESTART_DONE:
        yield from _restart_done(sys, state, cfd, message["record"])
    elif kind == P.MSG_CKPT_FAILED:
        # a member hit ENOSPC (or aborted locally): the cluster-wide
        # checkpoint cannot complete -- roll everyone back now
        yield from _abort_checkpoint(
            sys, state, message.get("reason", "member checkpoint failure")
        )
    elif kind == P.MSG_PING or kind == P.MSG_PONG:
        pass  # liveness traffic; nothing to do
    elif kind == P.MSG_COMMAND:
        yield from _command(sys, state, cfd, message)
    elif kind == P.MSG_RESTART_HELLO:
        state.restarter_fds.add(cfd)
        # a restarter connecting is progress: without this the
        # watchdog would measure the new restart against the stale
        # timestamp of the last checkpoint and abort it at birth
        if state.supervise:
            state.last_progress = state.clock()
        if state.phase != "restart":
            state.phase = "restart"
            state.restart_gen += 1
            state.restart_total = message["total"]
            state.restart_done = 0
            state.restart_records = []
            state.restart_started_at = message.get("t0", 0.0)
            state.adverts = {}
            state.done_fds = set()
        # replay adverts that arrived before this restarter connected
        for key, (host, port) in state.adverts.items():
            yield from _send_safe(
                sys, state, cfd, P.msg(P.MSG_ADVERTISE_BCAST, key=key, host=host, port=port)
            )
    elif kind == P.MSG_ADVERTISE:
        key = message["key"]
        state.adverts[key] = (message["host"], message["port"])
        if state.supervise:
            state.last_progress = state.clock()  # reconnects flowing
        for rfd in list(state.restarter_fds):
            yield from _send_safe(
                sys,
                state,
                rfd,
                P.msg(P.MSG_ADVERTISE_BCAST, key=key, host=message["host"], port=message["port"]),
            )
    elif kind == P.MSG_STORE_MANIFEST:
        # chunk-store metadata plane: rides a private writer connection
        # at barrier 5 and is answered once the generation is whole
        yield from _store_manifest(sys, state, cfd, message)
    elif kind == P.MSG_STORE_COMMIT:
        state.store.commit(message["digests"], message["host"])
        try:
            yield from send_frame(
                sys, cfd, P.msg(P.MSG_STORE_OK), P.CTL_FRAME_BYTES
            )
        except SyscallError:
            _drop_connection(state, cfd)
            return False
    elif kind == P.MSG_GOODBYE:
        _drop_connection(state, cfd)
        return False
    return True


def _store_manifest(sys: Sys, state: CoordinatorState, cfd: int, message: dict):
    """Park one writer's manifest until its generation can be leased.

    A manifest of a checkpoint that no longer exists (aborted, or rolled
    back by coordinator failover) is answered with the abort instead, so
    the writer rolls back now rather than pushing chunks nobody commits.
    """
    if state.phase != "checkpoint" or message["ckpt_id"] != state.ckpt_id:
        yield from _bounce_stale_arrival(sys, state, cfd)
        return
    owner = (message["host"], message["vpid"])
    state.store_parked[owner] = (cfd, message["refs"])
    yield from _maybe_lease_generation(sys, state)


def _maybe_lease_generation(sys: Sys, state: CoordinatorState):
    """Lease the generation once all ``state.quorum`` writers reported.

    The store assigns each not-yet-stored chunk to one of the writers
    holding it (``ChunkStore.lease_generation``) and every parked writer
    gets its ``need`` list.  Re-evaluated wherever the quorum shrinks,
    so a writer that dies before reporting cannot park the rest.
    """
    parked = state.store_parked
    if not parked or (
        len(parked) < state.quorum and state.store_leased_ckpt != state.ckpt_id
    ):
        return
    state.store_leased_ckpt = state.ckpt_id
    state.store_parked = {}
    tracer = state.tracer
    tracer.begin("coordinator/store", "store.lease", cat="store", writers=len(parked))
    needs = state.store.lease_generation(
        {owner: refs for owner, (_fd, refs) in parked.items()}, state.ckpt_id
    )
    for owner in sorted(needs):
        need = needs[owner]
        yield from _send_safe(
            sys,
            state,
            parked[owner][0],
            P.msg(P.MSG_STORE_LEASE, need=need),
            64 + 8 * max(len(need), 1),
        )
    tracer.end("coordinator/store", "store.lease", cat="store")


def _writer_gone(sys: Sys, state: CoordinatorState, owner: tuple):
    """A member of the in-flight checkpoint died: withdraw its parked
    manifest and orphan its leases.  Survivors' manifests reference the
    orphaned chunks, so a supervised checkpoint aborts and retries
    rather than complete unrestorable; otherwise the shrunken quorum may
    now be whole."""
    if state.store is None:
        return
    state.store_parked.pop(owner, None)
    if state.store.release(owner) and state.supervise:
        yield from _abort_checkpoint(sys, state, "store lease holder lost")
    else:
        yield from _maybe_lease_generation(sys, state)


def _drop_connection(state: CoordinatorState, cfd: int) -> None:
    if cfd in state.gateway_fds:
        state.gateway_fds.discard(cfd)
        for key in [k for k, i in state.members.items() if i.get("via") == cfd]:
            state.members.pop(key, None)
    state.members.pop(cfd, None)
    state.restarter_fds.discard(cfd)
    # a member whose report is filed keeps its `refilled` arrival: its
    # image is committed, so the generation still covers it
    reported = cfd in state.done_fds
    for rec in state.barriers.values():
        if not reported:
            rec.direct.discard(cfd)
        rec.via.discard(cfd)
    # a parked writer's private connection: its manifest leaves with it
    for owner in [o for o, (fd, _refs) in state.store_parked.items() if fd == cfd]:
        del state.store_parked[owner]


def _handle_disconnect(sys: Sys, state: CoordinatorState, cfd: int):
    """A connection died: a member's is a member loss (see
    :func:`_member_lost`); a *gateway*'s is a subtree loss -- every
    member reached through it is gone at once, and because their
    already-aggregated barrier counts cannot be unwound member-by-member
    any in-flight round is aborted rather than reconciled.
    """
    if cfd in state.gateway_fds:
        _drop_connection(state, cfd)
        state.tracer.count("coord.gateways_lost")
        yield from _abort_in_flight(sys, state, "gateway connection lost")
        return
    info = state.members.get(cfd)
    _drop_connection(state, cfd)
    yield from _member_lost(sys, state, cfd, info)


def _member_gone(sys: Sys, state: CoordinatorState, message: dict):
    """A gateway reports one of its members dead (tree mode).

    The gateway tells us which barriers the dead member's arrival was
    already counted toward (``arrived``); decrementing those counts is
    the tree-mode equivalent of ``direct.discard(cfd)``.
    """
    key = ("m", message["host"], message["vpid"])
    for name in message.get("arrived", ()):
        rec = state.barriers.get(name)
        if rec is not None:
            rec.counted = max(0, rec.counted - 1)
    info = state.members.pop(key, None)
    if not message.get("goodbye"):
        yield from _member_lost(sys, state, key, info)


def _member_lost(sys: Sys, state: CoordinatorState, key, info: Optional[dict]):
    """Member ``key`` (a direct fd, or ``("m", host, vpid)`` behind a
    gateway; ``info`` is its former ``members`` entry) is gone.

    If a checkpoint is in flight, the quorum shrinks: a process may
    legitimately exit between the checkpoint broadcast and its suspend
    barrier (e.g. it finished its work), and the remaining members must
    not wait for it forever.

    The same applies during restart: a restored process whose work is
    nearly done can resume and exit before its manager thread gets to
    report restart-done (the process exit kills the manager mid-report),
    so a restart-member loss shrinks the restart quorum too.
    """
    if info is None or key in state.done_fds:
        return  # not a member, or already reported: its exit is expected
    restarting = state.phase == "restart"
    if restarting:
        if not (info.get("restart") and info.get("gen") == state.restart_gen):
            return
        state.restart_total -= 1
    elif state.phase == "checkpoint" and state.quorum > 0:
        state.quorum -= 1
        yield from _writer_gone(sys, state, (info["host"], info["vpid"]))
    else:
        return
    for name in list(state.barriers):
        yield from _maybe_release(sys, state, name)
    if restarting:
        yield from _maybe_finish_restart(sys, state)
    else:
        yield from _maybe_finish_checkpoint(sys, state)


def _subtree_gone(sys: Sys, state: CoordinatorState, message: dict):
    """A gateway reports a whole child subtree dead (tree mode).

    The dead gateway's aggregated counts cannot be reconciled, so any
    in-flight round is aborted; the members re-arrive next round.
    """
    for host, vpid in message.get("members", ()):
        state.members.pop(("m", host, vpid), None)
    state.tracer.count("coord.subtrees_lost")
    yield from _abort_in_flight(sys, state, "gateway subtree lost")


def _bounce_stale_arrival(sys: Sys, state: CoordinatorState, cfd: int):
    """Tell the straggler to roll back now rather than wait out its own
    recv timeout against a barrier that will never be released."""
    yield from _send_safe(
        sys,
        state,
        cfd,
        P.msg(P.MSG_CKPT_ABORT, reason=state.last_abort_reason or "checkpoint aborted"),
    )


def _barrier_arrival(cfd: int, message: dict) -> tuple:
    """``(cfd, n, counted, reports)`` for one barrier frame: a member's
    own MSG_BARRIER is ``(cfd, 1, False, reports)``; a gateway's
    MSG_BARRIER_COUNT, the combined arrivals of ``n`` members below it,
    ``(cfd, n, True, reports)``.  ``reports`` are the ``(record,
    image_path)`` done reports the frame carries: a member's ``refilled``
    arrival carries its own, a count those of the members it counts
    when they fit a small frame."""
    if message["kind"] == P.MSG_BARRIER_COUNT:
        return (cfd, message["n"], True, message.get("reports", ()))
    if "record" in message:
        return (cfd, 1, False, ((message["record"], message["image_path"]),))
    return (cfd, 1, False, ())


def _barrier_arrive_batch(
    sys: Sys, state: CoordinatorState, name: str, arrivals: list
):
    """Record one or more arrivals at a barrier, then one release check.

    ``arrivals`` holds :func:`_barrier_arrival` tuples.  The per-message
    path always passes a single entry; the multi-tenant hub's batched
    dispatcher coalesces every arrival at one barrier within a batch
    into a single call -- the coordinator-side analogue of the
    gateway's MSG_BARRIER_COUNT aggregation.
    """
    if state.phase == "idle" and not name.startswith("restart-"):
        # stale: the checkpoint this barrier belonged to no longer
        # exists -- the watchdog aborted it before these messages
        # landed.  Letting them through would reopen a barrier span
        # nothing will ever release.
        for cfd, _n, _counted, _reports in arrivals:
            yield from _bounce_stale_arrival(sys, state, cfd)
        return
    state.barrier_messages += len(arrivals)
    tracer = state.tracer
    now = state.clock()
    rec = state.barriers.get(name)
    if rec is None:
        rec = state.barriers[name] = BarrierRecord(open_t=now)
        # first arrival opens the barrier span: its duration is how long
        # the earliest process waited for the release
        tracer.begin(
            state.barrier_track(name), name, cat="barrier",
            tenant=state.tenant or None,
        )
    rec.last_t = now
    if state.supervise:
        state.last_progress = now
    tracer.count("coord.barrier_messages", len(arrivals), tenant=state.tenant or None)
    for cfd, n, counted, reports in arrivals:
        if counted:
            rec.counted += n
            rec.via.add(cfd)
        else:
            rec.direct.add(cfd)
        _file_reports(state, cfd, reports)
    yield from _maybe_release(sys, state, name)


def _maybe_release(sys: Sys, state: CoordinatorState, name: str):
    """Release a barrier if its quorum is (now) satisfied.

    The ``refilled`` release completes the checkpoint: it is stamped,
    then the round is finished (the reports rode the arrivals), then
    the releases go out.
    """
    rec = state.barriers.get(name)
    if rec is None:
        return
    total = len(rec.direct) + rec.counted
    quorum = state.restart_total if name.startswith("restart-") else state.quorum
    if total >= quorum > 0:
        del state.barriers[name]
        release_t = state.clock()
        state.barrier_stats.append(
            {
                "name": name,
                "n": total,
                "open_t": rec.open_t,
                "release_t": release_t,
            }
        )
        tracer = state.tracer
        straggler = rec.last_t - rec.open_t
        tracer.end(
            state.barrier_track(name),
            name,
            cat="barrier",
            tenant=state.tenant or None,
            n=total,
            straggler_s=straggler,
        )
        tracer.count("coord.barriers_released", tenant=state.tenant or None)
        tracer.count_max("coord.barrier_straggler_max_s", straggler)
        if name == P.BARRIER_REFILLED:
            state.refilled_at = release_t
            yield from _maybe_finish_checkpoint(sys, state)
        for mfd in sorted(rec.direct) + sorted(rec.via):
            yield from _send_safe(sys, state, mfd, P.msg(P.MSG_BARRIER_RELEASE, name=name))


def _broadcast_members(sys: Sys, state: CoordinatorState, message: dict):
    """Send a verb to every member: direct fds get it plainly, and each
    gateway gets ONE copy to fan down its subtree -- the root's send
    cost is O(direct + gateways), not O(members)."""
    for mfd in state.direct_member_fds:
        yield from _send_safe(sys, state, mfd, message)
    for gfd in sorted(state.gateway_fds):
        yield from _send_safe(sys, state, gfd, message)


def _start_checkpoint(sys: Sys, state: CoordinatorState, options: dict):
    state.phase = "checkpoint"
    state.ckpt_id += 1
    state.quorum = len(state.members)
    state.records = []
    state.images_by_host = {}
    state.ckpt_options = dict(options)
    # an arrival that straggled in after its round released must not
    # leak into this round
    state.drop_barriers()
    state.done_fds = set()
    state.refilled_at = None
    now = yield from sys.time()
    # one span per round, request to completion: its length is the
    # outcome's duration
    state.tracer.begin(
        state.track, "checkpoint", cat="coord", tenant=state.tenant or None,
        ckpt_id=state.ckpt_id,
    )
    state.ckpt_started_at = now
    state.last_progress = now
    had_members = bool(state.members)
    yield from _broadcast_members(
        sys,
        state,
        P.msg(
            P.MSG_CHECKPOINT,
            ckpt_id=state.ckpt_id,
            kill=bool(options.get("kill")),
            forked=bool(options.get("forked")),
        ),
    )
    # a member can crash between the request and this broadcast: the
    # quorum is whoever actually received the order
    state.quorum = len(state.members)
    if had_members and state.quorum == 0:
        yield from _abort_checkpoint(sys, state, "every member vanished at broadcast")


def _maybe_finish_restart(sys: Sys, state: CoordinatorState):
    """Declare the restart finished once every (still-live) restored
    process has reported in."""
    if state.phase != "restart" or state.restart_done < state.restart_total:
        return
    now = yield from sys.time()
    outcome = RestartOutcome(
        started_at=state.restart_started_at,
        finished_at=now,
        records=list(state.restart_records),
    )
    state.restart_history.append(outcome)
    state.phase = "idle"
    state.restarter_fds = set()
    # snapshot: callbacks deregister themselves as they fire, and a stale
    # entry from an abandoned earlier attempt must not shadow the live one
    for cb in list(state.on_restart_complete):
        cb(outcome)


def _restart_done(sys: Sys, state: CoordinatorState, cfd: int, record: dict):
    """A restored member resumed.  Direct connections are keyed by fd; a
    report forwarded through a gateway by the identity in its record
    (the gateway connection serves many members)."""
    key = ("m", record["host"], record["vpid"]) if cfd in state.gateway_fds else cfd
    state.done_fds.add(key)
    state.restart_done += 1
    state.restart_records.append(record)
    yield from _maybe_finish_restart(sys, state)


def _file_reports(state: CoordinatorState, cfd: int, reports) -> None:
    """File ``(record, image_path)`` done reports that came in on
    ``cfd``.  A direct member is keyed by its fd; a report forwarded by a
    gateway by the identity in its record (the gateway connection
    serves many members)."""
    if state.phase != "checkpoint":
        return  # their round was aborted
    via_gateway = cfd in state.gateway_fds
    for record, image_path in reports:
        state.done_fds.add(("m", record.hostname, record.vpid) if via_gateway else cfd)
        state.records.append(record)
        state.images_by_host.setdefault(record.hostname, []).append(image_path)


def _maybe_finish_checkpoint(sys: Sys, state: CoordinatorState):
    """Finish the round once ``refilled`` has released and every member's
    report is filed.  A member's report rides its arrival and a
    gateway's count carries its members' reports, so both hold at the
    release; only a subtree too large for one small frame sends its
    reports behind its count, and the round finishes at the last of
    them.  A round whose every member vanished finishes empty."""
    if state.quorum == 0 or (
        state.refilled_at is not None and len(state.records) >= state.quorum
    ):
        yield from _finish_checkpoint(sys, state)


def _finish_checkpoint(sys: Sys, state: CoordinatorState):
    """Close the round: stamp it, go idle, and queue it for publication.

    This runs on the dispatch path -- the hub's one dispatcher serves
    every tenant -- so it makes no storage call: the restart script, the
    history entry, the command replies and the completion callbacks are
    the publisher's (:func:`_publish`).  A publisher is spawned only when
    the queue was empty, so one state's generations publish in order.
    """
    if state.phase != "checkpoint":
        return  # already finished (quorum shrank after the last record)
    now = yield from sys.time()
    state.close_round()
    if state.refilled_at is not None:
        for record in state.records:
            record.close_refill(state.refilled_at)
    plan = RestartPlan(
        ckpt_id=state.ckpt_id,
        coordinator_host=(yield from sys.gethostname()),
        coordinator_port=state.port,
        images_by_host={h: list(v) for h, v in state.images_by_host.items()},
    )
    outcome = CheckpointOutcome(
        ckpt_id=state.ckpt_id,
        started_at=state.ckpt_started_at,
        finished_at=now,
        records=list(state.records),
        plan=plan,
        kill=bool(state.ckpt_options.get("kill")),
    )
    state.phase = "idle"
    state.unpublished.append((outcome, state.pending_command_fds))
    state.pending_command_fds = []
    if len(state.unpublished) == 1:
        yield from sys.thread_create(_publish, state, detached=True)


def _publish(sys: Sys, state: CoordinatorState):
    """Publish finished checkpoints, oldest first, until none is left.

    Per outcome: write dmtcp_restart_script.sh next to the coordinator
    (Section 3), record it in ``history``, answer the command clients,
    fire the completion callbacks.  The script is on disk before the
    checkpoint counts as recorded, so a coordinator killed mid-publish
    leaves the generation unrecorded and failover retries it.  The entry
    leaves the queue last: a finish landing meanwhile must not spawn a
    second publisher.
    """
    tracer = state.tracer
    tenant = state.tenant or None
    while state.unpublished:
        outcome, cmd_fds = state.unpublished[0]
        plan = outcome.plan
        tracer.begin(state.publish_track, "publish", cat="coord", tenant=tenant,
                     ckpt_id=outcome.ckpt_id)
        script_fd = yield from sys.open(state.script_path, "w")
        yield from sys.write(script_fd, len(plan.render_script()), payload=plan)
        yield from sys.close(script_fd)
        state.history.append(outcome)
        for cmd_fd in cmd_fds:
            # the command client may itself have died (node crash): never
            # let its dead socket take the coordinator down with it
            yield from _send_safe(sys, state, cmd_fd, P.msg("ok", ckpt_id=outcome.ckpt_id))
        tracer.end(state.publish_track, "publish", cat="coord", tenant=tenant)
        tracer.count("coord.publishes", tenant=tenant)
        # snapshot: sinks deregister themselves as they fire
        for cb in list(state.on_checkpoint_complete):
            cb(outcome)
        state.unpublished.popleft()


def _command(sys: Sys, state: CoordinatorState, cfd: int, message: dict):
    cmd = message["cmd"]
    if cmd == "checkpoint":
        if state.phase != "idle":
            state.tracer.count("coord.busy_refusals", tenant=state.tenant or None)
            yield from send_frame(sys, cfd, P.msg("busy"), P.CTL_FRAME_BYTES)
            return
        state.pending_command_fds.append(cfd)
        yield from _start_checkpoint(sys, state, message.get("options", {}))
    elif cmd == "status":
        yield from send_frame(
            sys,
            cfd,
            P.msg(
                "status",
                members=state.member_count,
                phase=state.phase,
                checkpoints=len(state.history),
            ),
            P.CTL_FRAME_BYTES,
        )
    elif cmd == "interval":
        state.interval = float(message["arg"])
        yield from send_frame(sys, cfd, P.msg("ok"), P.CTL_FRAME_BYTES)
    elif cmd == "kill":
        # `dmtcp command --kill`: terminate the whole computation
        yield from _broadcast_members(sys, state, P.msg("die"))
        yield from send_frame(sys, cfd, P.msg("ok"), P.CTL_FRAME_BYTES)
    else:
        yield from send_frame(sys, cfd, P.msg("error", detail=f"unknown {cmd}"), P.CTL_FRAME_BYTES)


#: dmtcp_command exit codes for coordinator refusals -- the reply itself
#: cannot travel through the main task's return value (process teardown
#: rejects the done-future first), so the exit code carries the verdict.
EXIT_BUSY = 3
EXIT_ABORTED = 4
#: The coordinator is gone: its listener refused every connect, or
#: (supervised) the reply deadline expired on a query, or on a
#: checkpoint whose coordinator no longer absorbs a ping.
EXIT_DEADLINE = 5


def make_dmtcp_command_program(spec, tracer):
    """Build the `dmtcp command <cmd>` client (Section 3).

    The client makes one request; a refusal exits ``EXIT_BUSY`` or
    ``EXIT_ABORTED``, and a coordinator that is gone ``EXIT_DEADLINE``
    (never an unhandled connect error).  ``spec`` is the cluster's
    :class:`~repro.config.DmtcpSpec`: supervised, every reply recv is
    capped by its ``member_recv_timeout_s``.  ``tracer`` is the world
    tracer for host-side counters only (deadline expiries); it never
    charges simulated time.
    """

    def dmtcp_command_main(sys: Sys, argv):
        cmd = argv[1]
        host = yield from sys.getenv("DMTCP_COORD_HOST")
        port = int((yield from sys.getenv("DMTCP_COORD_PORT")))
        supervise = (yield from sys.getenv("DMTCP_SUPERVISE")) == "1"
        options = {}
        if "--kill" in argv:
            options["kill"] = True
        if "--forked" in argv:
            options["forked"] = True
        command = P.msg(P.MSG_COMMAND, cmd=cmd, options=options, arg=argv[-1])
        # service mode: the first message on a hub connection binds it to
        # a tenant; single-tenant frames stay byte-for-byte what they were
        tenant = yield from sys.getenv("DMTCP_TENANT")
        if tenant:
            command["tenant"] = tenant
        deadline = spec.member_recv_timeout_s if supervise else None
        fd = yield from sys.socket()
        try:
            yield from connect_retry(sys, fd, host, port)
        except SyscallError as err:
            if err.errno != "ECONNREFUSED":
                raise
            # every retry refused: no listener, the coordinator is gone
            yield from sys.close(fd)
            yield from sys.exit(EXIT_DEADLINE)
        yield from send_frame(sys, fd, command, P.CTL_FRAME_BYTES)
        asm = FrameAssembler()
        while True:
            try:
                reply = yield from recv_frame(sys, fd, asm, timeout=deadline)
                break
            except SyscallError as err:
                if err.errno != "ETIMEDOUT":
                    raise
            # deadline expired with no reply.  A checkpoint's reply
            # legitimately takes longer than one RPC deadline, so the
            # deadline bounds *dead-coordinator detection*, not checkpoint
            # duration: probe the socket -- a live coordinator absorbs the
            # ping and we keep waiting, a dead one fails the send.
            tracer.count("resilience.deadline_expired")
            if cmd == "checkpoint":
                try:
                    yield from send_frame(sys, fd, P.msg(P.MSG_PING), P.CTL_FRAME_BYTES)
                    continue
                except SyscallError:
                    pass
            # a query, or a coordinator gone: do NOT blind-resend a
            # checkpoint -- the coordinator-side failover retry owns
            # completion; give up loudly
            yield from sys.close(fd)
            yield from sys.exit(EXIT_DEADLINE)
        yield from sys.close(fd)
        body = reply[0] if reply else None
        kind = body.get("kind") if isinstance(body, dict) else None
        if kind == "busy":
            yield from sys.exit(EXIT_BUSY)
        if kind == "aborted":
            yield from sys.exit(EXIT_ABORTED)
        return body

    return dmtcp_command_main
