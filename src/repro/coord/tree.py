"""Propagation tree: gateway relays between managers and the coordinator.

Topology
--------
The gateways form an F-ary forest rooted at the coordinator.  Gateways
are numbered 0..G-1 in launch order (one per cluster node, in hostname
order); gateway ``i``'s parent is the coordinator for ``i < F`` and
gateway ``(i // F) - 1`` otherwise, so gateway ``g``'s children are the
contiguous block ``[(g+1)*F, (g+2)*F)``.  Depth is O(log_F n); with
F >= the node count every gateway is top-level, which is the paper's
Section-6 two-level combining tree (one combiner per node).

Wire protocol (framed msgs, same transport as the star)
-------------------------------------------------------
Upstream, a gateway aggregates the barrier verb -- arrivals landing
within a short virtual-time window coalesce into one counted
``barrier-count`` delta, exactly the distributed barrier the paper's
Section 6 proposes -- and forwards every identity-bearing verb (hello,
ckpt-done, ckpt-failed, ...) verbatim, caching each hello it relays.
The root therefore keys tree members by ``(host, vpid)`` rather than by
connection, and no envelope or routing layer exists.

Downstream there are only broadcasts (do-checkpoint, abort, die: one
copy per gateway, fanned to every child) and per-name barrier releases
(each gateway releases exactly the children that contributed).

Failure semantics: a gateway that loses a *member* child reports
``member-gone`` with the barrier names already counted upstream, so the
root can decrement precisely; losing a child *gateway* makes the counts
below it unreconcilable, so the whole subtree is reported gone
(``subtree-gone``) and the root aborts any in-flight round.  A gateway
that loses its *upstream* first fans an abort down (no member may hang
on a release that will never come), then -- supervised -- reconnects
with backoff and replays its cached hellos so a respawned coordinator
relearns the subtree without the members noticing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from repro.core import protocol as P
from repro.errors import SyscallError
from repro.resilience import RetryPolicy
from repro.kernel.process import ProgramSpec, RegionSpec
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import Sys, connect_retry, recv_frame, send_frame

__all__ = ["TreeTopology", "GATEWAY_PORT", "GATEWAY_SPEC", "make_gateway_program"]

#: Every gateway listens on the same well-known port of its own node.
GATEWAY_PORT = 7979

GATEWAY_SPEC = ProgramSpec(
    "dmtcp_gateway",
    regions=(
        RegionSpec("code", 128 * 1024, "code"),
        RegionSpec("heap", 256 * 1024, "text"),
    ),
)


@dataclass(frozen=True)
class TreeTopology:
    """Static shape of the gateway forest: pure rank arithmetic.

    ``n`` gateways with fanout ``f``; ranks 0..n-1.  Ranks < f hang
    directly off the coordinator ("top-level").  All methods are O(1);
    none materialize member lists.
    """

    n: int
    fanout: int

    def __post_init__(self):
        if self.fanout < 1:
            raise ValueError(f"fanout must be >= 1, got {self.fanout}")
        if self.n < 0:
            raise ValueError(f"n must be >= 0, got {self.n}")

    # -- shape ---------------------------------------------------------
    def parent(self, rank: int) -> Optional[int]:
        """Parent gateway rank, or None when the parent is the root."""
        self._check(rank)
        if rank < self.fanout:
            return None
        return rank // self.fanout - 1

    def children(self, rank: int) -> range:
        """Child gateway ranks of ``rank`` (clipped to n)."""
        self._check(rank)
        lo = (rank + 1) * self.fanout
        hi = (rank + 2) * self.fanout
        return range(min(lo, self.n), min(hi, self.n))

    # -- internals -----------------------------------------------------
    def _check(self, rank: int) -> None:
        if not 0 <= rank < self.n:
            raise IndexError(f"gateway rank {rank} not in [0, {self.n})")

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))


# ======================================================================
# The gateway relay program
# ======================================================================

def make_gateway_program(tracer=None):
    """Build the gateway program (registered as ``dmtcp_gateway``).

    ``tracer`` is the world tracer, used for host-side counters only --
    it never charges simulated time, so enabling the tree cannot perturb
    unrelated virtual-time measurements.
    """

    def gateway_main(sys: Sys, argv):
        parent_host = yield from sys.getenv("DMTCP_GW_PARENT_HOST")
        parent_port = int((yield from sys.getenv("DMTCP_GW_PARENT_PORT")))
        port = int((yield from sys.getenv("DMTCP_GW_PORT")))
        flush_s = float((yield from sys.getenv("DMTCP_TREE_FLUSH")) or 5e-4)
        heartbeat_s = float((yield from sys.getenv("DMTCP_GW_HEARTBEAT")) or 2.0)
        supervise = (yield from sys.getenv("DMTCP_SUPERVISE")) == "1"
        backoff = float((yield from sys.getenv("DMTCP_GW_BACKOFF")) or 0.25)
        backoff_max = float((yield from sys.getenv("DMTCP_GW_BACKOFF_MAX")) or 4.0)
        attempts = int((yield from sys.getenv("DMTCP_GW_ATTEMPTS")) or 40)
        jitter = float((yield from sys.getenv("DMTCP_GW_JITTER")) or 0.25)
        recv_timeout = float((yield from sys.getenv("DMTCP_GW_RECV_TIMEOUT")) or 8.0)
        hostname = yield from sys.gethostname()
        gw = {
            "parent": (parent_host, parent_port),
            "hostname": hostname,
            "flush_s": flush_s,
            "supervise": supervise,
            #: reconnect schedule: the shared resilience policy, seeded
            #: by this gateway's hostname so sibling gateways orphaned by
            #: the same coordinator crash decorrelate their retries
            "policy": RetryPolicy(
                base_s=backoff, max_s=backoff_max, attempts=attempts, jitter=jitter
            ),
            #: supervised: cap any single uplink recv so a *silently*
            #: dead parent (no FIN) is detected -- same defence as the
            #: star member's member_recv_timeout_s
            "recv_timeout": recv_timeout if supervise else None,
            "tracer": tracer,
            "up_fd": None,
            "up_asm": None,
            #: monotonic uplink generation; a reconnect bumps it so the
            #: superseded uplink reader thread exits
            "up_gen": 0,
            #: child fd -> {"gateway": bool} (members and child gateways)
            "children": {},
            #: (host, vpid) -> {"msg": hello, "cfd": fd}: every member
            #: hello that passed through here, for replay after an
            #: upstream reconnect and for member-gone reports
            "hellos": {},
            #: per-barrier bookkeeping, all cleared on release or abort
            "waiting": {},  # name -> set of member fds awaiting release
            "relay_children": {},  # name -> set of child-gateway fds
            "pending_m": {},  # name -> member fds arrived, not yet flushed
            "flushed_m": {},  # name -> member fds whose arrival went up
            "pending_n": {},  # name -> aggregated child-gateway count
            "flush_scheduled": False,
        }
        up_fd = yield from sys.socket()
        yield from connect_retry(sys, up_fd, parent_host, parent_port)
        gw["up_fd"], gw["up_asm"] = up_fd, FrameAssembler()
        yield from _gw_up_send(sys, gw, P.msg(P.MSG_GW_HELLO))
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, port)
        yield from sys.listen(lfd, backlog=1024)
        yield from sys.thread_create(_gw_uplink, gw, gw["up_gen"])
        if supervise:
            yield from sys.thread_create(_gw_heartbeat, gw, heartbeat_s)
        while True:
            cfd = yield from sys.accept(lfd)
            gw["children"][cfd] = {"gateway": False}
            yield from sys.thread_create(_gw_downlink, gw, cfd)

    return gateway_main


def _gw_count(gw: dict, name: str, value: float = 1) -> None:
    tracer = gw.get("tracer")
    if tracer is not None:
        tracer.count(name, value)


def _gw_up_send(sys: Sys, gw: dict, message: dict):
    """Forward one frame upstream; a dead upstream is the uplink reader's
    problem (it reconnects or aborts the subtree), so drop quietly."""
    try:
        yield from send_frame(sys, gw["up_fd"], message, P.CTL_FRAME_BYTES)
    except SyscallError:
        pass


def _gw_clear_barriers(gw: dict) -> None:
    for key in ("waiting", "relay_children", "pending_m", "flushed_m", "pending_n"):
        gw[key].clear()


def _gw_downlink(sys: Sys, gw: dict, cfd: int):
    """Serve one child: aggregate its barrier verb, forward the rest."""
    asm = FrameAssembler()
    while True:
        result = yield from recv_frame(sys, cfd, asm)
        if result is None:
            yield from _gw_child_gone(sys, gw, cfd)
            return
        message = result[0]
        kind = message["kind"]
        if kind == P.MSG_BARRIER:
            name = message["name"]
            gw["waiting"].setdefault(name, set()).add(cfd)
            gw["pending_m"].setdefault(name, set()).add(cfd)
            yield from _gw_schedule_flush(sys, gw)
        elif kind == P.MSG_BARRIER_COUNT:
            name = message["name"]
            gw["pending_n"][name] = gw["pending_n"].get(name, 0) + message["n"]
            gw["relay_children"].setdefault(name, set()).add(cfd)
            yield from _gw_schedule_flush(sys, gw)
        elif kind == P.MSG_GW_HELLO:
            # subtree shape is private: remember, don't forward
            gw["children"][cfd]["gateway"] = True
        elif kind == P.MSG_HELLO or kind == P.MSG_REREGISTER:
            # re-registrations refresh the cached identity frame, so an
            # upstream replay after a *second* failover carries the
            # member's freshest generation and checkpoint lineage
            gw["hellos"][(message["host"], message["vpid"])] = {
                "msg": message,
                "cfd": cfd,
            }
            yield from _gw_up_send(sys, gw, message)
        elif kind == P.MSG_MEMBER_GONE:
            gw["hellos"].pop((message["host"], message["vpid"]), None)
            yield from _gw_up_send(sys, gw, message)
        elif kind == P.MSG_SUBTREE_GONE:
            for host, vpid in message.get("members", ()):
                gw["hellos"].pop((host, vpid), None)
            yield from _gw_up_send(sys, gw, message)
        elif kind == P.MSG_PING or kind == P.MSG_PONG:
            pass  # liveness is the send itself
        elif kind == P.MSG_GOODBYE:
            yield from _gw_child_gone(sys, gw, cfd, goodbye=True)
            return
        else:
            # ckpt-done, ckpt-failed, restart records, future verbs: the
            # tree is transparent to everything it does not aggregate
            yield from _gw_up_send(sys, gw, message)


def _gw_schedule_flush(sys: Sys, gw: dict):
    """Coalesce arrivals: one flush fires ``flush_s`` after the first
    pending arrival, sending a single counted delta per barrier."""
    if gw["flush_scheduled"]:
        return
    gw["flush_scheduled"] = True
    yield from sys.thread_create(_gw_flush_timer, gw)


def _gw_flush_timer(sys: Sys, gw: dict):
    yield from sys.sleep(gw["flush_s"])
    gw["flush_scheduled"] = False
    for name in sorted(set(gw["pending_m"]) | set(gw["pending_n"])):
        moved = gw["pending_m"].pop(name, set())
        n = len(moved) + gw["pending_n"].pop(name, 0)
        if not n:
            continue
        if moved:
            gw["flushed_m"].setdefault(name, set()).update(moved)
        _gw_count(gw, "coord.gw_flushes")
        yield from _gw_up_send(sys, gw, P.msg(P.MSG_BARRIER_COUNT, name=name, n=n))


def _gw_release(sys: Sys, gw: dict, name: str):
    """Fan one barrier release down to everyone who contributed."""
    members = sorted(gw["waiting"].pop(name, set()))
    relays = sorted(gw["relay_children"].pop(name, set()))
    gw["pending_m"].pop(name, None)
    gw["flushed_m"].pop(name, None)
    gw["pending_n"].pop(name, None)
    release = P.msg(P.MSG_BARRIER_RELEASE, name=name)
    for fd in members + relays:
        try:
            yield from send_frame(sys, fd, release, P.CTL_FRAME_BYTES)
        except SyscallError:
            pass  # the downlink reader will notice and report the death


def _gw_fan_down(sys: Sys, gw: dict, message: dict):
    """Broadcast a verb to every child (members and child gateways)."""
    for cfd in sorted(gw["children"]):
        try:
            yield from send_frame(sys, cfd, message, P.CTL_FRAME_BYTES)
        except SyscallError:
            yield from _gw_child_gone(sys, gw, cfd)


def _gw_child_gone(sys: Sys, gw: dict, cfd: int, goodbye: bool = False):
    """A child died (or said goodbye): report precisely what was lost.

    For a member child we know exactly which barrier arrivals were
    already counted upstream (``flushed_m``), so the root can decrement
    its counts; pending arrivals are simply dropped.  For a child
    *gateway* the aggregated counts below it cannot be reconciled, so
    the whole subtree is reported gone and the root aborts any in-flight
    round.
    """
    info = gw["children"].pop(cfd, None)
    if info is None:
        return  # already handled by the heartbeat or a failed send
    if info["gateway"]:
        members = sorted(k for k, v in gw["hellos"].items() if v["cfd"] == cfd)
        for key in members:
            gw["hellos"].pop(key, None)
        for fds in gw["relay_children"].values():
            fds.discard(cfd)
        _gw_count(gw, "coord.gw_subtrees_lost")
        yield from _gw_up_send(
            sys, gw, P.msg(P.MSG_SUBTREE_GONE, members=[list(k) for k in members])
        )
        return
    arrived = sorted(
        name for name, fds in gw["flushed_m"].items() if cfd in fds
    )
    for table in (gw["waiting"], gw["pending_m"], gw["flushed_m"]):
        for fds in table.values():
            fds.discard(cfd)
    key = next((k for k, v in gw["hellos"].items() if v["cfd"] == cfd), None)
    if key is None:
        return  # never said hello; the root does not know it exists
    gw["hellos"].pop(key, None)
    _gw_count(gw, "coord.gw_members_lost")
    yield from _gw_up_send(
        sys,
        gw,
        P.msg(
            P.MSG_MEMBER_GONE,
            host=key[0],
            vpid=key[1],
            arrived=arrived,
            goodbye=goodbye,
        ),
    )


def _gw_heartbeat(sys: Sys, gw: dict, interval: float):
    """Supervised mode: probe the children so silent subtree deaths
    surface here instead of all at the root."""
    while True:
        yield from sys.sleep(interval)
        for cfd in sorted(gw["children"]):
            try:
                yield from send_frame(sys, cfd, P.msg(P.MSG_PING), P.CTL_FRAME_BYTES)
            except SyscallError:
                yield from _gw_child_gone(sys, gw, cfd)


def _gw_uplink(sys: Sys, gw: dict, gen: int):
    """Fan coordinator verbs down; survive an upstream death."""
    while True:
        if gw["up_gen"] != gen:
            return  # superseded by a reconnect
        try:
            result = yield from recv_frame(
                sys, gw["up_fd"], gw["up_asm"], timeout=gw["recv_timeout"]
            )
        except SyscallError as err:
            if err.errno != "ETIMEDOUT":
                raise
            # quiet uplink: probe it -- a live parent accepts the bytes,
            # a silently-crashed one (no FIN) fails the send
            try:
                yield from send_frame(
                    sys, gw["up_fd"], P.msg(P.MSG_PING), P.CTL_FRAME_BYTES
                )
                continue
            except SyscallError:
                yield from _gw_upstream_lost(sys, gw, gen)
                return
        if result is None:
            yield from _gw_upstream_lost(sys, gw, gen)
            return
        message = result[0]
        kind = message["kind"]
        if kind == P.MSG_BARRIER_RELEASE:
            yield from _gw_release(sys, gw, message["name"])
        elif kind == P.MSG_CKPT_ABORT:
            # wake every waiter before clearing: nobody may be stranded
            yield from _gw_fan_down(sys, gw, message)
            _gw_clear_barriers(gw)
        elif kind == P.MSG_CHECKPOINT or kind == "die":
            yield from _gw_fan_down(sys, gw, message)
        elif kind == P.MSG_PING or kind == P.MSG_PONG:
            pass  # root probing us; the accept of the send is the answer
        # anything else is not for the subtree; ignore


def _gw_upstream_lost(sys: Sys, gw: dict, gen: int):
    """The parent (or the root) died.  Abort the subtree's waiters so no
    process hangs on a release that will never come, then -- in
    supervised mode -- reconnect with backoff and replay the cached
    hellos so the replacement coordinator relearns the membership."""
    if gw["up_gen"] != gen:
        return
    gw["up_gen"] += 1
    abort = P.msg(P.MSG_CKPT_ABORT, reason="gateway lost its coordinator link")
    yield from _gw_fan_down(sys, gw, abort)
    _gw_clear_barriers(gw)
    if not gw["supervise"]:
        yield from sys.exit(0)  # unsupervised: computation is over
    host, port = gw["parent"]
    for delay in gw["policy"].delays(gw["hostname"], "gw-reconnect"):
        yield from sys.sleep(delay)
        fd = yield from sys.socket()
        try:
            yield from sys.connect(fd, host, port)
        except SyscallError:
            try:
                yield from sys.close(fd)
            except SyscallError:
                pass
            continue
        gw["up_fd"], gw["up_asm"] = fd, FrameAssembler()
        yield from _gw_up_send(sys, gw, P.msg(P.MSG_GW_HELLO))
        # replay the cached identity frames as re-registrations: the
        # replacement coordinator rebuilds the subtree's membership
        # (generation + lineage included) without the members noticing
        for _key, entry in sorted(gw["hellos"].items()):
            yield from _gw_up_send(
                sys, gw, dict(entry["msg"], kind=P.MSG_REREGISTER)
            )
        _gw_count(gw, "coord.gw_reconnects")
        yield from sys.thread_create(_gw_uplink, gw, gw["up_gen"])
        return
    yield from sys.exit(1)  # upstream never came back
