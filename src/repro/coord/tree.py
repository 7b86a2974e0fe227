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
Upstream, a gateway aggregates the barrier verb into one counted
``barrier-count`` delta -- exactly the distributed barrier the paper's
Section 6 proposes -- and forwards every identity-bearing verb (hello,
restart-done, ckpt-failed, ...) verbatim, caching each hello it relays.
The root therefore keys tree members by ``(host, vpid)`` rather than by
connection, and no envelope or routing layer exists.

A member's done report rides its ``refilled`` arrival, and the count
that counts the arrival carries the report up.  A report costs a
control frame's bytes, so while the reports fit a small frame
(``P.SMALL_FRAME_BYTES``, ``REPORTS_PER_FRAME`` reports) they ride in
the count; past that the count goes up bare and the reports follow it
in ``ckpt-report`` frames of that size, which a parent holds until its
own count has gone up.  Nothing goes in front of a count: report frames
sent ahead of it, or a count grown past the small-frame size, delay the
barrier.

A barrier's count goes up the moment every child with a registered
member at or below it has reported (the reduction-tree rule: a count
of reporting children against a count of registered ones, O(1) per
arrival).  The ``tree_flush_s`` window, opened by a barrier's first
arrival, bounds stragglers: a child that registered after the round
began, a slow child, or a child whose death is not yet seen gets the
others' arrivals forwarded when the window closes.  At a top-level
gateway it also caps the frames into the root, the one dispatcher the
whole tree shares: at most one count per barrier goes up on completion
within an open window, and arrivals behind it ride the window's close.
That matters on restart, where each restored member registers just
before it arrives, so a subtree is "whole" after every arrival and a
bare count rule sends the root one frame per member (3 911 instead of
446 on a 4096-member restart; at 32k the root's queue of them delayed
the release).  A gateway's own fan-in is bounded by its fanout and its
node's members, so below the top level every completion goes up at
once.  A barrier therefore costs ``depth x hop`` when the subtree is
whole, and at most one window per level when not.

Downstream there are only broadcasts (do-checkpoint, abort, die: one
copy per gateway, fanned to every child) and per-name barrier releases
(each gateway releases exactly the children that contributed).  Both
reach child gateways before local members: the deeper subtree is the
one the next barrier waits for.

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
from repro.kernel.streams import FRAME_HEADER_BYTES, FrameAssembler
from repro.kernel.syscalls import Sys, connect_retry, recv_frame, send_frame

__all__ = ["TreeTopology", "GATEWAY_PORT", "GATEWAY_SPEC", "make_gateway_program"]

#: Every gateway listens on the same well-known port of its own node.
GATEWAY_PORT = 7979

#: Done reports per upstream frame: a report costs a control frame's
#: bytes, and a frame, framing header included, stays small (see
#: ``P.SMALL_FRAME_BYTES``): 7.
REPORTS_PER_FRAME = (P.SMALL_FRAME_BYTES - FRAME_HEADER_BYTES) // P.CTL_FRAME_BYTES

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
            #: a top-level gateway feeds the root, the one dispatcher the
            #: whole tree shares: only it caps its counts at one a window
            "root_facing": parent_port != GATEWAY_PORT,
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
            #: child fd -> members registered at or below it; a barrier
            #: is complete once len(this) children have reported
            "registered": {},
            #: per-barrier bookkeeping, all cleared on release or abort
            "waiting": {},  # name -> set of member fds awaiting release
            "relay_children": {},  # name -> set of child-gateway fds
            "pending_m": {},  # name -> member fds arrived, not yet flushed
            "flushed_m": {},  # name -> member fds whose arrival went up
            "pending_n": {},  # name -> aggregated child-gateway count
            #: done reports (record, image path) that go up with the
            #: next ``refilled`` count: own members' and child counts'
            "reports": [],
            #: member fds whose ``refilled`` arrival carried a report
            "reported": set(),
            #: name -> sequence number of its open window, and (root-
            #: facing only) the names whose count already went up in it
            "windows": {},
            "window_seq": 0,
            "sent": set(),
        }
        up_fd = yield from sys.socket()
        yield from connect_retry(sys, up_fd, parent_host, parent_port)
        gw["up_fd"], gw["up_asm"] = up_fd, FrameAssembler()
        yield from _gw_up_send(sys, gw, P.msg(P.MSG_GW_HELLO))
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, port)
        yield from sys.listen(lfd, backlog=1024)
        yield from sys.thread_create(_gw_uplink, gw, gw["up_gen"], detached=True)
        if supervise:
            yield from sys.thread_create(_gw_heartbeat, gw, heartbeat_s)
        while True:
            cfd = yield from sys.accept(lfd)
            gw["children"][cfd] = {"gateway": False}
            yield from sys.thread_create(_gw_downlink, gw, cfd, detached=True)

    return gateway_main


def _gw_count(gw: dict, name: str, value: float = 1) -> None:
    tracer = gw.get("tracer")
    if tracer is not None:
        tracer.count(name, value)


def _gw_up_send(sys: Sys, gw: dict, message: dict):
    """Forward one frame upstream (a control frame's bytes per done
    report it carries, at least one); a dead upstream is the uplink
    reader's problem (it reconnects or aborts the subtree), so drop
    quietly."""
    nbytes = P.CTL_FRAME_BYTES * max(1, len(message.get("reports", ())))
    try:
        yield from send_frame(sys, gw["up_fd"], message, nbytes)
    except SyscallError:
        pass


def _gw_clear_barriers(gw: dict) -> None:
    for key in (
        "waiting", "relay_children", "pending_m", "flushed_m", "pending_n",
        "windows", "sent", "reports", "reported",
    ):
        gw[key].clear()


def _gw_register(gw: dict, message: dict, cfd: int) -> None:
    """Cache a member's identity frame; count it against its child."""
    key = (message["host"], message["vpid"])
    old = gw["hellos"].get(key)
    if old is None or old["cfd"] != cfd:
        _gw_forget(gw, key)  # a restored member's hello on a new connection
        gw["registered"][cfd] = gw["registered"].get(cfd, 0) + 1
    gw["hellos"][key] = {"msg": message, "cfd": cfd}


def _gw_forget(gw: dict, key: tuple) -> None:
    """Drop a member's cached identity and its count against its child."""
    entry = gw["hellos"].pop(key, None)
    if entry is None:
        return
    cfd = entry["cfd"]
    left = gw["registered"][cfd] - 1
    if left:
        gw["registered"][cfd] = left
    else:
        del gw["registered"][cfd]


def _gw_downlink(sys: Sys, gw: dict, cfd: int):
    """Serve one child: aggregate its barrier verb, forward the rest.
    The child's descriptor is closed once its departure is reported."""
    asm = FrameAssembler()
    while True:
        result = yield from recv_frame(sys, cfd, asm)
        if result is None:
            yield from _gw_child_gone(sys, gw, cfd)
            break
        message = result[0]
        kind = message["kind"]
        if kind == P.MSG_BARRIER:
            name = message["name"]
            if "record" in message:
                gw["reports"].append((message["record"], message["image_path"]))
                gw["reported"].add(cfd)
            gw["waiting"].setdefault(name, set()).add(cfd)
            gw["pending_m"].setdefault(name, set()).add(cfd)
            yield from _gw_arrived(sys, gw, name)
        elif kind == P.MSG_BARRIER_COUNT:
            name = message["name"]
            gw["reports"].extend(message.get("reports", ()))
            gw["pending_n"][name] = gw["pending_n"].get(name, 0) + message["n"]
            gw["relay_children"].setdefault(name, set()).add(cfd)
            yield from _gw_arrived(sys, gw, name)
        elif kind == P.MSG_GW_HELLO:
            # subtree shape is private: remember, don't forward
            gw["children"][cfd]["gateway"] = True
        elif kind == P.MSG_HELLO or kind == P.MSG_REREGISTER:
            # re-registrations refresh the cached identity frame, so an
            # upstream replay after a *second* failover carries the
            # member's freshest generation and checkpoint lineage
            _gw_register(gw, message, cfd)
            yield from _gw_up_send(sys, gw, message)
        elif kind == P.MSG_MEMBER_GONE:
            _gw_forget(gw, (message["host"], message["vpid"]))
            yield from _gw_up_send(sys, gw, message)
            yield from _gw_recheck(sys, gw)
        elif kind == P.MSG_SUBTREE_GONE:
            for host, vpid in message.get("members", ()):
                _gw_forget(gw, (host, vpid))
            yield from _gw_up_send(sys, gw, message)
        elif kind == P.MSG_CKPT_REPORT:
            # a child's reports follow its count: they go up behind ours,
            # now if the child's count already went up in it
            gw["reports"].extend(message["reports"])
            name = P.BARRIER_REFILLED
            if not (gw["pending_m"].get(name) or gw["pending_n"].get(name)):
                yield from _gw_flush_reports(sys, gw)
        elif kind == P.MSG_PING or kind == P.MSG_PONG:
            pass  # liveness is the send itself
        elif kind == P.MSG_GOODBYE:
            yield from _gw_child_gone(sys, gw, cfd, goodbye=True)
            break
        else:
            # ckpt-report, restart-done, ckpt-failed, future verbs: the
            # tree is transparent to everything it does not aggregate
            yield from _gw_up_send(sys, gw, message)
    yield from sys.close(cfd)


def _gw_complete(gw: dict, name: str) -> bool:
    """Has every child with a registered member reported for ``name``?"""
    reported = len(gw["waiting"].get(name, ())) + len(
        gw["relay_children"].get(name, ())
    )
    return reported >= len(gw["registered"])


def _gw_arrived(sys: Sys, gw: dict, name: str):
    """An arrival landed: forward the count now if the subtree is whole
    (and, root-facing, no count for ``name`` went up in the open
    window); otherwise it waits for the window, which opens now if none
    is."""
    if _gw_complete(gw, name) and name not in gw["sent"]:
        yield from _gw_flush(sys, gw, name, complete=True)
    if name not in gw["windows"]:
        gw["window_seq"] += 1
        gw["windows"][name] = gw["window_seq"]
        yield from sys.thread_create(
            _gw_window, gw, name, gw["window_seq"], detached=True
        )


def _gw_recheck(sys: Sys, gw: dict):
    """A child left: any barrier it was holding back may be whole now."""
    for name in sorted(set(gw["pending_m"]) | set(gw["pending_n"])):
        if _gw_complete(gw, name) and name not in gw["sent"]:
            yield from _gw_flush(sys, gw, name, complete=True)


def _gw_window(sys: Sys, gw: dict, name: str, seq: int):
    """Close the window ``flush_s`` after it opened and forward what
    collected in it (stragglers, or arrivals behind a count that already
    went up), unless the release or an abort closed it first."""
    yield from sys.sleep(gw["flush_s"])
    if gw["windows"].get(name) == seq:
        del gw["windows"][name]
        gw["sent"].discard(name)
        yield from _gw_flush(sys, gw, name, complete=False)


def _gw_flush(sys: Sys, gw: dict, name: str, complete: bool):
    """Send one barrier's pending arrivals upstream as a single count."""
    moved = gw["pending_m"].pop(name, set())
    n = len(moved) + gw["pending_n"].pop(name, 0)
    if not n:
        return
    if moved:
        gw["flushed_m"].setdefault(name, set()).update(moved)
    if complete and gw["root_facing"]:
        gw["sent"].add(name)
    _gw_count(
        gw, "coord.gw_flushes_complete" if complete else "coord.gw_flushes_window"
    )
    # the done reports of the arrivals counted here ride the count while
    # they fit a small frame, and follow it otherwise
    count = P.msg(P.MSG_BARRIER_COUNT, name=name, n=n)
    if 0 < len(gw["reports"]) <= REPORTS_PER_FRAME:
        count["reports"], gw["reports"] = gw["reports"], []
    yield from _gw_up_send(sys, gw, count)
    yield from _gw_flush_reports(sys, gw)


def _gw_flush_reports(sys: Sys, gw: dict):
    """Send the held done reports upstream, a small frame's worth each."""
    reports, gw["reports"] = gw["reports"], []
    for i in range(0, len(reports), REPORTS_PER_FRAME):
        yield from _gw_up_send(
            sys, gw, P.msg(P.MSG_CKPT_REPORT, reports=reports[i:i + REPORTS_PER_FRAME])
        )


def _gw_release(sys: Sys, gw: dict, name: str):
    """Fan one barrier release down to everyone who contributed, child
    gateways first: their subtrees are the deeper ones."""
    members = sorted(gw["waiting"].pop(name, set()))
    relays = sorted(gw["relay_children"].pop(name, set()))
    for key in ("pending_m", "flushed_m", "pending_n", "windows"):
        gw[key].pop(name, None)
    gw["sent"].discard(name)
    if name == P.BARRIER_REFILLED:
        gw["reported"].clear()
    release = P.msg(P.MSG_BARRIER_RELEASE, name=name)
    for fd in relays + members:
        try:
            yield from send_frame(sys, fd, release, P.CTL_FRAME_BYTES)
        except SyscallError:
            pass  # the downlink reader will notice and report the death


def _gw_fan_down(sys: Sys, gw: dict, message: dict):
    """Broadcast a verb to every child, child gateways before members."""
    children = gw["children"]
    for cfd in sorted(children, key=lambda fd: (not children[fd]["gateway"], fd)):
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
        # no completion re-check: the root aborts the round on subtree-gone
        members = sorted(k for k, v in gw["hellos"].items() if v["cfd"] == cfd)
        for key in members:
            _gw_forget(gw, key)
        for fds in gw["relay_children"].values():
            fds.discard(cfd)
        _gw_count(gw, "coord.gw_subtrees_lost")
        yield from _gw_up_send(
            sys, gw, P.msg(P.MSG_SUBTREE_GONE, members=[list(k) for k in members])
        )
        return
    if cfd in gw["reported"]:
        # its done report is in: the image is committed, so its
        # `refilled` arrival stands and its exit is expected
        arrived, goodbye = [], True
        for fds in gw["waiting"].values():
            fds.discard(cfd)
    else:
        arrived = sorted(
            name for name, fds in gw["flushed_m"].items() if cfd in fds
        )
        for table in (gw["waiting"], gw["pending_m"], gw["flushed_m"]):
            for fds in table.values():
                fds.discard(cfd)
    key = next((k for k, v in gw["hellos"].items() if v["cfd"] == cfd), None)
    if key is None:
        return  # never said hello; the root does not know it exists
    _gw_forget(gw, key)
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
    yield from _gw_recheck(sys, gw)


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
        yield from sys.thread_create(_gw_uplink, gw, gw["up_gen"], detached=True)
        return
    yield from sys.exit(1)  # upstream never came back
