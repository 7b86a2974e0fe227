"""Wire protocol between managers, the coordinator, and restart processes.

Messages are small dicts sent as frames over ordinary simulated TCP
sockets -- the coordinator is just another process.  The only global
primitive is the cluster-wide barrier (Section 4.1); at restart the same
coordinator doubles as the discovery service (Section 4.4).
"""

from __future__ import annotations

#: The six global barriers of the checkpoint algorithm (Section 4.3) plus
#: the pseudo-barrier processes wait at during normal execution.
BARRIER_WAIT = "wait-for-checkpoint"  # special: released at ckpt request
BARRIER_SUSPENDED = "suspended"
BARRIER_ELECTED = "election-completed"
BARRIER_DRAINED = "drained"
BARRIER_CHECKPOINTED = "checkpointed"
BARRIER_REFILLED = "refilled"
BARRIER_RESUME = "resume"

CHECKPOINT_BARRIERS = [
    BARRIER_SUSPENDED,
    BARRIER_ELECTED,
    BARRIER_DRAINED,
    BARRIER_CHECKPOINTED,
    BARRIER_REFILLED,
    BARRIER_RESUME,
]

#: Restart-side barriers: sockets rebuilt, then rejoin the checkpoint
#: algorithm at BARRIER_CHECKPOINTED (Section 4.4 step 5).
BARRIER_RESTART_SOCKETS = "restart-sockets-rebuilt"

# manager -> coordinator
MSG_HELLO = "hello"  # {host, pid, vpid, program}
MSG_BARRIER = "barrier"  # {name}; the Barrier-6 arrival adds {record, image_path}
MSG_RESTART_DONE = "restart-done"  # {record} -- a restored member resumed
MSG_GOODBYE = "goodbye"
MSG_CKPT_FAILED = "ckpt-failed"  # {reason} -- member hit ENOSPC/abort locally

# manager/gateway -> respawned coordinator (resilience layer, section 15):
# like hello, but carries the member's restart generation and checkpoint
# lineage so a fresh CoordinatorState can rebuild membership -- and decide
# whether an interrupted checkpoint must be retried -- purely from its
# members, the paper's "coordinator is stateless" property made load-bearing.
MSG_REREGISTER = "reregister"  # {host, pid, vpid, program, gen, ckpt_id}

# coordinator -> manager
MSG_CHECKPOINT = "do-checkpoint"  # {ckpt_id, forked}
MSG_BARRIER_RELEASE = "barrier-release"  # {name}
MSG_CKPT_ABORT = "ckpt-abort"  # {reason} -- roll back to RUNNING

# liveness (supervision layer; either direction)
MSG_PING = "ping"
MSG_PONG = "pong"

# command client -> coordinator
MSG_COMMAND = "command"  # {cmd: checkpoint|status|kill|interval, arg}

# restart <-> coordinator (discovery service)
MSG_RESTART_HELLO = "restart-hello"  # {host, n_processes}
MSG_ADVERTISE = "advertise"  # {conn_id_key, host, port}
MSG_ADVERTISE_BCAST = "advertise-bcast"  # coordinator -> restarters

# propagation-tree gateways (repro.coord.tree; Section 6 future work).
# Gateways aggregate the barrier verb and forward every other verb, so
# the root sees O(fanout) connections however many processes exist.
MSG_GW_HELLO = "gw-hello"  # gateway -> parent: this connection is a subtree
MSG_BARRIER_COUNT = "barrier-count"  # gateway -> parent: {name, n[, reports]}
MSG_MEMBER_GONE = "member-gone"  # gateway -> root: {host, vpid, arrived, goodbye}
MSG_SUBTREE_GONE = "subtree-gone"  # gateway -> root: {members: [[host, vpid]..]}
#: gateway -> parent: done reports of members a count counted, when they
#: are too many to ride in it (see SMALL_FRAME_BYTES)
MSG_CKPT_REPORT = "ckpt-report"  # {reports: [(record, image_path), ..]}

# content-addressed store (repro.store): manifest/lease exchange rides
# a writer's own coordinator connection during barrier 5.
MSG_STORE_MANIFEST = "store-manifest"  # writer -> coord: {ckpt_id, host, vpid, refs}
MSG_STORE_LEASE = "store-lease"  # coord -> writer: {need: [[index, target], ...]}
MSG_STORE_COMMIT = "store-commit"  # writer -> coord: {host, digests}
MSG_STORE_OK = "store-ok"

#: Modeled size of a control frame on the wire, bytes.
CTL_FRAME_BYTES = 128

#: A done report costs a control frame's bytes: a member's own arrival
#: carries one in its frame.  A gateway's count carries the reports of
#: the arrivals it counts while the frame, header included, fits this
#: size -- the network's fixed-cost path for small transfers
#: (``NetworkSpec.small_transfer_bytes``); past it they follow the count
#: in MSG_CKPT_REPORT frames that fit it.
SMALL_FRAME_BYTES = 1024

#: Modeled wire/manifest size of one chunk reference (digest + length +
#: profile tag); manifest image files cost this per chunk.
STORE_REF_BYTES = 48


def msg(kind: str, **fields) -> dict:
    """Build a protocol message."""
    m = {"kind": kind}
    m.update(fields)
    return m
