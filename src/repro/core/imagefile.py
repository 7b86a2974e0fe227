"""Checkpoint image format.

A :class:`CheckpointImage` is the payload MTCP writes into the simulated
filesystem.  It captures everything a real image holds -- memory region
table, thread set, FD table, connection table, drained socket data, pid
maps, terminal state -- with one substitution documented in DESIGN.md:
thread program state is carried as retained task continuations (Python
generators are not serializable), which is exactly the machine-level part
a pure-Python reproduction cannot capture.

Workloads that implement :class:`SerializableState` additionally allow the
image to be exported to a *real* host file and revived in a fresh
simulation (the paper's cluster-to-laptop use case, Section 1 item 6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.core.connection import ConnectionId, ConnectionInfo


@dataclass
class RegionImage:
    """One row of the memory-region table; ``size`` is the full mapping
    size, which restart rebuilds the address space from."""

    kind: str
    size: int
    profile: str
    path: Optional[str] = None
    shared: bool = False
    #: Original region id, restored verbatim: MTCP maps memory back at its
    #: original addresses, so the app's held region handles stay valid.
    region_id: Optional[int] = None
    #: Content-addressed store (DMTCP_STORE=1): the region's content key,
    #: chunk generations, and chunk manifest rows ``[digest, nbytes,
    #: profile]``.  None on the monolithic path.
    content_key: Optional[str] = None
    chunk_gens: Optional[dict] = None
    chunks: Optional[list] = None


@dataclass
class ThreadImage:
    """A user thread: name plus its retained continuation handle."""

    name: str
    continuation: Any  # repro.sim.tasks.Task (frozen)


@dataclass
class FdImage:
    """One slot of the FD table.

    ``kind`` selects which fields are meaningful:

    * ``file``: path, offset, flags
    * ``socket``: conn_key (drained data and re-connection via discovery)
    * ``listener``: bound address/path
    * ``pty``: pty_name + side
    """

    fd: int
    kind: str
    cloexec: bool = False
    path: Optional[str] = None
    offset: int = 0
    flags: str = "r"
    conn_key: Optional[str] = None
    #: which side of the connection this fd is ("connect"/"accept"/
    #: "pair-a"/"pair-b"/"pipe-r"/"pipe-w"/"pty-m"/"pty-s")
    role: Optional[str] = None
    bound_port: Optional[int] = None
    bound_path: Optional[str] = None
    pty_name: Optional[str] = None
    pty_side: Optional[str] = None
    #: terminal attributes at checkpoint time (pty fds only)
    termios: Optional[dict] = None
    owner_vpid: int = 0  # saved F_SETOWN owner (restored after refill)
    #: the remote side was already closed at checkpoint time: restore as
    #: a half-open socket delivering the drained residue, then EOF
    peer_dead: bool = False
    #: identity of the shared open-file description at checkpoint time;
    #: fds (possibly in different processes) with equal keys shared one
    #: description and must share one again after restart
    desc_key: int = 0


@dataclass
class CheckpointImage:
    """Everything needed to rebuild one process."""

    ckpt_id: int
    hostname: str
    vpid: int
    program: str
    argv: list[str]
    env: dict[str, str]
    regions: list[RegionImage]
    threads: list[ThreadImage]
    fds: list[FdImage]
    connections: dict[str, ConnectionInfo]
    #: conn_key -> list of drained chunks for endpoints this process led.
    drained: dict[str, list] = field(default_factory=dict)
    #: Virtual-pid bookkeeping (see repro.core.pidvirt).
    pid_map: dict[int, int] = field(default_factory=dict)
    parent_vpid: int = 0
    sid_vpid: int = 0
    ctty_name: Optional[str] = None
    termios: Optional[dict] = None
    signal_handlers: dict[int, str] = field(default_factory=dict)
    #: The process's WrappedSys instance, rebound at restore.
    sys_ref: Any = None
    #: Uncompressed logical size and on-disk (possibly compressed) size.
    image_bytes: int = 0
    stored_bytes: int = 0
    compressed: bool = True
    #: gzip worker streams used to write this image (restart mirrors it).
    gzip_workers: int = 1
    #: Optional serializable app state (SerializableState protocol).
    app_state: Any = None

    def payload_regions(self) -> list[tuple[int, str]]:
        """``(payload_bytes, profile)`` per region: what this image stores."""
        return [(r.size, r.profile) for r in self.regions]

    @property
    def store_refs(self) -> Optional[list]:
        """Flat chunk-reference list when this is a store manifest image:
        ``[[digest, nbytes, profile], ...]`` across all regions, in region
        order; None when the image carries a monolithic payload."""
        if not self.regions or self.regions[0].chunks is None:
            return None
        refs: list = []
        for region in self.regions:
            refs.extend(region.chunks or [])
        return refs

    @property
    def conn_keys(self) -> list[str]:
        """All connection keys recorded in this image."""
        return list(self.connections)


def conn_key(cid: ConnectionId) -> str:
    """Stable dictionary key for a connection id."""
    return f"{cid.hostid}:{cid.pid}:{cid.timestamp:.9f}:{cid.conn_no}"


@dataclass
class RestartPlan:
    """The generated dmtcp_restart_script.sh, as structured data.

    Section 3: "a shell script, dmtcp_restart_script.sh, is created
    containing all the commands needed to restart the distributed
    computation ... one (dmtcp_restart) for each node."
    """

    ckpt_id: int
    coordinator_host: str
    coordinator_port: int
    #: original hostname -> list of image paths on that host
    images_by_host: dict[str, list[str]] = field(default_factory=dict)

    @property
    def total_processes(self) -> int:
        """Number of processes the whole restart will recreate."""
        return sum(len(v) for v in self.images_by_host.values())

    def render_script(self) -> str:
        """Render as the shell script a user would see."""
        lines = [
            "#!/bin/sh",
            f"# dmtcp_restart_script.sh (checkpoint {self.ckpt_id})",
            f"export DMTCP_COORD_HOST={self.coordinator_host}",
            f"export DMTCP_COORD_PORT={self.coordinator_port}",
        ]
        for host, paths in sorted(self.images_by_host.items()):
            quoted = " ".join(paths)
            lines.append(f"ssh {host} dmtcp_restart {quoted} &")
        lines.append("wait")
        return "\n".join(lines)
