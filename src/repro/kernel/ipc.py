"""Pipes and pseudo-terminals.

Pipes are unidirectional stream pairs.  DMTCP's wrapper *promotes* pipes
to socketpairs (Section 4.5) because its drain strategy needs to send
drained data back through the channel; the kernel still offers honest
unidirectional pipes so the un-wrapped behaviour exists to be promoted.

A pty is a master/slave pair with shared terminal attributes (termios)
and a slave name (``/dev/pts/N``); processes can acquire it as their
controlling terminal.  The paper lists "ptys, terminal modes, ownership
of controlling terminals" among the artifacts DMTCP restores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SyscallError
from repro.kernel.sockets import SocketEndpoint, connect_endpoints

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node
    from repro.kernel.world import World


def make_pipe(world: "World", node: "Node") -> tuple[SocketEndpoint, SocketEndpoint]:
    """Return (read_end, write_end) of a unidirectional pipe."""
    r = SocketEndpoint(world, node, domain="pipe")
    w = SocketEndpoint(world, node, domain="pipe")
    r.origin = "pipe-r"
    w.origin = "pipe-w"
    connect_endpoints(r, w)
    return r, w


def check_pipe_direction(endpoint: SocketEndpoint, op: str) -> None:
    """Pipes: the read end cannot send; the write end cannot recv."""
    if endpoint.domain != "pipe":
        return
    if op == "send" and endpoint.origin == "pipe-r":
        raise SyscallError("EBADF", "write on read end of pipe")
    if op == "recv" and endpoint.origin == "pipe-w":
        raise SyscallError("EBADF", "read on write end of pipe")


DEFAULT_TERMIOS = {
    "echo": 1,
    "icanon": 1,
    "isig": 1,
    "rows": 24,
    "cols": 80,
}


class PtyPair:
    """A pseudo-terminal: master/slave endpoints + shared attributes."""

    def __init__(self, world: "World", node: "Node"):
        self.index = next(world.pty_ids)
        self.node = node
        self.name = f"/dev/pts/{self.index}"
        self.master = SocketEndpoint(world, node, domain="pty")
        self.slave = SocketEndpoint(world, node, domain="pty")
        self.master.origin = "pty-m"
        self.slave.origin = "pty-s"
        connect_endpoints(self.master, self.slave)
        self.termios = dict(DEFAULT_TERMIOS)
        #: Session that owns this terminal (set by setctty).
        self.session_sid: int | None = None
        # cross-links so wrappers can find the pair from either end
        self.master.pty = self  # type: ignore[attr-defined]
        self.slave.pty = self  # type: ignore[attr-defined]

    def __repr__(self) -> str:  # pragma: no cover
        return f"<PtyPair {self.name} on {self.node.hostname}>"
