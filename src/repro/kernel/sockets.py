"""TCP/IP and UNIX-domain sockets with bounded kernel buffers.

The model keeps the properties DMTCP's drain/refill protocol depends on:

* data can be *in flight* (reserved in the receiver's buffer but not yet
  readable) while user threads are suspended -- the kernel keeps moving
  it, which is why the paper's leaders must flush with a token and drain
  until they see it;
* receive buffers are bounded, so senders block when the peer is slow;
* descriptions are shared across fork/dup2, so several processes can own
  one connection (the reason for leader election);
* endpoints carry enough metadata (domain, listener-ness, bound address,
  socket options) for the DMTCP wrappers to rebuild them at restart.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SyscallError
from repro.kernel.process import Description
from repro.kernel.streams import ByteBuffer, Chunk
from repro.sim.tasks import Future

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.node import Node
    from repro.kernel.world import World


class SocketEndpoint(Description):
    """One end of a (possibly not-yet-connected) stream socket."""

    def __init__(self, world: "World", node: "Node", domain: str = "inet"):
        super().__init__()
        self.world = world
        self.node = node
        self.domain = domain  # inet | unix | pair | pipe | pty
        self.inode = next(world.inodes)
        self.local_addr: Optional[tuple[str, int]] = None
        self.local_path: Optional[str] = None  # unix domain
        self.peer: Optional[SocketEndpoint] = None
        self.rx = ByteBuffer(world.spec.network.socket_buffer_bytes, f"rx:{self.inode}")
        self.connected = False
        self.closed = False
        self.options: dict[str, int] = {}
        # FIFO delivery: transfers can overtake each other on the fabric
        # (a small chunk finishing before a big one), but TCP never
        # reorders, and DMTCP's drain token relies on that
        self._tx_seq = 0
        self._rx_next = 0
        self._rx_pending: dict[int, Chunk] = {}
        #: How this endpoint came to be, for the DMTCP connection table:
        #: "connect" | "accept" | "pair" | "pipe-r" | "pipe-w" | "pty-m" | "pty-s"
        self.origin: str = ""

    # ------------------------------------------------------------------
    @property
    def peer_hostname(self) -> Optional[str]:
        """Hostname of the remote side, if connected."""
        return self.peer.node.hostname if self.peer else None

    def set_buffer_size(self, nbytes: int) -> None:
        """SO_SNDBUF/SO_RCVBUF: replace the receive queue capacity."""
        self.rx.capacity = max(int(nbytes), 1)

    def on_last_close(self) -> None:
        """Last fd closed: tear the connection down."""
        self.close_endpoint()

    def close_endpoint(self) -> None:
        """Half-close towards the peer (FIN after data in flight lands).

        The second end to close unlinks the pair: no descriptor holds
        either end any more, and a linked pair would be a reference cycle
        per connection (DESIGN.md §8).
        """
        if self.closed:
            return
        self.closed = True
        peer = self.peer
        if peer is not None and peer.closed:
            self.peer = peer.peer = None
        elif peer is not None:
            fin = getattr(peer, "fabric_fin", None)
            if fin is not None:
                # cross-shard peer: the FIN becomes a fabric message whose
                # arrival timestamp carries the propagation delay
                fin()
            else:
                # FIN after one propagation delay
                delay = 0.0 if peer.node is self.node else self.world.spec.network.latency_s
                self.world.engine.call_after(delay, peer.rx.set_eof)
        self.rx.cancel_waiters()

    def __repr__(self) -> str:  # pragma: no cover
        state = "closed" if self.closed else ("connected" if self.connected else "raw")
        return f"<Socket inode={self.inode} {self.domain} {state} on {self.node.hostname}>"


class ListenerSocket(Description):
    """A bound, listening socket with a backlog of established peers."""

    def __init__(self, world: "World", node: "Node", domain: str = "inet"):
        super().__init__()
        self.world = world
        self.node = node
        self.domain = domain
        self.inode = next(world.inodes)
        self.addr: Optional[tuple[str, int]] = None
        self.path: Optional[str] = None
        self.backlog: list[SocketEndpoint] = []
        self._accept_waiters: list = []  # Futures
        self.closed = False
        self.options: dict[str, int] = {}

    def push_established(self, server_end: SocketEndpoint) -> None:
        """A SYN completed: queue the established server-side endpoint."""
        self.backlog.append(server_end)
        waiters, self._accept_waiters = self._accept_waiters, []
        for fut in waiters:
            fut.resolve(None)

    def wait_backlog(self):
        """Future resolving when the backlog becomes non-empty."""
        from repro.sim.tasks import Future

        fut = Future(f"accept:{self.inode}")
        if self.backlog:
            fut.resolve(None)
        else:
            self._accept_waiters.append(fut)
        return fut

    def on_last_close(self) -> None:
        """Listener fully closed: free the port, reset the backlog."""
        self.closed = True
        if self.addr is not None:
            self.world.release_port(self.node, self.addr[1])
        if self.path is not None:
            self.world.release_unix_path(self.node, self.path)
        # connections sitting in the backlog were never accepted: reset
        # them so the connecting peers see EOF instead of hanging forever
        backlog, self.backlog = self.backlog, []
        for ep in backlog:
            ep.close_endpoint()

    def __repr__(self) -> str:  # pragma: no cover
        where = self.addr or self.path
        return f"<Listener inode={self.inode} {where} on {self.node.hostname}>"


def connect_endpoints(a: SocketEndpoint, b: SocketEndpoint) -> None:
    """Wire two endpoints into an established connection."""
    a.peer = b
    b.peer = a
    a.connected = True
    b.connected = True


def make_socketpair(world: "World", node: "Node", domain: str = "pair") -> tuple[SocketEndpoint, SocketEndpoint]:
    """Create a connected same-node endpoint pair."""
    a = SocketEndpoint(world, node, domain)
    b = SocketEndpoint(world, node, domain)
    a.origin = b.origin = "pair"
    connect_endpoints(a, b)
    return a, b


class _Transmit:
    """State machine for one in-flight chunk (replaces per-send closures).

    Registered on the reservation future first (``seq < 0``), then -- once
    bandwidth is reserved and the wire transfer is submitted -- re-registered
    on the transfer future to commit the chunk at the peer in TCP order.
    """

    __slots__ = ("world", "src", "peer", "chunk", "accepted", "seq")

    def __init__(self, world: "World", src: SocketEndpoint, chunk: Chunk, accepted):
        self.world = world
        self.src = src
        self.peer = src.peer
        self.chunk = chunk
        self.accepted = accepted
        self.seq = -1

    def __call__(self) -> None:
        src = self.src
        peer = self.peer
        if self.seq < 0:  # reservation settled: copy into the kernel
            if peer.closed or src.closed:
                peer.rx.unreserve(self.chunk.nbytes)
                self.accepted.reject(SyscallError("EPIPE", f"socket inode {src.inode}"))
                return
            self.seq = src._tx_seq
            src._tx_seq += 1
            self.world.machine.network.transfer(
                src.node, peer.node, self.chunk.nbytes, on_done=self
            )
            self.accepted.resolve(None)
            return
        # wire transfer landed: deliver in TCP order
        seq = self.seq
        if seq == peer._rx_next and not peer._rx_pending:
            # common case: nothing overtook us -- skip the reorder dict
            peer.rx.commit(self.chunk)
            peer._rx_next = seq + 1
            return
        peer._rx_pending[seq] = self.chunk
        while peer._rx_next in peer._rx_pending:
            peer.rx.commit(peer._rx_pending.pop(peer._rx_next))
            peer._rx_next += 1


def transmit(world: "World", src: SocketEndpoint, chunk: Chunk, force: bool = False):
    """Kernel-side transmit: reserve peer buffer space, move the bytes.

    Returns None when the copy into the kernel happened synchronously
    (buffer space was free -- the common case), else a future resolving
    when the *send syscall* may complete, i.e. when space was reserved.
    The wire transfer continues as kernel activity either way and commits
    the chunk into the peer's receive queue when it lands.

    ``force`` skips flow control.  It exists for DMTCP's refill stage:
    the model charges the whole channel capacity (SO_SNDBUF + SO_RCVBUF
    + wire) to the receive queue, so re-sending everything the channel
    legitimately held can transiently exceed the queue's nominal bound.
    """
    if src.closed or src.peer is None or not src.connected:
        raise SyscallError("EPIPE", f"socket inode {src.inode}")
    peer = src.peer
    if peer.closed:
        raise SyscallError("ECONNRESET", f"socket inode {src.inode}")
    if getattr(peer, "fabric_cid", None) is not None:
        # cross-shard connection: the chunk ships as a timestamped fabric
        # message (always synchronous; no remote back-pressure modeled)
        peer.fabric_transmit(src, chunk)
        return None
    if force:
        peer.rx._reserved += min(chunk.nbytes, peer.rx.capacity)
    elif not peer.rx.try_reserve(chunk.nbytes):
        # peer buffer full: block the sender on the reservation queue
        accepted = Future("send:accepted")
        peer.rx.reserve(chunk.nbytes).add_done(_Transmit(world, src, chunk, accepted))
        return accepted
    # space granted synchronously: no reservation or accepted future, the
    # _Transmit goes straight to its delivery phase on the wire transfer
    tr = _Transmit(world, src, chunk, None)
    tr.seq = src._tx_seq
    src._tx_seq += 1
    world.machine.network.transfer(src.node, peer.node, chunk.nbytes, on_done=tr)
    return None
