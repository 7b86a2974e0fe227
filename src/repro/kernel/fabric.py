"""Cross-shard socket fabric: proxy endpoints over timestamped messages.

When a shard binding is installed (`install_fabric`), **every** cross-node
socket interaction -- connect handshakes, data chunks, FINs -- travels as
fabric messages through `repro.sim.parallel.ShardBinding.post` instead of
touching the remote world directly.  This holds for any shard count,
including one: the message timestamps, per-connection sequence numbers, and
merge order are then functions of the workload alone, which is what makes
``shards=1`` and ``shards=N`` byte-identical (DESIGN.md §11).

The local side of a remote connection is a :class:`FabricPeer`: a stand-in
`SocketEndpoint` wired as the real endpoint's ``peer`` so every metadata
path (``peer_hostname``, ``getpeername``, EPIPE/ECONNRESET checks, DMTCP's
connection table) works unchanged.  Data sent *into* a FabricPeer becomes a
``dat`` message whose arrival uses the network's control-frame delay
formula; bulk transfers therefore skip NIC queue contention -- a known,
counted approximation (``parallel.bulk_approx``).

Wire protocol (all arrivals >= send time + link latency, the lookahead):

====  ======================================  ==========================
kind  payload                                 effect at the destination
====  ======================================  ==========================
syn   (host, port, domain)                    lookup listener; reply ack
                                              or rst; build server end
ack   None                                    complete the connect() call
rst   None                                    fail connect ECONNREFUSED
dat   (conn_seq, Chunk)                       in-order push into the real
                                              endpoint's receive queue
fin   (conn_seq, None)                        EOF after in-flight data
====  ======================================  ==========================

Handshake frames (syn/ack/rst) address the connection id ``cid`` -- the
client's (hostname, ephemeral port), unique for the run.  Data frames
(dat/fin) address ``(cid, side)`` with side ``"c"``/``"s"``: both real
endpoints of one connection can live in the *same* registry (same-shard
cross-node traffic still rides the fabric, and at ``shards=1`` all of it
does), so the registry key must name which end a frame is for.

``dat``/``fin`` share one per-connection sequence space (TCP never
reorders); the destination reassembles with the same ``_rx_next`` /
``_rx_pending`` dance the serial ``_Transmit`` uses.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SyscallError
from repro.kernel.sockets import ListenerSocket, SocketEndpoint, connect_endpoints
from repro.sim.tasks import Completion, Future

__all__ = ["FabricPeer", "FabricLayer", "RemoteProcess", "install_fabric"]

#: Sentinel ordered into the per-connection stream in place of a Chunk.
_FIN = object()


class RemoteProcess:
    """Placeholder returned by ``spawn_process`` for a non-owned node.

    SPMD drivers hold it where they would hold a real Process; the real
    one lives on the owning shard.  ``exited`` never resolves and
    ``alive`` is False, so completion predicates evaluated against a stub
    simply never fire locally (``run_until`` OR-reduces predicates across
    shards, so the owning shard's real process stops everyone).
    """

    is_remote_stub = True
    alive = False
    exit_code: Optional[int] = None
    pid = -1

    def __init__(self, hostname: str, program: str, argv: list):
        self.hostname = hostname
        self.program = program
        self.argv = argv
        self.env: dict = {}
        self.children: list = []
        self.exited = Future(f"remote:{program}@{hostname}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RemoteProcess {self.program} on {self.hostname}>"


class FabricPeer(SocketEndpoint):
    """Local stand-in for a socket endpoint that lives on another node.

    Never read from and never owned by a process; exists so the real
    endpoint's ``peer`` pointer, and everything hung off it, behaves.
    """

    def __init__(self, world, node, domain: str, binding, cid: tuple):
        super().__init__(world, node, domain)
        self.fabric_cid = cid
        self.fabric_tx_seq = 0
        self._binding = binding
        self.connected = True

    def fabric_transmit(self, src: SocketEndpoint, chunk) -> None:
        """Turn a send into a ``dat`` message (called by ``transmit``).

        Always synchronous: the fabric does not model remote receive-queue
        back-pressure (overfull queues are counted, not blocked on --
        ``parallel.rx_overflow``).
        """
        binding = self._binding
        net = self.world.spec.network
        nbytes = chunk.nbytes
        delay = net.latency_s + net.per_message_s + nbytes / net.bandwidth_bps
        if nbytes > net.small_transfer_bytes:
            binding.stats["bulk_approx"] += 1
        seq = self.fabric_tx_seq
        self.fabric_tx_seq = seq + 1
        binding.post(
            src.node.hostname,
            self.node.hostname,
            self.world.engine.now + delay,
            "dat",
            self.fabric_cid,
            (seq, chunk),
        )
        self.world.machine.network.bytes_transferred += nbytes

    def fabric_fin(self) -> None:
        """Turn the real side's close into a ``fin`` message.

        Called at close time (not after the propagation delay like the
        serial path schedules ``set_eof``) so the message satisfies the
        lookahead bound; the latency rides in the arrival timestamp, so
        the EOF lands at the same virtual time either way.
        """
        binding = self._binding
        seq = self.fabric_tx_seq
        self.fabric_tx_seq = seq + 1
        peer = self.peer  # the real, closing endpoint
        binding.post(
            peer.node.hostname if peer is not None else self.node.hostname,
            self.node.hostname,
            self.world.engine.now + self.world.spec.network.latency_s,
            "fin",
            self.fabric_cid,
            (seq, None),
        )


class _FabricEstablish:
    """Deferred server-side backlog push (the serial ``establish`` body)."""

    __slots__ = ("listener", "server_ep")

    def __init__(self, listener: ListenerSocket, server_ep: SocketEndpoint):
        self.listener = listener
        self.server_ep = server_ep

    def __call__(self) -> None:
        if self.listener.closed or self.server_ep.closed:
            # raced with a listener close: reset so the client sees EOF
            self.server_ep.close_endpoint()
            return
        self.listener.push_established(self.server_ep)


class FabricLayer:
    """Per-shard connection registry + fabric message handlers."""

    def __init__(self, world, binding):
        self.world = world
        self.binding = binding
        #: (cid, side) -> that side's *local real* endpoint
        self.conns: dict[tuple, SocketEndpoint] = {}
        #: cid -> the connect() syscall awaiting ack/rst
        self.pending: dict[tuple, Completion] = {}
        binding.handlers.update(
            syn=self.on_syn, ack=self.on_ack, rst=self.on_rst,
            dat=self.on_dat, fin=self.on_fin,
        )

    # -- client side ---------------------------------------------------
    def connect(self, task, process, ep: SocketEndpoint, host: str, port: int) -> None:
        """Cross-node connect(): wire a proxy now, handshake over the fabric.

        The connection id is the client's (hostname, ephemeral port) --
        unique for the run because ephemeral ports are never reused.
        Timing matches the serial path: ack lands after one round trip.
        """
        world = self.world
        if ep.local_addr is None:
            ep.local_addr = (
                process.node.hostname,
                world.node_state(process.node.hostname).alloc_port(),
            )
        ep.origin = ep.origin or "connect"
        cid = ep.local_addr
        # the proxy stands in for the *server* end: data written into it
        # must land at the server's real endpoint, key (cid, "s")
        proxy = FabricPeer(
            world, world.node_state(host).node, ep.domain, self.binding, (cid, "s")
        )
        proxy.local_addr = (host, port)
        proxy.origin = "accept"
        connect_endpoints(ep, proxy)
        self.conns[(cid, "c")] = ep
        self.pending[cid] = Completion(task)
        self.binding.post(
            process.node.hostname,
            host,
            world.engine.now + world.spec.network.latency_s,
            "syn",
            cid,
            (host, port, ep.domain),
        )

    # -- handlers (run at message arrival time, on the owning shard) ---
    def on_syn(self, msg: tuple) -> None:
        host, port, domain = msg[6]
        cid = msg[5]
        world = self.world
        latency = world.spec.network.latency_s
        now = world.engine.now
        listener = world.lookup_listener(host, port, None)
        if listener is None or listener.closed:
            self.binding.post(host, cid[0], now + latency, "rst", cid)
            return
        server_ep = SocketEndpoint(world, listener.node, domain)
        server_ep.origin = "accept"
        server_ep.local_addr = listener.addr
        server_ep.local_path = listener.path
        proxy = FabricPeer(
            world, world.node_state(cid[0]).node, domain, self.binding, (cid, "c")
        )
        proxy.local_addr = cid
        proxy.origin = "connect"
        connect_endpoints(server_ep, proxy)
        self.conns[(cid, "s")] = server_ep
        self.binding.post(host, cid[0], now + latency, "ack", cid)
        # backlog push when the client's ack lands: one RTT end to end,
        # exactly the serial establish() schedule
        world.engine.call_after(latency, _FabricEstablish(listener, server_ep))

    def on_ack(self, msg: tuple) -> None:
        # a frozen caller refuses the ack: its connect re-issues at thaw
        completion = self.pending.pop(msg[5], None)
        if completion is not None and completion.awake:
            completion.ok()

    def on_rst(self, msg: tuple) -> None:
        cid = msg[5]
        completion = self.pending.pop(cid, None)
        ep = self.conns.pop((cid, "c"), None)
        if ep is not None:  # unwire: the connection never existed
            ep.peer = None
            ep.connected = False
        if completion is not None and completion.awake:
            completion.fail(SyscallError("ECONNREFUSED", f"{cid[0]} -> fabric {cid}"))

    def on_dat(self, msg: tuple) -> None:
        ep = self.conns.get(msg[5])
        if ep is None:
            return  # connection was refused/torn down; bytes die on the wire
        seq, chunk = msg[6]
        self._deliver_in_order(ep, seq, chunk)

    def on_fin(self, msg: tuple) -> None:
        ep = self.conns.get(msg[5])
        if ep is None:
            return
        self._deliver_in_order(ep, msg[6][0], _FIN)

    # -- in-order reassembly (the serial _Transmit delivery phase) -----
    def _deliver_in_order(self, ep: SocketEndpoint, seq: int, item) -> None:
        if seq == ep._rx_next and not ep._rx_pending:
            ep._rx_next = seq + 1
            self._apply(ep, item)
            return
        ep._rx_pending[seq] = item
        while ep._rx_next in ep._rx_pending:
            item = ep._rx_pending.pop(ep._rx_next)
            ep._rx_next += 1
            self._apply(ep, item)

    def _apply(self, ep: SocketEndpoint, item) -> None:
        if item is _FIN:
            if ep.peer is not None:
                # the remote real endpoint closed; its local stand-in
                # follows so sends now raise ECONNRESET, like serial
                ep.peer.closed = True
            ep.rx.set_eof()
            return
        if ep.closed:
            return  # local end already closed: drop, as the kernel would
        ep.rx.push(item)
        if ep.rx._committed > ep.rx.capacity:
            # the fabric does not model remote back-pressure; count how
            # often the bound would have mattered instead of blocking
            self.binding.stats["rx_overflow"] += 1
            tracer = self.world.engine._trace_hot
            if tracer is not None:
                tracer.count("parallel.rx_overflow")


def install_fabric(world, binding) -> FabricLayer:
    """Route all of ``world``'s cross-node traffic through the fabric."""
    layer = FabricLayer(world, binding)
    world.shard = binding
    world.fabric = layer
    return layer
