"""Byte-stream plumbing: chunks, bounded kernel buffers, message framing.

Simulated sockets carry :class:`Chunk` objects -- a *sim size* (the bytes
the hardware models charge for) plus an opaque payload (real bytes for
control protocols, numpy arrays for MPI data, ``None`` for synthetic
bulk).  A chunk is the unit of kernel buffering and of DMTCP's drain:
whatever chunks sat in a receive buffer at checkpoint time are exactly the
chunks re-sent at refill time, so byte accounting is conserved end to end.

Message framing (``send_frame``/``recv_frame``) lives *above* the chunk
layer: large application messages are split into buffer-sized chunks, and
only the first carries the Python payload.  A checkpoint can therefore
land in the middle of a frame; the reassembled message must still arrive
intact after restart -- one of the paper's core guarantees and one of our
core property tests.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import KernelError
from repro.sim.tasks import Future

#: Control markers carried in Chunk.ctrl
CTRL_DRAIN_TOKEN = "dmtcp-drain-token"

#: The queue of an idle buffer.  Most buffers never hold a chunk or a
#: parked sender, and an empty ``deque`` costs about 760 bytes, so each
#: queue is this shared empty tuple until its first item arrives
#: (DESIGN.md §8).
_IDLE = ()


@dataclass(slots=True)
class Chunk:
    """The unit of in-kernel data: ``nbytes`` of simulated payload.

    ``slots=True``: tens of thousands of chunks are alive at Fig-5 scale,
    and skipping the per-instance ``__dict__`` is a measurable slice of
    the kernel path's allocation cost (see DESIGN.md §8).
    """

    nbytes: int
    data: Any = None
    ctrl: Optional[str] = None
    #: Frame bookkeeping (set by the framing helpers).  A frame is its
    #: first chunk and the followers after it: a stream delivers in
    #: order, so no frame needs an id to be told from another.
    frame_first: bool = False
    frame_total: Optional[int] = None
    frame_last: bool = False

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise KernelError(f"chunk size must be >= 0, got {self.nbytes}")


class ByteBuffer:
    """A bounded kernel buffer (socket send/receive queue).

    Space is *reserved* before data is in flight (the TCP-window analogue)
    and *committed* when it lands, so the capacity bound holds even with
    transfers on the wire.  Consumers take whole chunks.  Both queues,
    the chunks and the senders waiting for space, start as ``_IDLE``;
    the chunk queue returns to it whenever its last chunk is taken.  A
    socket names its buffer after its inode, which is per world.
    """

    def __init__(self, capacity: int, name: str = "buf"):
        if capacity <= 0:
            raise KernelError(f"buffer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.name = name
        self._space_name = f"{self.name}:space"
        self._data_name = f"{self.name}:data"
        self._chunks: deque[Chunk] | tuple = _IDLE
        self._reserved = 0
        self._committed = 0
        self._space_waiters: deque[tuple[int, Future]] | tuple = _IDLE
        #: Zero-arg callables parked until data (or EOF) arrives.
        self._data_waiters: list = []
        #: Set when the writing side has closed; readers see EOF when empty.
        self.eof = False
        #: FIN received while data is still in flight: EOF is finalized
        #: only after every reservation commits, preserving TCP ordering.
        self._eof_pending = False

    # ------------------------------------------------------------------
    @property
    def used(self) -> int:
        """Bytes counted against capacity (reserved + readable)."""
        return self._reserved + self._committed

    @property
    def available_chunks(self) -> int:
        """Readable chunk count."""
        return len(self._chunks)

    @property
    def available_bytes(self) -> int:
        """Readable byte count."""
        return self._committed

    def reserve(self, nbytes: int) -> Future:
        """Reserve ``nbytes`` of space; resolves when the reservation holds.

        Oversized requests (> capacity) are allowed and occupy the whole
        buffer -- mirroring a write larger than SO_SNDBUF, which simply
        keeps the buffer saturated.
        """
        fut = Future(self._space_name)
        capacity = self.capacity
        need = nbytes if nbytes < capacity else capacity
        if self.used + need <= self.capacity and not self._space_waiters:
            self._reserved += need
            fut.resolve(None)
        else:
            if self._space_waiters is _IDLE:
                self._space_waiters = deque()
            self._space_waiters.append((need, fut))
        return fut

    def try_reserve(self, nbytes: int) -> bool:
        """Reserve synchronously if space is free right now (hot path).

        Equivalent to ``reserve()`` resolving immediately, minus the
        Future: the socket send path calls this once per chunk.
        """
        capacity = self.capacity
        need = nbytes if nbytes < capacity else capacity
        if self._reserved + self._committed + need <= capacity and not self._space_waiters:
            self._reserved += need
            return True
        return False

    def unreserve(self, nbytes: int) -> None:
        """Give back a reservation that will never be committed."""
        need = min(nbytes, self.capacity)
        self._reserved = max(self._reserved - need, 0)
        self._grant_space()
        self._check_pending_eof()

    def commit(self, chunk: Chunk) -> None:
        """A reserved chunk has arrived and becomes readable."""
        nbytes = chunk.nbytes
        capacity = self.capacity
        need = nbytes if nbytes < capacity else capacity
        if need > self._reserved + 1e-9:
            raise KernelError(f"{self.name}: commit {need}B exceeds reservation {self._reserved}B")
        self._reserved -= need
        self._committed += nbytes
        self._chunk_queue().append(chunk)
        self._wake_readers()
        self._check_pending_eof()

    def push(self, chunk: Chunk) -> None:
        """Force a chunk in without reservation (restart-time refill path)."""
        self._committed += chunk.nbytes
        self._chunk_queue().append(chunk)
        self._wake_readers()

    def take(self) -> Optional[Chunk]:
        """Pop the next chunk, or None if the buffer is currently empty."""
        chunks = self._chunks
        if not chunks:
            return None
        chunk = chunks.popleft()
        if not chunks:
            self._chunks = _IDLE  # emptied: idle again until the next chunk
        self._committed -= chunk.nbytes
        self._grant_space()
        return chunk

    def wait_data(self) -> Future:
        """Resolves as soon as a chunk is available (or EOF)."""
        fut = Future(self._data_name)
        if self._chunks or self.eof:
            fut.resolve(None)
        else:
            self._data_waiters.append(fut.resolve)
        return fut

    def add_data_waiter(self, cb) -> None:
        """Park zero-arg ``cb`` until data (or EOF) arrives.

        The caller has already checked the buffer is empty and not at
        EOF -- this is the recv hot path's Future-free ``wait_data``.
        """
        self._data_waiters.append(cb)

    def remove_data_waiter(self, cb) -> bool:
        """Unpark ``cb`` without firing it (recv timeout gave up waiting).

        Removes by identity; returns whether it was still parked.
        """
        waiters = self._data_waiters
        for i, parked in enumerate(waiters):
            if parked is cb:
                del waiters[i]
                return True
        return False

    def requeue_front(self, chunks) -> None:
        """Put drained chunks back at the *head* of the buffer, in order.

        The checkpoint-abort rollback path: chunks pulled out by the
        drain stage are returned exactly where they sat, ahead of any
        data that arrived since, so stream order is conserved.  Bypasses
        reservation like :meth:`push` (the bytes were already accounted
        when first committed).
        """
        if not chunks:
            return
        self._chunk_queue().extendleft(reversed(chunks))
        self._committed += sum(c.nbytes for c in chunks)
        self._wake_readers()

    def set_eof(self) -> None:
        """Writer closed: readers see EOF once in-flight data lands."""
        if self._reserved > 0:
            self._eof_pending = True
        else:
            self.eof = True
        self._wake_readers()

    def _check_pending_eof(self) -> None:
        if self._eof_pending and self._reserved <= 0:
            self._eof_pending = False
            self.eof = True
            self._wake_readers()

    def drain_all(self) -> list[Chunk]:
        """Remove and return every buffered chunk (checkpoint drain)."""
        chunks, self._chunks = list(self._chunks), _IDLE
        self._committed = 0
        self._grant_space()
        return chunks

    def cancel_waiters(self) -> None:
        """Wake every parked future (used when tearing a connection down).

        Waiters are *resolved*, not dropped: the waking side re-checks the
        endpoint state and raises EPIPE/sees EOF itself, which avoids
        leaving tasks parked forever on a dead connection.
        """
        space, self._space_waiters = self._space_waiters, _IDLE
        for _need, fut in space:
            fut.resolve(None)
        self._wake_readers()

    # ------------------------------------------------------------------
    def _chunk_queue(self) -> deque[Chunk]:
        """The chunk queue, made at the first chunk an idle buffer takes."""
        if self._chunks is _IDLE:
            self._chunks = deque()
        return self._chunks

    def _grant_space(self) -> None:
        while self._space_waiters:
            need, fut = self._space_waiters[0]
            if self.used + need > self.capacity:
                break
            self._space_waiters.popleft()
            self._reserved += need
            fut.resolve(None)

    def _wake_readers(self) -> None:
        waiters, self._data_waiters = self._data_waiters, []
        for cb in waiters:
            cb()


# ----------------------------------------------------------------------
# Frame helpers (used with ``yield from`` inside program generators)
# ----------------------------------------------------------------------

#: Chunks are capped at the default socket buffer size so a single frame
#: can never wedge flow control.
FRAME_CHUNK_BYTES = 32 * 1024
FRAME_HEADER_BYTES = 16


def frame_chunks(payload: Any, sim_size: int) -> Iterator[Chunk]:
    """Split one application message into wire chunks.

    The first chunk carries the payload object; followers carry only
    simulated bulk.  ``sim_size`` is the message's modelled size in bytes
    (independent of the payload's real in-memory size).
    """
    if sim_size < 0:
        raise KernelError(f"frame sim_size must be >= 0, got {sim_size}")
    total = sim_size + FRAME_HEADER_BYTES
    first = min(total, FRAME_CHUNK_BYTES)
    remaining = total - first
    yield Chunk(
        first, data=payload, frame_first=True, frame_total=total, frame_last=remaining == 0
    )
    while remaining > 0:
        n = min(remaining, FRAME_CHUNK_BYTES)
        remaining -= n
        yield Chunk(n, frame_total=total, frame_last=remaining == 0)


@dataclass
class FrameAssembler:
    """Per-socket reassembly state for :func:`recv_frame`."""

    payload: Any = None
    got: int = 0
    _active: bool = False
    complete: list = field(default_factory=list)

    def feed(self, chunk: Chunk) -> None:
        """Absorb one wire chunk into the current frame."""
        if chunk.frame_total is None:
            raise KernelError("non-frame chunk fed to FrameAssembler")
        if not self._active:
            self._active = True
            self.payload = chunk.data
        elif chunk.frame_first:
            raise KernelError(
                f"interleaved frames: a frame began {self.got} bytes into another on one stream"
            )
        self.got += chunk.nbytes
        if chunk.frame_last:
            self.complete.append((self.payload, self.got - FRAME_HEADER_BYTES))
            self.payload = None
            self.got = 0
            self._active = False

    def pop(self):
        """Take one completed ``(payload, sim_size)`` message, or None."""
        return self.complete.pop(0) if self.complete else None
