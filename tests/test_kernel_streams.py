"""Unit and property tests for chunks, buffers, and frame machinery."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernel.streams import (
    FRAME_CHUNK_BYTES,
    FRAME_HEADER_BYTES,
    ByteBuffer,
    Chunk,
    FrameAssembler,
    frame_chunks,
)


# ----------------------------------------------------------------------
# Chunk / frames
# ----------------------------------------------------------------------

def test_chunk_rejects_negative_size():
    with pytest.raises(KernelError):
        Chunk(-1)


def test_frame_chunks_small_message_single_chunk():
    chunks = list(frame_chunks({"a": 1}, 100))
    assert len(chunks) == 1
    assert chunks[0].data == {"a": 1}
    assert chunks[0].frame_last
    assert chunks[0].nbytes == 100 + FRAME_HEADER_BYTES


def test_frame_chunks_large_message_split_and_sum_preserved():
    size = 5 * FRAME_CHUNK_BYTES + 17
    chunks = list(frame_chunks("payload", size))
    assert len(chunks) == 6
    assert chunks[0].data == "payload"
    assert all(c.data is None for c in chunks[1:])
    assert sum(c.nbytes for c in chunks) == size + FRAME_HEADER_BYTES
    assert chunks[-1].frame_last and not any(c.frame_last for c in chunks[:-1])
    assert [c.frame_first for c in chunks] == [True] + [False] * 5


def test_assembler_roundtrip():
    asm = FrameAssembler()
    for chunk in frame_chunks(("msg", 1), 100_000):
        asm.feed(chunk)
    payload, size = asm.pop()
    assert payload == ("msg", 1)
    assert size == 100_000
    assert asm.pop() is None


def test_assembler_rejects_interleaved_frames():
    a = list(frame_chunks("a", 100_000))
    b = list(frame_chunks("b", 100_000))
    asm = FrameAssembler()
    asm.feed(a[0])
    with pytest.raises(KernelError, match="interleaved"):
        asm.feed(b[0])


def test_assembler_rejects_non_frame_chunk():
    with pytest.raises(KernelError):
        FrameAssembler().feed(Chunk(10))


@settings(max_examples=50, deadline=None)
@given(size=st.integers(min_value=0, max_value=10 * FRAME_CHUNK_BYTES))
def test_property_frame_roundtrip_any_size(size):
    asm = FrameAssembler()
    for chunk in frame_chunks("x", size):
        asm.feed(chunk)
    payload, got = asm.pop()
    assert payload == "x" and got == size


# ----------------------------------------------------------------------
# ByteBuffer
# ----------------------------------------------------------------------

def test_buffer_reserve_commit_take_cycle():
    buf = ByteBuffer(100)
    fut = buf.reserve(60)
    assert fut.done
    buf.commit(Chunk(60, data=b"x"))
    assert buf.available_bytes == 60
    chunk = buf.take()
    assert chunk.data == b"x"
    assert buf.available_bytes == 0


def test_buffer_blocks_when_full_and_wakes_on_take():
    buf = ByteBuffer(100)
    buf.reserve(100)
    buf.commit(Chunk(100))
    second = buf.reserve(50)
    assert not second.done
    buf.take()
    assert second.done


def test_buffer_oversized_reservation_capped_at_capacity():
    buf = ByteBuffer(100)
    fut = buf.reserve(1000)  # like a write larger than SO_SNDBUF
    assert fut.done
    buf.commit(Chunk(1000))
    assert buf.available_bytes == 1000  # over-committed until drained
    nxt = buf.reserve(1)
    assert not nxt.done
    buf.take()
    assert nxt.done


def test_buffer_fifo_order():
    buf = ByteBuffer(1000)
    for i in range(5):
        buf.reserve(10)
        buf.commit(Chunk(10, data=i))
    assert [buf.take().data for i in range(5)] == [0, 1, 2, 3, 4]


def test_buffer_eof_deferred_until_reserved_data_commits():
    buf = ByteBuffer(100)
    buf.reserve(40)
    buf.set_eof()
    assert not buf.eof  # data still in flight
    buf.commit(Chunk(40))
    assert buf.eof  # FIN ordered after the data


def test_buffer_eof_immediate_when_idle():
    buf = ByteBuffer(100)
    buf.set_eof()
    assert buf.eof


def test_drain_all_empties_and_frees_space():
    buf = ByteBuffer(100)
    waiting = None
    buf.reserve(100)
    buf.commit(Chunk(100, data="payload"))
    waiting = buf.reserve(50)
    assert not waiting.done
    chunks = buf.drain_all()
    assert [c.data for c in chunks] == ["payload"]
    assert waiting.done  # space granted to the parked writer
    assert buf.available_bytes == 0


def test_wait_data_resolves_on_commit_and_on_eof():
    buf = ByteBuffer(100)
    w = buf.wait_data()
    assert not w.done
    buf.reserve(10)
    buf.commit(Chunk(10))
    assert w.done
    buf.take()
    w2 = buf.wait_data()
    buf.set_eof()
    assert w2.done


def test_unreserve_returns_space():
    buf = ByteBuffer(100)
    buf.reserve(80)
    blocked = buf.reserve(50)
    assert not blocked.done
    buf.unreserve(80)
    assert blocked.done


def test_invalid_capacity_rejected():
    with pytest.raises(KernelError):
        ByteBuffer(0)


def test_commit_without_reservation_rejected():
    buf = ByteBuffer(100)
    with pytest.raises(KernelError):
        buf.commit(Chunk(10))


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=30)
)
def test_property_buffer_conserves_bytes(sizes):
    """Everything committed is taken out exactly once, in order."""
    buf = ByteBuffer(10_000)
    for i, n in enumerate(sizes):
        assert buf.reserve(n).done
        buf.commit(Chunk(n, data=i))
    seen = []
    while True:
        c = buf.take()
        if c is None:
            break
        seen.append((c.data, c.nbytes))
    assert seen == list(enumerate(sizes))
    assert buf.available_bytes == 0
