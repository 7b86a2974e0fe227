"""The block stream as a chain of stages (``sys.stream``).

A stream is the device plus one or more CPU stages in pipe order (the CPU
stages before the device when writing, after it when reading).  At step
*j* stage *i* works on block *j*-*i*; a step ends when every stage has
finished its block.  The battery runs random block counts and stage
costs in both directions and checks the schedule from inside
(``_BlockStream``'s per-step holdings and per-stage completions): every
stage sees the blocks in order, a block enters a stage only after the
one before it finished it, the makespan sits between the slowest stage
and all stages in turn, the node's CPU bills each stage its own cost,
and a killed caller issues nothing further.  A pinned digest holds the
two-stage write stream to its schedule from before the chain.
"""

import hashlib
import math
from contextlib import contextmanager
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.kernel import world as world_mod
from repro.kernel.world import STREAM_EDGE_BYTES as EDGE, stream_blocks

MB = 2**20

#: Virtual-time slack for float sums over a few dozen blocks.
EPS = 1e-9


@contextmanager
def _recorded():
    """Record every stream's steps ``(start, held)`` and its stages'
    completions ``(time, stage)``.  Both pass through the loop's
    ``_stage_done``: once per finished stage, and once with None when a
    step has issued its blocks (a zero-cost stage may finish before)."""
    steps, done = [], []
    raw = world_mod._BlockStream._stage_done

    def stage_done(self, stage):
        now = self.world.engine.now
        if stage is None:
            steps.append((now, tuple(self.held)))
        else:
            done.append((now, stage))
        raw(self, stage)

    with mock.patch.object(world_mod._BlockStream, "_stage_done", stage_done):
        yield steps, done


def _stream(write: bool, nbytes: int, costs: tuple, kill_at=None):
    """One process streams ``nbytes`` through ``costs`` (read: a file it
    has just written).  Returns the recording, the caller's result, the
    CPU bursts issued, and the issue counters at the kill (None without
    one) and at the end."""
    world = build_cluster(n_nodes=1, seed=5)
    node = world.machine.node("node00")
    out = {}

    def main(sys, argv):
        if not write:
            fd = yield from sys.open("/tmp/img", "w")
            yield from sys.write(fd, nbytes, payload="img")
            yield from sys.close(fd)
        fd = yield from sys.open("/tmp/img", "w" if write else "r")
        out["cpu0"] = node.cpu.volume_served
        out["stats"] = yield from sys.stream(fd, nbytes, costs, EDGE, write=write, payload="img")
        out["cpu1"] = node.cpu.volume_served

    bursts = []
    raw_burst = node.cpu_burst

    def burst(seconds):
        bursts.append(seconds)
        return raw_burst(seconds)

    node.cpu_burst = burst
    world.register_program("streamer", main)
    at_kill = None
    with _recorded() as (steps, done):
        proc = world.spawn_process("node00", "streamer")
        if kill_at is None:
            world.engine.run()
        else:
            world.engine.run(until=kill_at)
            at_kill = (len(bursts), node.disk.bytes_read, node.disk.bytes_written)
            world.destroy_process(proc)
            world.engine.run()
    assert world.engine.pending == 0
    assert not world.scheduler.failures
    assert node.disk._holds == 0  # the write-back hold is released
    issued = (len(bursts), node.disk.bytes_read, node.disk.bytes_written)
    return steps, done, out, bursts, at_kill, issued


@settings(max_examples=200, deadline=None)
@given(
    write=st.booleans(),
    nbytes=st.integers(min_value=1, max_value=48 * MB),
    costs=st.lists(
        st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=2.0)),
        min_size=1, max_size=3,
    ),
    kill_frac=st.floats(min_value=0.0, max_value=1.0),
)
def test_stage_chain_schedule(write, nbytes, costs, kill_frac):
    costs = tuple(costs)
    steps, done, out, bursts, _, _ = _stream(write, nbytes, costs)
    nstages = len(costs) + 1
    device = len(costs) if write else 0
    blocks = stream_blocks(nbytes, EDGE) if sum(costs) > 0 else [nbytes]

    # every stage takes the blocks in order, each one step after the
    # stage before it: stage i holds block j - i at step j
    assert len(steps) == len(blocks) + nstages - 1
    for j, (_t, held) in enumerate(steps):
        assert held == tuple(
            blocks[j - i] if 0 <= j - i < len(blocks) else 0 for i in range(nstages)
        )

    # a block enters stage i + 1 only after stage i finished it: each
    # busy stage of step j completes once, before step j + 1 begins
    ends = [t for t, _held in steps[1:]] + [done[-1][0]]
    busy = [0.0] * nstages
    k = 0
    for (start, held), end in zip(steps, ends):
        finished = done[k:k + sum(map(bool, held))]
        k += len(finished)
        assert sorted(stage for _t, stage in finished) == [i for i in range(nstages) if held[i]]
        assert all(start <= t <= end for t, _stage in finished)
        assert max(t for t, _stage in finished) == end  # the step ends with its last stage
        for t, stage in finished:
            busy[stage] += t - start
    assert k == len(done)

    # each CPU stage runs as its own burst at a full core: its busy time
    # is its cost, and the node is billed the stages' costs -- each
    # block its share, so exactly up to the rounding of those shares
    cpu_stages = [i for i in range(nstages) if i != device]
    for i, cost in zip(cpu_stages, costs):
        assert abs(busy[i] - cost) <= EPS
    assert abs(math.fsum(bursts) - sum(costs)) <= 1e-12 * max(sum(costs), 1.0)
    assert abs(out["cpu1"] - out["cpu0"] - sum(costs)) <= EPS

    # the makespan: at least the slowest stage, at most all in turn
    makespan = done[-1][0] - steps[0][0]
    assert max(busy) - EPS <= makespan <= sum(busy) + EPS

    # the result names one wait per CPU stage, in pipe order
    nblocks, io_wait, cpu_waits, fill, drain = out["stats"]
    assert nblocks == len(blocks) and len(cpu_waits) == len(costs)
    assert io_wait == fill == drain == 0.0  # measured only under the tracer

    # a caller killed mid-stream issues nothing further: no burst and
    # no device charge after the kill (and its write-back hold is gone)
    kill_at = steps[0][0] + kill_frac * makespan
    _steps, _done, killed, _bursts, at_kill, issued = _stream(write, nbytes, costs, kill_at)
    if kill_at < done[-1][0]:
        assert "stats" not in killed
        assert issued == at_kill


def _write_rows():
    """A two-stage write stream's schedule in detail: two writers on one
    disk, each result and elapsed time, every stage completion."""
    world = build_cluster(n_nodes=2, seed=5)
    world.tracer.enable()
    rows, done = [], []

    def main(sys, argv):
        fd = yield from sys.open(f"/tmp/img{argv[1]}", "w")
        t0 = yield from sys.time()
        nbytes = (37 if argv[1] == "0" else 5) * MB + 11
        blocks, io_wait, (cpu_wait,), fill, drain = yield from sys.stream(
            fd, nbytes, 0.9, EDGE, write=True, payload="img"
        )
        t1 = yield from sys.time()
        rows.append((argv[1], blocks, io_wait, cpu_wait, fill, drain, t1 - t0))

    raw_io = world_mod._BlockStream._io_done
    raw_cpu = world_mod._BlockStream._cpu_done

    def io_done(self):
        done.append((self.world.engine.now, "io"))
        raw_io(self)

    def cpu_done(self, *stage):
        done.append((self.world.engine.now, "cpu"))
        raw_cpu(self, *stage)

    world.register_program("streamer", main)
    with mock.patch.object(world_mod._BlockStream, "_io_done", io_done), \
            mock.patch.object(world_mod._BlockStream, "_cpu_done", cpu_done):
        for i in range(2):
            world.spawn_process("node00", "streamer", ["streamer", str(i)])
        world.engine.run()
    disk = world.machine.node("node00").disk
    return rows, done, (disk.bytes_written, world.engine.events_fired)


def test_two_stage_write_stream_is_unchanged():
    """The write side stays ``[gzip, device]`` to the last digit: the
    digest of its waits, elapsed times, stage completions and event count
    was taken from the two-block buffer the chain replaced."""
    rows, done, totals = _write_rows()
    digest = hashlib.sha256(repr((rows, done, totals)).encode()).hexdigest()
    assert digest == WRITE_DIGEST, (rows, totals)


WRITE_DIGEST = "73bde3fdd6dce11b8d8ad028f1a4e0186c65d543e4be9fb9959e449310973fa4"
