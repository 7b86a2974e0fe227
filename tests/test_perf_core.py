"""Hot-path behavior pins for the DESIGN.md §8 performance work.

Covers the properties the optimizations must not bend:

* the same-timestamp FIFO fast path replays the exact ``(time, seq)``
  firing order of the heap-only oracle, an engine whose scheduling
  calls are patched to push every event to the heap (the determinism
  golden);
* a disabled tracer costs the event loop nothing (no per-event tracer
  attribute work at all);
* :class:`Chunk` stays slotted and frame reassembly stays intact;
* virtual-finish-time fair-share completions match a per-job fluid
  scan (kept in the hardware test modules), for the bandwidth server and
  the page-cached disk, at O(1) events for equal jobs and in one mode;
* ``compare_results`` catches metric drift but tolerates wall noise.
"""

import hashlib
import heapq

import pytest

import repro.hardware.resources as resources_mod
import repro.hardware.storage as storage_mod
from benchmarks._util import compare_results
from tests.test_hardware_resources import fluid_reference, run_jobs
from tests.test_hardware_storage import disk_reference
from repro.errors import SimulationError
from repro.hardware.resources import BandwidthResource
from repro.kernel.streams import (
    FRAME_HEADER_BYTES,
    ByteBuffer,
    Chunk,
    FrameAssembler,
    frame_chunks,
)
from repro.sim import Engine
from repro.sim.engine import Event


# ----------------------------------------------------------------------
# Determinism golden: the engine against the heap-only oracle
# ----------------------------------------------------------------------

def _heap_only(mp: pytest.MonkeyPatch) -> None:
    """Make every engine the heap-only oracle: each event, at the current
    time too, is pushed to the heap and ordered there by ``(time, seq)``."""

    def call_at(self, time, fn, *args):
        if time < self.now:
            raise SimulationError(f"cannot schedule event at t={time} before now={self.now}")
        seq = next(self._seq)
        ev = Event((time, seq))
        ev.time, ev.seq, ev.fn, ev.args, ev.engine = time, seq, fn, args, self
        heapq.heappush(self._heap, ev)
        self._live += 1
        return ev

    def call_after(self, delay, fn, *args):
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        return call_at(self, self.now + delay, fn, *args)

    mp.setattr(Engine, "call_at", call_at)
    mp.setattr(Engine, "call_after", call_after)
    mp.setattr(Engine, "call_soon", lambda self, fn, *args: call_at(self, self.now, fn, *args))


def record_firings(mp: pytest.MonkeyPatch, record: list) -> None:
    """Wrap each callback when it is scheduled, so that firing it appends
    ``(time, seq, callback name)`` to ``record``."""

    def wrapping(schedule, at):
        def scheduled(self, *a):
            fn = a[at]
            name = getattr(fn, "__qualname__", None) or type(fn).__name__

            def fire(*args):
                record.append((ev.time, ev.seq, name))
                fn(*args)

            ev = schedule(self, *a[:at], fire, *a[at + 1:])
            return ev

        return scheduled

    for method, at in (("call_at", 1), ("call_after", 1), ("call_soon", 0)):
        mp.setattr(Engine, method, wrapping(getattr(Engine, method), at))


def _firing_stream(heap_only: bool) -> list[tuple[float, int, str]]:
    """(time, seq, callback-name) of every event in one ckpt/restart run."""
    from repro.cluster import build_cluster
    from repro.core.launch import DmtcpComputation

    record: list[tuple[float, int, str]] = []
    with pytest.MonkeyPatch.context() as mp:
        if heap_only:
            _heap_only(mp)
        record_firings(mp, record)
        world = build_cluster(n_nodes=2, seed=0)

        def app(sys_, argv):
            for _ in range(12):
                yield from sys_.sleep(0.05)

        world.register_program("app", app)
        comp = DmtcpComputation(world)
        comp.launch("node00", "app")
        world.engine.run(until=0.3)
        outcome = comp.checkpoint(kill=True)
        comp.restart(plan=outcome.plan, placement={"node00": "node01"})
        world.engine.run(until=world.engine.now + 5.0)
    return record


def test_fast_path_firing_order_golden():
    fast = _firing_stream(heap_only=False)
    oracle = _firing_stream(heap_only=True)
    # a real workload: hundreds of events through sockets, resources,
    # the scheduler trampoline and the DMTCP stages
    assert len(fast) > 300
    assert fast == oracle
    # and the checksummed golden form both runs agree on
    digest = hashlib.sha256()
    for time_, seq, name in fast:
        digest.update(f"{time_!r} {seq} {name};".encode())
    assert digest.hexdigest() == hashlib.sha256(
        b"".join(f"{t!r} {s} {n};".encode() for t, s, n in oracle)
    ).hexdigest()


def test_the_oracle_keeps_every_event_in_the_heap():
    with pytest.MonkeyPatch.context() as mp:
        _heap_only(mp)
        eng = Engine()
        eng.call_soon(lambda: None)
        eng.call_after(0.0, lambda: None)
        assert len(eng._heap) == 2 and not eng._ready


def test_fast_path_uses_ready_deque():
    eng = Engine()
    hits = []
    eng.call_soon(hits.append, 1)
    assert len(eng._ready) == 1 and not eng._heap
    eng.run()
    assert hits == [1]


# ----------------------------------------------------------------------
# Zero-overhead tracing when disabled
# ----------------------------------------------------------------------

class _CountingStandInTracer:
    """Counts how often the engine touches it (no ``add_watcher``)."""

    def __init__(self):
        self.enabled_reads = 0
        self.count_calls = 0
        self._enabled = False

    @property
    def enabled(self):
        self.enabled_reads += 1
        return self._enabled

    def count(self, *args, **kwargs):
        self.count_calls += 1

    count_max = count


def test_disabled_tracer_costs_nothing_per_event():
    eng = Engine()
    tracer = _CountingStandInTracer()
    eng.tracer = tracer
    assert eng._trace_hot is None  # hoisted: disabled -> not in the loop

    n = 2000
    state = {"left": n}

    def tick():
        state["left"] -= 1
        if state["left"]:
            eng.call_after(0.001, tick)

    eng.call_soon(tick)
    eng.run()
    assert eng.events_fired == n
    # the engine consulted `enabled` once at attach time and never again:
    # per-event tracer work is exactly zero, independent of event count
    assert tracer.enabled_reads == 1
    assert tracer.count_calls == 0


def test_enabled_tracer_counts_and_toggles_off():
    from repro.obs.tracer import Tracer

    eng = Engine()
    tracer = Tracer(clock=lambda: eng.now, enabled=True)
    eng.tracer = tracer
    assert eng._trace_hot is tracer

    eng.call_soon(lambda: None)
    eng.run()
    assert tracer.counters.get("sim.events_fired") == 1

    tracer.disable()
    assert eng._trace_hot is None  # watcher rebound the hot slot
    eng.call_soon(lambda: None)
    eng.run()
    assert tracer.counters.get("sim.events_fired") == 1  # unchanged


# ----------------------------------------------------------------------
# Chunk stays slotted; frames still reassemble
# ----------------------------------------------------------------------

def test_chunk_is_slotted():
    chunk = Chunk(64)
    assert not hasattr(chunk, "__dict__")
    with pytest.raises(AttributeError):
        chunk.stray_attribute = 1


def test_frame_reassembly_roundtrip():
    payload = {"body": "x" * 50}
    sim_size = 200_000  # several FRAME_CHUNK_BYTES-sized wire chunks
    chunks = list(frame_chunks(payload, sim_size))
    assert len(chunks) > 1
    assert chunks[0].data is payload and all(c.data is None for c in chunks[1:])
    assert sum(c.nbytes for c in chunks) == sim_size + FRAME_HEADER_BYTES

    assembler = FrameAssembler()
    for chunk in chunks:
        assembler.feed(chunk)
    assert assembler.pop() == (payload, sim_size)
    assert assembler.pop() is None


# ----------------------------------------------------------------------
# ByteBuffer.try_reserve: synchronous grant without queue jumping
# ----------------------------------------------------------------------

def test_try_reserve_grants_and_refuses():
    buf = ByteBuffer(100)
    assert buf.try_reserve(60)
    assert buf.used == 60
    assert not buf.try_reserve(60)  # would exceed capacity
    assert buf.try_reserve(40)
    assert buf.used == 100


def test_try_reserve_never_jumps_the_waiter_queue():
    buf = ByteBuffer(100)
    assert buf.try_reserve(100)
    parked = buf.reserve(60)
    assert not parked.done
    buf.unreserve(30)  # space exists, but not enough for the waiter
    assert not buf.try_reserve(10)  # refused: a waiter is ahead of us
    buf.unreserve(40)
    assert parked.done  # FIFO waiter got the space first


def test_try_reserve_oversized_clamped_to_capacity():
    buf = ByteBuffer(100)
    assert buf.try_reserve(1000)  # like reserve(): occupies the whole buffer
    assert buf.used == 100


# ----------------------------------------------------------------------
# Fair share: virtual finish times against the per-job scan
# ----------------------------------------------------------------------

SPARSE_JOBS = (
    [(0.0, 100.0 + 7.0 * i, 50.0 if i % 3 == 0 else None) for i in range(20)]
    + [(1.5, 80.0, 25.0), (1.5, 300.0, None), (2.0, 40.0, None)]
)


def test_sparse_completions_match_dense_scan():
    times = run_jobs(SPARSE_JOBS, rate=1000.0, per_job_cap=200.0)
    expected = fluid_reference(SPARSE_JOBS, rate=1000.0, per_job_cap=200.0)
    assert set(times) == set(expected) == set(range(len(SPARSE_JOBS)))
    for key in expected:
        assert times[key] == pytest.approx(expected[key], rel=1e-9, abs=1e-9)


def test_drained_resource_is_reusable():
    eng = Engine()
    res = BandwidthResource(eng, rate=1000.0)
    for vol in (300.0, 500.0, 700.0):
        res.submit(vol, cap=100.0)
    eng.run()
    assert res.active_jobs == 0
    done = []
    res.submit(1000.0).add_done(lambda: done.append(eng.now))
    eng.run()
    assert done == [pytest.approx(8.0)]  # alone at full rate from t=7


def test_sparse_completion_cost_is_logarithmic_in_jobs():
    # not a timing test: count engine events, which dominate host cost.
    # n same-cap jobs finishing together must complete in O(1) resource
    # events, not O(n) rescheduling rounds.
    eng = Engine()
    res = BandwidthResource(eng, rate=1000.0)
    for _ in range(200):
        res.submit(500.0)
    eng.run()
    assert eng.events_fired == 1  # one completion event for all 200


def test_zero_rate_job_stalls_loudly():
    eng = Engine()
    res = BandwidthResource(eng, rate=10.0)
    with pytest.raises(SimulationError, match="stalled with zero rates"):
        res.submit(5.0, cap=0.0)


def test_submit_on_done_skips_the_future():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    fired = []
    assert res.submit(500.0, on_done=lambda: fired.append(eng.now)) is None
    eng.run()
    assert fired == [pytest.approx(5.0)]


def test_submit_on_done_zero_volume_fires_immediately():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    fired = []
    assert res.submit(0.0, on_done=lambda: fired.append(True)) is None
    assert fired == [True]


# ----------------------------------------------------------------------
# Disk writers: virtual finish times and sync ordering
# ----------------------------------------------------------------------

def _make_disk(eng):
    from repro.config import DiskSpec
    from repro.hardware.storage import PageCachedDisk

    spec = DiskSpec(
        disk_bps=10.0,
        cache_write_bps=100.0,
        cache_read_bps=200.0,
        dirty_ratio=0.4,
        op_latency_s=0.0,
    )
    return PageCachedDisk(eng, spec, ram_bytes=1000)


def test_disk_sparse_writers_match_dense_and_sync_last():
    volumes = [50.0 + 11.0 * i for i in range(14)]
    eng = Engine()
    disk = _make_disk(eng)
    times = {}
    for i, vol in enumerate(volumes):
        disk.write(vol).add_done(lambda i=i: times.__setitem__(i, eng.now))
    synced = []
    disk.sync().add_done(lambda: synced.append(eng.now))
    eng.run()
    expected, expected_sync, throttled = disk_reference(
        [(0.0, vol) for vol in volumes],
        disk_bps=10.0,
        cache_bps=100.0,
        dirty_limit=disk.dirty_limit,
        sync_at=0.0,
    )
    assert throttled
    assert set(times) == set(expected) == set(range(len(volumes)))
    for key in expected:
        assert times[key] == pytest.approx(expected[key], rel=1e-9, abs=1e-9)
    # sync resolves only after every write (and the flush) finished
    assert len(synced) == 1 and synced[0] >= max(times.values())
    assert synced[0] == pytest.approx(expected_sync, rel=1e-9, abs=1e-9)


def test_disk_equal_writers_finish_in_constant_events():
    # n equal writers share one finish credit, so the run costs the same
    # events whatever n is: the dirty limit, one completion for all n
    # writers, and the drain
    counts = []
    for n in (10, 1000):
        eng = Engine()
        disk = _make_disk(eng)
        done = []
        for _ in range(n):
            disk.write(1000.0 / n).add_done(lambda: done.append(eng.now))
        eng.run()
        assert len(done) == n and len(set(done)) == 1
        counts.append(eng.events_fired)
    assert counts[0] == counts[1] <= 3


def test_fair_share_has_one_mode():
    import inspect

    from repro import hardware

    for mod in (resources_mod, storage_mod, hardware):
        assert not hasattr(mod, "DENSE_MAX_JOBS")
        assert "DENSE_MAX_JOBS" not in inspect.getsource(mod)
    eng = Engine()
    servers = [BandwidthResource(eng, rate=1.0, per_job_cap=0.5), _make_disk(eng)]
    for server in servers:
        attrs = vars(server)
        assert not {"_sparse", "_wsparse", "_jobs", "_writers"} & set(attrs)
        # no boolean switch between accounting modes
        assert not [k for k, v in attrs.items() if isinstance(v, bool)]


# ----------------------------------------------------------------------
# compare_results: the bench regression arbiter
# ----------------------------------------------------------------------

def test_compare_results_identical_ok():
    doc = {"sim": {"checkpoint_s": 5.76}, "wall_s": 2.5, "name": "fig5"}
    ok, failures = compare_results(doc, dict(doc))
    assert ok and not failures


def test_compare_results_flags_simulated_drift():
    ok, failures = compare_results(
        {"sim": {"checkpoint_s": 5.76}}, {"sim": {"checkpoint_s": 5.77}}
    )
    assert not ok
    assert any("checkpoint_s" in f and "drift" in f for f in failures)


def test_compare_results_wall_noise_tolerated_but_regression_flagged():
    old = {"wall_s": 2.0}
    ok, _ = compare_results(old, {"wall_s": 2.4})  # +20% < 25% tolerance
    assert ok
    ok, _ = compare_results(old, {"wall_s": 1.0})  # getting faster is fine
    assert ok
    ok, failures = compare_results(old, {"wall_s": 2.6})  # +30%
    assert not ok and any("regression" in f for f in failures)


def test_compare_results_structure_mismatches_fail():
    ok, failures = compare_results({"a": 1, "b": "x"}, {"a": 1})
    assert not ok and any("missing" in f for f in failures)
    ok, failures = compare_results({"rows": [1, 2]}, {"rows": [1, 2, 3]})
    assert not ok and any("length" in f for f in failures)
    ok, failures = compare_results({"mode": "gzip"}, {"mode": "raw"})
    assert not ok
