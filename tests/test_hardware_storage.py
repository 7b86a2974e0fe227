"""Tests for the page-cached disk and the SAN model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DiskSpec, NetworkSpec, SanSpec
from repro.hardware.storage import PageCachedDisk, SanDevice
from repro.sim import Engine

RAM = 1000  # bytes, tiny numbers keep arithmetic legible


def make_disk(engine, disk_bps=10.0, cache_bps=100.0, dirty_ratio=0.4):
    spec = DiskSpec(
        disk_bps=disk_bps,
        cache_write_bps=cache_bps,
        cache_read_bps=200.0,
        dirty_ratio=dirty_ratio,
        op_latency_s=0.0,
    )
    return PageCachedDisk(engine, spec, RAM)


def disk_reference(writes, disk_bps, cache_bps, dirty_limit, sync_at):
    """Writer completions and sync time under the per-writer fluid scan.

    ``writes`` is a list of ``(arrival, volume)``; the sync is issued at
    ``sync_at``.  Between events every writer fills at ``cache_bps / n``
    while the dirty set is under its limit and at ``disk_bps / n`` at it;
    the dirty set drains at ``disk_bps`` (or at the inflow, when empty).
    Every event credits each writer's remaining volume -- the O(writers)
    scan the disk replaced with virtual finish times.  The dirty-level
    clamps are the model's own.  Returns ``(finish times, sync time,
    whether the writers ever hit the dirty limit)``.
    """
    eps = max(1e-3, dirty_limit * 1e-9)
    order = sorted(range(len(writes)), key=lambda i: (writes[i][0], i))
    remaining: dict[int, float] = {}
    done: dict[int, float] = {}
    now, dirty, k, throttled = 0.0, 0.0, 0, False
    while True:
        while k < len(order) and writes[order[k]][0] <= now:
            remaining[order[k]] = float(writes[order[k]][1])
            k += 1
        if now >= sync_at and k == len(order) and not remaining and dirty <= 0.0:
            return done, now, throttled
        fill = 0.0
        if remaining:
            fill = cache_bps if dirty < dirty_limit - eps else disk_bps
            throttled = throttled or fill == disk_bps
        drain = disk_bps if dirty > eps else min(fill, disk_bps)
        slope = fill - drain
        steps = []
        if remaining:
            steps.append(min(remaining.values()) / (fill / len(remaining)))
        if slope > 1e-9 and dirty < dirty_limit:
            steps.append((dirty_limit - dirty) / slope)
        elif slope < -1e-9 and dirty > 0.0:
            steps.append(dirty / -slope)
        if k < len(order):
            steps.append(writes[order[k]][0] - now)
        if now < sync_at:
            steps.append(sync_at - now)
        dt = min(steps)
        if k < len(order) and dt == writes[order[k]][0] - now:
            now = writes[order[k]][0]
        elif now < sync_at and dt == sync_at - now:
            now = sync_at
        else:
            now += dt
        per_writer = fill / len(remaining) if remaining else 0.0
        for i in list(remaining):
            remaining[i] -= per_writer * dt
            if remaining[i] <= max(1e-9, writes[i][1] * 1e-9):
                done[i] = now
                del remaining[i]
        dirty += slope * dt
        if dirty <= eps:
            dirty = 0.0
        if dirty >= dirty_limit - eps:
            dirty = dirty_limit


def _run_write(engine, disk, nbytes):
    t = {}
    disk.write(nbytes).add_done(lambda: t.setdefault("done", engine.now))
    engine.run()
    return t["done"]


def test_small_write_absorbed_at_cache_speed():
    eng = Engine()
    disk = make_disk(eng)
    # 200 bytes < dirty limit of 400: lands at cache speed 100 B/s
    assert _run_write(eng, disk, 200.0) == pytest.approx(2.0)


def test_large_write_throttles_at_dirty_limit():
    eng = Engine()
    disk = make_disk(eng)
    # Fluid model: fill at 100 B/s while dirty<400 (dirty grows at
    # 100-10=90/s -> hits limit at t=400/90s having written ~444B),
    # remainder at disk speed 10 B/s.
    t = _run_write(eng, disk, 1000.0)
    filled_at_cache = 100.0 * (400.0 / 90.0)
    expected = 400.0 / 90.0 + (1000.0 - filled_at_cache) / 10.0
    assert t == pytest.approx(expected, rel=1e-6)


def test_sync_waits_for_drain():
    eng = Engine()
    disk = make_disk(eng)
    times = {}
    disk.write(200.0).add_done(lambda: times.setdefault("write", eng.now))
    disk.sync().add_done(lambda: times.setdefault("sync", eng.now))
    eng.run()
    assert times["write"] == pytest.approx(2.0)
    # write put 200B into cache while draining 10 B/s for 2s -> 180 dirty;
    # drain at 10 B/s -> sync at 2 + 18 = 20
    assert times["sync"] == pytest.approx(20.0)


def test_sync_on_idle_disk_is_immediate():
    eng = Engine()
    disk = make_disk(eng)
    fut = disk.sync()
    assert fut.done


def test_concurrent_writers_share_cache_bandwidth():
    eng = Engine()
    disk = make_disk(eng, disk_bps=50.0, cache_bps=100.0)
    times = {}
    disk.write(100.0).add_done(lambda: times.setdefault("a", eng.now))
    disk.write(100.0).add_done(lambda: times.setdefault("b", eng.now))
    eng.run()
    # each at 50 B/s (dirty stays under limit since drain=50)
    assert times["a"] == pytest.approx(2.0)
    assert times["b"] == pytest.approx(2.0)


def test_cached_read_faster_than_cold_read():
    eng = Engine()
    disk = make_disk(eng)
    times = {}
    disk.read(100.0, cached=True).add_done(lambda: times.setdefault("hot", eng.now))
    eng.run()
    disk.read(100.0, cached=False).add_done(lambda: times.setdefault("cold", eng.now))
    eng.run()
    assert times["hot"] == pytest.approx(0.5)  # 200 B/s
    assert times["cold"] == pytest.approx(0.5 + 10.0)  # 10 B/s


def test_dirty_never_exceeds_limit():
    eng = Engine()
    disk = make_disk(eng)
    disk.write(10_000.0)
    while eng.step():
        assert disk.dirty_bytes <= disk.dirty_limit + 1e-6


# ----------------------------------------------------------------------
# SAN
# ----------------------------------------------------------------------

def make_san(engine, backend=100.0, fc=400.0, clients=4, nfs_bw=50.0, nfs_eff=0.8):
    spec = SanSpec(
        fc_bandwidth_bps=fc, backend_bps=backend, san_clients=clients, nfs_overhead=nfs_eff
    )
    net = NetworkSpec(bandwidth_bps=nfs_bw)
    return SanDevice(engine, spec, net)


def test_single_fc_writer_limited_by_fc_share():
    eng = Engine()
    san = make_san(eng)
    t = {}
    san.write(200.0, "fc").add_done(lambda: t.setdefault("done", eng.now))
    eng.run()
    # fc cap = 400/4 = 100 == backend 100 -> 2s
    assert t["done"] == pytest.approx(2.0)


def test_nfs_writer_capped_by_gige():
    eng = Engine()
    san = make_san(eng)
    t = {}
    san.write(200.0, "nfs").add_done(lambda: t.setdefault("done", eng.now))
    eng.run()
    # nfs cap = 50 * 0.8 = 40 B/s
    assert t["done"] == pytest.approx(5.0)


def test_many_writers_contend_on_backend():
    eng = Engine()
    san = make_san(eng, backend=100.0)
    times = {}
    for i in range(10):
        san.write(100.0, "fc").add_done(lambda i=i: times.setdefault(i, eng.now))
    eng.run()
    # 10 writers share 100 B/s -> 10 B/s each -> all done at t=10
    assert all(t == pytest.approx(10.0) for t in times.values())


def test_unknown_path_rejected():
    eng = Engine()
    san = make_san(eng)
    with pytest.raises(Exception):
        san.write(1.0, "iscsi")


@settings(max_examples=200, deadline=None)
@given(
    writes=st.lists(
        st.tuples(
            st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0)),
            st.floats(min_value=100.0, max_value=400.0),
        ),
        min_size=6,
        max_size=14,
    ),
    sync_delay=st.one_of(st.just(0.0), st.floats(0.0, 40.0)),
)
def test_property_writers_and_sync_match_fluid_reference(writes, sync_delay):
    """Writers that cross the dirty limit (>= 600 B into a 400 B limit
    within a second), then a sync: every completion and the sync land
    where the per-writer scan puts them."""
    eng = Engine()
    disk = make_disk(eng)
    times, synced = {}, []

    def write(i, nbytes):
        disk.write(nbytes).add_done(lambda: times.__setitem__(i, eng.now))

    for i, (arrival, nbytes) in enumerate(writes):
        eng.call_at(arrival, write, i, nbytes)
    sync_at = max(arrival for arrival, _ in writes) + sync_delay
    eng.call_at(sync_at, lambda: disk.sync().add_done(lambda: synced.append(eng.now)))
    eng.run()
    expected, expected_sync, throttled = disk_reference(
        writes, disk_bps=10.0, cache_bps=100.0, dirty_limit=disk.dirty_limit, sync_at=sync_at
    )
    assert throttled
    assert set(times) == set(expected) == set(range(len(writes)))
    for i in expected:
        assert times[i] == pytest.approx(expected[i], rel=1e-9, abs=1e-9)
    assert synced == [pytest.approx(expected_sync, rel=1e-9, abs=1e-9)]
