"""The compression cost model: parallel gzip and the estimate cache."""

import pytest

from repro.cluster import build_cluster
from repro.config import CpuSpec
from repro.core import compression
from repro.core.launch import DmtcpComputation


@pytest.fixture()
def world():
    return build_cluster(n_nodes=2, seed=23)


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


def toucher_program(fraction: float = 0.2, mb: int = 8):
    """An app that dirties ``fraction`` of one numeric region per tick."""

    def main(sys, argv):
        region = yield from sys.mmap(mb * 2**20, "numeric")
        for _ in range(2000):
            yield from sys.sleep(0.05)
            yield from sys.mem_touch(region, fraction)

    return main


def launch_toucher(world, fraction: float = 0.2, **comp_kwargs):
    world.register_program("toucher", toucher_program(fraction))
    comp = DmtcpComputation(world, **comp_kwargs)
    comp.launch("node00", "toucher")
    world.engine.run(until=1.0)
    return comp


# ----------------------------------------------------------------------
# Parallel compression model
# ----------------------------------------------------------------------

REGIONS = [
    (8 * 2**20, "numeric"),
    (2 * 2**20, "text"),
    (4 * 2**20, "code"),
    (1 * 2**20, "random"),
]


def test_parallel_gzip_charges_critical_path():
    cpu = CpuSpec(cores=4)
    serial = compression.estimate(REGIONS, cpu)
    par = compression.estimate(REGIONS, cpu, nworkers=4)
    longest = max(
        size / (cpu.gzip_bps * compression.speed_factor(p)) for size, p in REGIONS
    )
    assert par.compress_seconds < serial.compress_seconds
    assert par.compress_seconds >= longest
    # byte totals are schedule-independent
    assert par.input_bytes == serial.input_bytes
    assert par.output_bytes == serial.output_bytes
    # decompression parallelizes with the same ratio
    assert par.decompress_seconds == pytest.approx(
        par.compress_seconds / cpu.gunzip_speedup
    )


def test_single_worker_and_memcpy_paths_unchanged():
    cpu = CpuSpec()
    assert compression.estimate(REGIONS, cpu, nworkers=1) == compression.estimate(
        REGIONS, cpu
    )
    off = compression.estimate(REGIONS, cpu, enabled=False)
    assert compression.estimate(REGIONS, cpu, enabled=False, nworkers=8) == off
    assert off.output_bytes == off.input_bytes


# ----------------------------------------------------------------------
# Estimate cache
# ----------------------------------------------------------------------

def test_estimate_cache_hits_and_exact_values():
    cache = compression.EstimateCache()
    cpu = CpuSpec()
    direct = compression.estimate(REGIONS, cpu)
    got = cache.get(REGIONS, cpu)
    assert got == direct  # bit-identical to the uncached computation
    assert (cache.hits, cache.misses) == (0, 1)
    assert cache.get(REGIONS, cpu) is got
    # key is the region *multiset*: order cannot change the physics
    assert cache.get(list(reversed(REGIONS)), cpu) is got
    assert cache.hits == 2
    # different parameters are different entries
    cache.get(REGIONS, cpu, nworkers=4)
    cache.get(REGIONS, cpu, enabled=False)
    assert cache.misses == 3


def test_estimate_cache_lru_bound():
    cache = compression.EstimateCache(maxsize=2)
    cpu = CpuSpec()
    for size in (1000, 2000, 3000):
        cache.get([(size, "text")], cpu)
    assert len(cache._store) == 2
    cache.get([(1000, "text")], cpu)  # evicted: recomputes
    assert cache.misses == 4


def test_checkpoint_populates_estimate_cache(world):
    world.tracer.enable()
    comp = launch_toucher(world)
    compression.ESTIMATE_CACHE.clear()
    comp.checkpoint()
    # build and write both estimate the same payload: one miss, one hit
    assert compression.ESTIMATE_CACHE.hits >= 1
    assert world.tracer.snapshot().get("mtcp.estimate_cache_hits", 0) >= 1
    no_failures(world)
