"""``layers-micro``: each layer's public functions timed in isolation.

In every macro workload kernel + sim take at least 45 % of host time, so
no macro workload can bypass them.  Here each section makes one layer do
nearly all the work, which locates a change to that layer; the dense and
sparse fair-share sections guard the two modes against each other.

A section returns ``(operations, host seconds)``.  The operation counts
are fixed, so a rate moves only with host time.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.coord.nodeset import NodeSet
from repro.core.compression import estimate, estimate_cached
from repro.hardware.resources import BandwidthResource
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine
from repro.sim.tasks import Scheduler, Timeout
from repro.store.cas import ChunkStore
from repro.store.chunking import region_chunks

MB = 2**20


def _noop() -> None:
    pass


def engine_events(n: int = 200_000):
    """``Engine.call_after`` + ``run`` with a no-op callback."""
    engine = Engine()
    t0 = time.perf_counter()
    for i in range(n):
        engine.call_after(i * 1e-6, _noop)
    engine.run()
    return n, time.perf_counter() - t0


def task_switches(tasks: int = 100, yields: int = 1_000):
    """``Scheduler.spawn`` of generators that yield ``Timeout``."""
    engine = Engine()
    scheduler = Scheduler(engine)

    def ticker():
        for _ in range(yields):
            yield Timeout(1e-3)

    t0 = time.perf_counter()
    for i in range(tasks):
        scheduler.spawn(ticker(), name=f"t{i}")
    engine.run()
    return tasks * yields, time.perf_counter() - t0


def syscall_dispatch(n: int = 40_000):
    """One process looping ``sys.getpid()``."""
    world = build_cluster(n_nodes=1)

    def main(sys, argv):
        for _ in range(n):
            yield from sys.getpid()

    world.register_program("getpid_loop", main)
    t0 = time.perf_counter()
    world.spawn_process("node00", "getpid_loop")
    world.engine.run()
    return n, time.perf_counter() - t0


def stream_chunks(round_trips: int = 4_000):
    """Two-process TCP ping-pong across two nodes."""
    world = build_cluster(n_nodes=2)
    port = 9200

    def server(sys, argv):
        lfd = yield from sys.socket()
        yield from sys.bind(lfd, port)
        yield from sys.listen(lfd)
        cfd = yield from sys.accept(lfd)
        for _ in range(round_trips):
            chunk = yield from sys.recv(cfd)
            yield from sys.send(cfd, chunk.nbytes)

    def client(sys, argv):
        from repro.kernel.syscalls import connect_retry

        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, "node00", port)
        for _ in range(round_trips):
            yield from sys.send(fd, 2048)
            yield from sys.recv(fd)

    world.register_program("pong", server)
    world.register_program("ping", client)
    t0 = time.perf_counter()
    world.spawn_process("node00", "pong")
    world.spawn_process("node01", "ping")
    world.engine.run()
    return 2 * round_trips, time.perf_counter() - t0


def _fairshare(concurrent: int, completions: int):
    """Keep ``concurrent`` jobs on one ``BandwidthResource`` until
    ``completions`` have finished (submit + on_done per completion)."""
    engine = Engine()
    resource = BandwidthResource(engine, rate=100e6, name="micro")
    state = {"left": completions - concurrent, "seq": 0}

    def submit():
        state["seq"] += 1
        # unequal volumes, so completions interleave instead of batching
        resource.submit(1e6 + 1e3 * (state["seq"] % 17), on_done=done)

    def done():
        if state["left"] > 0:
            state["left"] -= 1
            submit()

    t0 = time.perf_counter()
    for _ in range(concurrent):
        submit()
    engine.run()
    return completions, time.perf_counter() - t0


def fairshare_dense(completions: int = 30_000):
    """4 concurrent jobs: the dense (<= 8 jobs) fair-share mode."""
    return _fairshare(4, completions)


def fairshare_sparse(completions: int = 30_000):
    """64 concurrent jobs: the sparse (virtual-finish-time) mode."""
    return _fairshare(64, completions)


_REGIONS = [(12 * MB, "code"), (10 * MB, "text"), (14 * MB, "numeric"), (4 * MB, "zero")]


def compression_estimates(n: int = 60_000):
    """``compression.estimate``, uncached, on ParGeant4's region table."""
    cpu = CLUSTER_2008.cpu
    t0 = time.perf_counter()
    for _ in range(n):
        estimate(_REGIONS, cpu)
    return n, time.perf_counter() - t0


def estimate_cache_hits(n: int = 100_000):
    """``estimate_cached`` on a key that is already present."""
    cpu = CLUSTER_2008.cpu
    estimate_cached(_REGIONS, cpu)
    t0 = time.perf_counter()
    for _ in range(n):
        estimate_cached(_REGIONS, cpu)
    return n, time.perf_counter() - t0


def chunk_refs(regions: int = 4_000, region_mb: int = 32):
    """``region_chunks``: content-address one region's chunks."""
    t0 = time.perf_counter()
    for i in range(regions):
        region_chunks(f"key{i}", i, region_mb * MB, "text", {}, MB)
    return regions * region_mb, time.perf_counter() - t0


def lease_lookups(rounds: int = 400, refs_per_round: int = 2_048):
    """``ChunkStore.lease`` over refs the store already holds."""
    world = build_cluster(n_nodes=4)
    store = ChunkStore(world)
    refs = region_chunks("lease", 0, refs_per_round * MB, "text", {}, MB)
    rows = [[r.digest, r.nbytes, r.profile, r.nbytes // 3] for r in refs]
    store.lease(rows, ("node00", 1), 1)
    store.commit([r.digest for r in refs], "node00")
    world.engine.run()  # replication lands: the chunks are durable
    t0 = time.perf_counter()
    for ckpt_id in range(2, 2 + rounds):
        need = store.lease(rows, ("node01", 2), ckpt_id)
        assert not need, "present chunks must dedup"
    return rounds * refs_per_round, time.perf_counter() - t0


def nodeset_folds(rounds: int = 12, names: int = 4_096):
    """``NodeSet``: fold 4096 hostnames, render, parse back."""
    hostnames = [f"node{i:04d}" for i in range(names)]
    t0 = time.perf_counter()
    for _ in range(rounds):
        folded = str(NodeSet.from_hostnames(hostnames))
        assert len(list(NodeSet(folded))) == names
    return rounds * names, time.perf_counter() - t0


def tracer_spans(n: int = 100_000):
    """Enabled ``Tracer.begin`` / ``end``."""
    clock = iter(range(2 * n + 1))
    tracer = Tracer(clock=lambda: float(next(clock)), enabled=True)
    t0 = time.perf_counter()
    for _ in range(n):
        tracer.begin("track", "span")
        tracer.end("track", "span")
    return n, time.perf_counter() - t0


#: per-layer metric name -> section
SECTIONS: dict[str, Callable[[], tuple[int, float]]] = {
    "sim.engine_events_per_s": engine_events,
    "sim.task_switches_per_s": task_switches,
    "kernel.syscall_dispatch_per_s": syscall_dispatch,
    "kernel.stream_chunks_per_s": stream_chunks,
    "hardware.fairshare_dense_per_s": fairshare_dense,
    "hardware.fairshare_sparse_per_s": fairshare_sparse,
    "core.compression_estimates_per_s": compression_estimates,
    "core.estimate_cache_hits_per_s": estimate_cache_hits,
    "store.chunk_refs_per_s": chunk_refs,
    "store.lease_lookups_per_s": lease_lookups,
    "coord.nodeset_folds_per_s": nodeset_folds,
    "obs.tracer_spans_per_s": tracer_spans,
}


def sharded_counts() -> dict[str, float]:
    """One 2-shard ``run_sharded(fig5_xl_scenario, 2, 512, 4)``: exact
    counts and CPU seconds, no wall.  Two forked shards on a shared
    2-core host repeat only to about 7 % and show no speedup, so the
    sharded engine gets no wall metric until a >= 4-core host is named."""
    from repro.harness.parallel import fig5_xl_scenario
    from repro.sim.parallel import run_sharded

    result = run_sharded(fig5_xl_scenario, 2, 512, 4, backend="mp", timeout_s=170.0)
    stats = result.stats
    events = [s["events_fired"] for s in stats]
    busy = sum(s["busy_s"] for s in stats)
    stall = sum(s["sync_stall_s"] for s in stats)
    return {
        "sim.parallel.windows": max(s["windows"] for s in stats),
        "sim.parallel.msgs": sum(s["msgs_out"] for s in stats),
        "sim.parallel.events_imbalance": max(events) / (sum(events) / len(events)),
        "sim.parallel.busy_cpu_max_s": max(s["busy_cpu_s"] for s in stats),
        "sim.parallel.sync_stall_frac": stall / (busy + stall) if busy + stall else 0.0,
    }
