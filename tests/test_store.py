"""Tests for the content-addressed checkpoint image store (``repro.store``).

Covers the chunking/content-identity layer, rendezvous placement, the
end-to-end dedup write path at barrier 5, manifest relocation, restart
round-trips, the serial-only and forked-checkpoint guards, the
lineage-skip failure logging, and the content-keyed estimate cache.
"""

import pytest

from repro.core import compression
from repro.core.launch import DmtcpComputation
from repro.errors import RestartError, SimulationError
from repro.faults.supervisor import (
    LineageSkipped,
    _image_file,
    find_newest_valid_plan,
)
from repro.harness.experiment import build_world
from repro.kernel.process import ProgramSpec, RegionSpec
from repro.sim.parallel import run_sharded
from repro.store import (
    ChunkStore,
    advance_generations,
    chunk_digest,
    chunk_layout,
    dirty_chunk_count,
    region_chunks,
)

MB = 1 << 20


def _register_heapworker(world, heap_mb: int = 8):
    def worker(sys, argv):
        while True:
            yield from sys.cpu(0.1)
            yield from sys.sleep(0.1)

    spec = ProgramSpec(
        "heapworker", regions=(RegionSpec("heap", heap_mb * MB, "numeric"),)
    )
    world.register_program("heapworker", worker, spec)


def _store_world(n_nodes=2, seed=0, heap_mb=8, n_procs=1, **kwargs):
    world = build_world(n_nodes, seed=seed)
    _register_heapworker(world, heap_mb)
    comp = DmtcpComputation(world, store=True, **kwargs)
    hosts = world.machine.hostnames
    for i in range(n_procs):
        comp.launch(hosts[i % n_nodes], "heapworker")
    world.engine.run(until=1.0)
    return world, comp


# ----------------------------------------------------------------------
# Chunking and content identity
# ----------------------------------------------------------------------

def test_chunk_layout_covers_size_without_spanning():
    assert chunk_layout(0, MB) == []
    assert chunk_layout(MB, MB) == [MB]
    assert chunk_layout(3 * MB + 5, MB) == [MB, MB, MB, 5]
    assert sum(chunk_layout(7 * MB + 123, MB)) == 7 * MB + 123


def test_chunk_digest_deterministic_and_distinct():
    a = chunk_digest("k", 1, 0, 0, MB, "numeric")
    assert a == chunk_digest("k", 1, 0, 0, MB, "numeric")
    assert a != chunk_digest("k", 1, 1, 0, MB, "numeric")  # index
    assert a != chunk_digest("k", 1, 0, 1, MB, "numeric")  # generation
    assert a != chunk_digest("k", 1, 0, 0, MB, "zero")  # profile
    assert a != chunk_digest("q", 1, 0, 0, MB, "numeric")  # content key


def test_gen0_dedups_across_ranks_gen1_does_not():
    # two ranks, same program-derived content key, different region ids
    r0 = region_chunks("app:0:heap", 11, 2 * MB, "numeric", {}, MB)
    r1 = region_chunks("app:0:heap", 42, 2 * MB, "numeric", {}, MB)
    assert [c.digest for c in r0] == [c.digest for c in r1]
    # once written, each rank's lineage diverges
    w0 = region_chunks("app:0:heap", 11, 2 * MB, "numeric", {0: 1}, MB)
    w1 = region_chunks("app:0:heap", 42, 2 * MB, "numeric", {0: 1}, MB)
    assert w0[0].digest != w1[0].digest
    # the untouched tail chunk still dedups
    assert w0[1].digest == w1[1].digest == r0[1].digest


def test_dirty_chunk_count_is_a_prefix_fraction():
    assert dirty_chunk_count(4 * MB, 0.0, MB) == 0
    assert dirty_chunk_count(4 * MB, 0.25, MB) == 1
    assert dirty_chunk_count(4 * MB, 0.26, MB) == 2
    assert dirty_chunk_count(4 * MB, 1.0, MB) == 4
    assert dirty_chunk_count(0, 1.0, MB) == 0


def test_advance_generations_bumps_dirty_prefix():
    class R:
        size = 4 * MB
        dirty_fraction = 0.5
        chunk_gens = {}

    region = R()
    assert advance_generations(region, MB) == 2
    assert region.chunk_gens == {0: 1, 1: 1}
    assert advance_generations(region, MB) == 2
    assert region.chunk_gens == {0: 2, 1: 2}


# ----------------------------------------------------------------------
# Placement
# ----------------------------------------------------------------------

def test_placement_is_k_wide_rack_diverse_and_deterministic():
    world = build_world(8, seed=0)
    store = ChunkStore(world, replicas=2, rack_size=2)
    digests = [chunk_digest("k", 0, i, 0, MB, "numeric") for i in range(64)]
    primaries = set()
    for digest in digests:
        placed = store.placement(digest)
        assert len(placed) == 2
        assert len(set(placed)) == 2
        # rack-diverse: the two replicas never share a rack
        assert store.rack_of(placed[0]) != store.rack_of(placed[1])
        assert placed == store.placement(digest)  # pure function
        primaries.add(placed[0])
    # rendezvous hashing spreads primaries over the cluster
    assert len(primaries) >= 4


def test_placement_degrades_gracefully_with_fewer_racks_than_replicas():
    world = build_world(4, seed=0)
    store = ChunkStore(world, replicas=3, rack_size=8)  # one rack total
    placed = store.placement("d" * 32)
    assert len(placed) == 3
    assert len(set(placed)) == 3


def test_store_rejects_nonpositive_replicas():
    world = build_world(2, seed=0)
    with pytest.raises(ValueError, match="replicas"):
        ChunkStore(world, replicas=0)


# ----------------------------------------------------------------------
# End-to-end write path: dedup across ranks and generations
# ----------------------------------------------------------------------

def test_cross_rank_dedup_stores_unique_bytes_once():
    world, comp = _store_world(n_nodes=2, n_procs=2)
    out = comp.checkpoint()
    store = world.store
    assert store.stats["dedup_hits"] > 0
    # both ranks carry the same program image: unique ~ half of logical
    assert store.stats["unique_bytes"] <= store.stats["logical_bytes"] / 2 + MB
    assert store.summary()["dedup_ratio"] >= 1.9
    # every image shrank to a manifest + this rank's unique share
    assert out.total_stored_bytes < out.total_image_bytes / 2


def test_shared_chunks_are_split_across_the_ranks_that_hold_them():
    """Four ranks with the same image: each compresses and pushes a
    quarter of it, and the trace shows the lease wait apart from work."""
    world, comp = _store_world(n_nodes=2, n_procs=4)
    world.tracer.enable()
    comp.checkpoint()
    summary = world.store.summary()
    assert summary["lease_writers"] == 4
    assert summary["lease_max_share"] == pytest.approx(0.25, abs=0.05)
    assert world.tracer.snapshot()["store.lease_max_share"] == summary["lease_max_share"]
    waits = [s for s in world.tracer.spans(cat="store") if s["name"] == "store.lease_wait"]
    writes = {s["track"]: s for s in world.tracer.spans(cat="mtcp") if s["name"] == "mtcp.write"}
    assert len(waits) == 4
    for wait in waits:
        write = writes[wait["track"]]
        assert write["begin"] <= wait["begin"] and wait["end"] < write["end"]


def test_retried_lease_returns_same_rows_and_moves_no_counter():
    """A writer whose lease reply was lost sends its manifest again: it
    must get its rows back, not be told it owns nothing."""
    store = ChunkStore(build_world(4, seed=0))
    refs = region_chunks("key", 0, 2 * MB, "numeric", {}, MB)
    rows = [[r.digest, r.nbytes, r.profile, r.nbytes // 3] for r in refs]
    first = store.lease(rows, ("node00", 1), 1)
    stats = dict(store.stats)
    assert len(first) == 2
    assert store.lease(rows, ("node00", 1), 1) == first
    assert store.stats == stats


def test_generation_dedup_second_checkpoint_is_manifest_sized():
    world, comp = _store_world(n_nodes=2, n_procs=1)
    out1 = comp.checkpoint()
    out2 = comp.checkpoint()
    # the worker never touches its heap: checkpoint 2 leases nothing
    assert out2.total_stored_bytes < out1.total_stored_bytes / 4
    assert world.store.stats["chunks_stored"] == len(
        {d for d in world.store.chunks}
    )


def test_written_region_reuploads_only_dirty_prefix():
    world, comp = _store_world(n_nodes=2, n_procs=1, heap_mb=8)
    comp.checkpoint()
    unique_after_1 = world.store.stats["unique_bytes"]
    proc = next(p for p in world.live_processes() if p.program == "heapworker")
    heap = proc.address_space.regions[-1]
    heap.touch(0.25)  # app writes a quarter of its 8 MB heap
    world.engine.run(until=world.engine.now + 0.5)
    comp.checkpoint()
    new_bytes = world.store.stats["unique_bytes"] - unique_after_1
    # only the dirty chunk prefix went back up (2 of 8 chunks), not the
    # whole heap and not the untouched code/stack regions
    assert 0 < new_bytes <= 0.5 * 8 * MB


def test_store_images_are_manifests_with_refs():
    world, comp = _store_world()
    out = comp.checkpoint()
    for host, paths in out.plan.images_by_host.items():
        for path in paths:
            payload = _image_file(world, host, path).payload
            refs = payload.store_refs
            assert refs, f"{path} has no chunk refs"
            assert all(len(r) == 3 for r in refs)
            # manifest-sized, not payload-sized
            assert payload.stored_bytes < payload.image_bytes


# ----------------------------------------------------------------------
# Restart round-trip and relocation
# ----------------------------------------------------------------------

def test_store_restart_roundtrip_preserves_content_identity():
    world, comp = _store_world(n_nodes=2, n_procs=1)
    out = comp.checkpoint(kill=True)
    restart = comp.restart(out.plan)
    assert restart.duration > 0
    procs = [p for p in world.live_processes() if p.program == "heapworker"]
    assert len(procs) == 1
    region = procs[0].address_space.regions[-1]
    # content identity survives the restart (future checkpoints dedup)
    assert region.content_key is not None
    assert region.dirty_fraction == 0.0 and region.written is False
    # and the next checkpoint is pure dedup
    before = world.store.stats["unique_bytes"]
    comp.checkpoint()
    assert world.store.stats["unique_bytes"] == before


def test_store_relocation_is_a_manifest_copy():
    world, comp = _store_world(n_nodes=2, n_procs=1)
    out = comp.checkpoint(kill=True)
    world.engine.run(until=world.engine.now + 5.0)  # drain replication
    dst = world.machine.hostnames[1]
    copied_before = world.machine.node(dst).disk.bytes_written
    restart = comp.restart(out.plan, placement={"node00": dst})
    copied = world.machine.node(dst).disk.bytes_written - copied_before
    assert restart.duration > 0
    procs = [p for p in world.live_processes() if p.program == "heapworker"]
    assert procs and procs[0].node.hostname == dst
    # relocation moved manifests (KBs), never the chunk payloads (MBs):
    # everything else node01 wrote is its own replica set + fetch traffic
    assert copied < 8 * MB


def test_restart_fails_fast_when_no_live_replica():
    world, comp = _store_world(n_nodes=4, n_procs=1, heap_mb=4)
    out = comp.checkpoint(kill=True)
    world.engine.run(until=world.engine.now + 5.0)  # drain replication
    store = world.store
    holders = {h for m in store.chunks.values() for h in m.present}
    for host in sorted(holders - {comp.coordinator_host}):
        world.crash_node(host)
    if comp.coordinator_host in holders:
        world.crash_node(comp.coordinator_host)
        world.reboot_node(comp.coordinator_host)
        comp.respawn_coordinator()
        # reboot wiped nothing on disk, but the page cache is gone and
        # presence filtering keeps only up hosts -- with every other
        # holder down the rebooted host still holds its own replicas, so
        # drop them explicitly to model total loss
        for meta in store.chunks.values():
            meta.present.discard(comp.coordinator_host)
    with pytest.raises(RestartError, match="no live replica"):
        comp.restart(out.plan)


def _landed_at(world, futures, seen: list) -> None:
    """Append the virtual time the last of ``futures`` settles."""
    left = [f for f in futures if not f.done]
    if not left:
        seen.append(world.engine.now)
        return

    def one_done():
        left.pop()
        if not left:
            seen.append(world.engine.now)

    for fut in list(left):
        fut.add_done(one_done)


def test_second_reader_waits_for_a_chunk_still_in_flight_to_its_host():
    """Two readers on one host fetch the same chunks.  The first fetch
    marks them cached on the host when it submits the reads; the second
    reader's hit must wait for those reads to land, not for nothing."""
    world, comp = _store_world(n_nodes=3, n_procs=1)
    out = comp.checkpoint()
    (host, paths), = out.plan.images_by_host.items()
    refs = _image_file(world, host, paths[0]).payload.store_refs
    reader = next(h for h in world.machine.hostnames if h != host)
    world.store.drop_cache(reader)
    store = world.store
    submitted = world.engine.now
    first, _ = store.fetch(reader, refs)
    hits = store.stats["cache_hit_fetches"]
    second, info = store.fetch(reader, refs)
    assert info["cache_fetches"] == len(refs)
    assert store.stats["cache_hit_fetches"] == hits + len(refs)
    landed_first, landed_second = [], []
    _landed_at(world, first, landed_first)
    _landed_at(world, second, landed_second)
    world.engine.run(until=world.engine.now + 5.0)
    assert landed_first and landed_second
    assert landed_first[0] > submitted
    assert landed_second[0] >= landed_first[0]
    # the in-flight record goes once the fetch lands
    assert not store.inflight_fetch.get(reader)


# ----------------------------------------------------------------------
# Guards (satellite: serial-only fail-fast; forked incompatibility)
# ----------------------------------------------------------------------

def _store_on_bound_world(ctx) -> str:
    world = build_world(2, seed=0)
    ctx.bind(world)
    try:
        DmtcpComputation(world, store=True)
    except SimulationError as err:
        return str(err)
    return ""


def test_store_with_shards_fails_fast_naming_serial_fallback():
    result = run_sharded(_store_on_bound_world, 2, backend="inline", timeout_s=60)
    for message in result.values:
        assert "serial" in message and "2 shards" in message
    # one shard is the serial fallback: the store runs there
    assert run_sharded(_store_on_bound_world, 1, backend="inline", timeout_s=60).root_value == ""


def test_store_rejects_forked_checkpoints():
    world, comp = _store_world()
    with pytest.raises(ValueError, match="forked"):
        comp.checkpoint(forked=True)


# ----------------------------------------------------------------------
# Lineage-skip logging (satellite: orphaned lineage is loud)
# ----------------------------------------------------------------------

def test_supervisor_logs_lineage_skip_when_newest_images_invalid():
    world = build_world(2, seed=0)
    _register_heapworker(world)
    comp = DmtcpComputation(world, store=True)
    comp.launch("node00", "heapworker")
    world.engine.run(until=1.0)
    comp.checkpoint()
    world.engine.run(until=world.engine.now + 0.5)
    newest = comp.checkpoint()
    world.tracer.enable()
    # corrupt the newest checkpoint's images (torn write: no payload)
    bad = []
    for host, paths in newest.plan.images_by_host.items():
        for path in paths:
            _image_file(world, host, path).payload = None
            bad.append((host, path))
    chosen = find_newest_valid_plan(world, comp.state, expected=1)
    assert chosen is not None and chosen.ckpt_id < newest.ckpt_id
    # the skip is queryable, not silent
    failures = world.scheduler.failures
    assert len(failures) == len(bad)
    host = bad[0][0]
    assert failures.by_host(host)
    assert failures.by_program("heapworker")
    assert all(isinstance(exc, LineageSkipped) for _t, exc in failures)
    assert world.tracer.counters.get("store.lineage_skipped") == len(bad)
    # polling again does not re-log the same skip
    find_newest_valid_plan(world, comp.state, expected=1)
    assert len(failures) == len(bad)


def test_store_image_restorable_feeds_supervisor_validation():
    world, comp = _store_world(n_nodes=4, n_procs=1, heap_mb=4)
    newest = comp.checkpoint(kill=True)
    world.engine.run(until=world.engine.now + 5.0)
    store = world.store
    # all holders down and their replicas gone: the plan must be skipped
    holders = {h for m in store.chunks.values() for h in m.present}
    for host in sorted(holders):
        world.crash_node(host)
    assert find_newest_valid_plan(world, comp.state, expected=1) is None
    assert store.stats["lineage_skipped"] > 0


# ----------------------------------------------------------------------
# Estimate cache (satellite: content-keyed hits across ranks)
# ----------------------------------------------------------------------

def test_estimate_cache_content_key_hits_across_region_ids():
    world = build_world(2, seed=0)
    cache = compression.EstimateCache()
    a = cache.get([(MB, "numeric")], world.spec.cpu, content_key="digest-a")
    assert cache.misses == 1 and cache.hits == 0
    b = cache.get([(MB, "numeric")], world.spec.cpu, content_key="digest-a")
    assert cache.hits == 1
    assert a is b
    # without a content key, the multiset key still works and is distinct
    c = cache.get([(MB, "numeric")], world.spec.cpu)
    assert cache.misses == 2
    assert c.output_bytes == a.output_bytes


def test_first_checkpoint_estimate_hits_across_ranks():
    compression.ESTIMATE_CACHE.clear()
    world, comp = _store_world(n_nodes=2, n_procs=2)
    comp.checkpoint()
    # rank 1's shared chunks hit rank 0's content-keyed entries on the
    # very first checkpoint (the multiset key could not do this)
    assert world.tracer.counters.get("store.estimate_cache_hits", 0) == 0  # tracer off
    assert compression.ESTIMATE_CACHE.hits > 0
