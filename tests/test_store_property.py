"""Property tests for store chunking: manifests reassemble byte-identically.

The simulator carries no literal page bytes, so "byte-identical" means the
conserved quantities the physics depends on: a region's chunk manifest
must cover exactly its size with boundary-respecting chunks, digests must
be a pure function of (content key, lineage, index, generation, size,
profile), and generation advances must preserve the digests of untouched
chunks while changing exactly the dirty prefix -- including along whole
delta chains of successive checkpoints.

The second half pins the generation-wide balanced lease: the assignment
is a pure function of the manifest set, leases every new chunk exactly
once to a writer that holds it, keeps the first-come dedup totals, and
stays within the greedy list-scheduling bound.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import CLUSTER_2008
from repro.core.launch import DmtcpComputation
from repro.harness.experiment import build_world
from repro.harness.fig4 import register_fig4
from repro.store import (
    ChunkStore,
    advance_generations,
    chunk_digest,
    chunk_layout,
    dirty_chunk_count,
    region_chunks,
)

KB = 1 << 10

region_sizes = st.lists(
    st.integers(min_value=1, max_value=64 * KB), min_size=1, max_size=8
)
chunk_sizes = st.sampled_from([1 * KB, 4 * KB, 16 * KB])
profiles = st.sampled_from(["numeric", "code", "zero", "text"])


class _Region:
    def __init__(self, size, dirty_fraction):
        self.size = size
        self.dirty_fraction = dirty_fraction
        self.chunk_gens = {}


@settings(max_examples=50, deadline=None)
@given(sizes=region_sizes, chunk_bytes=chunk_sizes, profile=profiles)
def test_property_manifest_covers_layout_exactly(sizes, chunk_bytes, profile):
    """chunk -> manifest -> reassemble is size-conserving for any region
    layout: per-region totals and chunk boundaries match the layout."""
    for rid, size in enumerate(sizes):
        refs = region_chunks(f"k{rid}", rid, size, profile, {}, chunk_bytes)
        layout = chunk_layout(size, chunk_bytes)
        assert [r.nbytes for r in refs] == layout
        assert sum(r.nbytes for r in refs) == size
        assert all(0 < n <= chunk_bytes for n in layout)
        # chunks never span regions: each region's manifest is complete
        # on its own, independent of its neighbours
        alone = region_chunks(f"k{rid}", rid, size, profile, {}, chunk_bytes)
        assert [r.digest for r in alone] == [r.digest for r in refs]


@settings(max_examples=50, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=64 * KB),
    chunk_bytes=chunk_sizes,
    profile=profiles,
    rid_a=st.integers(min_value=0, max_value=100),
    rid_b=st.integers(min_value=101, max_value=200),
)
def test_property_gen0_digests_shared_gen1_private(
    size, chunk_bytes, profile, rid_a, rid_b
):
    """Gen-0 digests depend only on the content key (cross-rank dedup);
    written generations mix in the region's private lineage."""
    a = region_chunks("shared", rid_a, size, profile, {}, chunk_bytes)
    b = region_chunks("shared", rid_b, size, profile, {}, chunk_bytes)
    assert [c.digest for c in a] == [c.digest for c in b]
    wa = region_chunks("shared", rid_a, size, profile, {0: 1}, chunk_bytes)
    wb = region_chunks("shared", rid_b, size, profile, {0: 1}, chunk_bytes)
    assert wa[0].digest != wb[0].digest
    assert wa[0].digest != a[0].digest
    # distinct content keys never collide at any generation
    other = region_chunks("other", rid_a, size, profile, {}, chunk_bytes)
    assert other[0].digest != a[0].digest


@settings(max_examples=50, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=64 * KB),
    chunk_bytes=chunk_sizes,
    profile=profiles,
    dirties=st.lists(
        st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6
    ),
)
def test_property_delta_chain_shares_untouched_chunks(
    size, chunk_bytes, profile, dirties
):
    """Along a chain of checkpoints with arbitrary dirty fractions, each
    generation's manifest differs from its parent in exactly the dirty
    prefix; everything past the prefix keeps its digest (the incremental
    delta win without parent-image chains)."""
    region = _Region(size, 0.0)
    prev = region_chunks("k", 7, size, profile, region.chunk_gens, chunk_bytes)
    n = len(prev)
    for dirty in dirties:
        region.dirty_fraction = dirty
        bumped = advance_generations(region, chunk_bytes)
        assert bumped == dirty_chunk_count(size, dirty, chunk_bytes)
        cur = region_chunks("k", 7, size, profile, region.chunk_gens, chunk_bytes)
        assert len(cur) == n
        assert sum(c.nbytes for c in cur) == size
        for i in range(n):
            if i < bumped:
                assert cur[i].digest != prev[i].digest
            else:
                assert cur[i].digest == prev[i].digest
        prev = cur


@settings(max_examples=50, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=64 * KB),
    chunk_bytes=chunk_sizes,
    profile=profiles,
    gens=st.dictionaries(
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=9),
        max_size=8,
    ),
)
def test_property_digests_are_pure(size, chunk_bytes, profile, gens):
    """Digest computation is a pure function: recomputing the manifest
    from the same inputs is identical (restart replays it exactly)."""
    a = region_chunks("k", 3, size, profile, gens, chunk_bytes)
    b = region_chunks("k", 3, size, profile, dict(gens), chunk_bytes)
    assert a == b
    for index, ref in enumerate(a):
        gen = gens.get(index, 0)
        assert ref.digest == chunk_digest("k", 3, index, gen, ref.nbytes, profile)


# ----------------------------------------------------------------------
# The generation-wide balanced lease (ChunkStore.lease_generation)
# ----------------------------------------------------------------------

HOSTS = [f"node{i:02d}" for i in range(4)]
POOL = [f"digest{i:02d}" for i in range(12)]

#: A generation: chunk sizes for the digest pool, which of them an
#: earlier generation already made durable, and one manifest (a digest
#: list, repeats allowed) per writer.
generations = st.fixed_dictionaries(
    {
        "sizes": st.lists(
            st.integers(min_value=1, max_value=64 * KB),
            min_size=len(POOL), max_size=len(POOL),
        ),
        "durable": st.sets(st.sampled_from(POOL), max_size=4),
        "manifests": st.dictionaries(
            st.tuples(st.sampled_from(HOSTS), st.integers(min_value=1, max_value=6)),
            st.lists(st.sampled_from(POOL), min_size=1, max_size=10),
            min_size=1, max_size=8,
        ),
    }
)


def _rows(digests, sizes):
    size = dict(zip(POOL, sizes))
    return [[d, size[d], "numeric", size[d] // 3] for d in digests]


def _store_with(durable, sizes):
    """A 4-node store in which ``durable`` is already committed, and the
    stats it had at that point."""
    store = ChunkStore(build_world(len(HOSTS), seed=0))
    if durable:
        store.lease(_rows(sorted(durable), sizes), ("node00", 99), 0)
        store.commit(sorted(durable), "node00")
    return store, dict(store.stats)


def _first_come(arrival, durable):
    """Reference: the totals of leasing each manifest on arrival."""
    leased: dict[str, int] = {}
    hits = logical = 0
    for _owner, rows in arrival:
        for digest, nbytes, _profile, _est in rows:
            logical += nbytes
            if digest in durable or digest in leased:
                hits += 1
            else:
                leased[digest] = nbytes
    return {
        "logical_bytes": logical,
        "dedup_hits": hits,
        "unique_bytes": sum(leased.values()),
        "chunks_stored": len(leased),
    }


@settings(max_examples=60, deadline=None)
@given(gen=generations, order=st.randoms(use_true_random=False))
def test_property_lease_is_balanced_exact_and_order_free(gen, order):
    sizes, durable = gen["sizes"], gen["durable"]
    manifests = {o: _rows(ds, sizes) for o, ds in gen["manifests"].items()}
    store, before = _store_with(durable, sizes)
    needs = store.lease_generation(manifests, 1)

    # (a) arrival order is invisible: any permutation, same need per owner
    arrival = list(manifests.items())
    order.shuffle(arrival)
    twin, _ = _store_with(durable, sizes)
    assert twin.lease_generation(dict(arrival), 1) == needs

    # (b) every non-durable digest is leased exactly once, and only to a
    # writer whose manifest holds it at the returned index
    leased = []
    for owner, need in needs.items():
        for index, _target in need:
            digest = manifests[owner][index][0]
            assert store.chunks[digest].lease_owner == owner
            leased.append(digest)
    wanted = {row[0] for rows in manifests.values() for row in rows} - durable
    assert sorted(leased) == sorted(wanted)

    # (c) the counters equal the first-come totals, whatever the order
    store.commit(leased, "node00")
    moved = {k: store.stats[k] - before[k] for k in _first_come([], set())}
    assert moved == _first_come(arrival, durable)

    # (d) greedy list-scheduling bound: when a writer takes its last
    # chunk it is the least loaded of that chunk's holders
    nbytes = dict(zip(POOL, sizes))
    holders = {
        d: sum(1 for rows in manifests.values() if any(r[0] == d for r in rows))
        for d in wanted
    }
    total = sum(nbytes[d] for d in wanted)
    load = {
        owner: sum(manifests[owner][index][1] for index, _t in need)
        for owner, need in needs.items()
    }
    if wanted:
        assert max(load.values()) <= max(
            total / holders[d] + nbytes[d] for d in wanted
        )


@settings(max_examples=30, deadline=None)
@given(gen=generations)
def test_property_retried_manifest_gets_same_rows_and_moves_no_counter(gen):
    sizes = gen["sizes"]
    manifests = {o: _rows(ds, sizes) for o, ds in gen["manifests"].items()}
    store, _ = _store_with(gen["durable"], sizes)
    needs = store.lease_generation(manifests, 1)
    stats = dict(store.stats)
    for owner, rows in manifests.items():
        assert store.lease(rows, owner, 1) == needs[owner]
    assert store.stats == stats


def _store_point_checkpoint_s(latency_scale: float, ranks: int = 16) -> float:
    net = CLUSTER_2008.network
    spec = CLUSTER_2008.with_(
        network=replace(net, latency_s=net.latency_s * latency_scale)
    )
    world = build_world(ranks // 4, 0, spec=spec)
    register_fig4(world)
    comp = DmtcpComputation(world, compression=True, store=True)
    comp.launch(
        "node00",
        "mpich2_job",
        ["mpich2_job", str(ranks), "pargeant4", "1000000", "0.05"],
        env={"MPI_LAZY_CONNECT": "1"},
    )
    world.engine.run(until=8.0)
    return comp.checkpoint().duration


def test_store_checkpoint_time_is_insensitive_to_message_timing():
    """The lease no longer depends on which manifest wins a race, so a
    1e-4 change in network latency cannot re-deal the unique chunks."""
    base = _store_point_checkpoint_s(1.0)
    nudged = _store_point_checkpoint_s(1.0 + 1e-4)
    assert abs(nudged - base) / base < 1e-3
