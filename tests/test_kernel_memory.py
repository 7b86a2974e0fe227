"""Memory subsystem and /proc rendering tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import KernelError
from repro.kernel.memory import PROFILES, AddressSpace, MemoryRegion


def test_regions_page_aligned_and_disjoint():
    space = AddressSpace(page_bytes=4096)
    regions = [space.map_region(n, "heap", PROFILES["text"]) for n in (1, 4095, 4097)]
    assert [r.size for r in regions] == [4096, 4096, 8192]
    spans = sorted((r.start, r.end) for r in regions)
    for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
        assert e1 <= s2  # no overlap (guard pages between)


def test_sbrk_accumulates_heap_regions():
    space = AddressSpace()
    space.sbrk(10_000, PROFILES["text"])
    space.sbrk(20_000, PROFILES["numeric"])
    heaps = [r for r in space.regions if r.kind == "heap"]
    assert len(heaps) == 2
    assert space.total_bytes >= 30_000


def test_sbrk_rejects_nonpositive():
    with pytest.raises(KernelError):
        AddressSpace().sbrk(0, PROFILES["zero"])


def test_unmap_removes_and_errors_on_unknown():
    space = AddressSpace()
    region = space.map_region(4096, "anon", PROFILES["zero"])
    space.unmap(region.region_id)
    assert space.total_bytes == 0
    with pytest.raises(KernelError):
        space.unmap(region.region_id)


def test_fork_copy_private_regions_diverge_shared_alias():
    space = AddressSpace()
    private = space.map_region(4096, "heap", PROFILES["text"])
    shared = space.map_region(4096, "shm", PROFILES["zero"], shared=True)
    child = space.fork_copy()
    child_private = next(r for r in child.regions if r.kind == "heap")
    child_shared = next(r for r in child.regions if r.kind == "shm")
    assert child_private is not private  # copied
    assert child_shared is shared  # aliased


def test_fork_shared_region_dirty_state_stays_aliased():
    # Store generations depend on this: a shared region is one physical
    # mapping, so a child's post-fork writes must bump the chunks of the
    # parent's next generation, and the parent cleaning at Barrier 5
    # must clean the child's view too.
    space = AddressSpace()
    shared = space.map_region(8192, "shm", PROFILES["numeric"], shared=True)
    shared.clean()
    child = space.fork_copy()
    child_shared = next(r for r in child.regions if r.kind == "shm")
    child_shared.touch(0.5)
    assert shared.dirty_fraction == 0.5  # child write visible to parent
    shared.clean()
    assert child_shared.dirty_fraction == 0.0  # parent clean visible to child


def test_fork_private_region_dirty_state_diverges():
    # A private region is COW: the clone starts with the parent's dirty
    # fraction (those pages differ from the last image in both copies),
    # then the two track independently.
    space = AddressSpace()
    private = space.map_region(8192, "heap", PROFILES["text"])
    private.clean()
    private.touch(0.25)
    child = space.fork_copy()
    child_private = next(r for r in child.regions if r.kind == "heap")
    assert child_private.dirty_fraction == 0.25  # inherited at fork
    child_private.touch(0.5)
    assert private.dirty_fraction == 0.25  # parent unaffected
    private.clean()
    assert child_private.dirty_fraction == 0.75  # child unaffected


def test_region_ids_are_counted_per_world():
    # store digests of written chunks mix the region id into the lineage,
    # so the second world of an interpreter must number the same program's
    # regions as the first one did (fork copies included)
    from repro.cluster import build_cluster

    def region_ids():
        world = build_cluster(n_nodes=1, seed=3)
        seen = []

        def child(sys):
            seen.append((yield from sys.mmap(4096)))
            pid = yield from sys.getpid()
            space = world.find_process("node00", pid).address_space
            seen.append([r.region_id for r in space.regions])

        def main(sys, argv):
            seen.append((yield from sys.mmap(8192, "numeric")))
            seen.append((yield from sys.sbrk(4096)))
            yield from sys.waitpid((yield from sys.fork(child)))

        world.register_program("p", main)
        parent = world.spawn_process("node00", "p")
        world.engine.run()
        assert not world.scheduler.failures
        return seen, [r.region_id for r in parent.address_space.regions]

    seen, parent_ids = region_ids()
    assert (seen, parent_ids) == region_ids()
    child_ids = seen[3]
    # the private copies fork made are the child's own
    assert len(set(child_ids)) == len(child_ids) and not set(child_ids) & set(parent_ids)


def test_dirty_tracking_touch_and_clean():
    region = MemoryRegion(0, 4096, "heap", PROFILES["text"])
    assert region.dirty_fraction == 1.0  # born dirty
    region.clean()
    assert region.dirty_fraction == 0.0
    region.touch(0.3)
    region.touch(0.3)
    assert region.dirty_fraction == pytest.approx(0.6)
    region.touch(0.9)
    assert region.dirty_fraction == 1.0  # clamped


@settings(max_examples=20, deadline=None)
@given(
    profile=st.sampled_from(sorted(PROFILES)),
    n=st.integers(min_value=1, max_value=100_000),
)
def test_property_samplers_exact_length(profile, n):
    rng = np.random.default_rng(0)
    assert len(PROFILES[profile].sample(n, rng)) == n


def test_samplers_deterministic_given_rng_state():
    a = PROFILES["code"].sample(8192, np.random.default_rng(5))
    b = PROFILES["code"].sample(8192, np.random.default_rng(5))
    assert a == b


# ----------------------------------------------------------------------
# /proc rendering
# ----------------------------------------------------------------------

def test_render_maps_and_fd_listing():
    from repro.cluster import build_cluster
    from repro.kernel.procfs import count_libraries, render_fds, render_maps

    world = build_cluster(n_nodes=1, seed=95)
    out = {}

    def main(sys, argv):
        yield from sys.mmap(1 << 20, "numeric")
        a, b = yield from sys.socketpair()
        fd = yield from sys.open("/tmp/x", "w")
        yield from sys.sleep(10.0)

    world.register_program("m", main)
    proc = world.spawn_process("node00", "m")
    world.engine.run(until=1.0)
    maps = render_maps(proc)
    assert len(maps.splitlines()) == len(proc.address_space.regions)
    assert all("-" in line for line in maps.splitlines())
    fds = render_fds(proc)
    assert "SocketEndpoint" in fds and "OpenFile" in fds
    assert count_libraries(proc) == 0


def test_count_libraries_matches_runcms_spec():
    from repro.apps import register_all_apps
    from repro.cluster import build_cluster
    from repro.kernel.procfs import count_libraries

    world = build_cluster(n_nodes=1, seed=96)
    register_all_apps(world)
    proc = world.spawn_process("node00", "runcms", ["runcms", "0.1"])
    world.engine.run(until=1.0)
    assert count_libraries(proc) == 540
