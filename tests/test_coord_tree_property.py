"""Property battery: the coordination tree is observationally invisible.

The hierarchical layer (repro.coord.tree) must not change the protocol
-- only who carries the messages.  For randomized memberships and
fanouts, a checkpoint/restart cycle through the tree must produce
byte-identical images (same ``image_checksum`` per process) and the
identical sequence of barrier releases, with identical quorum counts,
as the flat star.

Pid alignment: pids are allocated per node, and tree mode consumes one
pid per node for its gateway.  The star world therefore spawns one
inert placeholder process per node at the same point, so every app
lands on the same vpid in both worlds and the checksums (which cover
``ckpt_id:hostname:vpid:program:image_bytes:stored_bytes``)
are directly comparable.
"""

from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.core.launch import DmtcpComputation
from repro.core.mtcp import image_checksum

#: Tight example budgets: every example builds and runs two full
#: simulated clusters, so the value is in membership diversity, not
#: example count.
EXAMPLES = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: membership: 2-5 nodes, 0-3 app processes each, at least one app
memberships = st.lists(
    st.integers(min_value=0, max_value=3), min_size=2, max_size=5
).filter(lambda counts: sum(counts) >= 1)
fanouts = st.integers(min_value=1, max_value=8)
seeds = st.integers(min_value=0, max_value=2**16)


def _sleeper(world):
    def main(sys, argv):
        for _ in range(10_000):
            yield from sys.sleep(0.05)

    world.register_program("app", main)


def _placeholder(world):
    """Inert pid-consumer standing in for a tree gateway in star mode."""

    def main(sys, argv):
        while True:
            yield from sys.sleep(3600.0)

    world.register_program("placeholder", main)


def _build(counts, seed, fanout=None, hostnames=None, **comp_kw):
    """One world (star when ``fanout`` is None, tree otherwise) with
    ``counts[i]`` app processes on node i."""
    if hostnames is None:
        hostnames = [f"node{i:02d}" for i in range(len(counts))]
    world = build_cluster(n_nodes=len(counts), seed=seed, hostnames=hostnames)
    _sleeper(world)
    _placeholder(world)
    comp = DmtcpComputation(world, tree_fanout=fanout, **comp_kw)
    if fanout is None:
        for host in hostnames:
            world.spawn_process(host, "placeholder")
    for host, n in zip(hostnames, counts):
        for _ in range(n):
            comp.launch(host, "app")
    world.engine.run(until=0.5)
    return world, comp


def _checksums(world, plan):
    """(host, vpid) -> image checksum, read host-side off the image files."""
    out = {}
    for host, paths in plan.images_by_host.items():
        for path in paths:
            mount = world.node_state(host).mounts.resolve(path)
            image = mount.namespace.lookup(path).payload
            out[(host, image.vpid)] = image_checksum(image)
    return out


def _releases(comp):
    """Barrier release order with quorum counts, timestamps excluded."""
    return [(s["name"], s["n"]) for s in comp.state.barrier_stats]


def _no_failures(*worlds):
    for world in worlds:
        assert not world.scheduler.failures, [
            (t.name, e) for t, e in world.scheduler.failures
        ]


def _assert_equivalent(counts, seed, fanout, hostnames=None, **comp_kw):
    star_world, star = _build(counts, seed, hostnames=hostnames, **comp_kw)
    tree_world, tree = _build(
        counts, seed, fanout=fanout, hostnames=hostnames, **comp_kw
    )
    star_out = star.checkpoint()
    tree_out = tree.checkpoint()
    assert len(star_out.records) == len(tree_out.records) == sum(counts)
    assert _checksums(star_world, star_out.plan) == _checksums(
        tree_world, tree_out.plan
    )
    assert _releases(star) == _releases(tree)
    _no_failures(star_world, tree_world)
    return (star_world, star), (tree_world, tree)


# ----------------------------------------------------------------------
# Randomized equivalence
# ----------------------------------------------------------------------
@EXAMPLES
@given(counts=memberships, fanout=fanouts, seed=seeds)
def test_property_checkpoint_images_byte_identical(counts, fanout, seed):
    """Random membership x fanout: same images, same barrier releases."""
    _assert_equivalent(counts, seed, fanout)


@EXAMPLES
@given(counts=memberships, fanout=fanouts, seed=seeds)
def test_property_restart_cycle_equivalent(counts, fanout, seed):
    """kill-checkpoint -> restart -> checkpoint again: the second-
    generation images and the full release history (checkpoint barriers,
    restart barriers, second-checkpoint barriers) match the star's."""
    (star_world, star), (tree_world, tree) = _assert_equivalent(
        counts, seed, fanout
    )
    star.checkpoint(kill=True)
    tree.checkpoint(kill=True)
    star.restart()
    tree.restart()
    star_out2 = star.checkpoint()
    tree_out2 = tree.checkpoint()
    assert _checksums(star_world, star_out2.plan) == _checksums(
        tree_world, tree_out2.plan
    )
    assert _releases(star) == _releases(tree)
    _no_failures(star_world, tree_world)


@EXAMPLES
@given(
    ranks=st.sets(st.integers(min_value=0, max_value=11), min_size=2, max_size=5),
    fanout=fanouts,
    seed=seeds,
)
def test_property_sparse_membership_equivalent(ranks, fanout, seed):
    """Memberships with holes (machine files like node[00,03,07-08])
    behave identically: nothing in the tree assumes dense numbering."""
    hostnames = [f"node{i:02d}" for i in sorted(ranks)]
    counts = [1] * len(hostnames)
    _assert_equivalent(counts, seed, fanout, hostnames=hostnames)


@EXAMPLES
@given(counts=memberships, fanout=fanouts, seed=seeds)
def test_property_supervised_mode_equivalent(counts, fanout, seed):
    """Supervision (checksummed manifests, watchdog, heartbeats) layers
    identically over both transports."""
    _assert_equivalent(counts, seed, fanout, supervise=True)


# ----------------------------------------------------------------------
# Deterministic corners of the fanout space
# ----------------------------------------------------------------------
def test_fanout_one_chain_equals_star():
    """fanout=1 degenerates to a relay chain (maximum tree depth)."""
    _assert_equivalent([2, 1, 2, 1], seed=7, fanout=1)


def test_fanout_covering_all_nodes_equals_star():
    """fanout >= n_nodes collapses to a single gateway level."""
    _assert_equivalent([1, 2, 1, 2], seed=8, fanout=16)


def test_store_generation_equals_star():
    """Store generations are byte-identical through the tree: a first
    generation, then one that leases only the changed chunks."""
    star_world, star = _build([1, 1, 1], seed=9, store=True)
    tree_world, tree = _build([1, 1, 1], seed=9, fanout=2, store=True)
    for comp in (star, tree):
        comp.checkpoint()
    star_world.engine.run(until=star_world.engine.now + 1.0)
    tree_world.engine.run(until=tree_world.engine.now + 1.0)
    star_out = star.checkpoint()
    tree_out = tree.checkpoint()
    assert _checksums(star_world, star_out.plan) == _checksums(
        tree_world, tree_out.plan
    )
    assert _releases(star) == _releases(tree)
    _no_failures(star_world, tree_world)


def test_mixed_node_load_release_counts():
    """Unbalanced membership (one loaded node, one empty node): the
    quorum arithmetic through counted gateway messages stays exact."""
    (_, star), (_, tree) = _assert_equivalent([3, 0, 1, 0, 2], seed=10, fanout=2)
    releases = _releases(tree)
    assert releases == _releases(star)
    # every checkpoint barrier saw exactly the six app processes
    assert {n for _, n in releases} == {6}


def test_property_equivalence_at_256_processes():
    """The ISSUE's upper bound: a 256-process membership (16 nodes x 16
    procs) is still observationally identical through the tree."""
    counts = [16] * 16
    _assert_equivalent(counts, seed=11, fanout=4)
