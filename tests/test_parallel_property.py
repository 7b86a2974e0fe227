"""Property battery: shard count is observationally invisible.

For randomized memberships, per-process work patterns, and seeds, the
same SPMD scenario run at ``shards in {1, 2, 4}`` (inline backend) must
produce

* the identical per-node firing order -- each node's sequence of
  ``(virtual time, pid, iteration)`` work events, in the order its
  engine fired them;
* byte-identical checkpoint artifacts (image checksums and the barrier
  release sequence from a full DMTCP checkpoint);
* the identical total number of engine events fired, summed over
  shards (the replicated worlds schedule nothing globally -- every
  event belongs to exactly one owned node).

Mirrors ``test_coord_tree_property``: that battery shows the tree
transport is invisible; this one shows the *partition* is.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.core.launch import DmtcpComputation
from repro.sim.parallel import run_sharded

#: Each example runs three full sharded simulations; keep the budget in
#: membership diversity, not example count (same rationale as the tree
#: property battery).
EXAMPLES = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: membership: 2-5 nodes, 0-3 app processes each, at least one app
memberships = st.lists(
    st.integers(min_value=0, max_value=3), min_size=2, max_size=5
).filter(lambda counts: sum(counts) >= 1)
seeds = st.integers(min_value=0, max_value=2**16)


def _scenario(ctx, counts, seed, checkpoint):
    """One SPMD replica: random sleep/cpu mix, optional DMTCP checkpoint.

    Returns (per-node firing log, root artifacts | None).  Only owned
    nodes run events, so each shard's log covers exactly its block.
    """
    world = build_cluster(n_nodes=len(counts), seed=seed)
    ctx.bind(world)
    log = []

    def app(sys, argv):
        host, pid_s, period_s = argv[1], argv[2], argv[3]
        period = float(period_s)
        i = 0
        while True:  # long-lived: still a member when the checkpoint lands
            # alternate timer and cpu events so the heap sees both kinds
            if i % 2:
                yield from sys.cpu(period / 3)
            else:
                yield from sys.sleep(period)
            if i < 6:
                t = yield from sys.time()
                log.append((host, t, int(pid_s), i))
            i += 1

    world.register_program("app", app)
    comp = DmtcpComputation(world, compression=True)
    hostnames = world.machine.hostnames
    serial = 0
    for host, n in zip(hostnames, counts):
        for _ in range(n):
            # period varies per process but is identical across shard
            # counts: derived only from (seed, spawn serial number)
            period = 0.01 + ((seed + 7 * serial) % 5) * 0.003
            comp.launch(host, "app", ["app", host, str(serial), str(period)])
            serial += 1
    world.engine.run(until=0.1)
    artifacts = None
    if checkpoint:
        outcome = comp.checkpoint()
        if outcome is not None:
            artifacts = {
                "checksums": sorted(
                    f"{r.ckpt_id}:{r.hostname}:{r.vpid}:{r.program}:"
                    f"{r.image_bytes}:{r.stored_bytes}"
                    for r in outcome.records
                ),
                "releases": [
                    (s["name"], s["n"]) for s in comp.state.barrier_stats
                ],
            }
    else:
        world.engine.run(until=0.2)
    assert not world.scheduler.failures, world.scheduler.failures
    by_node: dict = {}
    for host, t, pid, i in log:
        by_node.setdefault(host, []).append((t, pid, i))
    return by_node, artifacts


def _merged(result):
    """Combine per-shard returns: node logs (disjoint), root artifacts,
    total events fired."""
    nodes: dict = {}
    artifacts = None
    for value in result.values:
        by_node, arts = value
        assert not (set(nodes) & set(by_node))  # ownership is a partition
        nodes.update(by_node)
        if arts is not None:
            assert artifacts is None  # exactly one shard owns the coordinator
            artifacts = arts
    events = sum(s["events_fired"] for s in result.stats)
    return nodes, artifacts, events


def _assert_invariant(counts, seed, checkpoint):
    base = None
    for n in (1, 2, 4):
        result = run_sharded(
            _scenario, n, counts, seed, checkpoint, backend="inline", timeout_s=120
        )
        merged = _merged(result)
        if base is None:
            base = merged
            nodes, artifacts, _ = merged
            assert sum(len(v) for v in nodes.values()) == sum(counts) * 6
            if checkpoint:
                assert artifacts is not None and len(artifacts["checksums"]) == sum(
                    counts
                )
        else:
            assert merged[0] == base[0], f"firing order diverged at shards={n}"
            assert merged[1] == base[1], f"artifacts diverged at shards={n}"
            assert merged[2] == base[2], f"events_fired diverged at shards={n}"


@EXAMPLES
@given(counts=memberships, seed=seeds)
def test_property_firing_order_invariant(counts, seed):
    """Random task graphs fire identically at every shard count."""
    _assert_invariant(counts, seed, checkpoint=False)


@EXAMPLES
@given(counts=memberships, seed=seeds)
def test_property_checkpoint_artifacts_invariant(counts, seed):
    """A full DMTCP checkpoint commits identical artifacts at every
    shard count: image checksums and barrier release sequence."""
    _assert_invariant(counts, seed, checkpoint=True)


def test_property_single_node_degenerate():
    """One node, several processes: every shard count collapses to one
    working shard plus idle replicas, and nothing diverges."""
    _assert_invariant([3], seed=5, checkpoint=True)
