"""Ablation: is the centralized coordinator a bottleneck?

Section 5.4: "It also demonstrates that the single checkpoint
coordinator, which implements barriers, is not a bottleneck."  We count
barrier messages and the coordinator's processing time per checkpoint
as the computation grows.
"""

from repro.harness.ablations import run_coordinator_load
from repro.harness.report import table

from benchmarks._util import run_timed, save_and_print, save_json

SIZES = [8, 32, 96]


def test_coordinator_not_a_bottleneck(benchmark):
    def run_all():
        central = [run_coordinator_load(n) for n in SIZES]
        tree = [run_coordinator_load(n, tree=True) for n in SIZES]
        return central, tree

    (central, tree), wall = run_timed(benchmark, run_all)
    rows = central + tree
    text = table(
        ["mode", "processes", "ckpt_s", "root_barrier_msgs", "coord_cpu_s"],
        [
            ("tree-1" if r.tree else "central", r.processes, r.checkpoint_s,
             r.barrier_messages, r.coordinator_seconds_per_ckpt)
            for r in rows
        ],
        title="Coordinator load ablation (centralized vs Section 6's "
        "distributed combining-tree barriers: a depth-1 gateway tree)",
    )
    save_and_print("ablation_coordinator", text)
    save_json(
        "ablation_coordinator",
        {"central": central, "tree": tree, "wall_clock_s": wall},
    )

    # central barrier traffic is linear in process count...
    per_proc = [r.barrier_messages / r.processes for r in central]
    assert max(per_proc) < 1.5 * min(per_proc)
    # ...and the coordinator's share of the checkpoint stays negligible
    # ("the single checkpoint coordinator ... is not a bottleneck")
    for r in central:
        assert r.coordinator_seconds_per_ckpt < 0.05 * r.checkpoint_s
    # checkpoint time itself stays nearly flat with more processes
    ckpts = [r.checkpoint_s for r in central]
    assert max(ckpts) < 2.0 * min(ckpts), ckpts
    # the distributed coordinator cuts root barrier traffic to O(nodes):
    # constant in the process count, and far below central at scale
    for c, d in zip(central, tree):
        assert d.barrier_messages <= c.barrier_messages / 2
        assert d.checkpoint_s < 1.5 * c.checkpoint_s  # no regression
    assert tree[-1].barrier_messages == tree[0].barrier_messages
    assert tree[-1].barrier_messages < central[-1].barrier_messages / 10
