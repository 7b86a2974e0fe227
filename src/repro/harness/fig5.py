"""Figure 5: checkpoint/restart time vs number of ParGeant4 processes.

ParGeant4 under MPICH2, compression on, 1 compute process per core and
4 per node: the node count varies with the process count (16..128
compute processes on 4..32 nodes).  "An additional 21 to 161 MPICH2
resource management processes are also checkpointed."

5a writes checkpoints to each node's local disk; 5b to the centralized
RAID device (8 nodes over the Fibre Channel SAN, 24 over NFS).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.launch import DmtcpComputation
from repro.harness.experiment import MB, build_world, checkpoint_and_restart_cycle
from repro.harness.fig4 import register_fig4


@dataclass
class Fig5Point:
    """One x-axis point of Figure 5."""

    compute_processes: int
    nodes: int
    total_processes: int
    checkpoint_s: float
    restart_s: float
    aggregate_stored_mb: float
    storage: str  # "local" | "san"


def run_fig5_point(
    compute_processes: int,
    storage: str = "local",
    seed: int = 0,
    procs_per_node: int = 4,
    warmup_s: float = 8.0,
    tree_fanout: int | None = None,
    store: bool = False,
) -> Fig5Point:
    """One x-axis point of Figure 5a (local) or 5b (SAN/NFS).

    ``tree_fanout`` routes coordination through the hierarchical gateway
    tree (repro.coord.tree) instead of the paper's flat star -- the
    opt-in 4k/16k/32k extension points beyond the paper's axis.
    ``store`` swaps monolithic image files for the content-addressed
    chunk store (DESIGN.md §12).
    """
    n_nodes = max(compute_processes // procs_per_node, 1)
    world = build_world(n_nodes, seed, with_san=(storage == "san"))
    register_fig4(world)
    if storage == "san":
        _mount_san_ckpt_dir(world)
    comp = DmtcpComputation(
        world,
        compression=True,
        ckpt_dir="/san/dmtcp" if storage == "san" else "/tmp/dmtcp",
        tree_fanout=tree_fanout,
        store=store,
    )
    comp.launch(
        "node00",
        "mpich2_job",
        ["mpich2_job", str(compute_processes), "pargeant4", "1000000", "0.05"],
        env={"MPI_LAZY_CONNECT": "1"},
    )
    ckpt, restart = checkpoint_and_restart_cycle(world, comp, warmup_s)
    return Fig5Point(
        compute_processes=compute_processes,
        nodes=n_nodes,
        total_processes=len(ckpt.records),
        checkpoint_s=ckpt.duration,
        restart_s=restart.duration,
        aggregate_stored_mb=ckpt.total_stored_bytes / MB,
        storage=storage,
    )


def run_fig5_tree_point(
    compute_processes: int,
    fanout: int = 32,
    seed: int = 0,
    procs_per_node: int = 16,
    warmup_s: float = 0.5,
) -> Fig5Point:
    """Fig-5 extension point through the coordination tree (4k/16k/32k).

    At these sizes the paper's full MPICH2 resource-management stack is
    the host-side bottleneck (per-rank wiring), not the thing under
    test, so the workload is a TOP-C-shaped standalone worker with
    ParGeant4's memory footprint: the image sizes and compression work
    are faithful while the measured axis -- barrier fan-in at the
    coordinator -- is exactly what the tree changes.
    """
    from repro.cluster import build_cluster

    n_nodes = max(compute_processes // procs_per_node, 1)
    world = build_cluster(n_nodes=n_nodes, seed=seed)
    _register_tree_worker(world)
    comp = DmtcpComputation(world, compression=True, tree_fanout=fanout)
    hostnames = world.machine.hostnames
    for i in range(compute_processes):
        comp.launch(hostnames[i % n_nodes], "pargeant4_worker")
    ckpt, restart = checkpoint_and_restart_cycle(world, comp, warmup_s)
    return Fig5Point(
        compute_processes=compute_processes,
        nodes=n_nodes,
        total_processes=len(ckpt.records),
        checkpoint_s=ckpt.duration,
        restart_s=restart.duration,
        aggregate_stored_mb=ckpt.total_stored_bytes / MB,
        storage="tree-local",
    )


def _register_tree_worker(world) -> None:
    """ParGeant4's per-process footprint without the MPI plumbing."""
    from repro.kernel.process import ProgramSpec, RegionSpec

    spec = ProgramSpec(
        "pargeant4_worker", regions=(RegionSpec("code", 12 * MB, "code"),)
    )

    def main(sys, argv):
        # physics tables, field maps, untouched arena (apps/pargeant4.py)
        yield from sys.sbrk(10 * MB, "text")
        yield from sys.sbrk(14 * MB, "numeric")
        yield from sys.mmap(4 * MB, "zero")
        while True:
            yield from sys.cpu(0.05)  # one event batch
            yield from sys.sleep(0.2)

    world.register_program("pargeant4_worker", main, spec)


def _mount_san_ckpt_dir(world) -> None:
    """Mount the shared checkpoint directory on every node: over Fibre
    Channel on the SAN clients, over NFS elsewhere (Figure 5b setup)."""
    from repro.kernel.filesystem import Namespace

    shared = Namespace("san:ckpt")
    for ns in world.nodes.values():
        ns.mounts.add("/san", shared, "san")
