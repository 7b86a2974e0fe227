"""Figure 6: checkpoint/restart time vs total memory (synthetic OpenMPI
allocator, 32 nodes, compression disabled, local disks)."""

import pytest

from repro.harness.fig6 import run_fig6_point
from repro.harness.report import table

from benchmarks._util import full_scale, run_timed, save_and_print, save_json

POINTS_GB = [2, 8, 16, 32, 48, 64]

_ROWS: dict[float, object] = {}
_WALL: dict[str, float] = {}


def _ranks():
    # 1 rank/node keeps the per-node memory (the quantity Figure 6
    # sweeps) identical to the paper's 4-per-node setup, far cheaper
    return 128 if full_scale() else 32


@pytest.mark.parametrize("total_gb", POINTS_GB)
def test_fig6_point(benchmark, total_gb):
    point, wall = run_timed(
        benchmark, lambda: run_fig6_point(float(total_gb), ranks=_ranks())
    )
    _ROWS[total_gb] = point
    _WALL[str(total_gb)] = wall
    assert point.checkpoint_s > 0 and point.restart_s > 0


def test_fig6_summary_shapes(benchmark):
    if len(_ROWS) < len(POINTS_GB):
        pytest.skip("needs the parametrized runs in the same session")
    benchmark(lambda: None)
    text = table(
        ["total_GB", "ckpt_s", "restart_s", "implied_MB_per_s_per_node"],
        [
            (gb, p.checkpoint_s, p.restart_s, p.implied_write_mbps)
            for gb, p in sorted(_ROWS.items())
        ],
        title="Figure 6 -- time vs total memory (no compression, local disk)",
    )
    save_and_print("fig6_memory", text)
    save_json(
        "fig6_memory",
        {
            "points": {str(gb): p for gb, p in sorted(_ROWS.items())},
            "wall_clock_s": _WALL,
        },
    )

    points = [p for _gb, p in sorted(_ROWS.items())]
    # time grows monotonically (and roughly linearly) with memory
    ckpts = [p.checkpoint_s for p in points]
    assert all(b > a for a, b in zip(ckpts, ckpts[1:])), ckpts
    # "The implied bandwidth is well beyond the typical 100 MB/s of
    # disk, and is presumably indicating the use of secondary storage
    # cache in the Linux kernel."
    assert all(p.implied_write_mbps > 150 for p in points[1:]), [
        p.implied_write_mbps for p in points
    ]
    # restart is in the same ballpark as checkpoint (cache + page-table
    # effects), not dramatically slower
    assert all(p.restart_s < 2.5 * p.checkpoint_s for p in points[1:])
    # ... nor dramatically faster: the paper's restart curve tracks its
    # checkpoint curve (an uncompressed image has no gunzip child reading
    # ahead, so read and page instantiation do not overlap)
    assert all(p.restart_s > 0.85 * p.checkpoint_s for p in points[1:])
