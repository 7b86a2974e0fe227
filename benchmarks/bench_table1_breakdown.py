"""Table 1: per-stage checkpoint (1a) and restart (1b) breakdown for
NAS/MG under OpenMPI on 8 nodes: uncompressed / compressed / forked."""

import pytest

from repro.harness.report import table
from repro.harness.table1 import run_table1

from benchmarks._util import run_timed, save_and_print, save_json

_RESULTS: dict[str, object] = {}
_WALL: dict[str, float] = {}


@pytest.mark.parametrize("mode", ["uncompressed", "compressed", "forked"])
def test_table1_mode(benchmark, mode):
    # the paper's Table 1 setup: NAS/MG, OpenMPI, 8 nodes (1 rank/node)
    result, wall = run_timed(benchmark, lambda: run_table1(mode, n_nodes=8, ranks=8))
    _RESULTS[mode] = result
    _WALL[mode] = wall
    assert result.ckpt_total > 0


def test_table1_summary_shapes(benchmark):
    if len(_RESULTS) < 3:
        pytest.skip("needs the parametrized runs in the same session")
    benchmark(lambda: None)
    rows_a = []
    for mode in ("uncompressed", "compressed", "forked"):
        rows_a.extend(_RESULTS[mode].table1a_rows())
    rows_b = []
    for mode in ("uncompressed", "compressed"):
        rows_b.extend(_RESULTS[mode].table1b_rows())
    text = (
        table(["mode", "stage", "measured_s", "paper_s"], rows_a,
              title="Table 1a -- checkpoint stages (NAS/MG, OpenMPI, 8 nodes)")
        + "\n\n"
        + table(["mode", "stage", "measured_s", "paper_s"], rows_b,
                title="Table 1b -- restart stages")
    )
    save_and_print("table1_breakdown", text)
    save_json(
        "table1_breakdown",
        {
            "modes": {m: _RESULTS[m] for m in _RESULTS},
            "wall_clock_s": _WALL,
        },
    )

    un, gz, fk = (_RESULTS[m] for m in ("uncompressed", "compressed", "forked"))
    # 1a shapes: write dominates; compression multiplies the write stage;
    # forked checkpointing all but eliminates the visible write
    for r in (un, gz):
        assert r.ckpt_stages["write"] == max(r.ckpt_stages.values())
    assert gz.ckpt_stages["write"] > 2.5 * un.ckpt_stages["write"]
    assert fk.ckpt_stages["write"] < un.ckpt_stages["write"] / 3
    # suspend ~tens of ms, elect ~ms or less, drain ~0.1 s
    for r in (un, gz, fk):
        assert 0.01 < r.ckpt_stages["suspend"] < 0.1
        assert r.ckpt_stages["elect"] < r.ckpt_stages["suspend"]
        assert 0.02 < r.ckpt_stages["drain"] < 0.4
        assert r.ckpt_stages["refill"] < 0.05
    # 1b shapes: restore-memory dominates; compressed restore is slower
    # than uncompressed but faster than the compressed checkpoint
    for mode in ("uncompressed", "compressed"):
        r = _RESULTS[mode]
        assert r.restart_stages["restore_memory"] == max(r.restart_stages.values())
    assert gz.restart_stages["restore_memory"] > un.restart_stages["restore_memory"]
    assert gz.restart_total < gz.ckpt_total
