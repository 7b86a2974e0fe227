"""Table 1: per-stage breakdown for NAS/MG under OpenMPI on 8 nodes.

1a: checkpoint stages (uncompressed / compressed / forked-compressed);
1b: restart stages (uncompressed / compressed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from statistics import mean

from repro.core.launch import DmtcpComputation
from repro.core.stats import CKPT_STAGES, RESTART_STAGES, aggregate_stages
from repro.harness.experiment import build_world

#: Paper's Table 1 reference values (seconds), for EXPERIMENTS.md.
PAPER_TABLE1A = {
    "uncompressed": {"suspend": 0.0251, "elect": 0.0014, "drain": 0.1019, "write": 0.6333, "refill": 0.0006},
    "compressed": {"suspend": 0.0217, "elect": 0.0013, "drain": 0.1020, "write": 3.9403, "refill": 0.0008},
    "forked": {"suspend": 0.0250, "elect": 0.0013, "drain": 0.1017, "write": 0.0618, "refill": 0.0016},
}
PAPER_TABLE1B = {
    "uncompressed": {"restore_files": 0.0056, "reconnect": 0.0400, "restore_memory": 0.8139, "refill": 0.0009},
    "compressed": {"restore_files": 0.0088, "reconnect": 0.0214, "restore_memory": 2.1167, "refill": 0.0018},
}


@dataclass
class Table1Result:
    """Stage breakdowns for one Table 1 column."""

    mode: str  # uncompressed | compressed | forked
    ckpt_stages: dict[str, float] = field(default_factory=dict)
    restart_stages: dict[str, float] = field(default_factory=dict)
    ckpt_total: float = 0.0
    restart_total: float = 0.0
    #: Mean seconds of the image write that ran under stages 3-4 (before
    #: ``BARRIER_DRAINED``); ``ckpt_stages["write"]`` is the exposed rest.
    write_hidden_s: float = 0.0

    def table1a_rows(self) -> list[tuple]:
        """This column's ``(mode, stage, measured_s, paper_s)`` rows.  The
        write row shows what the computation waited for beside the whole
        write, the part hidden under the drain included."""
        paper = PAPER_TABLE1A[self.mode]
        rows = []
        for stage, measured in self.ckpt_stages.items():
            if stage == "write":
                total = measured + self.write_hidden_s
                rows.append((self.mode, "write (exposed / total)",
                             (measured, total), paper[stage]))
            else:
                rows.append((self.mode, stage, measured, paper[stage]))
        rows.append((self.mode, "TOTAL", self.ckpt_total, sum(paper.values())))
        return rows

    def table1b_rows(self) -> list[tuple]:
        """This column's restart rows.  ``image_read`` (the header pass)
        has no paper row; the refill's return trip runs under
        ``restore_memory``, so the refill row is the peers' re-sends."""
        paper = PAPER_TABLE1B[self.mode]
        labels = {"refill": "refill (return under restore_memory)"}
        rows = [
            (self.mode, labels.get(stage, stage), measured, paper.get(stage, "—"))
            for stage, measured in self.restart_stages.items()
        ]
        rows.append((self.mode, "TOTAL", self.restart_total, sum(paper.values())))
        return rows


def run_table1(
    mode: str,
    seed: int = 0,
    n_nodes: int = 8,
    ranks: int = 32,
    nas_scale: float = 1.0,
    warmup_s: float = 6.0,
) -> Table1Result:
    """One column of Table 1 (both halves when a restart is possible)."""
    assert mode in ("uncompressed", "compressed", "forked")
    world = build_world(n_nodes, seed)
    comp = DmtcpComputation(world, compression=(mode != "uncompressed"))
    comp.launch(
        "node00",
        "orterun",
        ["orterun", "-n", str(ranks), "nas_mg", "1000000"],
        env={"NAS_SCALE": str(nas_scale)},
    )
    world.engine.run(until=warmup_s)
    ckpt = comp.checkpoint(forked=(mode == "forked"))
    result = Table1Result(mode=mode)
    result.ckpt_stages = aggregate_stages(ckpt.records, CKPT_STAGES)
    result.ckpt_total = sum(result.ckpt_stages.values())
    result.write_hidden_s = mean(r.write_hidden_s for r in ckpt.records)
    if mode != "forked":  # paper reports restart for (un)compressed only
        kill = comp.checkpoint(kill=True)
        restart = comp.restart(plan=kill.plan)
        stage_rows = [
            {"stages": r["stages"]} for r in restart.records
        ]
        result.restart_stages = {
            name: sum(r["stages"].get(name, 0.0) for r in restart.records)
            / max(len(restart.records), 1)
            for name in RESTART_STAGES
        }
        result.restart_total = sum(result.restart_stages.values())
    return result
