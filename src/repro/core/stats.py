"""Per-stage timing records (Table 1 comes straight out of these).

Since the observability refactor, :class:`StageClock` is a thin veneer
over :class:`repro.obs.Tracer` spans: ``begin``/``end`` open and close a
span on the process's track, and the recorded stage duration is exactly
the span's duration.  Table 1 numbers and exported traces therefore come
from the same measurement and can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import mean

from repro.obs.tracer import Tracer

#: Stage names, matching Table 1 rows.
CKPT_STAGES = [
    "suspend",
    "elect",
    "drain",
    "write",
    "refill",
]
#: ``image_read`` is the restarter's header pass, carried into every
#: restored process's record; its span is MTCP image I/O (cat ``mtcp``,
#: like ``mtcp.write``), the rest are cat ``restart`` spans.
RESTART_STAGES = [
    "image_read",
    "restore_files",
    "reconnect",
    "restore_memory",
    "refill",
]


class StageClock:
    """Accumulates (stage -> duration) for one process's checkpoint.

    Each stage is one tracer span on ``track``; durations come from the
    tracer's span measurements (which work even when recording is off).
    """

    __slots__ = ("tracer", "track", "cat", "tenant", "t_start", "stages")

    def __init__(self, tracer: Tracer, track: str, cat: str = "ckpt", tenant=None):
        self.tracer = tracer
        self.track = track
        self.cat = cat
        self.tenant = tenant
        self.t_start = tracer.clock()
        self.stages: dict[str, float] = {}

    def begin(self, stage: str) -> None:
        """Open the span for ``stage``."""
        self.tracer.begin(self.track, stage, cat=self.cat, tenant=self.tenant)

    def end(self, stage: str) -> None:
        """Close the open stage span, accumulating its duration."""
        duration = self.tracer.end(self.track, stage, cat=self.cat, tenant=self.tenant)
        self.stages[stage] = self.stages.get(stage, 0.0) + duration

    @property
    def total(self) -> float:
        """Sum of all recorded stage durations."""
        return sum(self.stages.values())


@dataclass
class CheckpointRecord:
    """One process's contribution to one cluster-wide checkpoint."""

    ckpt_id: int
    hostname: str
    vpid: int
    program: str
    stages: dict[str, float]
    image_bytes: int
    stored_bytes: int
    compressed: bool
    #: Seconds of the image write that ran before ``BARRIER_DRAINED``
    #: released, under stages 3-4; ``stages["write"]`` is the exposed
    #: rest (Barrier 4 -> Barrier 5).  0 for a forked checkpoint.
    write_hidden_s: float = 0.0

    @property
    def total(self) -> float:
        """Sum of this record's stage durations."""
        return sum(self.stages.values())


def aggregate_stages(records: list[CheckpointRecord], names: list[str]) -> dict[str, float]:
    """Mean per-stage duration across processes (Table 1 methodology:
    per-node parallel stages are averaged; barrier-to-barrier stages are
    effectively equal across processes)."""
    out = {}
    for name in names:
        vals = [r.stages.get(name, 0.0) for r in records]
        out[name] = mean(vals) if vals else 0.0
    return out
