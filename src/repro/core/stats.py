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
from typing import Optional

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
    """Accumulates (stage -> duration) for one process's checkpoint or restart.

    Each stage is one tracer span on ``track``; durations come from the
    tracer's span measurements (which work even when recording is off).
    The clock knows its open stage, so an error path ends it with
    :meth:`close` without tracking which stage it was in.
    """

    __slots__ = ("tracer", "track", "cat", "tenant", "stages", "open", "open_cat")

    def __init__(self, tracer: Tracer, track: str, cat: str = "ckpt", tenant=None):
        self.tracer = tracer
        self.track = track
        self.cat = cat
        self.tenant = tenant
        self.stages: dict[str, float] = {}
        #: The stage whose span is open (None between stages), and its cat.
        self.open: Optional[str] = None
        self.open_cat = cat

    def begin(self, stage: str, cat: Optional[str] = None) -> float:
        """Open the span for ``stage`` (cat ``cat``, default the clock's);
        returns its begin timestamp."""
        self.open_cat = cat or self.cat
        began = self.tracer.begin(self.track, stage, cat=self.open_cat, tenant=self.tenant)
        self.open = stage
        return began

    def end(self, stage: str, **args) -> None:
        """Close the open stage span with ``args``, accumulating its duration."""
        duration = self.tracer.end(self.track, stage, cat=self.open_cat, tenant=self.tenant, **args)
        self.open = None
        self.stages[stage] = self.stages.get(stage, 0.0) + duration

    def close(self) -> None:
        """Error path: end the open stage, if there is one."""
        if self.open is not None:
            self.end(self.open)

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
    #: When stage 6 began.  The record rides the member's Barrier-6
    #: arrival, so ``stages`` has no ``refill`` until the coordinator
    #: closes it at the release it stamps (:meth:`close_refill`).
    refill_began: float = 0.0

    def close_refill(self, release_t: float) -> None:
        """Stage 6 ends at the ``refilled`` release."""
        self.stages["refill"] = release_t - self.refill_began

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
