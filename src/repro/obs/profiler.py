"""Host-side profiling for simulation scenarios: ``python -m repro profile``.

The perf work in DESIGN.md §8 lives or dies by where *host* CPU time
goes, not simulated time.  This module runs a scenario under
:mod:`cProfile` and rolls the flat profile up two ways:

* **per subsystem** -- every frame is attributed to the top-level
  ``repro`` package it lives in (``sim``, ``kernel``, ``hardware``,
  ``core``, ``obs``, ``harness``, ...), so "the engine loop costs X%,
  the syscall layer Y%" is one table instead of archaeology;
* **per function** -- the usual tottime top-N for drilling in.

When the scenario exposes a tracer (the ``obs`` trace scenarios do), its
counters are attached to the report so host time can be read against
simulated volume (events fired, context switches, syscalls dispatched).

cProfile bills a cyclic-collector pass to whichever frame allocated when
it triggered, so the report clocks the collector on its own line, from
``gc.callbacks``: passes per generation and host seconds inside them.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import io
import pstats
import time
from typing import Callable, Optional

__all__ = [
    "PERF_SCENARIOS", "CollectorClock", "ProfileReport", "profile_scenario", "format_report",
]


# ----------------------------------------------------------------------
# Scenario registry
# ----------------------------------------------------------------------

def _obs_scenario(name: str) -> Callable[[int], Optional[object]]:
    def run(seed: int):
        from repro.obs.scenarios import run_scenario

        return run_scenario(name, seed=seed)

    return run


def _fig5(storage: str, nprocs: int) -> Callable[[int], Optional[object]]:
    def run(seed: int):
        from repro.harness.fig5 import run_fig5_point

        run_fig5_point(nprocs, storage=storage)
        return None

    return run


def _runcms(seed: int):
    from repro.core.launch import DmtcpComputation
    from repro.harness.experiment import build_desktop

    world = build_desktop(seed=seed)
    comp = DmtcpComputation(world)
    proc = comp.launch("node00", "runcms", ["runcms", "20.0"])
    world.engine.run_until(lambda: proc.env.get("RUNCMS_READY") == "1")
    world.engine.run(until=world.engine.now + 1.0)
    kill = comp.checkpoint(kill=True)
    comp.restart(plan=kill.plan)
    return None


def _table1(seed: int):
    from repro.harness.table1 import run_table1

    run_table1("compressed", n_nodes=8, ranks=8)
    return None


def _perf_scenarios() -> dict[str, Callable[[int], Optional[object]]]:
    from repro.obs.scenarios import SCENARIOS

    reg: dict[str, Callable[[int], Optional[object]]] = {
        name: _obs_scenario(name) for name in SCENARIOS
    }
    reg["fig5-san"] = _fig5("san", 128)
    reg["fig5-local"] = _fig5("local", 128)
    reg["runcms"] = _runcms
    reg["table1"] = _table1
    return reg


class _LazyScenarios(dict):
    """Defers the scenario imports until the registry is first used."""

    def _fill(self) -> None:
        if not super().__len__():
            super().update(_perf_scenarios())

    def __getitem__(self, key):  # pragma: no cover - trivial
        self._fill()
        return super().__getitem__(key)

    def __iter__(self):
        self._fill()
        return super().__iter__()

    def __contains__(self, key):
        self._fill()
        return super().__contains__(key)

    def __len__(self):
        self._fill()
        return super().__len__()


PERF_SCENARIOS = _LazyScenarios()


# ----------------------------------------------------------------------
# Profiling
# ----------------------------------------------------------------------

@dataclasses.dataclass
class ProfileReport:
    """Rolled-up cProfile results for one scenario run."""

    scenario: str
    seed: int
    wall_s: float
    total_calls: int
    #: tottime seconds per top-level ``repro`` subpackage; host time
    #: outside the package is under ``"(stdlib/other)"``.
    subsystems: dict[str, float]
    #: ``(tottime_s, calls, where)`` rows, descending tottime.
    top_functions: list[tuple[float, int, str]]
    #: Tracer counters, when the scenario returned an enabled tracer.
    counters: dict[str, float]
    #: Cyclic-collector passes per generation (0, 1, 2) during the run.
    collections: list[int] = dataclasses.field(default_factory=lambda: [0, 0, 0])
    #: Host seconds spent inside those passes.
    collector_s: float = 0.0


class CollectorClock:
    """Counts and times cyclic-collector passes while installed in
    ``gc.callbacks`` (use it as a context manager)."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._t0 = 0.0

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections[info["generation"]] += 1

    def __enter__(self) -> "CollectorClock":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self)


def _subsystem_of(filename: str) -> str:
    marker = "/repro/"
    idx = filename.rfind(marker)
    if idx < 0:
        return "(stdlib/other)"
    rest = filename[idx + len(marker):]
    head = rest.split("/", 1)[0]
    return head[:-3] if head.endswith(".py") else head


def profile_scenario(name: str, seed: int = 0, top: int = 25) -> ProfileReport:
    """Run scenario ``name`` under cProfile and roll up the results."""
    if name not in PERF_SCENARIOS:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(PERF_SCENARIOS))}"
        )
    fn = PERF_SCENARIOS[name]
    prof = cProfile.Profile()
    with CollectorClock() as collector:
        t0 = time.perf_counter()
        prof.enable()
        result = fn(seed)
        prof.disable()
        wall = time.perf_counter() - t0

    stats = pstats.Stats(prof, stream=io.StringIO())
    subsystems: dict[str, float] = {}
    rows: list[tuple[float, int, str]] = []
    total_calls = 0
    for (filename, lineno, funcname), (cc, nc, tottime, _ct, _callers) in stats.stats.items():
        total_calls += nc
        sub = _subsystem_of(filename)
        subsystems[sub] = subsystems.get(sub, 0.0) + tottime
        short = filename.rsplit("/", 1)[-1]
        rows.append((tottime, nc, f"{short}:{lineno}({funcname})"))
    rows.sort(key=lambda r: r[0], reverse=True)

    counters: dict[str, float] = {}
    snapshot = getattr(result, "snapshot", None)
    if callable(snapshot):
        counters = dict(snapshot())

    return ProfileReport(
        scenario=name,
        seed=seed,
        wall_s=wall,
        total_calls=total_calls,
        subsystems=dict(sorted(subsystems.items(), key=lambda kv: kv[1], reverse=True)),
        top_functions=rows[:top],
        counters=counters,
        collections=collector.collections,
        collector_s=collector.seconds,
    )


def format_report(report: ProfileReport) -> str:
    """Render a report the way the tables in benchmarks/results read."""
    out = [
        f"profile {report.scenario!r} (seed {report.seed}): "
        f"{report.wall_s:.3f} s host wall, {report.total_calls} calls",
        "collector: {} gen0 / {} gen1 / {} gen2 passes, {:.3f} s host".format(
            *report.collections, report.collector_s
        ),
        "",
        "host time by subsystem (tottime):",
    ]
    total = sum(report.subsystems.values()) or 1.0
    for sub, t in report.subsystems.items():
        out.append(f"  {sub:16s} {t:8.3f} s  {100.0 * t / total:5.1f}%")
    out.append("")
    out.append("hottest functions (tottime):")
    for tottime, calls, where in report.top_functions:
        out.append(f"  {tottime:8.3f} s  {calls:9d}x  {where}")
    if report.counters:
        out.append("")
        out.append("tracer counters (simulated volume):")
        for key in (
            "sim.events_fired",
            "sched.context_switches",
            "sys.total",
            "dmtcp.drained_bytes",
            "dmtcp.refilled_bytes",
        ):
            if key in report.counters:
                out.append(f"  {key:28s} {report.counters[key]:g}")
    return "\n".join(out)
