"""Shared helpers for the benchmark suite.

Every bench regenerates one of the paper's tables/figures: it runs the
matching harness driver (simulated time), prints the paper-shaped rows,
saves them under ``benchmarks/results/``, and asserts the qualitative
shape the paper reports.  ``REPRO_FULL_SCALE=1`` switches the
distributed benches to the paper's exact rank counts (slower host-side).
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import pathlib
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
REPO_ROOT = pathlib.Path(__file__).parent.parent


def full_scale() -> bool:
    return os.environ.get("REPRO_FULL_SCALE", "0") == "1"


def save_and_print(name: str, text: str) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


def _jsonable(obj):
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return dataclasses.asdict(obj)
    if isinstance(obj, pathlib.Path):
        return str(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def save_json(name: str, payload: dict, path: pathlib.Path | None = None) -> pathlib.Path:
    """Write machine-readable results (simulated metrics + wall-clock).

    Every bench emits one of these next to its ``.txt`` so the perf
    trajectory is comparable across commits without parsing tables.
    Dataclass results serialize field-by-field.
    """
    out = path or (RESULTS_DIR / f"{name}.json")
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, default=_jsonable, sort_keys=True) + "\n")
    return out


def run_once(benchmark, fn):
    """Run a driver exactly once under pytest-benchmark's clock."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def run_timed(benchmark, fn):
    """``run_once`` that also reports host wall-clock seconds."""
    t0 = time.perf_counter()
    result = run_once(benchmark, fn)
    return result, time.perf_counter() - t0


def quick_mode() -> bool:
    """``REPRO_BENCH_QUICK=1``: one timing rep, small scenario variants."""
    return os.environ.get("REPRO_BENCH_QUICK", "0") == "1"


def calibrate(loops: int = 2_000_000, reps: int = 3) -> float:
    """Seconds for a fixed, deterministic CPU loop on this host.

    Wall-clock baselines are only comparable across machines after
    normalizing by single-core speed; the regression gate scales its
    tolerance by ``calibrate(now) / calibrate(baseline_host)``.  Takes
    the best of ``reps`` runs -- the minimum is the honest estimate of
    single-core speed, anything above it is scheduler noise.
    """
    best = math.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(loops):
            acc = (acc + i * i) % 1_000_003
        # keep `acc` observable so the loop cannot be optimized away
        assert acc >= 0
        elapsed = time.perf_counter() - t0
        if elapsed < best:
            best = elapsed
    return best


def compare_results(old_json, new_json, tol: float = 1e-9, wall_tol: float = 0.25):
    """Diff two benchmark result payloads (dicts or paths to JSON files).

    Two kinds of numeric keys get two different rules:

    * **wall-clock keys** (name contains ``wall``): host time, inherently
      noisy -- only a *regression* beyond ``new > old * (1 + wall_tol)``
      counts as a failure; getting faster never does;
    * **everything else**: simulated metrics, which are deterministic --
      any relative drift beyond ``tol`` is a failure.

    Returns ``(ok, failures)`` where ``failures`` is a list of
    human-readable strings, one per offending key.
    """
    if not isinstance(old_json, dict):
        old_json = json.loads(pathlib.Path(old_json).read_text())
    if not isinstance(new_json, dict):
        new_json = json.loads(pathlib.Path(new_json).read_text())
    failures: list[str] = []
    _compare_node(old_json, new_json, "", tol, wall_tol, failures)
    return not failures, failures


def _compare_node(old, new, path, tol, wall_tol, failures) -> None:
    if isinstance(old, dict) and isinstance(new, dict):
        for key in old:
            sub = f"{path}.{key}" if path else str(key)
            if key not in new:
                failures.append(f"{sub}: missing from new results")
            else:
                _compare_node(old[key], new[key], sub, tol, wall_tol, failures)
        return
    if isinstance(old, (list, tuple)) and isinstance(new, (list, tuple)):
        if len(old) != len(new):
            failures.append(f"{path}: length {len(old)} -> {len(new)}")
            return
        for i, (o, n) in enumerate(zip(old, new)):
            _compare_node(o, n, f"{path}[{i}]", tol, wall_tol, failures)
        return
    if isinstance(old, bool) or isinstance(new, bool) or not (
        isinstance(old, (int, float)) and isinstance(new, (int, float))
    ):
        if old != new:
            failures.append(f"{path}: {old!r} -> {new!r}")
        return
    if "wall" in path.rsplit(".", 1)[-1].lower():
        if new > old * (1.0 + wall_tol):
            failures.append(
                f"{path}: wall-clock regression {old:.4g} s -> {new:.4g} s "
                f"(> {wall_tol:.0%} tolerance)"
            )
        return
    scale = max(abs(old), abs(new), 1e-30)
    if abs(old - new) / scale > tol:
        failures.append(f"{path}: simulated metric drift {old!r} -> {new!r}")
