"""The ledger's one command.

    python3 -m ledger.run --workload NAME --seed N --seconds S --trace 0|1

measures one workload in this interpreter: a warm-up rep, timed reps for
S seconds, and with ``--trace 1`` one traced and one profiled rep.  It
prints every metric by name and unit; the last line of standard output
is the JSON object ``BENCHMARK.json``'s contract asks for.

    python3 -m ledger.run [--seed N] [--seconds S] [--runs K] [--out PATH]

runs every workload that way, each run in a fresh child interpreter
(so peak RSS and cache state belong to that run alone), untraced then
traced, and writes the whole ledger with a host record to ``--out``.

Both forms exit non-zero when a correctness check fails.  There is no
quick mode and there are no environment switches.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # set-up time counts from here, imports included

import argparse
import cProfile
import gc
import json
import os
import pathlib
import platform
import pstats
import resource
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = pathlib.Path(__file__).resolve().parent / "results"
BASELINE = ROOT / "benchmarks" / "baselines" / "perf_core_baseline.json"

#: ``src/repro/<package>/`` directories that get a ``host_self_s`` row;
#: everything else the profiler sees is ``other``
LAYERS = ("sim", "kernel", "hardware", "core", "coord", "store", "service",
          "faults", "obs", "mpi", "apps")
#: benchmark-owned spans reported as ``phase.<name>_s``
PHASES = ("build", "launch", "warmup", "checkpoint", "restart", "run")


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _import_workloads():
    """Import the program from this checkout's ``src`` -- never from an
    installed copy -- and the workload table built on it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit("ledger: nothing to measure: src/repro is not in this checkout")
    for path in (str(ROOT), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from ledger import workloads

    return workloads


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

def summarize(values: list[float]) -> dict:
    """Median, quartiles and n.  With fewer than ~200 samples no tail
    percentile has ten samples beyond it, so none is given."""
    if len(values) >= 2:
        q1, _q2, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------

def calibrate() -> float:
    """Seconds for a fixed pure-Python spin loop (best of three): a unit
    for comparing ledgers taken on different hosts."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def noisy(load1: float) -> bool:
    """A busy host makes host-time numbers that look like regressions."""
    return load1 > (os.cpu_count() or 1) / 2


def host_record() -> dict:
    load = os.getloadavg()[0]
    return {
        "nproc": os.cpu_count() or 1,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "calibration_s": calibrate(),
        "load1_start": load,
        "noisy": noisy(load),
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------

def _one_rep(rep_fn, inputs, rec, trace: bool, verify: bool):
    """Run one rep; returns ``(rep, host seconds)``.  A rep that raises
    is one failed operation, not a crashed benchmark."""
    gc.collect()  # the previous rep's world is garbage; don't time its collection
    t0 = time.perf_counter()
    try:
        rep = rep_fn(inputs, rec, trace, verify)
    except Exception as exc:  # noqa: BLE001 - boundary: report and carry on
        from ledger.workloads import Rep

        rep = Rep()
        rep.check(False, f"rep raised {type(exc).__name__}: {exc}")
    return rep, time.perf_counter() - t0


def _gate(reference, rep, label: str) -> None:
    """Every rep must reproduce the warm-up rep: same artifact digests,
    same virtual metrics, same number of logged task failures."""
    for group, digest in rep.digests.items():
        if group in reference.digests:
            rep.check(digest == reference.digests[group],
                      f"{label}: {group} artifacts differ from the warm-up rep")
    shared = rep.virtual.keys() & reference.virtual.keys()
    rep.check(all(rep.virtual[k] == reference.virtual[k] for k in shared),
              f"{label}: virtual metrics differ from the warm-up rep")
    rep.check(rep.failures_logged == reference.failures_logged,
              f"{label}: {rep.failures_logged} task failures logged, "
              f"warm-up logged {reference.failures_logged}")


def _baseline_check(name: str, inputs, rep) -> None:
    """At seed 0 the pinned scenarios must reproduce the values pinned in
    benchmarks/baselines (read here, never copied, so a later re-pin
    stays consistent)."""
    if inputs.slowdown != 1.0:
        return
    if not BASELINE.is_file():
        print(f"note: {BASELINE.relative_to(ROOT)} is absent; baseline cross-check skipped")
        return
    pinned = json.loads(BASELINE.read_text())
    if name == "fig5-san-128":
        sim = pinned["fig5_128_san"]["sim"]
        want = {"ckpt_s": sim["checkpoint_s"], "restart_s": sim["restart_s"],
                "stored_mb": sim["aggregate_stored_mb"]}
        got = rep.virtual
    elif name in ("coord-star-4096", "coord-tree-4096"):
        sim = pinned["coord_scaling"]["sim"][name.split("-", 1)[1].replace("-", "_")]
        want = {"ckpt_s": sim["checkpoint_s"], "barrier_s": sim["mean_barrier_latency_s"],
                "core.barrier_messages": sim["root_messages"]}
        got = {**rep.virtual, **rep.layer}
    else:
        return
    for key, value in want.items():
        rep.check(got.get(key) == value,
                  f"seed 0: {key} = {got.get(key)!r}, pinned baseline has {value!r}")


def _profile_by_layer(rep_fn, inputs) -> tuple[dict[str, float], float]:
    """One rep under cProfile; tottime summed by ``src/repro/<pkg>/``."""
    marker = os.sep + os.path.join("src", "repro") + os.sep
    gc.collect()
    profiler = cProfile.Profile()
    t0 = time.perf_counter()
    profiler.enable()
    try:
        rep_fn(inputs, None, False, False)
    finally:
        profiler.disable()
    wall = time.perf_counter() - t0
    by_layer = {layer: 0.0 for layer in LAYERS + ("other",)}
    for (filename, _line, _func), row in pstats.Stats(profiler).stats.items():
        tottime = row[2]
        head = filename.rsplit(marker, 1)[1].split(os.sep, 1)[0] if marker in filename else ""
        by_layer[head if head in LAYERS else "other"] += tottime
    return by_layer, wall


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result with both metric sets."""
    workloads = _import_workloads()
    from ledger.trace import SpanRecorder

    if name not in workloads.WORKLOADS:
        sys.exit(f"ledger: unknown workload {name!r}; have {', '.join(workloads.WORKLOADS)}")
    rep_fn = workloads.WORKLOADS[name]
    inputs = workloads.Inputs.from_seed(seed)
    load_start = os.getloadavg()[0]

    warm, _wall = _one_rep(rep_fn, inputs, None, False, True)
    _baseline_check(name, inputs, warm)
    setup_s = time.perf_counter() - _T0

    reps, walls = [], []
    t_measure = time.perf_counter()
    while time.perf_counter() - t_measure < seconds:
        rep, wall = _one_rep(rep_fn, inputs, None, False, False)
        _gate(warm, rep, f"rep {len(reps)}")
        reps.append(rep)
        walls.append(wall)

    everything = [warm, *reps]
    virtual = {}
    for rep in everything:
        virtual.update(rep.virtual)
    wall_stats = summarize(walls)
    wall_s = wall_stats["median"]
    end_to_end = {"setup_s": setup_s, "wall_s": wall_s, **virtual}
    layer: dict[str, float] = {}
    if trace:
        rec = SpanRecorder()
        traced, traced_wall = _one_rep(rep_fn, inputs, rec, True, False)
        _gate(warm, traced, "traced rep")
        everything.append(traced)
        by_layer, profiled_wall = _profile_by_layer(rep_fn, inputs)
        layer.update(traced.layer)
        layer.update({f"{pkg}.host_self_s": t for pkg, t in by_layer.items()})
        totals = rec.total_by_name()
        layer.update({f"phase.{p}_s": totals[p] for p in PHASES if p in totals})
        layer["trace.overhead_ratio"] = traced_wall / wall_s
        layer["trace.profile_ratio"] = profiled_wall / wall_s
        layer["trace.unattributed_frac"] = 1.0 - sum(by_layer.values()) / profiled_wall
        if layer.get("sim.events_fired") and not reps[0].rates:
            # (layers-micro's wall is mostly its isolated sections, not events)
            layer["sim.us_per_event"] = 1e6 * wall_s / layer["sim.events_fired"]
        for key in reps[0].rates:
            layer[key] = statistics.median(rep.rates[key] for rep in reps)
        if name == "layers-micro":
            from ledger.micro import sharded_counts

            layer.update(sharded_counts())
        RESULTS.mkdir(exist_ok=True)
        rec.write_jsonl(RESULTS / f"trace-{name}.jsonl")
    # read last: the traced and profiled reps belong to this process too
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    digests = {}
    for rep in everything:
        digests.update(rep.digests)
    load_end = os.getloadavg()[0]
    return {
        "workload": name,
        "seed": seed,
        "attempted": sum(rep.attempted for rep in everything),
        "failed": sum(rep.failed for rep in everything),
        "problems": [p for rep in everything for p in rep.problems],
        "artifact_sha256": workloads.digest_of(digests),
        "end_to_end": end_to_end,
        "per_layer": layer,
        "wall_s": wall_stats,
        "load1": [load_start, load_end],
        "noisy": noisy(load_start),
    }


def report_single(result: dict, trace: bool, contract: dict) -> int:
    """Print one run's metrics, then the contract's JSON line."""
    declared = contract["per_layer" if trace else "end_to_end"]
    measured = result["per_layer" if trace else "end_to_end"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"artifact_sha256 {result['artifact_sha256'][:16]}")
    w = result["wall_s"]
    print(f"  wall_s reps: median {w['median']:.4f}  q1 {w['q1']:.4f}  q3 {w['q3']:.4f}  "
          f"n {w['n']} (too few for a tail percentile)")
    if result["noisy"]:
        print(f"  NOISY: 1-minute load {result['load1'][0]:.2f} at start exceeds nproc/2")
    missing = [] if trace else [m["name"] for m in declared if m["name"] not in measured]
    metrics = {}
    for m in declared:
        # a per-layer metric the workload bypasses reads 0
        value = measured.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  {m['name']:38s} {value!r:>24} {m['unit']}")
    for problem in result["problems"] + [f"end-to-end metric {n} was not produced" for n in missing]:
        print(f"  FAILED: {problem}")
    correct = result["failed"] == 0 and not missing
    print("#detail " + json.dumps(result))
    print(json.dumps({
        "correct": correct,
        "attempted": max(result["attempted"], 1),
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# The whole ledger: every workload, each run in a fresh child
# ----------------------------------------------------------------------

def _child(name: str, seed: int, seconds: float, trace: bool) -> dict:
    proc = subprocess.run(
        [sys.executable, "-m", "ledger.run", "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1" if trace else "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=175,
    )
    detail = [line for line in proc.stdout.splitlines() if line.startswith("#detail ")]
    if not detail:
        sys.exit(f"ledger: {name} (seed {seed}) produced no result:\n{proc.stdout}{proc.stderr}")
    result = json.loads(detail[-1][len("#detail "):])
    result["exit_code"] = proc.returncode
    return result


def run_ledger(seed: int, seconds: float, runs: int, out: pathlib.Path, contract: dict) -> int:
    units = {m["name"]: m["unit"] for m in contract["end_to_end"] + contract["per_layer"]}
    ledger = {"host": host_record(), "seed": seed, "seconds": seconds, "runs": runs,
              "workloads": {}}
    if ledger["host"]["noisy"]:
        print(f"NOISY: 1-minute load {ledger['host']['load1_start']:.2f} exceeds nproc/2; "
              "host-time numbers below are not trustworthy")
    status = 0
    for spec in contract["workloads"]:
        name = spec["name"]
        untraced = [_child(name, seed + i, seconds, False) for i in range(runs)]
        traced = _child(name, seed, seconds, True)
        children = untraced + [traced]
        failed = sum(c["failed"] for c in children)
        status |= int(failed > 0 or any(c["exit_code"] for c in children))
        # one run: spread over its reps (only wall_s has any); several
        # runs: spread over the runs, which is what the driver judges
        end_to_end = {}
        for metric in untraced[0]["end_to_end"]:
            values = [c["end_to_end"][metric] for c in untraced]
            stats = untraced[0]["wall_s"] if runs == 1 and metric == "wall_s" else summarize(values)
            end_to_end[metric] = {**stats, "unit": units[metric]}
        entry = {
            "why": spec["why"],
            "attempted": sum(c["attempted"] for c in children),
            "failed": failed,
            "problems": [p for c in children for p in c["problems"]],
            "artifact_sha256": traced["artifact_sha256"],
            "end_to_end": end_to_end,
            "per_layer": {k: {"value": v, "unit": units[k]}
                          for k, v in traced["per_layer"].items()},
        }
        ledger["workloads"][name] = entry
        print(f"\n== {name}: {entry['attempted']} operations, {failed} failed, "
              f"artifact {entry['artifact_sha256'][:16]}")
        for metric, s in end_to_end.items():
            print(f"  {metric:38s} {s['median']:>16.6g} {s['unit']:6s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n {s['n']}")
        for metric, row in entry["per_layer"].items():
            print(f"  {metric:38s} {row['value']:>16.6g} {row['unit']}")
        for problem in entry["problems"]:
            print(f"  FAILED: {problem}")
    ledger["host"]["load1_end"] = os.getloadavg()[0]
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
    print(f"\nledger written to {out}")
    return status


def main(argv=None) -> int:
    contract = load_contract()
    parser = argparse.ArgumentParser(prog="python3 -m ledger.run", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", help="measure this one workload in this process")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=contract["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="whole ledger: untraced runs per workload (seeds N, N+1, ...)")
    parser.add_argument("--out", type=pathlib.Path, default=RESULTS / "ledger.json")
    args = parser.parse_args(argv)
    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        return report_single(result, bool(args.trace), contract)
    _import_workloads()  # fail before spawning anything if there is no program
    return run_ledger(args.seed, args.seconds, args.runs, args.out, contract)


if __name__ == "__main__":
    sys.exit(main())
