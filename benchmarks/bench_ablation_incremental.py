"""Ablation: incremental checkpoints as store generations.

Full images vs store generations (``DmtcpComputation(store=True)``) over
Figure 3 desktop apps: stored bytes, steady-state checkpoint latency,
chunks leased per generation, and the restart round trip.  The paper's
pipeline rewrites every page every checkpoint; a store generation leases
and writes only the chunks no earlier generation stored, and the desktop
apps dirty little between checkpoints, so this is the regime where it
should win on both axes.

``REPRO_BENCH_QUICK=1`` runs a 2-app smoke subset (CI);
``REPRO_FULL_SCALE=1`` runs all 21 apps.
"""

import os
import pathlib

from repro.apps.profiles import APP_PROFILES
from repro.harness.ablations import run_incremental_suite
from repro.harness.report import table

from benchmarks._util import full_scale, run_timed, save_and_print, save_json

APPS_QUICK = ["matlab", "emacs"]
APPS_DEFAULT = ["matlab", "emacs", "python", "octave", "bc"]
#: Apps whose full checkpoint is bound by its write (1.51 s and 0.53 s,
#: against the 0.124 s drain floor a store generation reaches).
WRITE_BOUND = {"matlab", "emacs"}

REPO_ROOT = pathlib.Path(__file__).parent.parent


def _apps():
    if os.environ.get("REPRO_BENCH_QUICK", "0") == "1":
        return APPS_QUICK
    if full_scale():
        return list(APP_PROFILES)
    return [a for a in APPS_DEFAULT if a in APP_PROFILES] or APPS_QUICK


def test_incremental_ablation(benchmark):
    apps = _apps()
    results, wall = run_timed(
        benchmark, lambda: run_incremental_suite(apps, seed=0, checkpoints=3)
    )
    text = table(
        ["app", "full_ckpt_s", "incr_ckpt_s", "incr-full_us", "full_MB", "incr_MB",
         "speedup", "bytes_saved", "leased", "restart_s"],
        [
            (r.app, r.full_ckpt_s[-1], r.incr_ckpt_s[-1], r.steady_delta_us,
             r.full_stored_mb, r.incr_stored_mb, r.steady_speedup,
             r.bytes_saved_ratio, tuple(r.chunks_leased), r.restart_s)
            for r in results
        ],
        title="Incremental ablation -- full images vs store generations "
        "(Fig-3 desktop apps, 3 checkpoints each)",
    )
    save_and_print("ablation_incremental", text)
    payload = {"apps": {r.app: r for r in results}, "checkpoints_per_mode": 3}
    save_json("ablation_incremental", {**payload, "wall_clock_s": wall})
    # the cross-PR perf trajectory file at the repo root: virtual time
    # only, so a double run is byte-identical
    save_json("BENCH_incremental", payload, path=REPO_ROOT / "BENCH_incremental.json")

    for r in results:
        # strictly fewer stored bytes than the full pipeline
        assert r.incr_stored_mb < r.full_stored_mb, r.app
        # the write hides under the drain, so a small image checkpoints at
        # the drain floor either way, where a generation still pays its
        # store-commit round trip (bc: ~10 us, the table's incr-full_us);
        # only a write-bound full image leaves room for a win
        if r.app in WRITE_BOUND:
            assert r.incr_ckpt_s[-1] < r.full_ckpt_s[-1], r.app
        # after the first generation, unchanged chunks are dedup hits
        for chunks, leased in zip(r.manifest_chunks[1:], r.chunks_leased[1:]):
            assert leased < chunks, r.app
        # restart fetched the generation back to the same totals
        assert abs(r.restored_total_mb - r.original_total_mb) < 1e-9, r.app
        # the estimate cache served the repeated per-chunk estimates
        assert r.estimate_cache_hits >= 1, r.app
