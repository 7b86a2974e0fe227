"""Ablation: the incremental checkpoint pipeline (DMTCP_INCREMENTAL=1).

Full vs delta-chain checkpoints over Figure 3 desktop apps: stored
bytes, steady-state checkpoint latency, and the chain-replay restart
round trip.  The paper's pipeline rewrites every page every checkpoint;
the desktop apps dirty little between checkpoints, so this is the
regime where dirty-page images should win on both axes.

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
#: against the 0.124 s drain floor an incremental one reaches).
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
        ["app", "full_ckpt_s", "incr_ckpt_s", "full_MB", "incr_MB",
         "speedup", "bytes_saved", "restart_s"],
        [
            (r.app, r.full_ckpt_s[-1], r.incr_ckpt_s[-1], r.full_stored_mb,
             r.incr_stored_mb, r.steady_speedup, r.bytes_saved_ratio, r.restart_s)
            for r in results
        ],
        title="Incremental ablation -- full vs delta-chain checkpoints "
        "(Fig-3 desktop apps, 3 checkpoints each)",
    )
    save_and_print("ablation_incremental", text)
    payload = {
        "apps": {r.app: r for r in results},
        "wall_clock_s": wall,
        "checkpoints_per_mode": 3,
    }
    save_json("ablation_incremental", payload)
    # the cross-PR perf trajectory file at the repo root
    save_json("BENCH_incremental", payload, path=REPO_ROOT / "BENCH_incremental.json")

    for r in results:
        # delta images actually happened and skipped pages
        assert r.delta_images >= 1, r.app
        assert r.pages_skipped > 0, r.app
        # strictly fewer stored bytes than the full pipeline, per
        # checkpoint after the base image, and never more simulated time
        assert r.incr_stored_mb < r.full_stored_mb, r.app
        assert r.incr_ckpt_s[-1] <= r.full_ckpt_s[-1], r.app
        # the write hides under the drain, so a small image checkpoints at
        # the drain floor either way (bc: incremental and full agree to
        # ~1 us); only a write-bound full image leaves room for a win
        if r.app in WRITE_BOUND:
            assert r.incr_ckpt_s[-1] < r.full_ckpt_s[-1], r.app
        # restart replayed the base+delta chain back to the same totals
        assert abs(r.restored_total_mb - r.original_total_mb) < 1e-9, r.app
        # the estimate cache served the repeated per-checkpoint estimates
        assert r.estimate_cache_hits >= 1, r.app
