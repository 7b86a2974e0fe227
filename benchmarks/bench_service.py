"""Service bench: batched vs per-message coordinator under tenant storms.

N independent tenants share one coordinator hub; every running tenant
checkpoints at the same epoch tick, and seeded spot-eviction waves force
checkpoint -> restart-elsewhere preemptions mid-run.  Each sweep point
runs the identical (seed, schedule) workload under both dispatchers.
Reported to the repo-root ``BENCH_service.json``:

* p50/p99 checkpoint latency per tenant-count, both dispatch modes, and
  the p99 ratio between them (gate at the top point: >= 3x, and in quick
  mode >= 1.3x -- batching amortizes with scale, so the small point is a
  monotonicity check, not the headline);
* cross-tenant checkpoint failures (gate: exactly 0 -- one tenant's
  traffic must never abort another's checkpoint);
* eviction recoveries and per-victim lost work against the
  ``interval + barrier timeout`` bound (gate: 0 violations);
* the hub overload point (``overload`` key): the same storm on a
  capacity-constrained hub, with per-tenant status monitors at a
  sustainable admission rate and again at twice that rate.  Gates:
  the overloaded batched p99 stays within 2x its uncontended value,
  the excess was shed at admission (``hub.shed`` > 0 overloaded, == 0
  uncontended), and cross-tenant failures stay 0 under overload.

Everything in ``BENCH_service.json`` is virtual-time only, so two runs
with the same seed are byte-identical (the CI service-smoke job diffs a
double run).  Wall-clock goes to ``benchmarks/results/service.json``.

``REPRO_BENCH_QUICK=1`` sweeps to 16 tenants instead of 64.
"""

from repro.harness.service import run_service_comparison, run_service_overload

from benchmarks._util import (
    REPO_ROOT,
    quick_mode,
    run_timed,
    save_and_print,
    save_json,
)
from repro.harness.report import table

RANKS = 8
SEED = 0


def _run(seed: int = SEED):
    tenant_counts = (4, 8, 16) if quick_mode() else (8, 16, 64)
    points = []
    for i, tenants in enumerate(tenant_counts):
        top = i == len(tenant_counts) - 1
        points.append(run_service_comparison(
            tenants=tenants,
            ranks=RANKS,
            seed=seed,
            # the top point carries the gates: longer run, two eviction
            # waves; the smaller points are quick scaling context
            duration_s=6.0 if top else 3.0,
            evictions=2 if top else 1,
        ))
    return {
        "seed": seed,
        "quick": quick_mode(),
        "ranks": RANKS,
        "points": points,
        # admission-control point: same storm, constrained hub, monitor
        # admissions at 1x (sustainable) and 2x (overload) rates
        "overload": run_service_overload(
            tenants=16, ranks=RANKS, seed=seed,
            duration_s=6.0 if quick_mode() else 8.0,
        ),
    }


def test_service_bench(benchmark):
    payload, wall = run_timed(benchmark, _run)
    points = payload["points"]
    rows = []
    for pt in points:
        b, p = pt["batched"], pt["per_message"]
        rows.append((
            pt["tenants"],
            round(b["ckpt_latency_p50_s"] * 1e3, 3),
            round(b["ckpt_latency_p99_s"] * 1e3, 3),
            round(p["ckpt_latency_p99_s"] * 1e3, 3),
            pt["p99_ratio"],
            b["hub"]["mean_batch"],
        ))
    text = table(
        ["tenants", "batched_p50_ms", "batched_p99_ms", "permsg_p99_ms",
         "p99_ratio", "mean_batch"],
        rows,
        title=f"Multi-tenant service -- batched vs per-message coordinator "
        f"({RANKS} ranks/tenant, seed {SEED})",
    )
    over = payload["overload"]
    u, o = over["uncontended"], over["overloaded"]
    text += "\n" + table(
        ["load", "poll_s", "p50_ms", "p99_ms", "shed", "ckpts",
         "cross_tenant"],
        [
            ("1x", u["monitor_poll_s"],
             round(u["ckpt_latency_p50_s"] * 1e3, 3),
             round(u["ckpt_latency_p99_s"] * 1e3, 3),
             u["hub"]["shed"], u["checkpoints"],
             u["cross_tenant_failures"]),
            ("2x", o["monitor_poll_s"],
             round(o["ckpt_latency_p50_s"] * 1e3, 3),
             round(o["ckpt_latency_p99_s"] * 1e3, 3),
             o["hub"]["shed"], o["checkpoints"],
             o["cross_tenant_failures"]),
        ],
        title=f"Hub admission control -- 2x admission-rate overload "
        f"(p99 ratio {over['p99_overload_ratio']}x, constrained hub, "
        f"{over['tenants']} tenants)",
    )
    save_and_print("service", text)
    save_json("service", {**payload, "wall_clock_s": wall})
    # the cross-PR file at the repo root: virtual-time only, so two
    # same-seed runs are byte-identical (CI service-smoke diffs them)
    save_json("BENCH_service", payload, path=REPO_ROOT / "BENCH_service.json")

    # -- acceptance gates ----------------------------------------------
    top = points[-1]
    # batching wins by >= 3x at the headline point (>= 1.3x at the
    # smaller quick-mode top point; the win grows with tenant count)
    floor = 1.3 if payload["quick"] else 3.0
    assert top["p99_ratio"] >= floor, top
    for pt in points:
        for mode in ("batched", "per_message"):
            m = pt[mode]
            # isolation: no tenant's checkpoint ever failed because of
            # another tenant's traffic, in either dispatch mode
            assert m["cross_tenant_failures"] == 0, (pt["tenants"], mode, m)
            # every eviction-preempted tenant recovered, losing at most
            # one checkpoint interval + the barrier timeout of work
            assert m["lost_work_violations"] == 0, (pt["tenants"], mode, m)
    # the eviction machinery actually ran at the gated point
    assert top["batched"]["eviction_recoveries"] > 0, top
    # batching actually batched (the amortization evidence)
    assert top["batched"]["hub"]["mean_batch"] > 10.0, top["batched"]["hub"]

    # -- hub back-pressure gates ---------------------------------------
    # under 2x admission-rate overload the batched p99 stays within 2x
    # its uncontended value: the excess is shed at admission, not queued
    # into every tenant's tail
    assert 0 < over["p99_overload_ratio"] <= 2.0, over["p99_overload_ratio"]
    assert o["hub"]["shed"] > 0, o["hub"]
    assert u["hub"]["shed"] == 0, u["hub"]
    # overload isolation: shed traffic never failed an undisturbed
    # tenant's checkpoint, and preemption bounds still held
    for m in (u, o):
        assert m["cross_tenant_failures"] == 0, m
        assert m["lost_work_violations"] == 0, m
