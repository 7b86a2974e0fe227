"""Store bench: content-addressed checkpoints vs monolithic images.

One Figure-5 point (ParGeant4 under MPICH2, local disks) run twice --
monolithic image files vs the content-addressed chunk store -- plus a
degraded-restart scenario with one replica node dead at k=2.  Reported
to the repo-root ``BENCH_store.json``:

* stored vs logical bytes and the cross-rank dedup ratio (gate: >= 3x);
* the largest share of the unique bytes leased to one writer (gate: <= 0.1);
* checkpoint/restart seconds against the monolithic baseline;
* restart time from a degraded replica set (gate: <= 1.5x healthy);
* the content-keyed estimate-cache hit rate on the first checkpoint.

Everything in ``BENCH_store.json`` is virtual-time only, so two runs
with the same seed are byte-identical (the CI store-smoke job diffs a
double run).  Wall-clock goes to ``benchmarks/results/store.json``.

``REPRO_BENCH_QUICK=1`` runs the 16-process point instead of the
paper-scale 128-process one.
"""

import pathlib

from repro.core import compression
from repro.core.launch import DmtcpComputation
from repro.harness.experiment import MB, build_world, checkpoint_and_restart_cycle
from repro.harness.fig4 import register_fig4
from repro.kernel.process import ProgramSpec, RegionSpec

from benchmarks._util import quick_mode, run_timed, save_and_print, save_json
from repro.harness.report import table

REPO_ROOT = pathlib.Path(__file__).parent.parent


def _fig5_cycle(compute_processes: int, store: bool, seed: int = 0):
    """One Fig-5a cycle; returns (ckpt, restart, world)."""
    n_nodes = max(compute_processes // 4, 1)
    world = build_world(n_nodes, seed)
    register_fig4(world)
    comp = DmtcpComputation(world, compression=True, store=store)
    comp.launch(
        "node00",
        "mpich2_job",
        ["mpich2_job", str(compute_processes), "pargeant4", "1000000", "0.05"],
        env={"MPI_LAZY_CONNECT": "1"},
    )
    ckpt, restart = checkpoint_and_restart_cycle(world, comp, warmup_until=8.0)
    return ckpt, restart, world


def _degraded_scenario(seed: int = 0):
    """k=2, one replica node dead: healthy-cold vs degraded restart."""

    def launch():
        world = build_world(4, seed=seed)

        def worker(sys, argv):
            while True:
                yield from sys.cpu(0.1)
                yield from sys.sleep(0.1)

        spec = ProgramSpec(
            "heapworker", regions=(RegionSpec("heap", 16 * MB, "numeric"),)
        )
        world.register_program("heapworker", worker, spec)
        comp = DmtcpComputation(world, store=True)
        comp.launch("node00", "heapworker")
        world.engine.run(until=1.0)
        out = comp.checkpoint(kill=True)
        world.engine.run(until=world.engine.now + 5.0)  # replicate to k
        # the writer reboots: its page cache is gone either way, so both
        # restarts stream from disk replicas (cold apples-to-apples)
        world.crash_node("node00")
        world.reboot_node("node00")
        comp.respawn_coordinator()
        return world, comp, out

    world, comp, out = launch()
    healthy = comp.restart(out.plan).duration

    world, comp, out = launch()
    store = world.store
    victim = sorted(
        {h for m in store.chunks.values() for h in m.present if h != "node00"}
    )[0]
    world.crash_node(victim)  # one replica node stays dead
    degraded = comp.restart(out.plan).duration
    return {
        "healthy_restart_s": round(healthy, 6),
        "degraded_restart_s": round(degraded, 6),
        "ratio": round(degraded / healthy, 6),
        "degraded_reads": store.stats["degraded_reads"],
    }


def _run(seed: int = 0):
    compute = 16 if quick_mode() else 128
    mono_ckpt, mono_restart, _world = _fig5_cycle(compute, store=False, seed=seed)

    compression.ESTIMATE_CACHE.clear()
    ckpt, restart, world = _fig5_cycle(compute, store=True, seed=seed)
    cache = compression.ESTIMATE_CACHE
    summary = world.store.summary()

    return {
        "seed": seed,
        "quick": quick_mode(),
        "point": {
            "compute_processes": compute,
            "nodes": max(compute // 4, 1),
            "total_processes": len(ckpt.records),
            "storage": "local",
        },
        "monolithic": {
            "checkpoint_s": round(mono_ckpt.duration, 6),
            "restart_s": round(mono_restart.duration, 6),
            "stored_mb": round(mono_ckpt.total_stored_bytes / MB, 3),
            "image_mb": round(mono_ckpt.total_image_bytes / MB, 3),
        },
        "store": {
            "checkpoint_s": round(ckpt.duration, 6),
            "restart_s": round(restart.duration, 6),
            "stored_mb": round(ckpt.total_stored_bytes / MB, 3),
            "logical_mb": round(summary["logical_bytes"] / MB, 3),
            "unique_mb": round(summary["unique_bytes"] / MB, 3),
            "stored_payload_mb": round(summary["stored_payload_bytes"] / MB, 3),
            "dedup_ratio": round(summary["dedup_ratio"], 3),
            "dedup_hits": summary["dedup_hits"],
            "chunks_stored": summary["chunks_stored"],
            "replicas": summary["replicas"],
            "replications": summary["replications"],
            "lineage_skipped": summary["lineage_skipped"],
            "lease_writers": summary["lease_writers"],
            "lease_max_share": round(summary["lease_max_share"], 6),
            "estimate_cache": {
                "hits": cache.hits,
                "misses": cache.misses,
                "hit_rate": round(cache.hits / max(cache.hits + cache.misses, 1), 6),
            },
        },
        "degraded": _degraded_scenario(seed),
    }


def test_store_bench(benchmark):
    payload, wall = run_timed(benchmark, _run)
    mono, store, deg = payload["monolithic"], payload["store"], payload["degraded"]
    text = table(
        ["mode", "ckpt_s", "restart_s", "stored_mb"],
        [
            ("monolithic", mono["checkpoint_s"], mono["restart_s"], mono["stored_mb"]),
            ("store", store["checkpoint_s"], store["restart_s"], store["stored_mb"]),
        ],
        title=f"Chunk store vs monolithic images -- Fig-5a "
        f"{payload['point']['compute_processes']}-process point "
        f"(dedup {store['dedup_ratio']}x, degraded restart "
        f"{deg['ratio']}x healthy)",
    )
    save_and_print("store", text)
    save_json("store", {**payload, "wall_clock_s": wall})
    # the cross-PR file at the repo root: virtual-time only, so two
    # same-seed runs are byte-identical (CI store-smoke diffs them)
    save_json("BENCH_store", payload, path=REPO_ROOT / "BENCH_store.json")

    # -- acceptance gates ----------------------------------------------
    # cross-rank + cross-generation dedup collapses the stored bytes
    assert store["dedup_ratio"] >= 3.0, store
    assert store["stored_mb"] < mono["stored_mb"] / 3.0, (store, mono)
    # barrier-5 write proportional to unique bytes: faster than monolithic
    assert store["checkpoint_s"] < mono["checkpoint_s"], (store, mono)
    # ... and shared across the ranks that hold them: no writer carries
    # more than a tenth of the generation (first-come leasing put 40 of
    # 46 chunks on one rank)
    assert store["lease_max_share"] <= 0.1, store
    # estimate work is skipped for already-stored chunks
    assert store["estimate_cache"]["hits"] > 0, store
    # degraded replica set restores instead of orphaning the lineage
    assert deg["degraded_reads"] > 0, deg
    assert deg["ratio"] <= 1.5, deg
    # no lineage was ever dropped
    assert store["lineage_skipped"] == 0, store
