"""Incremental checkpoints as store generations (``store=True``).

Every store checkpoint is a new generation: its manifest references
every chunk of the address space, but only the chunks that no earlier
generation stored are leased and written.  Each generation's manifest
is its own ``-c<ckpt_id>`` file, so older generations stay restorable.
Covers the chunks and bytes a generation skips, dirty-bit cleaning at
Barrier 5, the manifest file's open under the drain, relocation of a
generation, dedup after a restart, restoring an older generation when
the newest is torn, the incremental ablation's shape, and the unchanged
default (full-image) pipeline.
"""

import pytest

from repro.cluster import build_cluster
from repro.core import mtcp
from repro.core.launch import DmtcpComputation
from repro.faults.supervisor import _image_file, find_newest_valid_plan
from repro.harness.ablations import run_incremental_ablation
from repro.kernel.world import HIJACK_ENV


@pytest.fixture()
def world():
    return build_cluster(n_nodes=2, seed=23)


def no_failures(world):
    assert not world.scheduler.failures, [
        (t.name, e) for t, e in world.scheduler.failures
    ]


def toucher_program(fraction: float = 0.2, mb: int = 8):
    """An app that dirties ``fraction`` of one numeric region per tick."""

    def main(sys, argv):
        region = yield from sys.mmap(mb * 2**20, "numeric")
        for _ in range(2000):
            yield from sys.sleep(0.05)
            yield from sys.mem_touch(region, fraction)

    return main


def app_process(world):
    return next(
        p for p in world.live_processes()
        if p.env.get(HIJACK_ENV) and p.program == "toucher"
    )


def launch_toucher(world, fraction: float = 0.2, **comp_kwargs):
    world.register_program("toucher", toucher_program(fraction))
    comp = DmtcpComputation(world, store=True, **comp_kwargs)
    comp.launch("node00", "toucher")
    world.engine.run(until=1.0)
    return comp


def _leased_checkpoint(world, comp):
    """One checkpoint, with the manifest chunks and leased chunks it
    counted."""
    counters = world.tracer.counters
    chunks = counters.get("store.manifest_chunks", 0)
    leased = counters.get("store.chunks_leased", 0)
    outcome = comp.checkpoint()
    return (
        outcome,
        counters["store.manifest_chunks"] - chunks,
        counters["store.chunks_leased"] - leased,
    )


# ----------------------------------------------------------------------
# Generations
# ----------------------------------------------------------------------

def test_second_generation_leases_fewer_chunks_and_bytes(world):
    world.tracer.enable()
    comp = launch_toucher(world)
    first, chunks1, leased1 = _leased_checkpoint(world, comp)
    world.engine.run(until=world.engine.now + 0.5)
    second, chunks2, leased2 = _leased_checkpoint(world, comp)
    # the first generation stores every chunk; the second only the
    # toucher's rewritten region
    assert leased1 == chunks1 == chunks2
    assert 0 < leased2 < chunks2
    assert second.total_stored_bytes < first.total_stored_bytes
    # each generation is its own manifest file, and the first survives
    (path1,) = first.plan.images_by_host["node00"]
    (path2,) = second.plan.images_by_host["node00"]
    assert path1.endswith(f"-c{first.ckpt_id}.dmtcp")
    assert path2.endswith(f"-c{second.ckpt_id}.dmtcp")
    assert _image_file(world, "node00", path1).payload.ckpt_id == first.ckpt_id
    # the manifest's region table still spans the full address space
    image = _image_file(world, "node00", path2).payload
    space = app_process(world).address_space
    assert sum(r.size for r in image.regions) == space.total_bytes
    assert sum(nbytes for _d, nbytes, _p in image.store_refs) == space.total_bytes
    no_failures(world)


def test_regions_cleaned_at_barrier_five(world):
    comp = launch_toucher(world)
    space = app_process(world).address_space
    assert any(r.dirty_fraction == 1.0 for r in space.regions)  # born dirty
    comp.checkpoint()
    # every region was clean()ed at Barrier 5; the resumed app may have
    # re-touched at most one 0.2 tick of its anon region since
    assert all(r.dirty_fraction <= 0.2 for r in space.regions)
    assert all(
        r.dirty_fraction == 0.0 for r in space.regions if r.kind != "anon"
    )
    no_failures(world)


def test_default_pipeline_keeps_one_stable_image(world):
    world.register_program("toucher", toucher_program())
    comp = DmtcpComputation(world)
    comp.launch("node00", "toucher")
    world.engine.run(until=1.0)
    first = comp.checkpoint()
    second = comp.checkpoint()
    path = second.plan.images_by_host["node00"][0]
    assert "-c" not in path.rsplit("/", 1)[1].replace("ckpt_", "")
    # successive checkpoints overwrite the same stable filename
    assert first.plan.images_by_host == second.plan.images_by_host
    image = _image_file(world, "node00", path).payload
    assert image.store_refs is None and image.gzip_workers == 1
    no_failures(world)


def test_store_manifest_file_is_opened_under_the_drain(world, monkeypatch):
    """The manifest file's open is a fixed disk latency: it is paid while
    the drain runs, and the commit after the seal is one write of the
    whole manifest at offset 0."""
    comp = launch_toucher(world)
    sealed, opened, written = [], [], []
    raw_seal = mtcp.ImageWriter.seal

    def seal(writer, drained):
        sealed.append(world.engine.now)
        return raw_seal(writer, drained)

    monkeypatch.setattr(mtcp.ImageWriter, "seal", seal)
    raw_open, raw_write = world._sys_open, world._sys_write

    def spy_open(task, thread, process, path, flags):
        opened.append((path, world.engine.now))
        return raw_open(task, thread, process, path, flags)

    def spy_write(task, thread, process, fd, nbytes, payload, offset=None):
        file = getattr(process.get_fd(fd), "file", None)
        if file is not None:
            written.append((file.path, world.engine.now, nbytes, offset))
        return raw_write(task, thread, process, fd, nbytes, payload, offset)

    world._sys_handlers["open"] = spy_open
    world._sys_handlers["write"] = spy_write
    outcome = comp.checkpoint()
    (path,) = outcome.plan.images_by_host["node00"]
    files = {path, path + ".tmp"}
    (open_at,) = [t for p, t in opened if p in files]
    (seal_at,) = sealed
    assert open_at < seal_at
    image = _image_file(world, "node00", path).payload
    ((_p, write_at, nbytes, offset),) = [w for w in written if w[0] in files]
    assert write_at >= seal_at and offset == 0
    assert nbytes == mtcp.store_manifest_bytes(image)
    no_failures(world)


# ----------------------------------------------------------------------
# Restart
# ----------------------------------------------------------------------

def test_restart_on_different_node_relocates_a_store_generation(world):
    comp = launch_toucher(world)
    comp.checkpoint()  # first generation
    world.engine.run(until=world.engine.now + 0.5)
    original_bytes = app_process(world).address_space.total_bytes
    kill = comp.checkpoint(kill=True)  # second generation
    (path,) = kill.plan.images_by_host["node00"]
    outcome = comp.restart(plan=kill.plan, placement={"node00": "node01"})
    assert outcome.records
    restored = app_process(world)
    assert restored.node.hostname == "node01"
    assert restored.address_space.total_bytes == original_bytes
    # the manifest travelled to the relocation target, not the chunks
    image = _image_file(world, "node01", path).payload
    assert image.ckpt_id == kill.ckpt_id and image.store_refs
    # the app keeps running on the new node
    world.engine.run(until=world.engine.now + 1.0)
    assert restored.alive
    no_failures(world)


def test_a_restored_generation_keeps_deduplicating(world):
    world.tracer.enable()
    comp = launch_toucher(world)
    comp.checkpoint()
    world.engine.run(until=world.engine.now + 0.5)
    kill = comp.checkpoint(kill=True)
    comp.restart(plan=kill.plan)
    world.engine.run(until=world.engine.now + 0.5)
    # the restored pages carry the content lineage the store holds, so
    # the first generation after a restart is not a full one
    _outcome, chunks, leased = _leased_checkpoint(world, comp)
    assert 0 < leased < chunks
    no_failures(world)


def test_an_older_generation_restores_when_the_newest_is_torn(world):
    comp = launch_toucher(world)
    first = comp.checkpoint()
    world.engine.run(until=world.engine.now + 0.5)
    original_bytes = app_process(world).address_space.total_bytes
    newest = comp.checkpoint(kill=True)
    (path,) = newest.plan.images_by_host["node00"]
    _image_file(world, "node00", path).payload = None  # torn write
    chosen = find_newest_valid_plan(world, comp.state, expected=1)
    assert chosen.ckpt_id == first.ckpt_id
    assert chosen.plan.images_by_host == first.plan.images_by_host
    # the skip of the torn generation is logged as a failure, by design
    world.scheduler.failures.clear()
    outcome = comp.restart(plan=chosen.plan)
    assert outcome.records
    restored = app_process(world)
    assert restored.address_space.total_bytes == original_bytes
    world.engine.run(until=world.engine.now + 1.0)
    assert restored.alive
    no_failures(world)


# ----------------------------------------------------------------------
# Determinism and the full-vs-generation comparison
# ----------------------------------------------------------------------

def _stored_sizes(seed: int) -> list[int]:
    world = build_cluster(n_nodes=2, seed=seed)
    comp = launch_toucher(world)
    sizes = []
    for _ in range(3):
        sizes.append(comp.checkpoint().total_stored_bytes)
        world.engine.run(until=world.engine.now + 0.4)
    no_failures(world)
    return sizes


def test_generation_sizes_deterministic_across_runs():
    first = _stored_sizes(seed=7)
    second = _stored_sizes(seed=7)
    assert first == second  # byte-identical, not merely close


def test_store_generation_beats_full_on_mostly_clean_workload():
    # acceptance: >= 50% clean between checkpoints => the generation
    # stores strictly fewer bytes and finishes in strictly less
    # simulated time
    def run(store):
        world = build_cluster(n_nodes=2, seed=23)
        world.register_program("toucher", toucher_program(fraction=0.2))
        comp = DmtcpComputation(world, store=store)
        comp.launch("node00", "toucher")
        world.engine.run(until=1.0)
        comp.checkpoint()
        world.engine.run(until=world.engine.now + 0.5)
        second = comp.checkpoint()
        no_failures(world)
        return second

    full = run(False)
    incr = run(True)
    assert incr.total_stored_bytes < full.total_stored_bytes
    assert incr.duration < full.duration


def test_incremental_ablation_shape_on_a_write_bound_app():
    # the bench's asserts, on one app small enough for the fast suite
    r = run_incremental_ablation("emacs", seed=0, checkpoints=3)
    assert r.incr_stored_mb < r.full_stored_mb
    assert r.incr_ckpt_s[-1] < r.full_ckpt_s[-1]
    assert r.chunks_leased[0] == r.manifest_chunks[0]
    for chunks, leased in zip(r.manifest_chunks[1:], r.chunks_leased[1:]):
        assert leased < chunks
    assert r.restored_total_mb == r.original_total_mb > 0
    assert r.estimate_cache_hits >= 1
