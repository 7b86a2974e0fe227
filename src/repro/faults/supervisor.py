"""Self-healing: restart the computation from the newest valid images.

The :class:`AutoRestartSupervisor` is the host-side analogue of a
watchdog daemon (or an operator with a pager): it polls liveness on an
engine timer, respawns a dead coordinator, and when the computation has
lost processes it gang-restarts from the newest checkpoint whose images
all exist, are whole, and match their manifests -- relocating off dead
nodes or rebooting them first.  Restart attempts back off exponentially
so a persistently failing cluster does not busy-loop.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

from repro.kernel.world import HIJACK_ENV

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.coordinator import CheckpointOutcome, CoordinatorState
    from repro.core.launch import DmtcpComputation
    from repro.kernel.world import World

#: First restart backoff, seconds; doubles per failed restart up to
#: ``DmtcpSpec.restart_backoff_max_s`` and resets on a recovery.
RESTART_BACKOFF_S = 0.5


class LineageSkipped(Exception):
    """A checkpoint's images were dropped by the supervisor's selection
    filter -- work after that checkpoint is lost.  Recorded in the
    world's :class:`FailureLog` so the loss is queryable instead of
    silent."""


def _image_file(world: "World", host: str, path: str):
    """Host-side lookup of an image file (no simulated I/O charged)."""
    try:
        mount = world.node_state(host).mounts.resolve(path)
    except Exception:
        return None
    return mount.namespace.lookup(path)


def _image_valid(world: "World", host: str, path: str) -> bool:
    """Is the image restorable?

    It exists, it holds a payload (a torn write never does), -- when a
    ``.manifest`` sidecar exists -- the recorded checksum matches, and a
    store manifest's chunks all have a live replica.  This is the
    supervisor's *selection* filter; ``dmtcp_restart --validate``
    re-checks with honest I/O.
    """
    from repro.core.mtcp import image_checksum

    file = _image_file(world, host, path)
    if file is None or file.payload is None:
        return False
    manifest = _image_file(world, host, path + ".manifest")
    if manifest is not None and manifest.payload is not None:
        if manifest.payload.get("checksum") != image_checksum(file.payload):
            return False
    store = world.store
    if store is not None and getattr(file.payload, "store_refs", None):
        # a store manifest: every chunk must have a live durable replica
        # (anti-entropy repair works to make this true again after a node
        # loss, so a briefly-degraded generation is not skipped for good)
        return store.image_restorable(file.payload)
    return True


def find_newest_valid_plan(
    world: "World", state: "CoordinatorState", expected: int
) -> Optional["CheckpointOutcome"]:
    """Newest checkpoint that covers the whole computation and whose
    images all validate.  Partial checkpoints (quorum shrank mid-flight
    because a member died, so a process is missing from the image set)
    are skipped: restarting from one would silently drop a process.
    """
    for outcome in reversed(state.history):
        plan = outcome.plan
        if plan.total_processes < expected:
            # partial checkpoints are expected mid-fault (quorum shrank);
            # skipping one drops no completed work, so it is not logged
            continue
        bad = [
            (host, path)
            for host, paths in plan.images_by_host.items()
            for path in paths
            if not _image_valid(world, host, path)
        ]
        if not bad:
            return outcome
        _log_lineage_skip(world, state, outcome, bad)
    return None


def _program_from_image_path(path: str) -> Optional[str]:
    """Parse the program name out of ``.../ckpt_<program>_<host>-....dmtcp``."""
    base = path.rsplit("/", 1)[-1]
    if not base.startswith("ckpt_"):
        return None
    name = base[len("ckpt_"):]
    cut = name.rfind("_")
    return name[:cut] if cut > 0 else name


def _log_lineage_skip(
    world: "World", state: "CoordinatorState", outcome, bad: list
) -> None:
    """Make a dropped lineage loud: one queryable FailureLog entry per
    unrestorable image of the newest-skipped checkpoint, plus the
    ``store.lineage_skipped`` tracer counter (and the store's own stat).

    Deduplicated by ckpt_id: the supervisor polls every second, and an
    unrestorable checkpoint would otherwise re-log on every tick.
    """
    if outcome.ckpt_id in state.lineage_skips_logged:
        return
    state.lineage_skips_logged.add(outcome.ckpt_id)
    skipped = len(bad)
    if world.tracer.enabled:
        world.tracer.count("store.lineage_skipped", skipped)
    if world.store is not None:
        world.store.stats["lineage_skipped"] += skipped
    for host, path in bad:
        # Shim task so FailureLog.by_program/by_host can query the entry
        # like any task failure: context.process carries program + node.
        try:
            node = world.machine.node(host)
        except Exception:
            node = SimpleNamespace(hostname=host)
        task = SimpleNamespace(
            name=f"lineage-skip[{outcome.ckpt_id}]",
            context=SimpleNamespace(
                process=SimpleNamespace(
                    program=_program_from_image_path(path), node=node
                )
            ),
        )
        exc = LineageSkipped(
            f"checkpoint {outcome.ckpt_id}: image {path} on {host} is not "
            "restorable; newest usable checkpoint is older -- work since "
            "this checkpoint is lost"
        )
        world.scheduler.failures.append((task, exc))


class AutoRestartSupervisor:
    """Poll liveness; respawn the coordinator; gang-restart after loss."""

    def __init__(
        self,
        world: "World",
        computation: "DmtcpComputation",
        expected: int,
        repair_nodes: bool = True,
    ):
        self.world = world
        self.computation = computation
        #: processes the computation is supposed to have
        self.expected = expected
        #: reboot dead nodes before restarting onto them; with False the
        #: supervisor relocates their processes to surviving hosts instead
        self.repair_nodes = repair_nodes
        spec = world.spec.dmtcp
        self.poll_s = spec.supervisor_poll_s
        self._backoff = RESTART_BACKOFF_S
        self._backoff_max = spec.restart_backoff_max_s
        #: give a restart this long to finish before declaring it failed
        self.stall_timeout_s = max(spec.barrier_timeout_s * 4.0, 4.0)
        self.stats = {
            "restarts": 0,
            "recoveries": 0,
            "failed_restarts": 0,
            "coordinator_respawns": 0,
            "gateway_respawns": 0,
            "nodes_rebooted": 0,
        }
        #: (virtual time, event, detail) timeline for the chaos CLI/bench
        self.events: list[dict] = []
        self._handle: Optional[dict] = None
        self._restart_started = 0.0
        self._restarted_from: Optional["CheckpointOutcome"] = None
        self._next_restart_at = 0.0
        self._stopped = True

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Begin polling on the engine timer wheel."""
        if not self._stopped:
            return
        self._stopped = False
        self.world.engine.call_after(self.poll_s, self._tick)
        # the store's anti-entropy loop shares the supervisor's lifetime:
        # both exist to heal the computation after node loss, and the
        # repair timer must be stopped for engine.run() to drain
        store = self.world.store
        if store is not None:
            store.start_repair()

    def stop(self) -> None:
        """Stop after the current poll; pending restarts keep running."""
        self._stopped = True
        store = self.world.store
        if store is not None:
            store.stop_repair()

    def _record(self, event: str, **detail) -> None:
        self.events.append(
            {"t": round(self.world.engine.now, 6), "event": event, **detail}
        )

    def _live_members(self) -> list:
        return [
            p
            for p in self.world.live_processes()
            if p.env.get(HIJACK_ENV)
        ]

    def _kill_strays(self) -> None:
        """Reap leftover dmtcp_restart processes from a failed attempt.

        A restarter wedged past the coordinator's abort still holds the
        re-bound app listener ports; the next attempt needs them back.
        """
        for p in list(self.world.live_processes()):
            if p.program == "dmtcp_restart":
                self.world.terminate_process(p, code=-9)
                self.world.reap_process(p)

    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped:
            return
        try:
            self._check()
        finally:
            self.world.engine.call_after(self.poll_s, self._tick)

    def _check(self) -> None:
        world = self.world
        comp = self.computation
        now = world.engine.now

        # -- 1. the coordinator itself ---------------------------------
        if not comp.coordinator_process.alive:
            host = comp.coordinator_host
            if world.node_state(host).down:
                if not self.repair_nodes:
                    return  # nowhere to respawn; wait for an external reboot
                world.reboot_node(host)
                self.stats["nodes_rebooted"] += 1
                self._record("reboot-node", host=host)
            comp.respawn_coordinator()
            self.stats["coordinator_respawns"] += 1
            self._record("respawn-coordinator", host=host)

        # -- 1b. tree gateways (hierarchical coordination) -------------
        # A dead gateway strands its whole subtree: managers and child
        # gateways retry its node-local port with backoff, so respawning
        # it in place re-trees the forest without touching the members.
        for gw_host, gw_proc in sorted(comp.gateway_processes.items()):
            if gw_proc.alive or world.node_state(gw_host).down:
                continue
            comp.respawn_gateway(gw_host)
            self.stats["gateway_respawns"] += 1
            self._record("respawn-gateway", host=gw_host)

        # -- 2. a restart already in flight ----------------------------
        if self._handle is not None:
            if self._handle["outcome"] is not None:
                self.stats["recoveries"] += 1
                src = self._restarted_from
                self._record(
                    "recovered",
                    ckpt_id=src.ckpt_id if src else None,
                    duration=round(self._handle["outcome"].duration, 6),
                )
                self._handle = None
                self._backoff = RESTART_BACKOFF_S
            elif now - self._restart_started > self.stall_timeout_s:
                # a node died *during* the restart; the coordinator
                # watchdog aborts the barriers, we clear the strays and
                # retry (backoff already advanced)
                self.stats["failed_restarts"] += 1
                self._record("restart-stalled", after=round(now - self._restart_started, 3))
                comp.kill_computation()
                self._kill_strays()
                self._handle = None
            else:
                return  # restoring; don't double-fire

        # -- 3. the computation ----------------------------------------
        live = self._live_members()
        if len(live) >= self.expected:
            return
        if now < self._next_restart_at:
            return
        src = find_newest_valid_plan(world, comp.state, self.expected)
        if src is None:
            return  # no complete, whole checkpoint exists (yet)
        # gang semantics: survivors resume from the same cut or not at all
        comp.kill_computation()
        plan = src.plan
        placement: dict[str, str] = {}
        for host in sorted(plan.images_by_host):
            if not world.node_state(host).down:
                continue
            if self.repair_nodes:
                world.reboot_node(host)
                self.stats["nodes_rebooted"] += 1
                self._record("reboot-node", host=host)
            else:
                placement[host] = self._pick_live_host()
        handle = comp.restart_async(plan, placement)
        self._handle = handle
        self._restarted_from = src
        self._restart_started = now
        self._next_restart_at = now + self._backoff
        self._backoff = min(self._backoff * 2.0, self._backoff_max)
        self.stats["restarts"] += 1
        self._record(
            "restart",
            ckpt_id=plan.ckpt_id,
            live=len(live),
            expected=self.expected,
            placement=dict(placement),
        )

    def _pick_live_host(self) -> str:
        """Relocation target: the up host with the fewest processes."""
        world = self.world
        up = [h for h in world.machine.hostnames if not world.node_state(h).down]
        if not up:
            raise RuntimeError("no live host to relocate onto")
        return min(up, key=lambda h: (len(world.node_state(h).processes), h))
