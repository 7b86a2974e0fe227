"""dmtcp_checkpoint / dmtcp command / dmtcp_restart, as a host-side API.

:class:`DmtcpComputation` is what an end user touches.  It wires the
pieces into a world (coordinator process, hijack factory, command and
restart programs) and exposes the three commands from Section 3:

>>> comp = dmtcp_checkpoint(world, "node00", "my_app", ["my_app"])  # launch
>>> outcome = comp.checkpoint()                                     # dmtcp command --checkpoint
>>> comp.restart()                                                  # dmtcp_restart_script.sh

The harness-facing methods run the simulation engine until the requested
operation completes and return structured outcomes with timings.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.coordinator import (
    CheckpointOutcome,
    CoordinatorState,
    RestartOutcome,
    make_coordinator_program,
    make_dmtcp_command_program,
)
from repro.core.hijack import DmtcpRuntime, WrappedSys
from repro.core.manager import manager_main
from repro.core.restart import make_restart_program
from repro.errors import CheckpointError, RestartError, SimulationError
from repro.kernel.process import ProgramSpec, RegionSpec
from repro.kernel.world import HIJACK_ENV, World

#: Modest footprints for the DMTCP utility processes themselves.
_COORD_SPEC = ProgramSpec(
    "dmtcp_coordinator",
    regions=(RegionSpec("code", 256 * 1024, "code"), RegionSpec("heap", 512 * 1024, "text")),
)
_UTIL_SPEC = ProgramSpec(
    "dmtcp_util",
    regions=(RegionSpec("code", 128 * 1024, "code"), RegionSpec("heap", 128 * 1024, "text")),
)


class _OutcomeSink:
    """Subscribed to a coordinator outcome list: fills ``handle["outcome"]``
    once, then unsubscribes.  An object, not a closure: a closure that
    removes itself from the list reaches itself through its own cell, a
    cycle only the collector frees (DESIGN.md §8)."""

    __slots__ = ("handle", "listeners")

    def __init__(self, listeners: list):
        self.handle: dict = {"outcome": None}
        self.listeners = listeners
        listeners.append(self)

    def __call__(self, outcome) -> None:
        if self.handle["outcome"] is None:
            self.handle["outcome"] = outcome
            if self in self.listeners:
                self.listeners.remove(self)


class DmtcpComputation:
    """One coordinator plus every process launched under it."""

    def __init__(
        self,
        world: World,
        coordinator_host: Optional[str] = None,
        port: int = 7779,
        ckpt_dir: str = "/tmp/dmtcp",
        compression: bool = True,
        interval: float = 0.0,
        supervise: bool = False,
        tree_fanout: Optional[int] = None,
        store: bool = False,
        tenant: str = "",
    ):
        self.world = world
        #: multi-tenant service (repro.service): a non-empty tenant name
        #: namespaces this computation's programs, env, and trace spans so
        #: many computations can share one world.  A tenant spawns no
        #: coordinator process of its own -- a CoordinatorHub hosts its
        #: CoordinatorState alongside other tenants' behind one port.
        self.tenant = tenant
        if tenant and (tree_fanout or store):
            raise ValueError(
                "multi-tenant mode is incompatible with tree/store "
                "(those layers assume exclusive ownership of the world)"
            )
        suffix = f":{tenant}" if tenant else ""
        self._coordinator_program = "dmtcp_coordinator" + suffix
        self._restart_program = "dmtcp_restart" + suffix
        #: Parallel simulation core (repro.sim.parallel): the shard count
        #: is the world's binding (ShardContext.bind)
        if store and world.shard is not None and world.shard.plan.n_shards > 1:
            raise SimulationError(
                "the checkpoint store is serial-only: chunk traffic is "
                "modeled directly against node disks/NICs, which the "
                "sharded fabric cannot carry yet (a world bound to "
                f"{world.shard.plan.n_shards} shards). Run the scenario on one "
                "shard -- the serial fallback -- to enable DMTCP_STORE."
            )
        self.coordinator_host = coordinator_host or world.machine.hostnames[0]
        self.port = port
        self.ckpt_dir = ckpt_dir
        self.compression = compression
        #: hierarchical coordination (repro.coord.tree): one gateway per
        #: node, arranged in a fanout-ary forest under the coordinator
        self.tree_fanout = tree_fanout
        #: hostname -> live gateway process (empty in star mode; the
        #: supervisor re-trees around a dead one via respawn_gateway)
        self.gateway_processes: dict[str, object] = {}
        self._gateway_env: dict[str, dict] = {}
        #: supervision layer: coordinator watchdog + heartbeat, member
        #: barrier timeouts with rollback, atomic checksummed images
        self.supervise = supervise
        self.state = CoordinatorState(
            port=port,
            tracer=world.tracer,
            spec=world.spec.dmtcp,
            interval=interval,
            supervise=supervise,
            tenant=tenant,
        )
        #: content-addressed checkpoint image store (repro.store): chunk
        #: dedup across ranks/generations, k-way replication, anti-entropy
        #: repair, streaming restart from the nearest live replica
        self.store = None
        if store:
            from repro.store import ChunkStore

            self.store = ChunkStore(world)
            world.store = self.store
            self.state.store = self.store
        #: connection-table stash across exec (the hijack library persists
        #: its state across the exec boundary; Section 4.2's exec wrappers)
        self._exec_stash: dict[tuple[str, int], DmtcpRuntime] = {}
        self._register_programs()
        if tenant:
            # hub mode: the TenantRegistry owns the world's hijack factory
            # (dispatching on DMTCP_TENANT) and the hub process owns the
            # shared port; this computation spawns nothing here
            self.coordinator_process = None
        else:
            world.hijack_factory = self._hijack_factory
            self.coordinator_process = world.spawn_process(
                self.coordinator_host,
                self._coordinator_program,
                argv=[self._coordinator_program],
            )
        if tree_fanout:
            self._spawn_gateway_tree(tree_fanout)

    def _spawn_gateway_tree(self, fanout: int) -> None:
        """Hierarchical coordination: one gateway per node, fanout-ary.

        Gateway ranks follow :class:`repro.coord.nodeset.NodeSet` order
        over the machine file, so the whole membership is one folded
        string.  ``fanout`` >= the node count makes every gateway
        top-level: the paper's Section-6 two-level combining tree.
        """
        from repro.coord.nodeset import NodeSet
        from repro.coord.tree import (
            GATEWAY_PORT,
            GATEWAY_SPEC,
            TreeTopology,
            make_gateway_program,
        )

        world = self.world
        self.node_set = NodeSet.from_hostnames(world.machine.hostnames)
        self.topology = TreeTopology(n=len(self.node_set), fanout=fanout)
        self.gateway_port = GATEWAY_PORT
        world.register_program(
            "dmtcp_gateway",
            make_gateway_program(world.spec.dmtcp, world.tracer),
            GATEWAY_SPEC,
        )
        for rank in self.topology:
            hostname = self.node_set[rank]
            parent = self.topology.parent(rank)
            env = {
                "DMTCP_GW_PARENT_HOST": (
                    self.coordinator_host if parent is None else self.node_set[parent]
                ),
                "DMTCP_GW_PARENT_PORT": str(
                    self.port if parent is None else GATEWAY_PORT
                ),
                "DMTCP_GW_PORT": str(GATEWAY_PORT),
            }
            if self.supervise:
                env["DMTCP_SUPERVISE"] = "1"
            self._gateway_env[hostname] = env
            self.gateway_processes[hostname] = world.spawn_process(
                hostname, "dmtcp_gateway", env=env
            )

    def respawn_gateway(self, hostname: str):
        """Re-tree around a dead gateway: spawn its replacement in place.

        The replacement listens on the same node-local port, so orphaned
        children (managers and child gateways, which retry with backoff)
        reattach and replay their hellos without any topology change.
        """
        if hostname not in self._gateway_env:
            raise ValueError(f"no gateway belongs on {hostname}")
        self.world.tracer.count("coord.gateway_respawns")
        proc = self.world.spawn_process(
            hostname, "dmtcp_gateway", env=self._gateway_env[hostname]
        )
        self.gateway_processes[hostname] = proc
        return proc

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def _register_programs(self) -> None:
        if not self.tenant:
            self.world.register_program(
                self._coordinator_program,
                make_coordinator_program(self.state),
                _COORD_SPEC,
            )
        self.world.register_program(
            "dmtcp_command",
            make_dmtcp_command_program(self.world.spec.dmtcp, self.world.tracer),
            _UTIL_SPEC,
        )
        self.world.register_program(
            self._restart_program, make_restart_program(self), _UTIL_SPEC
        )

    def base_env(self) -> dict[str, str]:
        """Environment injected into every checkpointed process."""
        env = {
            HIJACK_ENV: "1",
            "DMTCP_COORD_HOST": self.coordinator_host,
            "DMTCP_COORD_PORT": str(self.port),
            "DMTCP_CKPT_DIR": self.ckpt_dir,
            "DMTCP_GZIP": "1" if self.compression else "0",
        }
        if self.store is not None:
            env["DMTCP_STORE"] = "1"
        if self.tree_fanout:
            env["DMTCP_TREE_PORT"] = str(self.gateway_port)
        if self.supervise:
            env["DMTCP_SUPERVISE"] = "1"
            env["DMTCP_ATOMIC_IMAGES"] = "1"
        if self.tenant:
            env["DMTCP_TENANT"] = self.tenant
        return env

    def _hijack_factory(self, world: World, process, base_sys) -> WrappedSys:
        """Called by the world whenever a DMTCP-env process starts."""
        stashed = self._exec_stash.pop((process.node.hostname, process.pid), None)
        parent_rt: Optional[DmtcpRuntime] = None
        if process.parent is not None:
            parent_rt = process.parent.user_state.get("dmtcp")
        if parent_rt is not None and parent_rt.in_checkpoint:
            # the forked-checkpointing writer child: not part of the
            # computation, gets the raw interface and no manager thread
            return base_sys
        if stashed is not None:
            runtime = stashed
            runtime.process = process
            runtime.conn_table.by_fd = {
                fd: info
                for fd, info in runtime.conn_table.by_fd.items()
                if fd in process.fds
            }
        elif parent_rt is not None:
            runtime = parent_rt.fork_child(process)
        else:
            runtime = DmtcpRuntime(world, process, self, vpid=process.pid)
        process.user_state["dmtcp"] = runtime
        wrapped = WrappedSys(base_sys, runtime)
        runtime.sys = wrapped
        world.spawn_thread(
            process,
            manager_main(runtime),
            f"ckpt-manager[{process.pid}]",
            kind="manager",
        )
        return wrapped

    def stash_for_exec(self, runtime: DmtcpRuntime) -> None:
        """exec wrapper support: the library's state survives the exec."""
        key = (runtime.process.node.hostname, runtime.process.pid)
        self._exec_stash[key] = runtime

    def retire_checkpointed_process(self, process) -> None:
        """--kill mode: tear the process down, keeping continuations."""
        self.world.destroy_process(process, keep_continuations=True)

    # ------------------------------------------------------------------
    # User commands
    # ------------------------------------------------------------------
    def launch(
        self,
        hostname: str,
        program: str,
        argv: Optional[list[str]] = None,
        env: Optional[dict[str, str]] = None,
    ):
        """``dmtcp_checkpoint <program>``: run a program under DMTCP."""
        merged = self.base_env()
        if env:
            merged.update(env)
        return self.world.spawn_process(hostname, program, argv or [program], merged)

    def request_checkpoint(self, kill: bool = False, forked: bool = False):
        """Issue ``dmtcp command --checkpoint`` (non-blocking).

        Returns a handle dict whose "outcome" key is filled on completion:
        a :class:`CheckpointOutcome` on success, the coordinator's
        refusal kind (``"busy"``, ``"aborted"``) as a plain string, or
        ``"deadline"`` when the client found no coordinator to answer.
        """
        if forked and self.store is not None:
            raise ValueError(
                "forked checkpointing is incompatible with the chunk store: "
                "the store's lease/commit exchange finalizes stored_bytes "
                "inside the write, which a background COW writer would race"
            )
        sink = _OutcomeSink(self.state.on_checkpoint_complete)
        argv = ["dmtcp_command", "checkpoint"]
        if kill:
            argv.append("--kill")
        if forked:
            argv.append("--forked")
        env = dict(self.base_env())
        env.pop(HIJACK_ENV)  # utilities are not themselves checkpointed
        proc = self.world.spawn_process(
            self.coordinator_host, "dmtcp_command", argv, env
        )

        def on_exit() -> None:
            # the command client exited: a refusal travels in the exit
            # code (the coordinator's "busy"/"aborted" reply, or no
            # coordinator at all); otherwise the sink fills the handle
            # when the checkpoint lands
            from repro.core.coordinator import EXIT_ABORTED, EXIT_BUSY, EXIT_DEADLINE

            refusal = {
                EXIT_BUSY: "busy", EXIT_ABORTED: "aborted", EXIT_DEADLINE: "deadline",
            }.get(proc.exit_code)
            if refusal is not None:
                sink(refusal)

        proc.exited.add_done(on_exit)
        return sink.handle

    def checkpoint(
        self, kill: bool = False, forked: bool = False, timeout: float = 3600.0
    ) -> CheckpointOutcome:
        """Checkpoint the whole computation; block (in virtual time)."""
        handle = self.request_checkpoint(kill=kill, forked=forked)
        self.world.engine.run_until(lambda: handle["outcome"] is not None)
        outcome = handle["outcome"]
        if outcome is None:
            shard = self.world.shard
            if shard is not None and not shard.owns(self.coordinator_host):
                # sharded SPMD run: the coordinator -- and therefore the
                # outcome -- lives on the shard owning its host; this
                # replica participated in the windows and is done
                return None
            raise CheckpointError("checkpoint did not complete")
        return outcome

    def kill_computation(self) -> None:
        """Simulate cluster failure: destroy every checkpointed process.

        In multi-tenant worlds only this computation's processes die --
        other tenants' processes also carry HIJACK_ENV and must survive.
        """
        for process in list(self.world.live_processes()):
            if not process.env.get(HIJACK_ENV):
                continue
            if process.env.get("DMTCP_TENANT", "") != self.tenant:
                continue
            self.world.destroy_process(process, keep_continuations=True)

    def restart_async(
        self,
        plan=None,
        placement: Optional[dict[str, str]] = None,
    ) -> dict:
        """Spawn the restart (one dmtcp_restart per host) without blocking.

        Usable from inside a running simulation (the AutoRestartSupervisor
        fires it from an engine timer, where ``run_until`` would recurse).
        Returns a handle dict whose "outcome" key is filled on completion.

        ``placement`` optionally relocates an original host's processes to
        a different host (the discovery service finds the new addresses).
        Images are made visible on the target host first, as they would be
        via shared storage or scp in a real migration.
        """
        plan = plan or (self.state.last_checkpoint.plan if self.state.last_checkpoint else None)
        if plan is None:
            raise RestartError("no checkpoint to restart from")
        placement = placement or {}
        if self.store is not None:
            self._check_store_restorable(plan)
        sink = _OutcomeSink(self.state.on_restart_complete)
        total = plan.total_processes
        for orig_host, paths in sorted(plan.images_by_host.items()):
            target = placement.get(orig_host, orig_host)
            if target != orig_host:
                self._copy_images(orig_host, target, paths)
            env = dict(self.base_env())
            env.pop(HIJACK_ENV)  # the restart process itself is not hijacked
            argv = [self._restart_program]
            if self.supervise:
                argv.append("--validate")  # verify image manifests
            argv.extend([str(total), *paths])
            self.world.spawn_process(target, self._restart_program, argv, env)
        return sink.handle

    def _check_store_restorable(self, plan) -> None:
        """Fail fast when a manifest references chunks with no live
        replica: the restarters would wedge mid-restore otherwise.  The
        AutoRestartSupervisor applies the same filter when *selecting* a
        plan; this guards direct ``restart()`` calls."""
        from repro.faults.supervisor import _image_file

        for host, paths in sorted(plan.images_by_host.items()):
            for path in paths:
                file = _image_file(self.world, host, path)
                payload = file.payload if file is not None else None
                if payload is not None and not self.store.image_restorable(payload):
                    raise RestartError(
                        f"checkpoint {plan.ckpt_id}: image {path} references "
                        "chunks with no live replica; reboot the holders or "
                        "wait for anti-entropy repair, or restart from an "
                        "older checkpoint"
                    )

    def restart(
        self,
        plan=None,
        placement: Optional[dict[str, str]] = None,
    ) -> RestartOutcome:
        """Run the generated restart script and block (in virtual time)."""
        handle = self.restart_async(plan, placement)
        self.world.engine.run_until(lambda: handle["outcome"] is not None)
        return handle["outcome"]

    def respawn_coordinator(self):
        """Bring up a replacement coordinator after the original died.

        The CoordinatorState (including checkpoint history, the restart
        discovery service's knowledge, and the supervision settings)
        survives in this object; only connection-scoped state is reset.
        Members reconnect on their own (supervised managers retry with
        backoff), so the new coordinator starts with an empty member set
        that refills within a few heartbeats.
        """
        if self.tenant:
            raise SimulationError(
                "hub tenants have no coordinator process of their own to "
                "respawn; respawn the hub instead"
            )
        state = self.state
        # resilience layer (section 15): a checkpoint in flight when the
        # coordinator died is rolled back by the members' own recv
        # timeouts, and one finished but not yet published has no
        # restart script; stamp a pending-retry record so the replacement
        # coordinator re-runs it once the membership re-registers.  A
        # mid-flight *restart* needs no stamp -- its restarters exit(1)
        # and the AutoRestartSupervisor's stall retry re-drives them.
        if state.supervise and state.checkpoint_unrecorded:
            state.failover_retry = {
                "expected": state.member_count,
                "options": dict(state.ckpt_options),
                "deadline": state.clock() + state.spec.failover_retry_timeout_s,
            }
            state.tracer.count("coord.failover_interrupted_ckpts")
        state.reset_connections()
        state.tracer.count("coord.respawns")
        self.coordinator_process = self.world.spawn_process(
            self.coordinator_host,
            self._coordinator_program,
            argv=[self._coordinator_program],
        )
        return self.coordinator_process

    def _copy_images(self, src_host: str, dst_host: str, paths: list[str]) -> None:
        """Make image files visible on the relocation target (as shared
        storage or an scp before restart would)."""
        src_ns = self.world.node_state(src_host)
        dst_ns = self.world.node_state(dst_host)
        for path in paths:
            file = src_ns.mounts.resolve(path).namespace.lookup(path)
            if file is None:
                raise RestartError(f"missing image {path} on {src_host}")
            dst_mount = dst_ns.mounts.resolve(path)
            if dst_mount.namespace.lookup(path) is None:
                copy = dst_mount.namespace.create(path)
                copy.size = file.size
                copy.payload = file.payload
                copy.last_write_time = file.last_write_time

    def run_command(self, cmd: str, arg: str = "") -> None:
        """Run a generic ``dmtcp command <cmd>`` client to completion."""
        env = dict(self.base_env())
        env.pop(HIJACK_ENV)
        proc = self.world.spawn_process(
            self.coordinator_host, "dmtcp_command", ["dmtcp_command", cmd, arg], env
        )
        self.world.engine.run_until(lambda: not proc.alive)

    def status(self) -> dict:
        """`dmtcp command --status`: members, phase, checkpoint count."""
        return {
            "members": self.state.member_count,
            "phase": self.state.phase,
            "checkpoints": len(self.state.history),
        }


def dmtcp_checkpoint(
    world: World,
    hostname: str,
    program: str,
    argv: Optional[list[str]] = None,
    **kwargs,
) -> DmtcpComputation:
    """One-call launch: build the computation and start the program."""
    comp = DmtcpComputation(world, **kwargs)
    comp.launch(hostname, program, argv)
    return comp
