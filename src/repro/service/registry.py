"""Tenant registry: many DmtcpComputations sharing one world + one hub.

A single-tenant world installs the computation's own hijack factory as
``world.hijack_factory``; with N tenants that slot must multiplex.  The
registry owns the slot and dispatches on the process's ``DMTCP_TENANT``
environment variable -- the same key that namespaces checkpoint
directories, restart programs, and trace spans -- so each checkpointed
process gets a runtime and manager thread bound to *its* computation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.launch import DmtcpComputation

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.world import World
    from repro.service.hub import CoordinatorHub

__all__ = ["TenantRegistry"]


class TenantRegistry:
    """Creates tenants and multiplexes the world's hijack factory."""

    def __init__(self, world: "World", hub: "CoordinatorHub"):
        self.world = world
        self.hub = hub
        self.tenants: dict[str, DmtcpComputation] = {}
        world.hijack_factory = self._hijack_factory

    def create_tenant(
        self,
        name: str,
        interval: float = 0.0,
        supervise: bool = True,
        compression: bool = False,
    ) -> DmtcpComputation:
        """Build one tenant's computation and attach it to the hub.

        The computation points at the hub's host:port instead of a
        private coordinator, keeps its images under a per-tenant
        directory, and registers its CoordinatorState with the hub so
        the shared dispatcher can drive its protocol.
        """
        if name in self.tenants:
            raise ValueError(f"tenant {name!r} already exists")
        comp = DmtcpComputation(
            self.world,
            coordinator_host=self.hub.host,
            port=self.hub.port,
            ckpt_dir=f"/tmp/dmtcp/{name}",
            interval=interval,
            supervise=supervise,
            compression=compression,
            tenant=name,
        )
        self.tenants[name] = comp
        self.hub.register(name, comp.state)
        return comp

    def get(self, name: str) -> Optional[DmtcpComputation]:
        return self.tenants.get(name)

    def _hijack_factory(self, world, process, base_sys):
        """Dispatch hijack to the owning tenant's computation."""
        tenant = process.env.get("DMTCP_TENANT", "")
        comp = self.tenants.get(tenant)
        if comp is None:
            raise KeyError(
                f"hijacked process {process.pid} names unknown tenant "
                f"{tenant!r}"
            )
        return comp._hijack_factory(world, process, base_sys)
