"""Multi-tenant service scenario: N tenants, one hub, seeded preemption.

The measured workload is the service's worst case: every running tenant
checkpoints at the same epoch tick (a synchronized storm), so the hub
absorbs tenants x ranks control messages per barrier wave.  The same
(seed, schedule) pair is run once with the batched dispatcher and once
with per-message dispatch; the p99 checkpoint latency ratio between the
two is the batching win the bench gates on.

The hardware spec is tuned towards *service* tenants -- many small jobs
whose checkpoint cost is coordinator traffic, not image I/O: quiesce,
drain-poll, and per-file-op latencies are shrunk so the protocol waves
dominate.  The tuning is symmetric across the two modes (same spec,
same seed), so the ratio compares dispatchers, nothing else.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008, HardwareSpec
from repro.core import protocol as P
from repro.errors import SyscallError
from repro.kernel.process import ProgramSpec, RegionSpec
from repro.kernel.streams import FrameAssembler
from repro.kernel.syscalls import Sys, connect_retry, recv_frame, send_frame
from repro.service import ClusterScheduler, CoordinatorHub, TenantRegistry

__all__ = [
    "service_spec",
    "overload_spec",
    "run_service_point",
    "run_service_comparison",
    "run_service_overload",
]


def service_spec(base: Optional[HardwareSpec] = None) -> HardwareSpec:
    """The many-small-tenants calibration (see module docstring)."""
    base = base or CLUSTER_2008
    return base.with_(
        # service nodes are denser and faster than the 2008 testbed:
        # more cores per host, quicker quiesce, cheap syscalls
        cpu=replace(base.cpu, cores=8),
        os=replace(base.os, suspend_quiesce_s=1e-4, syscall_s=0.4e-6),
        dmtcp=replace(base.dmtcp, drain_poll_s=2e-4),
        # ...and write their (tiny) images to fast local storage; image
        # I/O must not drown the coordinator traffic being compared
        disk=replace(base.disk, op_latency_s=5e-5, disk_bps=1e9),
    )


def overload_spec(base: Optional[HardwareSpec] = None) -> HardwareSpec:
    """The admission-control calibration: :func:`service_spec` on a
    capacity-constrained head node.  Per-frame dispatch is expensive
    enough that a checkpoint storm plus monitor traffic runs the hub near
    saturation, and the per-tenant inbox bound is small enough that the
    shed path (not an unbounded queue) absorbs the excess."""
    base = service_spec(base)
    return base.with_(
        dmtcp=replace(base.dmtcp, coord_batch_msg_s=5e-4, hub_inbox_limit=12),
    )


#: Bounded monitor connection pool: an open-loop poller fires on its
#: timer regardless of reply latency (that is what makes overload
#: possible), but a real monitoring sidecar still caps its in-flight
#: connections rather than leaking one per missed tick.
_MONITOR_POOL = 64

_MONITOR_SPEC = ProgramSpec(
    "svc_monitor",
    regions=(
        RegionSpec("code", 64 * 1024, "code"),
        RegionSpec("heap", 128 * 1024, "text"),
    ),
)


def _monitor_poll(sys: Sys, state: dict, tenant: str, host: str, port: int,
                  deadline_s: float):
    """One status round-trip: connect, ask, honour the RPC deadline.

    A ``busy`` reply is the hub shedding this tenant's admission -- the
    poller simply drops the sample (the next tick re-polls); a timeout
    closes the socket rather than waiting forever on a wedged hub."""
    try:
        fd = yield from sys.socket()
        yield from connect_retry(sys, fd, host, port)
        yield from send_frame(
            sys,
            fd,
            P.msg(P.MSG_COMMAND, cmd="status", options={}, arg="",
                  tenant=tenant),
            P.CTL_FRAME_BYTES,
        )
        asm = FrameAssembler()
        try:
            yield from recv_frame(sys, fd, asm, timeout=deadline_s)
        except SyscallError as err:
            if err.errno != "ETIMEDOUT":
                raise
        yield from sys.close(fd)
    except SyscallError:
        pass
    finally:
        state["inflight"] -= 1


def _make_monitor_program(deadline_s: float):
    """Build the per-tenant monitor: an open-loop status poller."""

    def monitor_main(sys: Sys, argv):
        tenant, host = argv[1], argv[2]
        port, poll_s = int(argv[3]), float(argv[4])
        state = {"inflight": 0}
        while True:
            if state["inflight"] < _MONITOR_POOL:
                state["inflight"] += 1
                yield from sys.thread_create(
                    _monitor_poll, state, tenant, host, port, deadline_s
                )
            yield from sys.sleep(poll_s)

    return monitor_main


def run_service_point(
    tenants: int = 8,
    ranks: int = 4,
    interval_s: float = 1.0,
    duration_s: float = 6.0,
    seed: int = 0,
    batched: bool = True,
    evictions: int = 0,
    spare_hosts: int = 2,
    spec: Optional[HardwareSpec] = None,
    monitor_poll_s: Optional[float] = None,
) -> dict:
    """One service run: seeded arrivals, synchronized checkpoint storms,
    optional spot-eviction waves.  Returns the scheduler report plus the
    world's sanity counters -- virtual-time quantities only, so the same
    inputs produce byte-identical JSON."""
    spec = spec or service_spec()
    n_nodes = 1 + tenants + spare_hosts  # head node + 1 host/tenant + spares
    world = build_cluster(n_nodes=n_nodes, spec=spec, seed=seed)
    hub = CoordinatorHub(world, batched=batched)
    registry = TenantRegistry(world, hub)
    scheduler = ClusterScheduler(
        world,
        registry,
        hub,
        worker_hosts=world.machine.hostnames[1:],
        seed=seed,
        interval_s=interval_s,
    )
    # long-lived tenants: jobs outlast the horizon so the storm
    # population stays at full strength for every epoch
    slices = int(2 * duration_s / 0.05) + 100
    scheduler.generate_arrivals(
        tenants,
        mean_interarrival_s=0.02,
        slots_choices=(ranks,),
        slices=slices,
    )
    # eviction waves land between storms, spread across the middle of
    # the run (never in the warm-up before the first checkpoint exists)
    for i in range(evictions):
        at_t = interval_s * (1.5 + i * max(1, (duration_s / interval_s - 2) // max(1, evictions)))
        scheduler.schedule_eviction(at_t)
    scheduler.start()
    if monitor_poll_s is not None:
        # per-tenant status pollers: open-loop admission load against the
        # hub, spawned once every arrival has registered its tenant
        world.register_program(
            "svc_monitor",
            _make_monitor_program(spec.dmtcp.member_recv_timeout_s),
            _MONITOR_SPEC,
        )

        def _spawn_monitors() -> None:
            for name in sorted(registry.tenants):
                world.spawn_process(
                    world.machine.hostnames[0],
                    "svc_monitor",
                    ["svc_monitor", name, hub.host, str(hub.port),
                     str(monitor_poll_s)],
                )

        world.engine.call_after(0.75, _spawn_monitors)
    world.engine.run(until=duration_s)
    scheduler.stop()
    report = scheduler.report()
    report["tenants"] = tenants
    report["ranks"] = ranks
    report["interval_s"] = interval_s
    report["duration_s"] = duration_s
    report["seed"] = seed
    report["monitor_poll_s"] = monitor_poll_s
    report["events"] = world.engine.events_fired
    return report


def run_service_comparison(
    tenants: int = 8,
    ranks: int = 4,
    interval_s: float = 1.0,
    duration_s: float = 6.0,
    seed: int = 0,
    evictions: int = 0,
) -> dict:
    """The gate measurement: same workload under both dispatchers.

    ``p99_ratio`` is per-message p99 checkpoint latency divided by
    batched p99 -- the factor the batched protocol wins by.
    """
    batched = run_service_point(
        tenants=tenants, ranks=ranks, interval_s=interval_s,
        duration_s=duration_s, seed=seed, batched=True, evictions=evictions,
    )
    per_message = run_service_point(
        tenants=tenants, ranks=ranks, interval_s=interval_s,
        duration_s=duration_s, seed=seed, batched=False, evictions=evictions,
    )
    ratio = (
        per_message["ckpt_latency_p99_s"] / batched["ckpt_latency_p99_s"]
        if batched["ckpt_latency_p99_s"] > 0
        else 0.0
    )
    return {
        "tenants": tenants,
        "ranks": ranks,
        "seed": seed,
        "batched": batched,
        "per_message": per_message,
        "p99_ratio": round(ratio, 3),
    }


def run_service_overload(
    tenants: int = 16,
    ranks: int = 8,
    interval_s: float = 1.0,
    duration_s: float = 8.0,
    seed: int = 0,
    poll_s: float = 0.04,
) -> dict:
    """The back-pressure gate: the same checkpoint storm twice on the
    capacity-constrained hub (:func:`overload_spec`), varying only the
    monitors' admission rate.

    The *uncontended* run polls each tenant's status at ``poll_s`` -- a
    rate the hub absorbs with headroom; the *overloaded* run doubles the
    admission rate (``poll_s / 2``), pushing offered load past the hub's
    drain capacity.  Admission control must turn the excess into shed
    commands (busy replies) rather than an unbounded queue, so the
    overloaded batched p99 checkpoint latency stays within 2x its
    uncontended value and no tenant's checkpoint fails because of another
    tenant's traffic.
    """
    spec = overload_spec()
    uncontended = run_service_point(
        tenants=tenants, ranks=ranks, interval_s=interval_s,
        duration_s=duration_s, seed=seed, batched=True,
        spec=spec, monitor_poll_s=poll_s,
    )
    overloaded = run_service_point(
        tenants=tenants, ranks=ranks, interval_s=interval_s,
        duration_s=duration_s, seed=seed, batched=True,
        spec=spec, monitor_poll_s=poll_s / 2,
    )
    ratio = (
        overloaded["ckpt_latency_p99_s"] / uncontended["ckpt_latency_p99_s"]
        if uncontended["ckpt_latency_p99_s"] > 0
        else 0.0
    )
    return {
        "tenants": tenants,
        "ranks": ranks,
        "seed": seed,
        "poll_s": poll_s,
        "uncontended": uncontended,
        "overloaded": overloaded,
        "p99_overload_ratio": round(ratio, 3),
    }
