"""Calibration constants for the simulated 2008-era cluster.

Every physical constant used by the hardware and DMTCP timing models lives
here, in one place, so that benches and ablations can vary them and so the
calibration story in DESIGN.md is auditable.

The defaults model the paper's testbeds:

* Section 5.1 (desktop apps): dual-socket quad-core Xeon E5320, local disk.
* Section 5.2 (distributed apps): 32 nodes, dual-socket dual-core Xeon 5130,
  8-16 GB RAM, Gigabit Ethernet, local disks; Figure 5b adds an EMC CX300
  SAN behind a 4 Gbps Fibre Channel switch reachable from 8 of the 32 nodes,
  with the other 24 nodes re-exporting it over NFS.

Compression *ratios* are never configured -- they are measured with real
zlib on synthetic content (see :mod:`repro.core.compression`).  Only
*throughputs* are calibrated, because this library models 2008 CPUs.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class CpuSpec:
    """Per-node CPU model."""

    cores: int = 4
    #: gzip throughput on incompressible input, bytes/second (Xeon
    #: 5130-era clocks; compressible input runs faster, see
    #: repro.core.compression.speed_factor).
    gzip_bps: float = 30e6
    #: gunzip is substantially faster than gzip (paper Section 5.4 uses this
    #: to explain restart < checkpoint when compression is on).
    gunzip_speedup: float = 2.5
    #: memcpy-style bandwidth for moving memory around (drain copies,
    #: image assembly), bytes/second.
    memory_bps: float = 2.5e9


@dataclass(frozen=True)
class DiskSpec:
    """Local-disk + page-cache model.

    Writes are absorbed by the page cache at ``cache_write_bps`` until the
    dirty limit is hit, then throttle towards raw ``disk_bps``.  The paper
    (Fig. 6 discussion) observes implied checkpoint bandwidth "well beyond
    the typical 100 MB/s of disk", attributed to the kernel's cache.
    """

    disk_bps: float = 100e6
    cache_write_bps: float = 450e6
    cache_read_bps: float = 600e6
    #: Fraction of node RAM that may hold dirty pages before writers block.
    dirty_ratio: float = 0.40
    #: Seek/issue latency charged per file operation, seconds.
    op_latency_s: float = 2e-3
    #: How long just-written data stays hot in the cache for reads, seconds.
    cache_retention_s: float = 120.0


@dataclass(frozen=True)
class NetworkSpec:
    """Gigabit-Ethernet cluster interconnect."""

    bandwidth_bps: float = 125e6  # 1 Gbps in bytes/second
    latency_s: float = 50e-6
    #: Per-message fixed software overhead (syscall + stack traversal).
    per_message_s: float = 5e-6
    #: Default kernel socket buffer size (send and receive), bytes.
    socket_buffer_bytes: int = 64 * 1024
    #: Transfers at or below this size take a fixed-cost fast path
    #: (latency + serialization) instead of occupying the shared NIC
    #: queues: sub-KB control frames contend negligibly for bandwidth,
    #: and modelling each as a fluid job makes big fan-outs O(n^2).
    small_transfer_bytes: int = 1024


@dataclass(frozen=True)
class SanSpec:
    """Centralized RAID storage (Fig. 5b): SAN + NFS re-export.

    ``san_clients`` nodes mount the device directly over 4 Gbps Fibre
    Channel; all other nodes reach it via NFS over the GigE fabric.  All
    writers share the device's backend bandwidth.
    """

    fc_bandwidth_bps: float = 500e6  # 4 Gbps Fibre Channel
    backend_bps: float = 350e6  # RAID controller sustained write
    san_clients: int = 8
    nfs_overhead: float = 0.65  # NFS efficiency factor on GigE


@dataclass(frozen=True)
class OsSpec:
    """Kernel-behaviour constants."""

    #: Cost to deliver a signal and have the target thread park itself.
    signal_delivery_s: float = 60e-6
    #: Time for all threads of a process to reach a safe point once the
    #: suspend signals are out (dominates DMTCP's "suspend" stage;
    #: Table 1a reports ~25 ms for NAS/MG).
    suspend_quiesce_s: float = 0.022
    #: Base cost of any syscall (mode switch + dispatch).
    syscall_s: float = 1.2e-6
    #: fork() cost: page-table copy etc., plus per-MB of address space
    #: (COW page-table duplication; dominates forked checkpointing's
    #: visible cost, Table 1a "Fork Compr." write stage).
    fork_base_s: float = 300e-6
    fork_per_mb_s: float = 0.4e-3
    #: Restart-time page instantiation (copying image bytes into fresh
    #: mappings, faulting pages in): Table 1b's restore-memory stage.
    page_restore_bps: float = 1e9
    #: exec() image setup cost.
    exec_s: float = 1e-3
    #: ssh connection establishment (auth handshake etc.).
    ssh_connect_s: float = 120e-3
    #: Page size used by the simulated VM.
    page_bytes: int = 4096


@dataclass(frozen=True)
class DmtcpSpec:
    """Constants of the checkpoint package itself."""

    #: Size of the drain token used to flush sockets (Section 4.3 step 4).
    drain_token_bytes: int = 32
    #: Coordinator processing cost per barrier message.
    coord_msg_s: float = 8e-6
    #: The drain loop's no-more-data verification interval: after the
    #: last token arrives, one more poll round confirms quiescence
    #: (dominates Table 1a's ~0.1 s drain stage).
    drain_poll_s: float = 0.1
    # -- supervision layer (enabled via DMTCP_SUPERVISE=1; every default
    # below is inert when supervision is off, so healthy-path event
    # streams and all committed benchmarks are unchanged) ---------------
    #: Coordinator watchdog: abort an in-flight checkpoint if no barrier
    #: progress is made for this long (dead peer mid-protocol).
    barrier_timeout_s: float = 5.0
    #: Coordinator -> member heartbeat ping interval; a silently-crashed
    #: member is detected when the ping's send raises ECONNRESET.
    heartbeat_interval_s: float = 2.0
    #: Member-side cap on any single coordinator/drain recv while inside
    #: the checkpoint protocol (breaks the dead-coordinator deadlock).
    member_recv_timeout_s: float = 8.0
    #: Manager reconnect backoff after the coordinator dies (base delay;
    #: doubles per attempt up to the cap).
    reconnect_backoff_s: float = 0.25
    reconnect_backoff_max_s: float = 4.0
    reconnect_attempts: int = 40
    #: AutoRestartSupervisor: liveness poll period and restart backoff.
    supervisor_poll_s: float = 1.0
    restart_backoff_s: float = 0.5
    restart_backoff_max_s: float = 8.0
    # -- resilience layer (repro.resilience; active when supervision is
    # on -- all retry loops share one RetryPolicy built from the
    # reconnect_* constants above plus these knobs) ----------------------
    #: Jitter fraction on every backoff delay, seeded per retrying
    #: identity (host/vpid/purpose) so peers decorrelate while runs stay
    #: byte-identical per seed.
    retry_jitter: float = 0.25
    #: Attempt budget of a supervised member's store RPC
    #: (``mtcp._store_rpc``) and of the service scheduler's re-requests
    #: after a busy refusal.
    command_retry_attempts: int = 5
    #: Respawned coordinator: after a failover interrupted a checkpoint,
    #: retry it as soon as the pre-crash membership re-registers -- or
    #: after this fallback timeout if stragglers never return.
    failover_retry_timeout_s: float = 4.0
    #: Anti-entropy repair: per-chunk re-replication attempt budget
    #: before a chunk is parked as unrepairable (a permanently lost rack
    #: must not spin the repair loop forever).
    store_repair_attempts: int = 6
    #: CoordinatorHub admission control: per-tenant inbox bound; command
    #: admissions beyond it are shed with a retry-after hint.
    hub_inbox_limit: int = 256
    #: The retry-after hint a shedding hub returns, seconds.
    hub_retry_after_s: float = 0.05
    # -- hierarchical coordination (repro.coord.tree; enabled via
    # DmtcpComputation(tree_fanout=N), inert otherwise) -----------------
    #: Gateway straggler bound: a gateway forwards a barrier's count the
    #: moment every child with a registered member has reported (so a
    #: barrier costs depth x hop, and the root handles O(fanout) messages
    #: per barrier); arrivals still waiting on a child this long after
    #: the barrier's first one go up without it.
    tree_flush_s: float = 5e-4
    #: Gateway -> child heartbeat interval (supervised tree mode): each
    #: gateway probes its own children so silent subtree deaths surface
    #: locally instead of all at the root.
    tree_heartbeat_s: float = 2.0
    # -- content-addressed checkpoint store (repro.store; enabled via
    # DmtcpComputation(store=True) / DMTCP_STORE=1, inert otherwise) -----
    #: Chunk size for content addressing.  Region-boundary aware: chunks
    #: never span regions, the last chunk of a region may be short.
    store_chunk_bytes: int = 2**20
    #: Replication factor k (override per run with DMTCP_STORE_REPLICAS).
    store_replicas: int = 2
    #: Nodes per rack for rack-diverse replica placement (node_id // size).
    store_rack_size: int = 8
    #: Anti-entropy repair sweep period (re-replicates under-replicated
    #: chunks after node loss; runs while an AutoRestartSupervisor does).
    store_repair_interval_s: float = 2.0
    # -- multi-tenant checkpoint service (repro.service; enabled via
    # TenantRegistry/CoordinatorHub, inert otherwise) --------------------
    #: Fixed dispatch cost per batch of the hub's batched dispatcher
    #: (wakeup + queue scan + reply plan).  A batch is every frame that
    #: landed while the previous batch was charged and applied.
    coord_batch_overhead_s: float = 20e-6
    #: Marginal per-message cost inside a batch; amortizing the dispatch
    #: machinery across the batch is what beats ``coord_msg_s`` per-message
    #: handling under interleaved multi-tenant traffic.
    coord_batch_msg_s: float = 0.5e-6
    #: ClusterScheduler host-side tick (arrivals, placement, evictions).
    service_poll_s: float = 0.25
    #: How long a spot-evicted node stays down before rebooting.
    service_spot_downtime_s: float = 30.0


@dataclass(frozen=True)
class HardwareSpec:
    """Aggregate calibration bundle handed to the cluster builder."""

    cpu: CpuSpec = field(default_factory=CpuSpec)
    disk: DiskSpec = field(default_factory=DiskSpec)
    network: NetworkSpec = field(default_factory=NetworkSpec)
    san: SanSpec = field(default_factory=SanSpec)
    os: OsSpec = field(default_factory=OsSpec)
    dmtcp: DmtcpSpec = field(default_factory=DmtcpSpec)
    #: RAM per node, bytes (paper: 8 or 16 GB on the cluster).
    node_ram_bytes: int = 8 * 2**30

    def with_(self, **kwargs) -> "HardwareSpec":
        """Return a copy with the given top-level fields replaced."""
        return replace(self, **kwargs)


#: The Section 5.2 cluster: 32 nodes x 4 cores.
CLUSTER_2008 = HardwareSpec()

#: The Section 5.1 desktop: one 8-core node with a bigger local disk cache.
DESKTOP_2008 = HardwareSpec(
    cpu=CpuSpec(cores=8),
    node_ram_bytes=16 * 2**30,
)
