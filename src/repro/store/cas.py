"""Distributed content-addressed chunk store over the simulated cluster.

One :class:`ChunkStore` instance serves a whole world.  The coordinator
owns the metadata plane (lease/commit exchanges ride the existing control
connection, see ``core/coordinator.py``); the data plane is modeled
directly against node disks and NICs, in the node/anti-entropy shape of
nimbus.io:

* **Placement** is pure rendezvous hashing: each chunk digest scores every
  hostname and the top-k rack-diverse hosts hold its replicas.  Placement
  depends only on the digest and the machine file, so readers, writers,
  and the repair loop all derive it independently, and chunk primaries
  spread uniformly across the cluster -- losing one node degrades ~1/n of
  the chunks instead of one writer's whole image.
* **Write path**: at barrier 5 each writer sends its manifest to the
  coordinator, which -- once the whole generation has reported -- leases
  each chunk nobody has stored yet to one of the writers holding it,
  balanced by bytes.  Only leased chunks are compressed and pushed (to
  their rendezvous-primary host), so checkpoint cost is proportional to
  this writer's share of the *unique* bytes.
* **Anti-entropy repair**: a background loop re-replicates chunks whose
  live replica count dropped below k (node crashes are detected lazily --
  replicas on a down node don't count as live, but the bytes survive the
  reboot, matching the non-volatile-disk model in ``World.crash_node``).
* **Streaming restart**: readers fetch every chunk concurrently from the
  nearest live replica (self, then same rack, then rendezvous order), so
  a degraded replica set restores at nearly healthy speed instead of
  orphaning the lineage.

All state transitions happen at event-loop callbacks of deterministic
futures, so store-enabled runs stay reproducible byte-for-byte.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Optional

from repro.errors import SyscallError
from repro.sim.tasks import Future

#: Nodes per rack for rack-diverse replica placement (node_id // size);
#: ``ChunkStore(rack_size=)`` overrides it.
RACK_SIZE = 8
#: Anti-entropy repair sweep period, seconds: re-replicates
#: under-replicated chunks after node loss (runs while an
#: AutoRestartSupervisor does).
REPAIR_INTERVAL_S = 2.0
#: Per-chunk re-replication attempt budget before a chunk is parked as
#: unrepairable (a permanently lost rack must not spin the repair loop
#: forever).
REPAIR_ATTEMPTS = 6


class ChunkMeta:
    """Metadata-plane record for one content-addressed chunk."""

    __slots__ = (
        "nbytes",
        "stored_bytes",
        "profile",
        "placed",
        "present",
        "durable",
        "lease_owner",
        "lease_ckpt",
        "pending_target",
        "stored_at",
        "inflight",
        "repair_attempts",
        "repair_next_t",
        "repair_backoff",
        "parked",
    )

    def __init__(self, nbytes: int, profile: str, placed: tuple):
        #: Logical (uncompressed) payload bytes.
        self.nbytes = nbytes
        #: Compressed bytes actually stored (set at lease time).
        self.stored_bytes = float(nbytes)
        self.profile = profile
        #: Rendezvous placement, primary first (never changes).
        self.placed = placed
        #: Hosts currently holding a replica.
        self.present: set = set()
        #: True once a writer committed the payload somewhere.
        self.durable = False
        #: (host, vpid) of the writer holding the current lease.
        self.lease_owner: Optional[tuple] = None
        self.lease_ckpt: Optional[int] = None
        #: Host the leased payload is being pushed to.
        self.pending_target: Optional[str] = None
        #: Virtual time of the last replica write (page-cache hotness).
        self.stored_at: float = -1e18
        #: Replication copies in progress, by destination host.
        self.inflight: set = set()
        #: Anti-entropy budget: repair rounds that started copies for
        #: this chunk without a replica landing since.  A landed copy
        #: resets the budget; exhaustion parks the chunk (see
        #: ChunkStore.repair_round) so a permanently lost rack cannot
        #: spin the repair loop forever.
        self.repair_attempts: int = 0
        #: Earliest virtual time the repair loop may try this chunk
        #: again (the shared backoff schedule, seeded by digest).
        self.repair_next_t: float = -1e18
        self.repair_backoff = None  # lazily-built delay iterator
        self.parked: bool = False


class ChunkStore:
    """Cluster-wide content-addressed checkpoint chunk store."""

    def __init__(
        self,
        world,
        replicas: Optional[int] = None,
        rack_size: Optional[int] = None,
        chunk_bytes: Optional[int] = None,
    ):
        spec = world.spec.dmtcp
        self.world = world
        self.replicas = int(replicas if replicas is not None else spec.store_replicas)
        if self.replicas < 1:
            raise ValueError(f"store replicas must be >= 1, got {self.replicas}")
        self.rack_size = int(rack_size if rack_size is not None else RACK_SIZE)
        self.repair_interval_s = REPAIR_INTERVAL_S
        self.chunk_bytes = int(chunk_bytes if chunk_bytes is not None else spec.store_chunk_bytes)
        self.chunks: dict[str, ChunkMeta] = {}
        #: Per-host ``{digest: warm-at time}``: bytes resident in that
        #: host's page cache (recently written or fetched there).  Warmth
        #: expires after the disk's ``cache_retention_s`` and the whole
        #: map is dropped when the node crashes (RAM is volatile; the
        #: disk replicas in ``ChunkMeta.present`` survive).
        self.host_cache: dict[str, dict[str, float]] = {}
        #: Per-host ``{digest: futures}`` for chunks whose fetch to that
        #: host is submitted but not landed: the chunk already counts as
        #: cached there, so a second reader waits on these futures
        #: instead of on nothing.  An entry leaves when its fetch settles.
        self.inflight_fetch: dict[str, dict[str, tuple]] = {}
        self.stats: dict[str, float] = {
            "logical_bytes": 0.0,
            "unique_bytes": 0.0,
            "stored_payload_bytes": 0.0,
            "chunks_stored": 0,
            "dedup_hits": 0,
            "dedup_bytes": 0.0,
            "replications": 0,
            "repairs": 0,
            "repair_attempts": 0,
            "chunks_parked": 0,
            "degraded_reads": 0,
            "cache_hit_fetches": 0,
            "lineage_skipped": 0,
            "lease_writers": 0,
            "lease_max_share": 0.0,
        }
        #: The generation being leased: writer -> granted rows (what a
        #: retried manifest gets back) and writer -> leased logical bytes
        #: (the balance the next chunk is assigned against).
        self._lease_ckpt: Optional[int] = None
        self._granted: dict[tuple, list] = {}
        self._leased_bytes: dict[tuple, int] = {}
        self._repair_on = False
        self._repair_event = None
        #: Per-chunk repair pacing: capped exponential backoff between
        #: rounds that keep re-starting copies for the same chunk, jitter
        #: seeded by digest; after ``REPAIR_ATTEMPTS`` fruitless
        #: rounds the chunk is parked with one FailureLog entry.
        from repro.resilience import RetryPolicy

        self.repair_attempts_max = REPAIR_ATTEMPTS
        self.repair_policy = RetryPolicy(
            base_s=self.repair_interval_s,
            max_s=8.0 * self.repair_interval_s,
            attempts=max(self.repair_attempts_max, 1),
            jitter=spec.retry_jitter,
        )

    # ------------------------------------------------------------------
    # Placement (pure rendezvous, rack-diverse)
    # ------------------------------------------------------------------
    def rack_of(self, hostname: str) -> int:
        return self.world.machine.node(hostname).node_id // max(self.rack_size, 1)

    def _scored_hosts(self, digest: str) -> list[str]:
        """All hostnames in rendezvous order for ``digest`` (best first)."""
        score = hashlib.blake2b
        return sorted(
            self.world.machine.hostnames,
            key=lambda h: score(f"{digest}|{h}".encode(), digest_size=8).hexdigest(),
            reverse=True,
        )

    def placement(self, digest: str) -> tuple:
        """The k replica hosts for ``digest``: greedy rack-diverse pick
        over the rendezvous order, padded from score order if the cluster
        has fewer racks than replicas."""
        order = self._scored_hosts(digest)
        k = min(self.replicas, len(order))
        placed: list[str] = []
        racks: set = set()
        for host in order:
            rack = self.rack_of(host)
            if rack in racks:
                continue
            placed.append(host)
            racks.add(rack)
            if len(placed) == k:
                return tuple(placed)
        for host in order:
            if host not in placed:
                placed.append(host)
                if len(placed) == k:
                    break
        return tuple(placed)

    # ------------------------------------------------------------------
    # Liveness helpers
    # ------------------------------------------------------------------
    def _up(self, hostname: str) -> bool:
        return not self.world.node_state(hostname).down

    def _live_replicas(self, meta: ChunkMeta) -> list[str]:
        return [h for h in meta.placed if h in meta.present and self._up(h)] + [
            h for h in sorted(meta.present) if h not in meta.placed and self._up(h)
        ]

    def _cached_on(self, meta: ChunkMeta, digest: str, host: str) -> bool:
        warm_at = self.host_cache.get(host, {}).get(digest)
        if warm_at is None:
            return False
        retention = self.world.machine.node(host).spec.disk.cache_retention_s
        return self.world.engine.now - warm_at <= retention

    def _note_cached(self, digest: str, host: str) -> None:
        self.host_cache.setdefault(host, {})[digest] = self.world.engine.now

    def drop_cache(self, hostname: str) -> None:
        """Forget page-cache residency for a crashed host (RAM is gone;
        the durable replicas in ``ChunkMeta.present`` survive reboot)."""
        self.host_cache.pop(hostname, None)
        self.inflight_fetch.pop(hostname, None)

    # ------------------------------------------------------------------
    # Metadata plane (called by the coordinator)
    # ------------------------------------------------------------------
    def lease(self, refs: Iterable, owner: tuple, ckpt_id: int) -> list:
        """Grant write leases for one manifest: the single-writer case of
        :meth:`lease_generation`."""
        return self.lease_generation({owner: refs}, ckpt_id)[owner]

    def lease_generation(self, manifests: dict, ckpt_id: int) -> dict:
        """Grant the write leases of one checkpoint generation.

        ``manifests`` maps each writer ``(host, vpid)`` to its refs rows
        ``[digest, nbytes, profile, stored_estimate]``.  Every chunk that
        is neither durable nor already leased in this generation goes to
        exactly one of the writers that hold it: longest chunk first to
        the least-loaded holder, a holder on the chunk's live rendezvous
        primary winning ties (its push is a local segment write), then
        ``(host, vpid)`` order -- a pure function of the manifest *set*.
        Returns ``{owner: [[index, target_host], ...]}``, the rows each
        writer must compress and push; everything else deduped.

        Idempotent per ``(owner, ckpt_id)``: a writer that already holds
        this generation's lease (its reply was lost and it retried) gets
        the same rows back and moves no counter.
        """
        if ckpt_id != self._lease_ckpt:
            self._lease_ckpt = ckpt_id
            self._granted = {}
            self._leased_bytes = {}
        granted = self._granted
        chunks = self.chunks
        out: dict = {}
        logical = hits = hit_bytes = 0
        #: unleased digest -> (nbytes, profile, stored_est, {holder: index})
        unleased: dict[str, tuple] = {}
        for owner in sorted(manifests):
            if owner in granted:
                out[owner] = granted[owner]
                continue
            for index, (digest, nbytes, profile, stored_est) in enumerate(manifests[owner]):
                logical += nbytes
                meta = chunks.get(digest)
                if meta is not None and (meta.durable or meta.lease_ckpt == ckpt_id):
                    # Already stored, or leased earlier in this same
                    # generation: pure dedup hit.
                    hits += 1
                    hit_bytes += nbytes
                    continue
                holders = unleased.get(digest)
                if holders is None:
                    unleased[digest] = (nbytes, profile, stored_est, {owner: index})
                else:
                    # one holder will store it; every other sighting dedups
                    holders[3].setdefault(owner, index)
                    hits += 1
                    hit_bytes += nbytes
        stats = self.stats
        stats["logical_bytes"] += logical
        stats["dedup_hits"] += hits
        stats["dedup_bytes"] += hit_bytes
        load = self._leased_bytes
        need: dict = {}
        for digest in sorted(unleased, key=lambda d: (-unleased[d][0], d)):
            nbytes, profile, stored_est, holders = unleased[digest]
            meta = chunks.get(digest)
            if meta is None:
                meta = chunks[digest] = ChunkMeta(nbytes, profile, self.placement(digest))
            primary = next((h for h in meta.placed if self._up(h)), None)
            owner = min(holders, key=lambda o: (load.get(o, 0), o[0] != primary, o))
            meta.stored_bytes = float(stored_est)
            meta.lease_owner = owner
            meta.lease_ckpt = ckpt_id
            meta.pending_target = primary or owner[0]
            load[owner] = load.get(owner, 0) + nbytes
            need.setdefault(owner, []).append([holders[owner], meta.pending_target])
        for owner in manifests:
            if owner not in out:
                out[owner] = granted[owner] = sorted(need.get(owner, ()))
        if unleased:
            share = max(load.values()) / sum(load.values())
            stats["lease_writers"] = max(stats["lease_writers"], len(load))
            stats["lease_max_share"] = max(stats["lease_max_share"], share)
            self.world.tracer.count_max("store.lease_max_share", share)
        return out

    def release(self, owner: Optional[tuple] = None) -> int:
        """Drop the uncommitted leases of a writer that died -- or, with
        no ``owner``, of every writer: the generation was aborted.
        Returns how many chunks were orphaned (each is re-leased by the
        next generation that references it)."""
        if owner is None:
            self._granted.clear()
        else:
            self._granted.pop(owner, None)
        released = 0
        for meta in self.chunks.values():
            holder = meta.lease_owner
            if holder is not None and (owner is None or holder == owner):
                meta.lease_owner = meta.lease_ckpt = meta.pending_target = None
                released += 1
        return released

    def commit(self, digests: Iterable[str], writer_host: str) -> int:
        """Mark leased chunks durable after the writer pushed their bytes.
        A chunk whose lease was released meanwhile (its generation was
        aborted) stays as it is: the next generation leases it again."""
        committed = 0
        for digest in digests:
            meta = self.chunks.get(digest)
            if meta is None or meta.durable or meta.lease_owner is None:
                continue
            meta.durable = True
            meta.lease_owner = None
            target = meta.pending_target or writer_host
            meta.pending_target = None
            meta.present.add(target)
            meta.stored_at = self.world.engine.now
            self._note_cached(digest, writer_host)
            if target != writer_host:
                self._note_cached(digest, target)
            self.stats["unique_bytes"] += meta.nbytes
            self.stats["stored_payload_bytes"] += meta.stored_bytes
            self.stats["chunks_stored"] += 1
            committed += 1
            self._ensure_replicated(digest)
        return committed

    # ------------------------------------------------------------------
    # Replication and anti-entropy repair
    # ------------------------------------------------------------------
    def _ensure_replicated(self, digest: str) -> int:
        """Start background copies until live+inflight replicas reach k."""
        meta = self.chunks[digest]
        live = [h for h in self._live_replicas(meta)]
        if not live:
            return 0  # nothing to copy from; a reboot may resurrect bytes
        goal = min(self.replicas, len(self.world.machine.hostnames))
        have = set(live) | {h for h in meta.inflight if self._up(h)}
        started = 0
        src = live[0]
        for dst in meta.placed:
            if len(have) >= goal:
                break
            if dst in have or not self._up(dst):
                continue
            self._start_copy(digest, meta, src, dst)
            have.add(dst)
            started += 1
        if len(have) < goal:
            # placed set partially down: spill to rendezvous order
            for dst in self._scored_hosts(digest):
                if len(have) >= goal:
                    break
                if dst in have or not self._up(dst):
                    continue
                self._start_copy(digest, meta, src, dst)
                have.add(dst)
                started += 1
        return started

    def _start_copy(self, digest: str, meta: ChunkMeta, src_host: str, dst_host: str) -> None:
        """Replicate one chunk src -> dst: disk read, network hop, disk write."""
        machine = self.world.machine
        src = machine.node(src_host)
        dst = machine.node(dst_host)
        nbytes = meta.stored_bytes
        meta.inflight.add(dst_host)

        def finish() -> None:
            meta.inflight.discard(dst_host)
            if self._up(dst_host):
                meta.present.add(dst_host)
                meta.stored_at = self.world.engine.now
                self._note_cached(digest, dst_host)
                self.stats["replications"] += 1
                # a landed replica proves the chunk is repairable: refill
                # the anti-entropy budget and unpark it
                meta.repair_attempts = 0
                meta.repair_backoff = None
                meta.repair_next_t = -1e18
                meta.parked = False

        def landed() -> None:
            dst.disk.write(nbytes).add_done(finish)

        def arrived() -> None:
            if src_host == dst_host:  # defensive; placement never does this
                landed()
                return
            src.nic_tx.submit(nbytes)
            rx = dst.nic_rx.submit(nbytes)
            rx.add_done(landed)

        read = src.disk.read(nbytes, cached=self._cached_on(meta, digest, src_host))
        read.add_done(arrived)

    def repair_round(self) -> int:
        """One anti-entropy sweep; returns the number of copies started.

        Per-chunk attempt budget: a chunk whose copies keep dying burns
        one attempt per round that starts copies, waits out a digest-
        seeded backoff before the next try, and after
        ``REPAIR_ATTEMPTS`` fruitless rounds is *parked* -- one
        FailureLog entry, no more copies -- so a permanently lost rack
        degrades to a bounded cost instead of an infinite re-replication
        spin.  Any replica landing (see ``_start_copy``) unparks the
        chunk and refills its budget.
        """
        from repro.resilience import log_retry_exhausted

        now = self.world.engine.now
        started = 0
        for digest, meta in self.chunks.items():
            if not meta.durable or meta.parked:
                continue
            dead_inflight = {h for h in meta.inflight if not self._up(h)}
            meta.inflight -= dead_inflight
            meta.present = {h for h in meta.present if self._up(h) or h in meta.placed}
            if now < meta.repair_next_t:
                continue  # backing off after a fruitless attempt
            n = self._ensure_replicated(digest)
            started += n
            if not n:
                continue
            meta.repair_attempts += 1
            self.stats["repair_attempts"] += 1
            self.world.tracer.count("store.repair_attempts")
            if meta.repair_attempts >= self.repair_attempts_max:
                meta.parked = True
                self.stats["chunks_parked"] += 1
                self.world.tracer.count("store.chunks_parked")
                log_retry_exhausted(
                    self.world,
                    "store-repair",
                    f"chunk {digest[:12]} parked after "
                    f"{meta.repair_attempts} repair attempts",
                    program="chunk_store",
                )
                continue
            if meta.repair_backoff is None:
                meta.repair_backoff = self.repair_policy.delays(digest, "repair")
            meta.repair_next_t = now + next(meta.repair_backoff)
        if started:
            self.stats["repairs"] += started
        return started

    def start_repair(self) -> None:
        """Run the anti-entropy loop until :meth:`stop_repair`."""
        if self._repair_on:
            return
        self._repair_on = True
        self._schedule_repair()

    def stop_repair(self) -> None:
        self._repair_on = False
        if self._repair_event is not None:
            self._repair_event.cancel()
            self._repair_event = None

    def _schedule_repair(self) -> None:
        self._repair_event = self.world.engine.call_after(
            self.repair_interval_s, self._repair_tick
        )

    def _repair_tick(self) -> None:
        self._repair_event = None
        if not self._repair_on:
            return
        self.repair_round()
        if self._repair_on:
            self._schedule_repair()

    # ------------------------------------------------------------------
    # Data plane: streaming restart reads
    # ------------------------------------------------------------------
    def fetch(self, reader_host: str, refs: Iterable) -> tuple[list[Future], dict]:
        """Start concurrent reads of every chunk from its nearest live
        replica; returns (futures, info).  A chunk another fetch is still
        bringing to ``reader_host`` is not read twice: its futures join
        the returned list.  Raises ``SyscallError(EIO)`` if any chunk has
        no live replica at all.
        """
        machine = self.world.machine
        reader = machine.node(reader_host)
        reader_rack = self.rack_of(reader_host)
        inflight = self.inflight_fetch.setdefault(reader_host, {})
        #: (src_host, cached) -> [total stored bytes, digests], for
        #: grouped submits.
        groups: dict[tuple[str, bool], list] = {}
        #: in-flight fetches this one waits on, keyed by identity
        joined: dict[int, tuple] = {}
        info = {"local_bytes": 0.0, "remote_bytes": 0.0, "cache_fetches": 0, "degraded": 0}
        for ref in refs:
            digest = ref[0]
            meta = self.chunks.get(digest)
            if meta is None or not meta.durable:
                raise SyscallError("EIO", f"store chunk {digest} missing")
            if self._cached_on(meta, digest, reader_host):
                info["cache_fetches"] += 1
                self.stats["cache_hit_fetches"] += 1
                landing = inflight.get(digest)
                if landing is not None:
                    joined[id(landing)] = landing
                continue  # resident from a prior fetch/write on this host
            live = self._live_replicas(meta)
            if not live:
                raise SyscallError("EIO", f"store chunk {digest} has no live replica")
            if len(live) < min(self.replicas, len(machine.hostnames)):
                info["degraded"] += 1
                self.stats["degraded_reads"] += 1
            if reader_host in live:
                src = reader_host
            else:
                src = next((h for h in live if self.rack_of(h) == reader_rack), live[0])
            cached = self._cached_on(meta, digest, src)
            group = groups.get((src, cached))
            if group is None:
                group = groups[(src, cached)] = [0.0, []]
            group[0] += meta.stored_bytes
            group[1].append(digest)
            if src == reader_host:
                info["local_bytes"] += meta.stored_bytes
            else:
                info["remote_bytes"] += meta.stored_bytes
            self._note_cached(digest, reader_host)
        futures: list[Future] = []
        for (src_host, cached), (nbytes, digests) in groups.items():
            if src_host == reader_host:
                landing = (reader.disk.read(nbytes, cached=cached),)
            else:
                src = machine.node(src_host)
                read = src.disk.read(nbytes, cached=cached)
                src.nic_tx.submit(nbytes)
                landing = (read, reader.nic_rx.submit(nbytes))
            futures.extend(landing)
            for digest in digests:
                inflight[digest] = landing
            landed = _FetchLanded(inflight, digests, landing)
            for fut in landing:
                fut.add_done(landed)
        for landing in joined.values():
            futures.extend(fut for fut in landing if not fut.done)
        return futures, info

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def image_restorable(self, image) -> bool:
        """True when every chunk of ``image`` has a live durable replica."""
        refs = getattr(image, "store_refs", None)
        refs = refs() if callable(refs) else refs
        if not refs:
            return True
        for ref in refs:
            meta = self.chunks.get(ref[0])
            if meta is None or not meta.durable:
                return False
            if not any(self._up(h) for h in meta.present):
                return False
        return True

    def replica_count(self, digest: str) -> int:
        meta = self.chunks.get(digest)
        return len(self._live_replicas(meta)) if meta is not None else 0

    def summary(self) -> dict[str, Any]:
        """Bench/report rollup of the store's lifetime statistics."""
        s = self.stats
        unique = s["unique_bytes"]
        return {
            "chunk_bytes": self.chunk_bytes,
            "replicas": self.replicas,
            "logical_bytes": s["logical_bytes"],
            "unique_bytes": unique,
            "stored_payload_bytes": s["stored_payload_bytes"],
            "dedup_ratio": (s["logical_bytes"] / unique) if unique else 0.0,
            "dedup_hits": s["dedup_hits"],
            "dedup_bytes": s["dedup_bytes"],
            "chunks_stored": s["chunks_stored"],
            "replications": s["replications"],
            "repairs": s["repairs"],
            "degraded_reads": s["degraded_reads"],
            "cache_hit_fetches": s["cache_hit_fetches"],
            "lineage_skipped": s["lineage_skipped"],
            "lease_writers": s["lease_writers"],
            "lease_max_share": s["lease_max_share"],
        }


class _FetchLanded:
    """Done-callback of one grouped fetch: once all of its futures have
    settled, its chunks are in the reader's page cache and their
    in-flight records go (a record a later fetch replaced stays)."""

    __slots__ = ("inflight", "digests", "landing", "left")

    def __init__(self, inflight: dict, digests: list, landing: tuple):
        self.inflight = inflight
        self.digests = digests
        self.landing = landing
        self.left = len(landing)

    def __call__(self) -> None:
        self.left -= 1
        if self.left:
            return
        inflight = self.inflight
        for digest in self.digests:
            if inflight.get(digest) is self.landing:
                del inflight[digest]
