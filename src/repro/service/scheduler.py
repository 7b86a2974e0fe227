"""Cluster scheduler: tenants as jobs, checkpoint/restart as preemption.

The service's one preemption primitive is the DMTCP protocol itself:
checkpoint -> kill -> restart elsewhere.  The scheduler uses it three
ways:

* **spot eviction** -- a node is yanked with no warning (``crash_node``).
  The victims lose everything since their last checkpoint; the scheduler
  walks their coordinator history for the newest valid image set (the
  AutoRestartSupervisor's selection filter) and requeues them, so the
  loss is bounded by checkpoint interval + barrier timeout.
* **priority preemption** -- a high-priority arrival that cannot fit
  checkpoints-and-kills the cheapest lower-priority victim (graceful:
  the victim's last instant of work is captured, losing nothing).
* **defragmentation** -- when a job fits in the cluster's total free
  cores but no single host has enough, the smallest movable job is
  checkpoint-migrated to consolidate free cores onto one host.

Everything is driven by one host-side tick on an engine timer plus a
seeded arrival process, so a (seed, schedule) pair replays identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.coordinator import CheckpointOutcome
from repro.faults.supervisor import find_newest_valid_plan
from repro.resilience import RetryPolicy, log_retry_exhausted
from repro.kernel.process import ProgramSpec, RegionSpec
from repro.kernel.syscalls import Sys
from repro.kernel.world import HIJACK_ENV

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.world import World
    from repro.service.hub import CoordinatorHub
    from repro.service.registry import TenantRegistry

__all__ = ["TenantJob", "ClusterScheduler", "register_worker_program"]

#: Host-side scheduler tick (arrivals, placement, evictions), seconds.
SERVICE_POLL_S = 0.25
#: How long a spot-evicted node stays down before rebooting, seconds.
SPOT_DOWNTIME_S = 30.0

#: Deliberately tiny address space: service workers model *many* small
#: tenants, so per-image cost stays low and coordinator traffic -- not
#: image I/O -- dominates the measured checkpoint latency.
_WORKER_SPEC = ProgramSpec(
    "svc_worker",
    regions=(
        RegionSpec("code", 16 * 1024, "code"),
        RegionSpec("heap", 32 * 1024, "text"),
    ),
)


@dataclass
class TenantJob:
    """One tenant's unit of schedulable work."""

    name: str
    priority: int  # higher preempts lower
    slots: int  # cores (= ranks), co-located on one host
    arrival_t: float
    slices: int  # per-rank units of work
    slice_s: float = 0.05  # seconds of cpu per unit
    state: str = "pending"  # pending|queued|starting|running|preempting|done
    host: Optional[str] = None
    placed_t: float = 0.0
    queued_t: float = 0.0
    resume_plan: Optional[object] = None  # RestartPlan to resume from
    #: ranks that have finished all their slices (host-side record;
    #: re-adding after restart replay is idempotent)
    done_ranks: set = field(default_factory=set)
    preemptions: int = 0
    evictions: int = 0
    migrations: int = 0

    @property
    def done(self) -> bool:
        return len(self.done_ranks) >= self.slots


def register_worker_program(world: "World", jobs: dict) -> None:
    """Register ``svc_worker``: argv = [svc_worker, <job>, <rank>].

    Each rank burns ``slices`` fixed cpu units then records itself in the
    job's ``done_ranks``.  The loop index lives in the generator frame,
    so a restart resumes from the *checkpointed* iteration -- work done
    after the checkpoint is honestly lost and re-executed, which is
    exactly the quantity the lost-work bound is about.
    """

    def worker_main(sys: Sys, argv):
        job: TenantJob = jobs[argv[1]]
        rank = int(argv[2])
        i = 0
        while i < job.slices:
            yield from sys.cpu(job.slice_s)
            i += 1
        job.done_ranks.add(rank)

    world.register_program("svc_worker", worker_main, _WORKER_SPEC)


class ClusterScheduler:
    """Multiplexes TenantJobs onto the worker hosts of one world."""

    def __init__(
        self,
        world: "World",
        registry: "TenantRegistry",
        hub: "CoordinatorHub",
        worker_hosts: list[str],
        seed: int = 0,
        interval_s: float = 5.0,
        cores_per_host: Optional[int] = None,
    ):
        self.world = world
        self.registry = registry
        self.hub = hub
        self.worker_hosts = list(worker_hosts)
        if hub.host in self.worker_hosts:
            raise ValueError("the hub host cannot also be a worker host")
        self.rng = random.Random(seed)
        self.interval_s = interval_s
        spec = world.spec.dmtcp
        self.poll_s = SERVICE_POLL_S
        self.spot_downtime_s = SPOT_DOWNTIME_S
        self.barrier_timeout_s = spec.barrier_timeout_s
        self.cores_per_host = (
            world.spec.cpu.cores if cores_per_host is None else cores_per_host
        )
        self.jobs: dict[str, TenantJob] = {}
        #: hostname -> cores currently reserved on it
        self.used: dict[str, int] = {h: 0 for h in self.worker_hosts}
        #: in-flight periodic checkpoints: job name -> (request_t, handle)
        self._ckpts: dict[str, tuple] = {}
        #: in-flight preemption checkpoints: job name -> (handle, kind, target)
        self._preempts: dict[str, tuple] = {}
        #: in-flight restarts: job name -> handle
        self._restarts: dict[str, dict] = {}
        #: busy-refusal retry: the shared resilience schedule (capped
        #: exponential backoff, jitter seeded per tenant so a storm of
        #: simultaneous refusals does not re-storm in lockstep).  A busy
        #: outcome re-requests on this schedule; only exhaustion counts
        #: as a refusal and lands in the FailureLog.
        self.retry_policy = RetryPolicy(
            base_s=spec.reconnect_backoff_s,
            max_s=spec.reconnect_backoff_max_s,
            attempts=spec.command_retry_attempts,
            jitter=spec.retry_jitter,
        )
        #: job name -> (attempts used, that job's backoff iterator)
        self._ckpt_retries: dict[str, tuple] = {}
        register_worker_program(world, self.jobs)
        # ---- metrics ----------------------------------------------------
        self.ckpt_latencies: list[float] = []
        self.busy_refusals = 0
        self.aborted_ckpts = 0
        self.lost_work: list[float] = []
        self.eviction_recoveries = 0
        self.priority_preemptions = 0
        self.defrag_migrations = 0
        self.completed_jobs = 0
        #: an abort/failure charged to a tenant that was not itself being
        #: evicted or preempted -- the isolation metric, must stay 0
        self.cross_tenant_failures = 0
        #: tenants currently expected to be disturbed (evicted/preempted)
        self._disturbed: set[str] = set()
        self._stopped = False

    # ------------------------------------------------------------------
    # Workload construction (all host-side, all seeded)
    # ------------------------------------------------------------------
    def add_job(
        self,
        name: str,
        priority: int = 1,
        slots: int = 4,
        arrival_t: float = 0.0,
        slices: int = 10_000,
        slice_s: float = 0.05,
    ) -> TenantJob:
        job = TenantJob(
            name=name, priority=priority, slots=slots,
            arrival_t=arrival_t, slices=slices, slice_s=slice_s,
        )
        self.jobs[name] = job
        return job

    def generate_arrivals(
        self,
        n_jobs: int,
        mean_interarrival_s: float = 0.5,
        slots_choices: tuple = (4,),
        priority_choices: tuple = (1,),
        slices: int = 10_000,
        slice_s: float = 0.05,
    ) -> list[TenantJob]:
        """Seeded Poisson-ish arrival process (the 'job-arrival process'
        the service is driven by; same seed -> same workload)."""
        t = 0.0
        out = []
        for i in range(n_jobs):
            t += self.rng.expovariate(1.0 / mean_interarrival_s)
            out.append(self.add_job(
                name=f"t{i:03d}",
                priority=self.rng.choice(list(priority_choices)),
                slots=self.rng.choice(list(slots_choices)),
                arrival_t=t,
                slices=slices,
                slice_s=slice_s,
            ))
        return out

    def schedule_eviction(self, at_t: float) -> None:
        """Arm one spot-eviction wave: at ``at_t`` a random occupied
        worker host is yanked (seeded choice made at fire time)."""
        self.world.engine.call_at(at_t, self._eviction_wave)

    def start(self) -> None:
        """Arm the tick loop and the synchronized checkpoint epochs."""
        engine = self.world.engine
        engine.call_after(self.poll_s, self._tick)
        engine.call_after(self.interval_s, self._checkpoint_epoch)

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def _free(self, host: str) -> int:
        if self.world.node_state(host).down:
            return 0
        return self.cores_per_host - self.used[host]

    def _first_fit(self, slots: int) -> Optional[str]:
        for host in self.worker_hosts:
            if self._free(host) >= slots:
                return host
        return None

    def _place(self, job: TenantJob, host: str) -> None:
        """Launch or resume ``job`` on ``host``."""
        now = self.world.engine.now
        comp = self.registry.get(job.name)
        if comp is None:
            comp = self.registry.create_tenant(job.name, supervise=True)
        job.host = host
        self.used[host] += job.slots
        if job.resume_plan is not None:
            # restart-elsewhere: relocate every image from wherever the
            # plan last ran to the new host (single-host co-location
            # keeps the placement map one entry)
            plan = job.resume_plan
            placement = {orig: host for orig in plan.images_by_host}
            job.state = "starting"
            handle = comp.restart_async(plan, placement=placement)
            self._restarts[job.name] = handle
        else:
            job.state = "running"
            job.placed_t = now
            # an eviction victim with no valid checkpoint is re-placed
            # fresh; it is no longer disturbed once its relaunch lands
            # (the resume branch defers this to _collect_restarts)
            self._disturbed.discard(job.name)
            for rank in range(job.slots):
                comp.launch(host, "svc_worker",
                            argv=["svc_worker", job.name, str(rank)])

    def _release(self, job: TenantJob) -> None:
        if job.host is not None:
            self.used[job.host] -= job.slots
            job.host = None

    # ------------------------------------------------------------------
    # The tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        if self._stopped:
            return
        now = self.world.engine.now
        self._collect_restarts(now)
        self._collect_ckpts(now)
        self._collect_preemptions(now)
        self._reap_completed()
        self._admit(now)
        self.world.engine.call_after(self.poll_s, self._tick)

    def _admit(self, now: float) -> None:
        """Admission: arrivals enter the queue; queued jobs are placed
        first-fit in (priority, queue-time) order; a blocked
        high-priority job may preempt; a blocked-but-fitting-in-total
        job may trigger a defrag migration."""
        for job in self.jobs.values():
            if job.state == "pending" and job.arrival_t <= now:
                job.state = "queued"
                job.queued_t = now
        queued = sorted(
            (j for j in self.jobs.values() if j.state == "queued"),
            key=lambda j: (-j.priority, j.queued_t, j.name),
        )
        for job in queued:
            host = self._first_fit(job.slots)
            if host is not None:
                self._place(job, host)
                continue
            if self._try_preempt(job):
                continue
            self._try_defrag(job)
            # whether or not a migration started, nothing below this
            # priority can jump the queue past it
            break

    # -- periodic checkpoints (the storm) ------------------------------
    def _checkpoint_epoch(self) -> None:
        """Synchronized storm: every running tenant checkpoints at the
        same epoch tick -- the service's worst-case coordinator load and
        the workload the batched protocol is judged on."""
        if self._stopped:
            return
        now = self.world.engine.now
        for job in self.jobs.values():
            if job.state != "running":
                continue
            if job.name in self._ckpts or job.name in self._preempts:
                continue
            comp = self.registry.get(job.name)
            handle = comp.request_checkpoint()
            self._ckpts[job.name] = (now, handle)
        self.world.engine.call_after(self.interval_s, self._checkpoint_epoch)

    def _collect_ckpts(self, now: float) -> None:
        for name in list(self._ckpts):
            request_t, handle = self._ckpts[name]
            outcome = handle["outcome"]
            if outcome is None:
                continue
            del self._ckpts[name]
            job = self.jobs[name]
            if isinstance(outcome, CheckpointOutcome):
                self._ckpt_retries.pop(name, None)
                self.ckpt_latencies.append(outcome.finished_at - request_t)
            elif outcome == "busy":
                self._retry_busy(name, request_t)
            else:  # "aborted", or "deadline": no coordinator answered
                self._ckpt_retries.pop(name, None)
                self.aborted_ckpts += 1
                self._charge_failure(name)

    def _retry_busy(self, name: str, request_t: float) -> None:
        """A busy refusal re-requests on the shared retry schedule;
        latency stays measured from the *first* request, so the backoff
        wait is honestly charged to the tenant's checkpoint tail."""
        used, backoff = self._ckpt_retries.get(
            name, (0, self.retry_policy.delays(name, "ckpt-busy"))
        )
        if used + 1 >= self.retry_policy.attempts:
            self._ckpt_retries.pop(name, None)
            self.busy_refusals += 1
            log_retry_exhausted(
                self.world, "checkpoint-request", name, program="svc_scheduler"
            )
            self._charge_failure(name)
            return
        self._ckpt_retries[name] = (used + 1, backoff)
        self.world.tracer.count("resilience.busy_bounces", tenant=name)
        self.world.engine.call_after(
            next(backoff), self._refire_ckpt, name, request_t
        )

    def _refire_ckpt(self, name: str, request_t: float) -> None:
        """Fire one scheduled busy-retry if the tenant is still eligible."""
        if self._stopped:
            return
        job = self.jobs.get(name)
        if (
            job is None
            or job.state != "running"
            or name in self._ckpts
            or name in self._preempts
        ):
            # preempted, evicted, done, or a fresh epoch already asked:
            # the retry is moot, drop its state
            self._ckpt_retries.pop(name, None)
            return
        comp = self.registry.get(name)
        self._ckpts[name] = (request_t, comp.request_checkpoint())

    def _charge_failure(self, name: str) -> None:
        """A refusal/abort on an *undisturbed* tenant is an isolation
        leak: some other tenant's traffic broke this one's checkpoint."""
        job = self.jobs.get(name)
        if name in self._disturbed or (job is not None and job.state != "running"):
            return
        self.cross_tenant_failures += 1

    # -- preemption and defragmentation --------------------------------
    def _movable(self, job: TenantJob) -> bool:
        return (
            job.state == "running"
            and job.name not in self._ckpts
            and job.name not in self._preempts
            and job.name not in self._disturbed
        )

    def _try_preempt(self, job: TenantJob) -> bool:
        """Graceful priority preemption: checkpoint-kill the cheapest
        strictly-lower-priority victim whose cores would let ``job``
        fit on its host."""
        victims = [
            v for v in self.jobs.values()
            if self._movable(v) and v.priority < job.priority
            and self.used[v.host] - v.slots + job.slots <= self.cores_per_host
        ]
        if not victims:
            return False
        victim = min(victims, key=lambda v: (v.priority, v.slots, v.name))
        comp = self.registry.get(victim.name)
        victim.state = "preempting"
        victim.preemptions += 1
        self._disturbed.add(victim.name)
        handle = comp.request_checkpoint(kill=True)
        self._preempts[victim.name] = (handle, "preempt", None)
        self.priority_preemptions += 1
        return True

    def _try_defrag(self, job: TenantJob) -> bool:
        """Bin-packing migration: ``job`` fits in the cluster's total
        free cores but on no single host; move the smallest job off the
        host closest to fitting, onto a host that can absorb it."""
        total_free = sum(self._free(h) for h in self.worker_hosts)
        if total_free < job.slots:
            return False
        for host in sorted(self.worker_hosts, key=self._free, reverse=True):
            movers = sorted(
                (v for v in self.jobs.values()
                 if self._movable(v) and v.host == host),
                key=lambda v: (v.slots, v.name),
            )
            for mover in movers:
                if self._free(host) + mover.slots < job.slots:
                    continue  # even moving it would not make room
                target = next(
                    (h for h in self.worker_hosts
                     if h != host and self._free(h) >= mover.slots),
                    None,
                )
                if target is None:
                    continue
                comp = self.registry.get(mover.name)
                mover.state = "preempting"
                mover.migrations += 1
                self._disturbed.add(mover.name)
                # reserve the target so admission cannot race into it
                self.used[target] += mover.slots
                handle = comp.request_checkpoint(kill=True)
                self._preempts[mover.name] = (handle, "migrate", target)
                self.defrag_migrations += 1
                return True
        return False

    def _collect_preemptions(self, now: float) -> None:
        for name in list(self._preempts):
            handle, kind, target = self._preempts[name]
            outcome = handle["outcome"]
            if outcome is None:
                continue
            del self._preempts[name]
            job = self.jobs[name]
            if not isinstance(outcome, CheckpointOutcome):
                # refused (e.g. a periodic checkpoint was in flight):
                # roll the job back to running and retry next tick.
                # Guarded: an eviction may have requeued the job while
                # the handle was in flight (defense in depth on top of
                # _evict_host popping the entry)
                if kind == "migrate" and target is not None:
                    self.used[target] -= job.slots
                if job.state == "preempting":
                    job.state = "running"
                    self._disturbed.discard(name)
                continue
            # --kill retired the processes at the end of the write; a
            # graceful preemption loses no work at all
            self._release(job)
            job.resume_plan = outcome.plan
            self._disturbed.discard(name)
            if kind == "migrate" and target is not None:
                self.used[target] -= job.slots  # drop reservation, place for real
                if self.world.node_state(target).down:
                    # the reserved target was spot-evicted while the
                    # checkpoint was in flight (the reservation made it
                    # count as occupied, so the wave could pick it):
                    # requeue instead of restarting onto a dead node
                    job.state = "queued"
                    job.queued_t = now
                else:
                    self._place(job, target)
            else:
                job.state = "queued"
                job.queued_t = now

    # -- spot evictions -------------------------------------------------
    def _eviction_wave(self) -> None:
        """Yank one occupied worker host (seeded choice at fire time)."""
        if self._stopped:
            return
        occupied = [h for h in self.worker_hosts
                    if self.used[h] > 0 and not self.world.node_state(h).down]
        if not occupied:
            return
        self._evict_host(self.rng.choice(occupied))

    def _evict_host(self, host: str) -> None:
        world = self.world
        now = world.engine.now
        victims = [j for j in self.jobs.values()
                   if j.host == host and j.state in ("running", "preempting", "starting")]
        expected = {
            j.name: sum(
                1 for p in world.live_processes()
                if p.env.get(HIJACK_ENV)
                and p.env.get("DMTCP_TENANT", "") == j.name
            )
            for j in victims
        }
        for j in victims:
            self._disturbed.add(j.name)
        world.crash_node(host)
        world.engine.call_after(
            self.spot_downtime_s, world.reboot_node, host
        )
        for job in victims:
            job.evictions += 1
            was_starting = job.state == "starting"
            # an in-flight periodic checkpoint, preemption, or restart
            # dies with the node.  Drop its bookkeeping *now*: the
            # watchdog-aborted handle resolves seconds later, and if the
            # _preempts entry survived, _collect_preemptions would roll
            # the (already requeued, host=None) job back to "running";
            # if the _ckpts entry survived, the abort could be charged
            # as a cross-tenant failure once the job is running again.
            self._ckpts.pop(job.name, None)
            pre = self._preempts.pop(job.name, None)
            if pre is not None and pre[1] == "migrate" and pre[2] is not None:
                self.used[pre[2]] -= job.slots  # drop the defrag reservation
            self._restarts.pop(job.name, None)
            comp = self.registry.get(job.name)
            outcome = find_newest_valid_plan(world, comp.state, expected[job.name])
            self._release(job)
            if outcome is not None:
                job.resume_plan = outcome.plan
                # the live state at eviction time is image-state plus the
                # work done since this placement resumed -- a plan taken
                # *before* the current placement repeats no extra loss
                baseline = max(outcome.finished_at, job.placed_t)
            else:
                # never checkpointed: restart from scratch, everything
                # since placement is lost
                job.resume_plan = None
                job.done_ranks.clear()
                baseline = job.placed_t
            if not was_starting:
                # a victim caught mid-restart had not resumed work yet:
                # its loss was already sampled at the previous eviction
                self.lost_work.append(round(now - baseline, 6))
            self.eviction_recoveries += 1
            job.state = "queued"
            job.queued_t = now

    # -- restarts and completion ----------------------------------------
    def _collect_restarts(self, now: float) -> None:
        for name in list(self._restarts):
            handle = self._restarts[name]
            if handle["outcome"] is None:
                continue
            del self._restarts[name]
            job = self.jobs[name]
            if job.state == "starting":
                job.state = "running"
                job.placed_t = now
                self._disturbed.discard(name)

    def _reap_completed(self) -> None:
        for job in self.jobs.values():
            if job.state == "running" and job.done:
                self._ckpts.pop(job.name, None)
                self._release(job)
                job.state = "done"
                self.completed_jobs += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self) -> dict:
        lat = sorted(self.ckpt_latencies)
        bound = self.interval_s + self.barrier_timeout_s

        def pct(p: float) -> float:
            if not lat:
                return 0.0
            return lat[min(len(lat) - 1, int(p * len(lat)))]

        return {
            "jobs": len(self.jobs),
            "completed_jobs": self.completed_jobs,
            "checkpoints": len(lat),
            "ckpt_latency_p50_s": round(pct(0.50), 6),
            "ckpt_latency_p99_s": round(pct(0.99), 6),
            "ckpt_latency_max_s": round(lat[-1], 6) if lat else 0.0,
            "busy_refusals": self.busy_refusals,
            "aborted_ckpts": self.aborted_ckpts,
            "cross_tenant_failures": self.cross_tenant_failures,
            "priority_preemptions": self.priority_preemptions,
            "defrag_migrations": self.defrag_migrations,
            "eviction_recoveries": self.eviction_recoveries,
            "lost_work_s": self.lost_work,
            "lost_work_max_s": round(max(self.lost_work), 6) if self.lost_work else 0.0,
            "lost_work_bound_s": round(bound, 6),
            "lost_work_violations": sum(1 for w in self.lost_work if w > bound),
            "hub": self.hub.stats(),
        }
