"""Multi-tenant service: hub dispatch, isolation, preemption, migration."""

import pytest

from repro.cluster import build_cluster
from repro.core.coordinator import CheckpointOutcome
from repro.harness.service import run_service_point, service_spec
from repro.obs.export import jsonl_lines
from repro.service import ClusterScheduler, CoordinatorHub, TenantRegistry


def _service_world(n_nodes=4, batched=True, seed=0):
    world = build_cluster(n_nodes=n_nodes, spec=service_spec(), seed=seed)
    hub = CoordinatorHub(world, batched=batched)
    registry = TenantRegistry(world, hub)
    return world, hub, registry


def _launch_ranks(comp, host, name, ranks, jobs):
    from repro.service.scheduler import TenantJob, register_worker_program

    if name not in jobs:
        jobs[name] = TenantJob(
            name=name, priority=1, slots=ranks, arrival_t=0.0, slices=100_000
        )
    for rank in range(ranks):
        comp.launch(host, "svc_worker", argv=["svc_worker", name, str(rank)])


@pytest.mark.parametrize("batched", [True, False])
def test_hub_checkpoints_one_tenant(batched):
    """A single tenant behind the hub completes the full protocol."""
    world, hub, registry = _service_world(batched=batched)
    from repro.service.scheduler import register_worker_program

    jobs = {}
    register_worker_program(world, jobs)
    comp = registry.create_tenant("solo")
    _launch_ranks(comp, "node01", "solo", 4, jobs)
    world.engine.run(until=0.5)
    outcome = comp.checkpoint()
    assert isinstance(outcome, CheckpointOutcome)
    assert len(outcome.records) == 4
    assert comp.state.aborts == 0


def test_busy_refusal_does_not_touch_other_tenants():
    """Regression (the isolation core of the service): tenant B hammers
    the shared hub with a duplicate checkpoint command -- refused
    ``busy`` because B is already mid-checkpoint -- while tenant A's own
    checkpoint is in flight.  A must complete, unaborted and undelayed,
    against the same shared coordinator host."""
    # solo baseline: tenant A alone on the hub, same world shape
    world, hub, registry = _service_world(n_nodes=4)
    from repro.service.scheduler import register_worker_program

    jobs = {}
    register_worker_program(world, jobs)
    a = registry.create_tenant("aaa")
    _launch_ranks(a, "node01", "aaa", 4, jobs)
    world.engine.run(until=0.5)
    solo = a.checkpoint()
    solo_duration = solo.duration

    # contended: B checkpoints, then immediately requests again (busy),
    # all interleaved with A's checkpoint on the one hub
    world, hub, registry = _service_world(n_nodes=4)
    jobs = {}
    register_worker_program(world, jobs)
    a = registry.create_tenant("aaa")
    b = registry.create_tenant("bbb")
    _launch_ranks(a, "node01", "aaa", 4, jobs)
    _launch_ranks(b, "node02", "bbb", 4, jobs)
    world.engine.run(until=0.5)
    h_b1 = b.request_checkpoint()
    h_a = a.request_checkpoint()
    h_b2 = b.request_checkpoint()  # duplicate: refused while b is busy
    world.engine.run_until(
        lambda: all(h["outcome"] is not None for h in (h_a, h_b1, h_b2))
    )
    assert h_b2["outcome"] == "busy"
    assert isinstance(h_b1["outcome"], CheckpointOutcome)
    outcome_a = h_a["outcome"]
    assert isinstance(outcome_a, CheckpointOutcome), outcome_a
    assert a.state.aborts == 0
    # not delayed: B's refusal cost A at most scheduling noise, never a
    # barrier timeout or a serialized wait behind B's protocol
    assert outcome_a.duration < solo_duration + 0.05


def test_scheduler_runs_jobs_to_completion():
    world, hub, registry = _service_world(n_nodes=4)
    sched = ClusterScheduler(
        world, registry, hub, worker_hosts=world.machine.hostnames[1:],
        seed=0, interval_s=1.0,
    )
    sched.add_job("alpha", slots=4, arrival_t=0.1, slices=20, slice_s=0.05)
    sched.add_job("beta", slots=4, arrival_t=0.2, slices=20, slice_s=0.05)
    sched.start()
    world.engine.run(until=5.0)
    assert all(j.state == "done" for j in sched.jobs.values())
    assert sched.completed_jobs == 2
    assert all(v == 0 for v in sched.used.values())
    assert sched.cross_tenant_failures == 0


def test_priority_preemption_checkpoints_then_requeues():
    """A blocked high-priority arrival checkpoint-kills a low-priority
    victim; the victim later resumes from that checkpoint (graceful
    preemption loses no completed work)."""
    world, hub, registry = _service_world(n_nodes=3)  # ONE worker host x8
    sched = ClusterScheduler(
        world, registry, hub,
        worker_hosts=[world.machine.hostnames[1]],
        seed=0, interval_s=1.0,
    )
    low = sched.add_job("low", priority=1, slots=8, arrival_t=0.1,
                        slices=200, slice_s=0.05)
    hi = sched.add_job("hi", priority=5, slots=8, arrival_t=1.0,
                       slices=20, slice_s=0.05)
    sched.start()
    world.engine.run(until=14.0)
    assert sched.priority_preemptions == 1
    assert low.preemptions == 1
    assert hi.state == "done"
    # the victim resumed from its preemption checkpoint and finished
    assert low.state in ("running", "done")
    assert low.resume_plan is not None or low.state == "done"
    assert sched.cross_tenant_failures == 0


def test_spot_eviction_restarts_elsewhere_within_bound():
    world, hub, registry = _service_world(n_nodes=5)
    sched = ClusterScheduler(
        world, registry, hub, worker_hosts=world.machine.hostnames[1:],
        seed=3, interval_s=1.0,
    )
    jobs = [
        sched.add_job(f"j{i}", slots=8, arrival_t=0.1 * i,
                      slices=100_000, slice_s=0.05)
        for i in range(2)
    ]
    sched.schedule_eviction(2.5)
    sched.start()
    world.engine.run(until=10.0)
    assert sched.eviction_recoveries >= 1
    victims = [j for j in jobs if j.evictions > 0]
    assert victims
    for victim in victims:
        assert victim.state == "running"  # restarted elsewhere
        assert not world.node_state(victim.host).down
    report = sched.report()
    assert report["lost_work_violations"] == 0
    assert report["lost_work_max_s"] <= report["lost_work_bound_s"]
    assert report["cross_tenant_failures"] == 0


def test_defrag_migration_consolidates_free_cores():
    """An 8-core arrival fits in the cluster's total free cores but on
    no single host: the scheduler checkpoint-migrates the small job off
    the freest host to consolidate a full-host hole.

    Layout (two 8-core worker hosts): ``pin``(2) and ``short``(6) pack
    onto host 1, ``sticky``(6) lands on host 2.  ``short`` finishes,
    leaving free cores 6 + 2 = 8 split across hosts.  When ``big``(8)
    arrives, only migrating ``pin`` onto host 2 makes room."""
    world, hub, registry = _service_world(n_nodes=3)
    host1, host2 = world.machine.hostnames[1:]
    sched = ClusterScheduler(
        world, registry, hub, worker_hosts=[host1, host2],
        seed=0, interval_s=1.0,
    )
    pin = sched.add_job("pin", slots=2, arrival_t=0.1,
                        slices=100_000, slice_s=0.05)
    short = sched.add_job("short", slots=6, arrival_t=0.1,
                          slices=10, slice_s=0.05)
    sched.add_job("sticky", slots=6, arrival_t=0.2,
                  slices=100_000, slice_s=0.05)
    big = sched.add_job("big", slots=8, arrival_t=2.0,
                        slices=100_000, slice_s=0.05)
    sched.start()
    world.engine.run(until=1.0)
    assert pin.host == host1  # first-fit packed pin+short onto host1
    assert short.state == "done"
    world.engine.run(until=12.0)
    assert sched.defrag_migrations == 1
    assert pin.migrations == 1
    assert pin.state == "running"
    assert pin.host == host2  # resumed from its checkpoint, relocated
    assert big.state == "running"
    assert big.host == host1
    assert sched.cross_tenant_failures == 0
    # pin's restored vpids equal sticky's real pids on host2: neither
    # tenant's checkpoint may close a span the other opened
    assert not world.scheduler.failures, list(world.scheduler.failures)
    assert len(_tenant_ranks(world, "sticky")) == 6


def _tenant_ranks(world, tenant):
    return [
        p for p in world.live_processes()
        if p.program == "svc_worker" and p.env.get("DMTCP_TENANT") == tenant
    ]


def test_tenants_with_equal_vpids_on_one_host_trace_apart():
    """Virtual pids are unique per computation, not per host: restoring
    tenant ``b`` onto ``a``'s host gives b's ranks the vpids that a's
    ranks hold as real pids.  Their simultaneous checkpoints must trace
    on separate tracks (a shared one raised ``TraceError`` and killed a
    rank's manager)."""
    world, hub, registry = _service_world(n_nodes=3)
    world.tracer.enable()
    from repro.service.scheduler import register_worker_program

    jobs = {}
    register_worker_program(world, jobs)
    a = registry.create_tenant("aaa")
    b = registry.create_tenant("bbb")
    _launch_ranks(a, "node01", "aaa", 2, jobs)
    _launch_ranks(b, "node02", "bbb", 2, jobs)
    world.engine.run(until=0.5)
    kill = b.checkpoint(kill=True)
    b.restart(plan=kill.plan, placement={"node02": "node01"})
    ranks_a, ranks_b = _tenant_ranks(world, "aaa"), _tenant_ranks(world, "bbb")
    assert {p.node.hostname for p in ranks_a + ranks_b} == {"node01"}
    assert {p.pid for p in ranks_a} == {p.user_state["dmtcp"].vpid for p in ranks_b}
    handles = [a.request_checkpoint(), b.request_checkpoint()]
    world.engine.run_until(lambda: all(h["outcome"] is not None for h in handles))
    assert all(isinstance(h["outcome"], CheckpointOutcome) for h in handles)
    world.engine.run(until=world.engine.now + 0.5)
    assert not world.scheduler.failures, list(world.scheduler.failures)
    assert len(_tenant_ranks(world, "aaa")) == len(_tenant_ranks(world, "bbb")) == 2
    assert world.tracer.open_spans() == 0


def test_tenant_tagged_tracing_and_plain_export():
    """Satellite: spans/counters carry the tenant in service mode; the
    single-tenant export stays byte-shape-identical (no tenant keys)."""
    world, hub, registry = _service_world(n_nodes=3)
    world.tracer.enable()
    from repro.service.scheduler import register_worker_program

    jobs = {}
    register_worker_program(world, jobs)
    comp = registry.create_tenant("tagged")
    _launch_ranks(comp, "node01", "tagged", 2, jobs)
    world.engine.run(until=0.5)
    outcome = comp.checkpoint()
    assert isinstance(outcome, CheckpointOutcome)
    # the checkpoint completes at its `refilled` release; each member
    # counts it done once that release reaches it
    runtimes = [p.user_state["dmtcp"] for p in world.live_processes() if "dmtcp" in p.user_state]
    assert len(runtimes) == 2
    world.engine.run_until(lambda: all(rt.checkpoints_done for rt in runtimes))
    tagged_events = [e for e in world.tracer.events if e.tenant == "tagged"]
    assert tagged_events, "service-mode spans must carry the tenant"
    assert "tagged" in world.tracer.tenant_counters
    assert world.tracer.tenant_counters["tagged"]["dmtcp.checkpoints_done"] == 2
    lines = "\n".join(jsonl_lines(world.tracer))
    assert '"tenant": "tagged"' in lines

    # single-tenant world: nothing gains a tenant field
    from repro.core.launch import DmtcpComputation

    world2 = build_cluster(n_nodes=2, seed=0)
    world2.tracer.enable()

    def app(sys_, argv):
        while True:
            yield from sys_.sleep(0.05)

    world2.register_program("app", app)
    comp2 = DmtcpComputation(world2)
    comp2.launch("node00", "app")
    world2.engine.run(until=0.5)
    comp2.checkpoint()
    assert all(e.tenant is None for e in world2.tracer.events)
    assert world2.tracer.tenant_counters == {}
    assert '"tenant"' not in "\n".join(jsonl_lines(world2.tracer))


def test_hub_batches_and_rotates_fairly():
    """Batched mode actually coalesces (mean batch > 1) and the
    round-robin cursor advances across batches."""
    report = run_service_point(tenants=4, ranks=4, duration_s=3.0, seed=0,
                               batched=True)
    assert report["hub"]["mode"] == "batched"
    assert report["hub"]["mean_batch"] > 2.0
    assert report["hub"]["max_batch"] >= 8
    assert report["checkpoints"] >= 4
    assert report["cross_tenant_failures"] == 0


def test_per_message_mode_matches_batched_results():
    """Dispatch mode changes latency, never correctness: same seed, both
    modes, identical checkpoint/recovery counts."""
    b = run_service_point(tenants=4, ranks=4, duration_s=3.0, seed=1,
                          batched=True, evictions=1)
    p = run_service_point(tenants=4, ranks=4, duration_s=3.0, seed=1,
                          batched=False, evictions=1)
    for key in ("checkpoints", "eviction_recoveries", "completed_jobs",
                "cross_tenant_failures", "lost_work_violations"):
        assert b[key] == p[key], (key, b[key], p[key])


def test_eviction_during_preemption_checkpoint_stays_consistent():
    """Regression: a spot eviction landing while the victim's preemption
    checkpoint is in flight must drop the in-flight bookkeeping.  The
    watchdog-aborted handle used to resolve seconds later and flip the
    already-requeued job back to ``running`` with ``host=None``, which
    then crashed accounting (``used[None]``) and charged phantom
    cross-tenant failures."""
    world, hub, registry = _service_world(n_nodes=3)
    host = world.machine.hostnames[1]
    sched = ClusterScheduler(
        world, registry, hub, worker_hosts=[host], seed=0, interval_s=1.0,
    )
    low = sched.add_job("low", priority=1, slots=8, arrival_t=0.1,
                        slices=100_000, slice_s=0.05)
    hi = sched.add_job("hi", priority=5, slots=8, arrival_t=1.0,
                       slices=20, slice_s=0.05)
    sched.start()
    world.engine.run_until(lambda: low.state == "preempting")
    assert "low" in sched._preempts
    sched._evict_host(host)  # lands mid-preemption-checkpoint
    assert "low" not in sched._preempts
    assert low.state == "queued"
    world.engine.run(until=70.0)
    # no job is ever "running" without a live host
    for job in sched.jobs.values():
        if job.state == "running":
            assert job.host is not None
            assert not world.node_state(job.host).down
    assert hi.state == "done"
    assert low.state in ("running", "done")
    assert sched.cross_tenant_failures == 0


def test_migration_target_evicted_mid_flight_requeues():
    """Regression: the defrag reservation makes the migration target
    count as occupied, so an eviction wave can yank it while the mover's
    checkpoint is in flight.  Completion must requeue the mover instead
    of restarting it onto the dead node (which raised EHOSTDOWN inside
    the engine and aborted the whole run)."""
    world, hub, registry = _service_world(n_nodes=3)
    host1, host2 = world.machine.hostnames[1:]
    sched = ClusterScheduler(
        world, registry, hub, worker_hosts=[host1, host2],
        seed=0, interval_s=1.0,
    )
    pin = sched.add_job("pin", slots=2, arrival_t=0.1,
                        slices=100_000, slice_s=0.05)
    sched.add_job("short", slots=6, arrival_t=0.1, slices=10, slice_s=0.05)
    sticky = sched.add_job("sticky", slots=6, arrival_t=0.2,
                           slices=100_000, slice_s=0.05)
    sched.add_job("big", slots=8, arrival_t=2.0,
                  slices=100_000, slice_s=0.05)
    sched.start()
    world.engine.run_until(lambda: "pin" in sched._preempts)
    assert sched._preempts["pin"][2] == host2  # migrating onto host2
    sched._evict_host(host2)  # target dies while the checkpoint flies
    world.engine.run(until=70.0)
    assert pin.migrations == 1
    for job in sched.jobs.values():
        if job.state == "running":
            assert job.host is not None
            assert not world.node_state(job.host).down
    assert pin.state in ("running", "done")
    assert sticky.state in ("running", "done")
    # reservations fully unwound: used matches the placed jobs exactly
    for h in (host1, host2):
        placed = sum(j.slots for j in sched.jobs.values() if j.host == h)
        assert sched.used[h] == placed
    assert sched.cross_tenant_failures == 0


def test_fresh_relaunch_clears_disturbed():
    """Regression: an eviction victim with no valid checkpoint is
    re-placed via the fresh-launch branch, which must clear its
    ``disturbed`` mark -- otherwise the job is excluded from
    preemption/defrag forever and its later failures are never charged
    to the isolation metric."""
    world, hub, registry = _service_world(n_nodes=3)
    host = world.machine.hostnames[1]
    sched = ClusterScheduler(
        world, registry, hub, worker_hosts=[host], seed=0, interval_s=5.0,
    )
    job = sched.add_job("fresh", slots=4, arrival_t=0.1,
                        slices=100_000, slice_s=0.05)
    sched.start()
    world.engine.run_until(lambda: job.state == "running")
    sched._evict_host(host)  # before the first checkpoint epoch
    assert job.resume_plan is None  # nothing to resume from
    assert "fresh" in sched._disturbed
    world.engine.run_until(lambda: job.state == "running")
    assert "fresh" not in sched._disturbed


def test_registry_rejects_duplicate_and_unknown():
    world, hub, registry = _service_world(n_nodes=2)
    registry.create_tenant("one")
    with pytest.raises(ValueError):
        registry.create_tenant("one")
    with pytest.raises(ValueError):
        hub.register("one", registry.get("one").state)
