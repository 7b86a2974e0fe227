"""The ``dmtcp command`` client's exits (repro.core.coordinator).

The client makes one request.  Its verdict travels in its exit code:
0 with the coordinator's reply, ``EXIT_BUSY`` when a round is already
in flight, ``EXIT_ABORTED`` when the round it asked for was rolled
back, and ``EXIT_DEADLINE`` when the coordinator is gone: its listener
refuses every connect, or -- supervised -- no reply arrives within
``member_recv_timeout_s``.  A
checkpoint legitimately outlasts that deadline: the client then probes
the socket with a ping and keeps waiting, so only a dead socket ends
it, and never with a resend.
"""

from dataclasses import replace

import pytest

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.core.coordinator import EXIT_ABORTED, EXIT_BUSY, EXIT_DEADLINE, CheckpointOutcome
from repro.core.launch import DmtcpComputation
from repro.faults.scenarios import _chaos_apps
from repro.kernel.process import ProgramSpec, RegionSpec
from repro.kernel.sockets import SocketEndpoint
from repro.kernel.world import HIJACK_ENV

MB = 1 << 20

#: Short supervision timeouts so every exit resolves in a few simulated
#: seconds.
FAST_SPEC = CLUSTER_2008.with_(
    dmtcp=replace(
        CLUSTER_2008.dmtcp,
        barrier_timeout_s=1.0,
        heartbeat_interval_s=0.5,
        member_recv_timeout_s=2.0,
    )
)


def _chaos(supervise: bool, spec=FAST_SPEC):
    world = build_cluster(n_nodes=3, seed=23, spec=spec)
    world.tracer.enable()
    _chaos_apps(world)
    comp = DmtcpComputation(world, supervise=supervise)
    comp.launch("node01", "chaos_server")
    comp.launch("node02", "chaos_client")
    world.engine.run(until=1.0)
    return world, comp


def _client(comp, *argv):
    """Spawn one ``dmtcp command`` on the coordinator's host, as the
    computation's own commands do; the process carries the exit code."""
    env = dict(comp.base_env())
    env.pop(HIJACK_ENV)
    return comp.world.spawn_process(
        comp.coordinator_host, "dmtcp_command", ["dmtcp_command", *argv], env
    )


def test_a_second_concurrent_request_exits_busy():
    world, comp = _chaos(supervise=False)
    first = _client(comp, "checkpoint")
    handle = comp.request_checkpoint()  # lands while the first runs
    world.engine.run_until(lambda: not first.alive)
    assert first.exit_code == 0
    assert handle["outcome"] == "busy"
    assert len(comp.state.history) == 1
    second = _client(comp, "checkpoint")
    other = _client(comp, "checkpoint")
    world.engine.run_until(lambda: not (second.alive or other.alive))
    # exactly one of two racing clients runs the round
    assert sorted((second.exit_code, other.exit_code)) == [0, EXIT_BUSY]
    assert len(comp.state.history) == 2


def test_an_aborted_round_exits_aborted():
    world, comp = _chaos(supervise=True)
    world.set_disk_full("node02", world.engine.now + 3600.0)
    client = _client(comp, "checkpoint")
    world.engine.run(until=world.engine.now + 5.0)
    assert not client.alive and client.exit_code == EXIT_ABORTED
    assert comp.state.aborts == 1 and comp.state.history == []


def _sent_request(process) -> bool:
    """The client's request has left it: its socket holds a transmitted
    chunk."""
    return any(
        isinstance(entry.description, SocketEndpoint) and entry.description._tx_seq > 0
        for entry in process.fds.values()
    )


def test_status_against_a_silently_dead_coordinator_exits_deadline():
    world, comp = _chaos(supervise=True)
    client = _client(comp, "status")
    # the coordinator vanishes -- no FIN -- once the request is on the
    # wire, so the client's connection stays open and no reply ever comes
    world.engine.run_until(lambda: _sent_request(client))
    assert comp.state.phase == "idle"
    sent_at = world.engine.now
    world.crash_process(comp.coordinator_process)
    world.engine.run_until(lambda: not client.alive)
    assert client.exit_code == EXIT_DEADLINE
    waited = world.engine.now - sent_at
    timeout = world.spec.dmtcp.member_recv_timeout_s
    assert timeout <= waited < timeout + 0.1  # one deadline, no retry
    assert world.tracer.snapshot().get("resilience.deadline_expired") == 1


@pytest.mark.parametrize("supervise", [False, True])
def test_a_client_whose_coordinator_is_gone_exits_deadline(supervise):
    """No listener left: the last refused connect is the verdict, not a
    crash, and a checkpoint request's handle is filled with it."""
    world, comp = _chaos(supervise=supervise)
    world.crash_process(comp.coordinator_process)
    client = _client(comp, "status")
    handle = comp.request_checkpoint()
    world.engine.run(until=world.engine.now + 20.0)  # the retries take 12.25 s
    assert not client.alive and client.exit_code == EXIT_DEADLINE
    assert handle["outcome"] == "deadline"
    assert not world.scheduler.failures.by_program("dmtcp_command")


def test_a_checkpoint_outlasting_the_deadline_completes_through_the_ping():
    # the watchdog stays out of the way of one long write
    spec = FAST_SPEC.with_(
        dmtcp=replace(FAST_SPEC.dmtcp, barrier_timeout_s=60.0, member_recv_timeout_s=1.0)
    )
    world = build_cluster(n_nodes=2, seed=5, spec=spec)
    world.tracer.enable()

    def worker(sys, argv):
        while True:
            yield from sys.cpu(0.1)
            yield from sys.sleep(0.1)

    world.register_program(
        "bigworker",
        worker,
        ProgramSpec("bigworker", regions=(RegionSpec("heap", 512 * MB, "numeric"),)),
    )
    comp = DmtcpComputation(world, supervise=True)
    comp.launch("node01", "bigworker")
    world.engine.run(until=1.0)
    handle = comp.request_checkpoint()
    (client,) = [p for p in world.live_processes() if p.program == "dmtcp_command"]
    world.engine.run_until(lambda: not client.alive)
    outcome = handle["outcome"]
    assert isinstance(outcome, CheckpointOutcome)
    assert client.exit_code == 0
    timeout = world.spec.dmtcp.member_recv_timeout_s
    assert outcome.duration > 2 * timeout
    # one expiry per deadline the reply outlasted, each answered by a
    # ping the live coordinator absorbed; one request, one round
    assert world.tracer.snapshot().get("resilience.deadline_expired") == int(
        outcome.duration // timeout
    )
    assert len(comp.state.history) == 1 and comp.state.aborts == 0
