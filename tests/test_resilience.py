"""Unit tests for the shared retry/deadline policy (``repro.resilience``).

The policy is the one object every coordinator round-trip leans on for
backoff, so its contract is pinned precisely: bounded attempts, capped
doubling, jitter that is *seeded* (deterministic per identity key, yet
decorrelated across keys), and FailureLog attribution on terminal
give-ups.
"""

import pytest

from repro.cluster import build_cluster
from repro.config import CLUSTER_2008
from repro.resilience import (
    RetryExhausted,
    RetryPolicy,
    log_retry_exhausted,
    policy_from_spec,
    stable_seed,
)


def test_stable_seed_is_stable_and_key_sensitive():
    assert stable_seed("node01", 1, "reconnect") == stable_seed("node01", 1, "reconnect")
    assert stable_seed("node01", 1, "reconnect") != stable_seed("node01", 2, "reconnect")
    assert stable_seed("node01", 1, "reconnect") != stable_seed("node01", 1, "lease")
    # 64-bit range (blake2b digest_size=8)
    assert 0 <= stable_seed("x") < 2**64


def test_delays_deterministic_per_key():
    policy = RetryPolicy(base_s=0.25, max_s=4.0, attempts=8, jitter=0.25)
    a = list(policy.delays("node01", 7, "reconnect"))
    b = list(policy.delays("node01", 7, "reconnect"))
    assert a == b
    assert len(a) == 8


def test_delays_decorrelated_across_keys():
    policy = RetryPolicy(base_s=0.25, max_s=4.0, attempts=8, jitter=0.25)
    a = list(policy.delays("node01", 7, "reconnect"))
    b = list(policy.delays("node02", 7, "reconnect"))
    # same backoff skeleton, different jitter: no two peers in lockstep
    assert a != b


def test_delays_bounded_and_capped():
    policy = RetryPolicy(base_s=0.5, max_s=2.0, attempts=10, jitter=0.25)
    delays = list(policy.delays("k"))
    assert len(delays) == policy.attempts
    for d in delays:
        assert 0.5 * 0.75 <= d <= 2.0 * 1.25
    # the capped tail stays flat (modulo jitter): no unbounded doubling
    assert max(delays) <= policy.max_s * (1.0 + policy.jitter)


def test_zero_jitter_is_exact_doubling():
    policy = RetryPolicy(base_s=0.25, max_s=1.0, attempts=5, jitter=0.0)
    assert list(policy.delays("any")) == [0.25, 0.5, 1.0, 1.0, 1.0]


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(base_s=2.0, max_s=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.0)
    with pytest.raises(ValueError):
        RetryPolicy(attempts=0)


def test_policy_from_spec_mirrors_dmtcp_knobs():
    dmtcp = CLUSTER_2008.dmtcp
    policy = policy_from_spec(dmtcp)
    assert policy.base_s == dmtcp.reconnect_backoff_s
    assert policy.max_s == dmtcp.reconnect_backoff_max_s
    assert policy.attempts == dmtcp.reconnect_attempts
    assert policy.jitter == dmtcp.retry_jitter
    assert policy.deadline_s == dmtcp.member_recv_timeout_s


def test_log_retry_exhausted_lands_in_failure_log():
    world = build_cluster(n_nodes=1, seed=0)
    world.tracer.enable()
    log_retry_exhausted(
        world, "coordinator-reconnect", "chaos_client[2]",
        program="dmtcp_manager", hostname="node00",
    )
    assert len(world.scheduler.failures) == 1
    shim, exc = world.scheduler.failures[0]
    assert isinstance(exc, RetryExhausted)
    assert "coordinator-reconnect" in str(exc)
    assert shim.context.process.program == "dmtcp_manager"
    assert world.tracer.snapshot().get("resilience.retries_exhausted") == 1
