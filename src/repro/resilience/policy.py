"""The shared retry/deadline policy behind every coordinator round-trip.

Before this module, each layer invented its own waiting rules: the
manager doubled a bare delay, the gateway copied that loop, the service
scheduler refused busy coordinators outright, and the store repair loop
retried forever.  A :class:`RetryPolicy` folds all of that into one
frozen object -- capped exponential backoff, *seeded* jitter, a bounded
attempt budget, and a per-round-trip deadline -- so the chaos battery
can reason about worst-case recovery time as ``attempts x max_s +
deadline_s`` instead of auditing five ad-hoc loops.

Jitter is deterministic.  Real clusters jitter to avoid thundering
herds; this reproduction must *also* replay byte-identically per seed
(the CI double-run ``cmp`` depends on it).  Both needs are met by
seeding each retry stream from a stable key -- the retrying identity
(host, vpid, purpose) -- via :func:`stable_seed`: two managers never
reconnect in lockstep, yet the same run replays the same delays.

On exhaustion the caller owes the operator a trace: a tracer counter on
*every* expiry (cheap, always on) and a queryable
:class:`~repro.sim.tasks.FailureLog` entry on *terminal* failure only.
A deadline that expires but is recovered by a later attempt is an event,
not a failure -- chaos gates assert the FailureLog stays clean across
healed faults, so only unrecovered give-ups may land there.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Iterator

__all__ = ["RetryPolicy", "policy_from_spec", "stable_seed", "log_retry_exhausted"]


def stable_seed(*parts) -> int:
    """Deterministic 64-bit seed from any printable identity key.

    Stable across processes and runs (unlike ``hash()``, which Python
    salts per interpreter), so retry jitter derived from it survives the
    CI byte-identity double run.
    """
    text = "|".join(str(p) for p in parts)
    digest = hashlib.blake2b(text.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff + seeded jitter + bounded attempts.

    ``delays(key...)`` yields at most ``attempts`` sleep durations; the
    caller performs its attempt after each sleep and stops on success.
    ``deadline_s`` is the per-round-trip recv cap callers should pass to
    their blocking wait -- the policy bounds both how long one attempt
    may hang and how many attempts happen at all.
    """

    #: First backoff delay, seconds; doubles per attempt.
    base_s: float = 0.25
    #: Backoff cap, seconds.
    max_s: float = 4.0
    #: Total attempt budget; after this many the caller must give up.
    attempts: int = 40
    #: Jitter fraction: each delay is scaled by ``1 +- jitter`` using the
    #: key-seeded stream, decorrelating peers without losing determinism.
    jitter: float = 0.25
    #: Per-round-trip deadline for a single blocking recv, seconds.
    deadline_s: float = 8.0

    def __post_init__(self):
        if self.base_s < 0 or self.max_s < self.base_s:
            raise ValueError(f"bad backoff range [{self.base_s}, {self.max_s}]")
        if not 0 <= self.jitter < 1:
            raise ValueError(f"jitter fraction must be in [0, 1), got {self.jitter}")
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")

    def delays(self, *key) -> Iterator[float]:
        """Yield the backoff schedule for the identity ``key``.

        Deterministic per key: the same (host, vpid, purpose) tuple
        replays the same jittered schedule in every run.
        """
        rng = random.Random(stable_seed(*key))
        delay = self.base_s
        for _ in range(self.attempts):
            yield delay * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))
            delay = min(delay * 2.0, self.max_s)


def policy_from_spec(dmtcp) -> RetryPolicy:
    """The cluster-wide default policy, derived from :class:`DmtcpSpec`.

    Reuses the reconnect backoff constants that predate this module so
    existing chaos timings stay in the same regime, and caps any single
    round-trip at the member recv timeout.
    """
    return RetryPolicy(
        base_s=dmtcp.reconnect_backoff_s,
        max_s=dmtcp.reconnect_backoff_max_s,
        attempts=dmtcp.reconnect_attempts,
        jitter=dmtcp.retry_jitter,
        deadline_s=dmtcp.member_recv_timeout_s,
    )


class RetryExhausted(Exception):
    """A bounded retry loop used its whole attempt budget and gave up."""


def log_retry_exhausted(world, purpose: str, detail: str,
                        program: str = "resilience", hostname: str = "") -> None:
    """Record a terminal retry give-up in the world's FailureLog.

    The FailureLog stores ``(task, exc)`` pairs and derives program/host
    attribution from the task's context chain, so a synthetic shim task
    (the same shape the store's lineage-skip logging uses) makes the
    give-up queryable by ``failures.by_program("resilience")`` without a
    real task having died.  Also bumps the terminal-failure counter;
    recoverable expiries must use ``resilience.deadline_expired`` /
    ``resilience.retries`` instead and never land here.
    """
    node = None
    if hostname:
        try:
            node = world.node_state(hostname)
        except Exception:
            node = SimpleNamespace(hostname=hostname)
    shim = SimpleNamespace(
        name=f"{purpose}:{detail}",
        context=SimpleNamespace(
            process=SimpleNamespace(program=program, node=node)
        ),
    )
    world.scheduler.failures.append((shim, RetryExhausted(f"{purpose}: {detail}")))
    world.tracer.count("resilience.retries_exhausted")
