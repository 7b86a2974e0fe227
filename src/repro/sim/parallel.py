"""Sharded discrete-event simulation with conservative lookahead windows.

The cluster is partitioned by node onto shards (`hardware.topology.ShardPlan`);
each shard runs the existing single-threaded :class:`~repro.sim.engine.Engine`
over its block of nodes and synchronizes with the others at *conservative
lookahead windows* (classic null-message-free conservative PDES):

* Every cross-node interaction is a timestamped **fabric message** whose
  arrival is at least ``lookahead`` (the minimum cross-shard link latency,
  `hardware.topology.shard_lookahead_s`) after the moment it is sent.
* Execution proceeds in windows ``[W, H)`` with ``H = W + lookahead`` where
  ``W`` is the global minimum next-event time (pending messages included).
  A message sent at ``t in [W, H)`` arrives at ``t + lookahead >= H``, so
  exchanging outboxes once per window boundary delivers every message
  *before* any shard could have executed past its arrival time.  A shard may
  freely execute any local event earlier than the horizon.
* Messages carry the deterministic merge key ``(arrival_time,
  origin_node_rank, per-origin-node_seq)``; each shard injects its inbound
  messages in globally sorted key order at the window start, so same-time
  deliveries interleave identically at every shard count.

Determinism contract: the *sharded runtime* produces identical committed
artifacts (checkpoint image checksums, barrier release sequences, sim-time
metrics, total events fired) for ``shards=1`` and ``shards=N``.  This holds
because the fabric path engages for **all** cross-node traffic whenever a
shard binding is installed -- including the single-shard case -- so the
window schedule, message timestamps, and injection order are functions of
the workload alone, never of the partition.  (The plain serial engine, with
no binding installed, is a separate, unchanged code path.)

Two transports share the grant computation:

* ``backend="inline"`` -- shard worlds as threads in this process behind a
  :class:`threading.Barrier` (no parallelism under the GIL; exists for fast
  deterministic equivalence tests).
* ``backend="mp"`` -- forked ``multiprocessing`` workers exchanging over
  pipes with the parent acting as the window-grant router (the performance
  backend).

Scenarios follow SPMD discipline, like an MPI program: every shard runs the
same scenario function over a *replica* of the full world, spawns real
processes only on the nodes it owns (`World.spawn_process` filters), and
makes the identical sequence of collective calls -- ``engine.run`` /
``engine.run_until`` / ``ctx.broadcast`` -- before returning.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Any, Callable, Optional

from repro.errors import SimulationError

__all__ = [
    "ShardBinding",
    "ShardContext",
    "ShardGate",
    "ShardProtocolError",
    "ShardRunResult",
    "run_sharded",
]

#: Default seconds a transport waits on a peer before declaring it wedged.
WORKER_TIMEOUT_S = 600.0

# Message tuple layout (plain tuples: pickled on every mp exchange):
#   (arrival, origin_rank, origin_seq, dst_shard, kind, cid, payload)
# Tuple comparison IS the deterministic merge order -- (arrival, rank, seq)
# is unique per message, so sort() never reaches the payload.
_ARRIVAL, _RANK, _SEQ, _DST, _KIND, _CID, _PAYLOAD = range(7)

# Report tuple: (mode, t_next, pred_flag, now, lookahead, outbox)
# where mode is ("run", until) or ("until",).
# Grant tuple: ("w", horizon, inclusive, msgs) run one window
#              ("s", stop_now, None, msgs)     stop, normalize clock
#              ("e", message, None, ())        abort every shard


class ShardProtocolError(RuntimeError):
    """The shards diverged from SPMD lockstep (or a worker died)."""


def _error_grants(n: int, message: str) -> list:
    return [("e", message, None, ())] * n


def _compute_grants(reports: list) -> list:
    """Reduce one report per shard into one grant per shard.

    Pure function of the reports -- both transports call it, so inline and
    mp runs make byte-identical window schedules.
    """
    n = len(reports)
    modes = {r[0] for r in reports}
    if len(modes) != 1:
        return _error_grants(
            n, f"shard mode divergence (SPMD violation): {sorted(modes)}"
        )
    lookaheads = {r[4] for r in reports}
    if len(lookaheads) != 1:
        return _error_grants(n, f"shards disagree on lookahead: {sorted(lookaheads)}")
    lookahead = reports[0][4]

    msgs: list = []
    for r in reports:
        msgs.extend(r[5])
    msgs.sort()  # (arrival, origin_rank, origin_seq): the merge order
    route: list[list] = [[] for _ in range(n)]
    for m in msgs:
        route[m[_DST]].append(m)

    times = [r[1] for r in reports if r[1] is not None]
    if msgs:
        times.append(msgs[0][_ARRIVAL])
    t_min = min(times) if times else None
    # Entry clocks are equal across shards (stop normalization keeps them
    # so); max() is belt and braces for the very first call.
    common_now = max(r[3] for r in reports)

    mode = reports[0][0]
    if mode[0] == "until":
        if any(r[2] for r in reports):
            # some shard's predicate holds: everyone stops at the same time
            return [("s", common_now, None, route[i]) for i in range(n)]
        if t_min is None:
            return _error_grants(
                n, "run_until: every shard drained its queue before the predicate held"
            )
        horizon, inclusive = t_min + lookahead, False
    else:
        until = mode[1]
        if t_min is None:
            # globally idle: like the serial engine, draining an empty
            # queue leaves the clock where it is
            return [("s", common_now, None, route[i]) for i in range(n)]
        if until is not None and t_min > until:
            return [("s", until, None, route[i]) for i in range(n)]
        horizon, inclusive = t_min + lookahead, False
        if until is not None and horizon > until:
            # the final partial window runs events *at* until too,
            # matching the serial run(until=...) boundary
            horizon, inclusive = until, True
    return [("w", horizon, inclusive, route[i]) for i in range(n)]


class _Arrival:
    """Injected fabric message: fires its kind's handler at arrival time."""

    __slots__ = ("binding", "msg")

    def __init__(self, binding: "ShardBinding", msg: tuple):
        self.binding = binding
        self.msg = msg

    def __call__(self) -> None:
        binding = self.binding
        msg = self.msg
        binding.stats["msgs_in"] += 1
        tracer = binding.engine._trace_hot
        if tracer is not None:
            tracer.count("parallel.msgs_in")
        binding.handlers[msg[_KIND]](msg)


class ShardBinding:
    """Per-shard fabric state: outbox, sequence counters, message handlers.

    The binding is transport-agnostic; the kernel layer
    (`repro.kernel.fabric`) registers handlers for its message kinds and
    posts messages through :meth:`post`.
    """

    def __init__(self, world, plan, shard_id: int, lookahead: float):
        self.world = world
        self.engine = world.engine
        self.plan = plan
        self.shard_id = shard_id
        self.lookahead = lookahead
        self.gate: Optional["ShardGate"] = None
        self.outbox: list = []
        #: kind -> callable(msg); populated by the kernel fabric layer
        self.handlers: dict[str, Callable[[tuple], None]] = {}
        self._node_seq: dict[int, int] = {}
        self.stats = {
            "msgs_out": 0,
            "msgs_in": 0,
            "remote_spawns": 0,
            "bulk_approx": 0,
            "rx_overflow": 0,
        }

    @property
    def is_root(self) -> bool:
        """Shard 0 hosts the driver-visible results (coordinator etc.)."""
        return self.shard_id == 0

    def owns(self, hostname: str) -> bool:
        return self.plan.owner(hostname) == self.shard_id

    def post(
        self,
        origin_host: str,
        dst_host: str,
        arrival: float,
        kind: str,
        cid,
        payload=None,
    ) -> None:
        """Queue a fabric message for delivery at ``arrival``.

        ``arrival`` must be >= send time + lookahead; the window protocol
        relies on it (checked cheaply here rather than trusted).
        """
        now = self.engine.now
        if arrival < now + self.lookahead - 1e-12:
            raise SimulationError(
                f"fabric message {kind!r} violates lookahead: "
                f"arrival {arrival} < {now} + {self.lookahead}"
            )
        rank = self.plan.node_rank(origin_host)
        seq = self._node_seq.get(rank, 0)
        self._node_seq[rank] = seq + 1
        self.outbox.append(
            (arrival, rank, seq, self.plan.owner(dst_host), kind, cid, payload)
        )
        self.stats["msgs_out"] += 1
        tracer = self.engine._trace_hot
        if tracer is not None:
            tracer.count("parallel.msgs_out")

    def take_outbox(self) -> list:
        out, self.outbox = self.outbox, []
        return out

    def inject(self, msgs: list) -> None:
        """Schedule inbound messages (already in merge order) as events."""
        call_at = self.engine.call_at
        for m in msgs:
            call_at(m[_ARRIVAL], _Arrival(self, m))


class ShardGate:
    """Windowed drop-in for ``Engine.run`` / ``Engine.run_until``.

    Installed as ``engine._shard_gate``; the engine delegates its public
    run methods here, so driver code (launch, harness, scenarios) runs
    unmodified under sharding.
    """

    def __init__(self, engine, binding: ShardBinding, transport):
        self.engine = engine
        self.binding = binding
        self.transport = transport
        self.windows = 0
        self.sync_stall_s = 0.0
        self.busy_s = 0.0
        self.busy_cpu_s = 0.0
        self._active = False

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> None:
        if until is not None and until < self.engine.now:
            # no-op, like the serial engine -- and every shard sees the
            # same (normalized) clock, so all of them skip together and
            # the exchange sequence stays in lockstep
            return
        self._drive(("run", until), None, max_events)

    def run_until(
        self, predicate: Callable[[], bool], max_events: int = 50_000_000
    ) -> None:
        self._drive(("until",), predicate, max_events)

    def _drive(self, mode: tuple, predicate, max_events: int) -> None:
        if self._active:
            raise SimulationError("nested engine.run under sharded execution")
        engine = self.engine
        binding = self.binding
        exchange = self.transport.exchange
        self._active = True
        try:
            while True:
                flag = bool(predicate()) if predicate is not None else False
                report = (
                    mode,
                    engine.peek_time(),
                    flag,
                    engine.now,
                    binding.lookahead,
                    binding.take_outbox(),
                )
                t0 = perf_counter()
                grant = exchange(report)
                self.sync_stall_s += perf_counter() - t0
                kind = grant[0]
                if kind == "e":
                    raise SimulationError(f"sharded run aborted: {grant[1]}")
                binding.inject(grant[3])
                if kind == "s":
                    stop_now = grant[1]
                    if stop_now > engine.now:
                        engine._advance_now(stop_now)
                    return
                self.windows += 1
                tracer = engine._trace_hot
                if tracer is not None:
                    tracer.count("parallel.windows")
                w0, c0 = perf_counter(), process_time()
                engine.run_window(grant[1], inclusive=grant[2], max_events=max_events)
                self.busy_s += perf_counter() - w0
                self.busy_cpu_s += process_time() - c0
        finally:
            self._active = False


# ----------------------------------------------------------------------
# Transports
# ----------------------------------------------------------------------


class _ProtoFailure:
    """Sentinel placed in reduce output when the collective itself broke."""

    __slots__ = ("message",)

    def __init__(self, message: str):
        self.message = message


class _InlineGroup:
    """Shared state for the thread-backed transport."""

    def __init__(self, n: int, timeout_s: float):
        self.n = n
        self.timeout_s = timeout_s
        self.slots: list = [None] * n
        self.out: list = [None] * n
        self.finished = 0  # shards whose scenario already returned
        self.barrier = threading.Barrier(n, action=self._reduce)

    def _reduce(self) -> None:
        ops = {s[0] for s in self.slots}
        if ops == {"x"}:
            self.out = _compute_grants([s[1] for s in self.slots])
        elif ops == {"b"}:
            roots = {s[1] for s in self.slots}
            if len(roots) != 1:
                fail = _ProtoFailure(f"broadcast root divergence: {sorted(roots)}")
                self.out = [fail] * self.n
            else:
                value = self.slots[next(iter(roots))][2]
                self.out = [("bv", value)] * self.n
        else:
            fail = _ProtoFailure(f"collective op divergence (SPMD violation): {sorted(ops)}")
            self.out = [fail] * self.n


class _InlineTransport:
    def __init__(self, group: _InlineGroup, shard_id: int):
        self.group = group
        self.shard_id = shard_id

    def _rendezvous(self, slot: tuple):
        group = self.group
        if group.finished:
            # a peer's scenario returned while we still expect collectives:
            # it will never arrive at this barrier (SPMD violation)
            raise ShardProtocolError(
                "a peer shard finished while this shard expected a collective"
            )
        group.slots[self.shard_id] = slot
        try:
            group.barrier.wait(timeout=group.timeout_s)
        except threading.BrokenBarrierError:
            raise ShardProtocolError(
                "shard group collapsed (a peer shard failed or timed out)"
            ) from None
        out = group.out[self.shard_id]
        if isinstance(out, _ProtoFailure):
            raise ShardProtocolError(out.message)
        return out

    def exchange(self, report: tuple) -> tuple:
        return self._rendezvous(("x", report))

    def broadcast(self, value, root: int):
        return self._rendezvous(("b", root, value))[1]


class _MpTransport:
    def __init__(self, conn):
        self.conn = conn

    def exchange(self, report: tuple) -> tuple:
        self.conn.send(("x", report))
        return self.conn.recv()

    def broadcast(self, value, root: int):
        self.conn.send(("b", root, value))
        reply = self.conn.recv()
        if reply[0] == "e":
            raise ShardProtocolError(reply[1])
        return reply[1]


# ----------------------------------------------------------------------
# Worker body (shared by both backends)
# ----------------------------------------------------------------------


class ShardContext:
    """Handed to the scenario on each shard; owns the shard's transport."""

    def __init__(self, shard_id: int, n_shards: int, transport, backend: str):
        self.shard_id = shard_id
        self.n_shards = n_shards
        self.backend = backend
        self._transport = transport
        self.binding: Optional[ShardBinding] = None
        self.gate: Optional[ShardGate] = None

    @property
    def is_root(self) -> bool:
        return self.shard_id == 0

    def bind(self, world) -> ShardBinding:
        """Install the sharded runtime onto a freshly built world.

        Must be called before the first ``engine.run`` -- the window
        protocol only sees runs made through the installed gate.
        """
        from repro.hardware.topology import ShardPlan, shard_lookahead_s
        from repro.kernel.fabric import install_fabric

        plan = ShardPlan.build(world.machine.hostnames, self.n_shards)
        lookahead = shard_lookahead_s(world.spec, plan)
        binding = ShardBinding(world, plan, self.shard_id, lookahead)
        gate = ShardGate(world.engine, binding, self._transport)
        binding.gate = gate
        world.engine._shard_gate = gate
        install_fabric(world, binding)
        self.binding = binding
        self.gate = gate
        return binding

    def owns(self, hostname: str) -> bool:
        if self.binding is None:
            raise SimulationError("ShardContext.owns before bind()")
        return self.binding.owns(hostname)

    def broadcast(self, value=None, root: int = 0):
        """Collective: every shard gets ``root``'s value (SPMD call)."""
        return self._transport.broadcast(value if self.shard_id == root else None, root)

    def stat_dict(self) -> dict:
        """Per-shard runtime counters for benches and the obs layer."""
        out = {
            "shard_id": self.shard_id,
            "n_shards": self.n_shards,
            "backend": self.backend,
        }
        if self.binding is not None:
            out.update(self.binding.stats)
            out["hosts"] = len(self.binding.plan.shard_hosts(self.shard_id))
            out["events_fired"] = self.binding.engine.events_fired
            out["sim_now"] = self.binding.engine.now
        if self.gate is not None:
            out["windows"] = self.gate.windows
            out["sync_stall_s"] = self.gate.sync_stall_s
            out["busy_s"] = self.gate.busy_s
            out["busy_cpu_s"] = self.gate.busy_cpu_s
        return out


def _reset_sim_counters() -> None:
    """Re-seed the task-id counter in a forked worker.

    Task ids never reach committed artifacts, but resetting them keeps
    per-shard traces comparable run to run.  Only the mp backend calls
    this (inline shards share one interpreter).  Kernel identities need
    no reset: they are counted per world.
    """
    from repro.sim.tasks import Task

    Task._ids = 0


def _worker_body(
    transport, shard_id: int, n_shards: int, backend: str, scenario, args, kwargs
) -> tuple:
    ctx = ShardContext(shard_id, n_shards, transport, backend)
    value = scenario(ctx, *args, **kwargs)
    return value, ctx.stat_dict()


def _mp_worker(conn, shard_id: int, n_shards: int, scenario, args, kwargs) -> None:
    try:
        _reset_sim_counters()
        value, stats = _worker_body(
            _MpTransport(conn), shard_id, n_shards, "mp", scenario, args, kwargs
        )
        conn.send(("r", value, stats))
    except BaseException:
        try:
            conn.send(("e", traceback.format_exc(), None))
        except (OSError, ValueError):  # parent gone or result unpicklable
            pass
    finally:
        conn.close()


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------


@dataclass
class ShardRunResult:
    """Everything a sharded run produced, indexed by shard id."""

    n_shards: int
    backend: str
    values: list = field(default_factory=list)
    stats: list = field(default_factory=list)

    @property
    def root_value(self):
        """Shard 0's scenario return -- the driver-visible result."""
        return self.values[0]


def _run_inline(scenario, n_shards, args, kwargs, timeout_s) -> ShardRunResult:
    group = _InlineGroup(n_shards, timeout_s)
    values: list = [None] * n_shards
    stats: list = [None] * n_shards
    failures: list = [None] * n_shards

    def body(i: int) -> None:
        try:
            values[i], stats[i] = _worker_body(
                _InlineTransport(group, i), i, n_shards, "inline", scenario, args, kwargs
            )
            group.finished += 1
            if group.barrier.n_waiting:
                # peers are blocked in a collective this shard will never
                # join again: break them out with an SPMD violation
                group.barrier.abort()
        except ShardProtocolError as exc:  # secondary: a peer already failed
            failures[i] = ("secondary", exc)
            group.barrier.abort()
        except BaseException as exc:
            failures[i] = ("primary", exc)
            group.barrier.abort()

    threads = [
        threading.Thread(target=body, args=(i,), name=f"shard-{i}", daemon=True)
        for i in range(n_shards)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=timeout_s + 30.0)
        if t.is_alive():
            group.barrier.abort()
            raise ShardProtocolError(f"{t.name} did not finish")
    primary = next((f[1] for f in failures if f and f[0] == "primary"), None)
    if primary is not None:
        raise primary
    secondary = next((f[1] for f in failures if f), None)
    if secondary is not None:
        raise secondary
    return ShardRunResult(n_shards, "inline", values, stats)


def _drain_after_error(conns, pending, batch) -> None:
    """Tell still-collective workers to abort, then let them exit."""
    for i in pending:
        if batch.get(i, ("e",))[0] in ("x", "b"):
            try:
                conns[i].send(("e", "peer shard failed", None, ()))
            except (OSError, ValueError):
                pass
    for i in pending:
        try:
            if conns[i].poll(5.0):
                conns[i].recv()
        except (OSError, EOFError):
            pass


def _run_mp(scenario, n_shards, args, kwargs, timeout_s) -> ShardRunResult:
    import multiprocessing

    mp = multiprocessing.get_context("fork")
    conns, procs = [], []
    for i in range(n_shards):
        parent_conn, child_conn = mp.Pipe()
        proc = mp.Process(
            target=_mp_worker,
            args=(child_conn, i, n_shards, scenario, args, kwargs),
            name=f"shard-{i}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        conns.append(parent_conn)
        procs.append(proc)

    values: list = [None] * n_shards
    stats: list = [None] * n_shards
    pending = list(range(n_shards))
    try:
        while pending:
            batch = {}
            for i in pending:
                if not conns[i].poll(timeout_s):
                    raise ShardProtocolError(
                        f"shard {i} sent nothing for {timeout_s}s (wedged?)"
                    )
                try:
                    batch[i] = conns[i].recv()
                except EOFError:
                    raise ShardProtocolError(f"shard {i} died without a report") from None
            ops = {m[0] for m in batch.values()}
            if "e" in ops:
                tb = next(m[1] for m in batch.values() if m[0] == "e")
                _drain_after_error(conns, pending, batch)
                raise ShardProtocolError(f"shard worker failed:\n{tb}")
            if ops == {"r"}:
                for i in pending:
                    values[i], stats[i] = batch[i][1], batch[i][2]
                pending = []
            elif ops == {"x"}:
                grants = _compute_grants([batch[i][1] for i in pending])
                for i in pending:
                    conns[i].send(grants[i])
            elif ops == {"b"}:
                roots = {batch[i][1] for i in pending}
                if len(roots) != 1:
                    reply = ("e", f"broadcast root divergence: {sorted(roots)}")
                else:
                    reply = ("bv", batch[next(iter(roots))][2])
                for i in pending:
                    conns[i].send(reply)
            else:
                _drain_after_error(conns, pending, batch)
                raise ShardProtocolError(
                    f"collective op divergence (SPMD violation): {sorted(ops)}"
                )
        for proc in procs:
            proc.join(timeout=30.0)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for conn in conns:
            conn.close()
    return ShardRunResult(n_shards, "mp", values, stats)


def run_sharded(
    scenario: Callable,
    n_shards: int,
    *args: Any,
    backend: str = "mp",
    timeout_s: float = WORKER_TIMEOUT_S,
    **kwargs: Any,
) -> ShardRunResult:
    """Run ``scenario(ctx, *args, **kwargs)`` on ``n_shards`` shards.

    The scenario builds its own (full) world replica, calls ``ctx.bind``
    on it, spawns work, and drives the engine as usual; the gate turns
    every run into lookahead windows.  Returns per-shard scenario values
    and runtime stats (``result.root_value`` is shard 0's).
    """
    if n_shards < 1:
        raise ValueError(f"n_shards must be >= 1, got {n_shards}")
    if backend == "inline":
        return _run_inline(scenario, n_shards, args, kwargs, timeout_s)
    if backend == "mp":
        return _run_mp(scenario, n_shards, args, kwargs, timeout_s)
    raise ValueError(f"unknown shard backend {backend!r} (want 'mp' or 'inline')")
