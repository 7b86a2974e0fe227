"""Unit tests for DMTCP core data structures: compression model,
connection table, pid virtualization, image format, stats, the stage
helpers, and the fences that keep replaced idioms out."""

import ast
import inspect
import pathlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_cluster
from repro.config import CpuSpec
from repro.coord import tree as tree_mod
from repro.core import compression
from repro.core import coordinator as coordinator_mod
from repro.core import manager as manager_mod
from repro.core import mtcp as mtcp_mod
from repro.core import restart as restart_mod
from repro.core.connection import ConnectionId, ConnectionInfo, ConnectionTable
from repro.core.helpers import HelperGroup
from repro.core.imagefile import RestartPlan, conn_key
from repro.core.pidvirt import PidTable
from repro.core.stats import CKPT_STAGES, CheckpointRecord, StageClock, aggregate_stages
from repro.errors import SyscallError
from repro.kernel.memory import PROFILES
from repro.kernel.syscalls import Sys
from repro.obs import Tracer
from repro.service import hub as hub_mod


# ----------------------------------------------------------------------
# Compression
# ----------------------------------------------------------------------

def test_measured_ratios_are_cached_and_sane():
    r1 = compression.measured_ratio("zero")
    r2 = compression.measured_ratio("zero")
    assert r1 == r2
    assert r1 < 0.01  # zeros collapse
    assert compression.measured_ratio("random") > 0.99
    assert 0.05 < compression.measured_ratio("text") < 0.3
    assert 0.3 < compression.measured_ratio("code") < 0.7
    assert 0.2 < compression.measured_ratio("numeric") < 0.6
    assert compression.measured_ratio("sparse") < 0.25


def test_speed_factor_ordering():
    # more compressible => faster gzip; random is the 1x baseline
    assert compression.speed_factor("zero") > compression.speed_factor("text")
    assert compression.speed_factor("text") > compression.speed_factor("numeric")
    assert compression.speed_factor("random") == pytest.approx(1.0, abs=0.01)


def test_estimate_disabled_is_identity_with_memcpy_cost():
    cpu = CpuSpec()
    est = compression.estimate([(1000, "random")], cpu, enabled=False)
    assert est.output_bytes == est.input_bytes == 1000
    assert est.compress_seconds == pytest.approx(1000 / cpu.memory_bps)


def test_estimate_mixes_profiles():
    cpu = CpuSpec()
    est = compression.estimate([(2**20, "zero"), (2**20, "random")], cpu)
    assert est.input_bytes == 2 * 2**20
    # output dominated by the random half
    assert 0.45 < est.ratio < 0.55
    # decompress faster than compress
    assert est.decompress_seconds < est.compress_seconds


@settings(max_examples=20, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=2**24), min_size=1, max_size=6),
    profiles=st.lists(st.sampled_from(sorted(PROFILES)), min_size=1, max_size=6),
)
def test_property_estimate_never_inflates_much(sizes, profiles):
    regions = list(zip(sizes, profiles))
    est = compression.estimate(regions, CpuSpec())
    assert est.output_bytes <= est.input_bytes * 1.01 + 16
    assert est.compress_seconds >= 0


# ----------------------------------------------------------------------
# Connection table
# ----------------------------------------------------------------------

def _cid(n=0):
    return ConnectionId("hostA", 42, 1.5, n)


def test_conn_key_roundtrip_format():
    key = conn_key(_cid(3))
    assert key.startswith("hostA:42:")
    assert key.endswith(":3")


def test_connection_table_dup_shares_info():
    table = ConnectionTable()
    info = ConnectionInfo(conn_id=_cid(), domain="inet", role="connect")
    table.add(3, info)
    table.dup(3, 7)
    assert table.get(7) is info
    table.drop(3)
    assert table.get(7) is info  # dup survives original close


def test_connection_table_fork_copy_shares_infos_not_dict():
    table = ConnectionTable()
    info = ConnectionInfo(conn_id=None, domain="inet", role="")
    table.add(3, info)
    child = table.fork_copy()
    child.add(9, ConnectionInfo(conn_id=_cid(), domain="pair", role="pair-a"))
    assert table.get(9) is None  # dict diverged
    # but a conn-id learned later via the shared info is visible to both
    info.conn_id = _cid(5)
    assert child.get(3).conn_id == _cid(5)


def test_conn_numbers_monotonic():
    table = ConnectionTable()
    assert [table.new_conn_no() for _ in range(3)] == [0, 1, 2]
    child = table.fork_copy()
    assert child.new_conn_no() == 3


# ----------------------------------------------------------------------
# Pid virtualization
# ----------------------------------------------------------------------

def test_pidtable_identity_initially():
    t = PidTable(100, 100)
    assert t.real(100) == 100
    assert t.virtual(100) == 100
    assert t.real(999) == 999  # unknown pids pass through


def test_pidtable_rebase_after_restart():
    t = PidTable(100, 100)
    t.record(101, 101)  # a child
    t.rebase_self(555)
    assert t.real(100) == 555
    assert t.virtual(555) == 100
    assert not t.knows_vpid(555) or t.virtual(555) == 100


def test_pidtable_fork_copy():
    parent = PidTable(100, 100)
    parent.record(101, 101)
    child = parent.fork_copy(102, 102)
    assert child.self_vpid == 102
    assert child.real(100) == 100  # knows its ancestors
    assert child.real(101) == 101
    assert parent.real(102) == 102  # unknown in parent until recorded -> passthrough


def test_pidtable_forget():
    t = PidTable(100, 100)
    t.record(101, 201)
    assert t.real(101) == 201
    t.forget(101)
    assert t.real(101) == 101  # passthrough again


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 10**6), st.integers(1, 10**6)), max_size=20))
def test_property_pidtable_translation_consistent(pairs):
    t = PidTable(1, 1)
    for v, r in pairs:
        t.record(v, r)
    for v, r in t.v2r.items():
        # translating a vpid to real and back gives a vpid mapping to the
        # same real pid (later records may alias earlier ones)
        assert t.v2r[t.virtual(r)] == t.real(v) == r or t.real(v) == r


# ----------------------------------------------------------------------
# Stats and plans
# ----------------------------------------------------------------------

def test_stage_clock_accumulates():
    t = {"now": 0.0}
    tracer = Tracer(clock=lambda: t["now"])
    clock = StageClock(tracer, "h/p[1]")
    t["now"] = 1.0
    clock.begin("write")
    t["now"] = 3.0
    clock.end("write")
    clock.begin("write")
    t["now"] = 3.5
    clock.end("write")
    assert clock.stages["write"] == pytest.approx(2.5)
    assert clock.total == pytest.approx(2.5)


def test_stage_clock_spans_match_record(tmp_path):
    """The Table-1 numbers and the exported trace are the same spans."""
    t = {"now": 0.0}
    tracer = Tracer(clock=lambda: t["now"], enabled=True)
    clock = StageClock(tracer, "h/p[1]")
    for i, stage in enumerate(CKPT_STAGES):
        clock.begin(stage)
        t["now"] += 0.25 * (i + 1)
        clock.end(stage)
    spans = {s["name"]: s["duration"] for s in tracer.spans(cat="ckpt")}
    assert spans == pytest.approx(clock.stages)
    assert tracer.open_spans() == 0


def test_stage_clock_close_ends_only_the_open_stage():
    t = {"now": 0.0}
    tracer = Tracer(clock=lambda: t["now"], enabled=True)
    clock = StageClock(tracer, "h/p[1]")
    clock.close()  # nothing open: a no-op
    assert tracer.open_spans() == 0 and clock.stages == {}
    tracer.begin("h/p[1]", "outer")
    clock.begin("drain", cat="mtcp")
    t["now"] = 0.5
    clock.close()
    assert tracer.open_spans("h/p[1]") == 1  # the outer span is not the clock's
    assert clock.open is None and clock.stages == {"drain": 0.5}
    assert [s["cat"] for s in tracer.spans(track="h/p[1]")] == ["mtcp"]
    clock.close()
    assert tracer.open_spans("h/p[1]") == 1


def test_stage_clock_end_carries_span_args():
    tracer = Tracer(clock=lambda: 0.0, enabled=True)
    clock = StageClock(tracer, "h/restart[1]", cat="restart")
    clock.begin("reconnect")
    clock.end("reconnect", accepted=2, connected=1)
    (span,) = tracer.spans(cat="restart")
    assert span["args"] == {"accepted": 2, "connected": 1}


def test_aggregate_stages_means():
    recs = [
        CheckpointRecord(1, "h", 1, "p", {"write": 1.0, "drain": 0.2}, 10, 5, True),
        CheckpointRecord(1, "h", 2, "p", {"write": 3.0, "drain": 0.4}, 10, 5, True),
    ]
    agg = aggregate_stages(recs, ["write", "drain", "missing"])
    assert agg["write"] == pytest.approx(2.0)
    assert agg["drain"] == pytest.approx(0.3)
    assert agg["missing"] == 0.0


def test_restart_plan_script_rendering():
    plan = RestartPlan(
        ckpt_id=7,
        coordinator_host="node00",
        coordinator_port=7779,
        images_by_host={"node01": ["/tmp/dmtcp/a.dmtcp", "/tmp/dmtcp/b.dmtcp"]},
    )
    script = plan.render_script()
    assert "DMTCP_COORD_HOST=node00" in script
    assert "ssh node01 dmtcp_restart /tmp/dmtcp/a.dmtcp /tmp/dmtcp/b.dmtcp &" in script
    assert plan.total_processes == 2


@pytest.mark.parametrize("store", [True, False], ids=["store", "default"])
def test_image_path_names_each_store_generation(store):
    env = {"DMTCP_CKPT_DIR": "/ckpt", "DMTCP_STORE": "1" if store else "0"}
    node = SimpleNamespace(hostname="node03")
    process = SimpleNamespace(env=env, node=node, start_time=1.25, program="bc")
    runtime = SimpleNamespace(process=process, vpid=40001)
    paths = [mtcp_mod.image_path(runtime, ckpt_id) for ckpt_id in (1, 2)]
    if store:
        # every generation's manifest is its own file: older ones survive
        assert paths == [
            "/ckpt/ckpt_bc_node03-40001-1250000-c1.dmtcp",
            "/ckpt/ckpt_bc_node03-40001-1250000-c2.dmtcp",
        ]
    else:
        # a full image overwrites the one stable name
        assert paths == ["/ckpt/ckpt_bc_node03-40001-1250000.dmtcp"] * 2


# ----------------------------------------------------------------------
# Stage helpers
# ----------------------------------------------------------------------

def _helper_world(main):
    """One process whose main thread runs ``main(sys, group)``; what it
    returns lands in ``box["out"]``."""
    world = build_cluster(n_nodes=1, seed=5)
    box = {}

    def prog(sys, argv):
        box["out"] = yield from main(sys, HelperGroup(world, box["proc"]))

    world.register_program("helpers", prog)
    box["proc"] = world.spawn_process("node00", "helpers")
    return world, box


def _sleep_then(delay, value=None, errno=None):
    sys = Sys()
    yield from sys.sleep(delay)
    if errno is not None:
        raise SyscallError(errno, "helper failed")
    return value


def test_helper_error_is_kept_and_reraised_by_join():
    def main(sys, group):
        group.spawn("a", _sleep_then(0.1, errno="EIO"), "helper-a")
        yield from sys.sleep(0.2)
        alive = box["proc"].state  # the helper has failed by now
        try:
            yield from group.join()
        except SyscallError as err:
            return alive, err.errno

    world, box = _helper_world(main)
    world.engine.run()
    assert box["out"] == ("running", "EIO")
    assert box["proc"].exit_code == 0
    assert not world.scheduler.failures


def test_helper_join_raises_the_first_error_in_spawn_order():
    def main(sys, group):
        group.spawn("late", _sleep_then(0.2, errno="EIO"), "helper-late")
        group.spawn("early", _sleep_then(0.1, errno="ENOSPC"), "helper-early")
        group.spawn("ok", _sleep_then(0.1, value=3), "helper-ok")
        try:
            yield from group.join()
        except SyscallError as err:
            return err.errno, group.results

    world, box = _helper_world(main)
    world.engine.run()
    assert box["out"] == ("EIO", {"ok": 3})
    assert not world.scheduler.failures


def test_helper_join_returns_results_in_spawn_order():
    def main(sys, group):
        group.spawn("b", _sleep_then(0.2, value="slow"), "helper-b")
        group.spawn("a", _sleep_then(0.1, value="fast"), "helper-a")
        return (yield from group.join())

    world, box = _helper_world(main)
    world.engine.run()
    assert box["out"] == ["slow", "fast"]


def test_helper_join_waits_through_a_spurious_wake():
    def main(sys, group):
        group.spawn("slow", _sleep_then(1.0, value="done"), "helper-slow")
        results = yield from group.join()
        return results, world.engine.now

    def suspend_resume():
        # a suspend/resume cycle resumes a raw future wait with None
        task = box["proc"].threads[0].task
        task.freeze()
        task.thaw()

    world, box = _helper_world(main)
    world.engine.call_at(0.5, suspend_resume)
    world.engine.run()
    results, joined_at = box["out"]
    assert results == ["done"]
    assert joined_at >= 1.0


def test_helper_kill_leaves_no_member_and_no_open_span():
    track = "node00/helpers[1]"

    def main(sys, group):
        for i in range(2):
            group.spawn(i, _sleep_then(5.0), f"helper-{i}")
        group.open_span(track, "helping", "test", "helping-span", n=2)
        yield from sys.sleep(0.5)
        tasks = [*group.tasks.values(), group.watcher]
        group.kill()
        return tasks

    world, box = _helper_world(main)
    world.engine.run()
    assert box["out"] and not set(box["out"]) & world.scheduler.tasks
    assert world.tracer.open_spans(track) == 0
    assert not world.scheduler.failures


def test_helper_span_closes_when_the_last_member_returns():
    track = "node00/helpers[1]"

    def main(sys, group):
        group.spawn(0, _sleep_then(0.3), "helper-0")
        group.spawn(1, _sleep_then(0.1), "helper-1")
        group.open_span(track, "helping", "test", "helping-span", n=2)
        yield from sys.sleep(1.0)

    world, box = _helper_world(main)
    world.tracer.enable()
    world.engine.run()
    (span,) = world.tracer.spans(track=track)
    assert span["duration"] == pytest.approx(0.3, abs=1e-3)
    assert span["args"] == {"n": 2}


#: The stage idioms the helpers replaced, fenced out of the protocol
#: modules: (rule, modules it covers, a snippet that puts it back).
STAGE_FENCE = {
    "done_future": (
        (manager_mod, restart_mod, mtcp_mod),
        "while not thread.task.done:\n    yield thread.task.done_future\n",
    ),
    "ctx_stage": (
        (manager_mod, restart_mod, mtcp_mod),
        'ctx["stage"] = "drain"\n',
    ),
    "tracer_span": (
        (manager_mod, restart_mod),
        'world.tracer.begin(track, "refill", cat="restart")\n',
    ),
}


def _fence_hits(source: str, rule: str) -> list[int]:
    """Lines of ``source`` that break ``rule``."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if rule == "done_future":
            bad = isinstance(node, ast.Attribute) and node.attr == "done_future"
        elif rule == "ctx_stage":
            key = None
            if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "ctx":
                key = node.slice
            elif (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and getattr(node.func.value, "id", None) == "ctx"
                and node.args
            ):
                key = node.args[0]
            bad = isinstance(key, ast.Constant) and key.value == "stage"
        else:
            bad = (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("begin", "end")
                and "tracer" in (
                    getattr(node.func.value, "id", None), getattr(node.func.value, "attr", None)
                )
            )
        if bad:
            hits.append(node.lineno)
    return hits


@pytest.mark.parametrize("rule", sorted(STAGE_FENCE))
def test_stage_idioms_stay_in_the_helpers(rule):
    modules, snippet = STAGE_FENCE[rule]
    for module in modules:
        assert _fence_hits(inspect.getsource(module), rule) == [], module.__name__
    # the fence sees the idiom when it is put back
    assert _fence_hits(snippet, rule) == [len(snippet.splitlines())]


#: The delta-chain image format, replaced by store generations: none of
#: these identifiers may come back anywhere under ``src/repro``.
CHAIN_IDENTIFIERS = frozenset({
    "parent_image", "chain_depth", "last_image_path", "plan_delta",
    "incremental_enabled", "DMTCP_INCREMENTAL", "incremental_max_chain",
    "incremental_dirty_threshold",
})
#: ``image.delta`` and ``image.chain`` are fenced as attributes, and
#: ``dirty_bytes`` as a keyword (the page cache keeps its own counter).
CHAIN_ATTRIBUTES = frozenset({"delta", "chain"})

#: The format put back: every fenced identifier, once.
CHAIN_SNIPPET = """\
def plan_delta(runtime):
    spec = runtime.world.spec.dmtcp
    if not incremental_enabled(runtime.process.env.get("DMTCP_INCREMENTAL")):
        return False
    if runtime.chain_depth >= spec.incremental_max_chain:
        return False
    region = RegionImage("heap", 4096, "numeric", dirty_bytes=4096)
    image.parent_image = runtime.last_image_path
    return image.delta or image.chain or spec.incremental_dirty_threshold
"""


def _chain_hits(source: str) -> set[str]:
    """The delta-chain identifiers ``source`` uses."""
    hits = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in CHAIN_ATTRIBUTES:
            hits.add(f".{node.attr}")
        elif isinstance(node, ast.keyword) and node.arg == "dirty_bytes":
            hits.add("dirty_bytes=")
        elif isinstance(node, ast.Constant):
            if node.value in CHAIN_IDENTIFIERS:
                hits.add(node.value)
        else:
            for field in ("id", "attr", "name", "arg"):
                name = getattr(node, field, None)
                if name in CHAIN_IDENTIFIERS:
                    hits.add(name)
    return hits


def test_delta_chain_identifiers_stay_deleted():
    package = pathlib.Path(mtcp_mod.__file__).parent.parent
    for path in sorted(package.rglob("*.py")):
        assert _chain_hits(path.read_text()) == set(), path.relative_to(package)
    # the fence sees the format when it is put back
    assert _chain_hits(CHAIN_SNIPPET) == (
        CHAIN_IDENTIFIERS | {".delta", ".chain", "dirty_bytes="}
    )


#: Storage calls the coordinator's dispatch path never makes: the hub's
#: one dispatcher serves every tenant, so a disk wait there is every
#: tenant's wait.  Only the publisher, off that path, touches storage.
STORAGE_SYSCALLS = frozenset({"open", "write", "read", "fsync", "rename", "unlink", "stat"})
DISPATCH_MODULES = (coordinator_mod, tree_mod, hub_mod)

#: The inline script write put back on the dispatch path.
INLINE_WRITE = """\
def _finish_checkpoint(sys, state):
    script_fd = yield from sys.open(state.script_path, "w")
"""


def _storage_hits(source: str) -> list[int]:
    """Lines of ``source`` with a storage syscall outside ``_publish``."""
    hits = []

    def visit(node, in_publisher):
        for child in ast.iter_child_nodes(node):
            inside = in_publisher or (
                isinstance(child, ast.FunctionDef) and child.name == "_publish"
            )
            if (
                not inside and isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr in STORAGE_SYSCALLS
                and getattr(child.func.value, "id", None) == "sys"
            ):
                hits.append(child.lineno)
            visit(child, inside)

    visit(ast.parse(source), False)
    return hits


def test_dispatch_path_makes_no_storage_call():
    for module in DISPATCH_MODULES:
        assert _storage_hits(inspect.getsource(module)) == [], module.__name__
    # the fence sees the inline write when it is put back, and only there
    assert _storage_hits(INLINE_WRITE) == [2]
    assert _storage_hits(INLINE_WRITE.replace("_finish_checkpoint", "_publish")) == []


# ----------------------------------------------------------------------
# One route for a computation's settings
# ----------------------------------------------------------------------

#: The process environment put back to each of its old single-ended
#: uses: a host override, a read nothing writes, a write nothing reads.
STRAY_ENV = """\
import os
replicas = os.environ.get("DMTCP_STORE_REPLICAS", "")
def main(sys, argv):
    retries = yield from sys.getenv("DMTCP_CMD_RETRIES")
    ok = yield from sys.getenv("DMTCP_GZIP")
def base_env(self):
    env = {"DMTCP_GZIP": "1"}
    env["DMTCP_STORE_REPLICAS"] = "2"
    return env
"""


def _env_names(source: str, constants: dict) -> tuple[set, set, list]:
    """``(written, read, host_reads)`` for one module: the ``DMTCP_*``
    names a launcher writes into a process environment (a dict key or an
    item store), the names a process reads back (``sys.getenv``, or
    ``env.get`` / ``env[...]`` on a process environment), and the lines
    that read the host's own environment.  ``constants`` resolves names
    spelled through a module constant such as ``HIJACK_ENV``."""
    written, read, host_reads = set(), set(), []

    def dmtcp_name(node):
        if isinstance(node, ast.Name):
            value = constants.get(node.id)
        elif isinstance(node, ast.Constant):
            value = node.value
        else:
            return None
        return value if isinstance(value, str) and value.startswith("DMTCP_") else None

    def is_env(node) -> bool:
        return getattr(node, "id", None) == "env" or getattr(node, "attr", None) == "env"

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
            if getattr(node.value, "id", None) == "os":
                host_reads.append(node.lineno)
        elif isinstance(node, ast.Dict):
            written.update(filter(None, (dmtcp_name(k) for k in node.keys if k is not None)))
        elif isinstance(node, ast.Subscript) and is_env(node.value):
            name = dmtcp_name(node.slice)
            if name:
                (written if isinstance(node.ctx, ast.Store) else read).add(name)
        elif (
            isinstance(node, ast.Call) and node.args
            and isinstance(node.func, ast.Attribute)
            and (node.func.attr == "getenv" or (node.func.attr == "get" and is_env(node.func.value)))
        ):
            name = dmtcp_name(node.args[0])
            if name:
                read.add(name)
    return written, read, host_reads


def test_process_env_has_one_route():
    """A computation's settings come from its ``DmtcpSpec`` and its
    constructor: nothing under ``src/repro`` reads the host environment,
    and every ``DMTCP_*`` variable a launcher hands a process is read by
    some program, and every one a program reads is handed to it."""
    package = pathlib.Path(mtcp_mod.__file__).parent.parent
    sources = {p: p.read_text() for p in sorted(package.rglob("*.py"))}
    constants = {}
    for source in sources.values():
        for node in ast.parse(source).body:
            if (
                isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
            ):
                constants[node.targets[0].id] = node.value.value
    written, read = set(), set()
    for path, source in sources.items():
        w, r, host_reads = _env_names(source, constants)
        assert host_reads == [], path.relative_to(package)
        written |= w
        read |= r
    assert read - written == set(), "read but never written"
    assert written - read == set(), "written but never read"
    assert {"DMTCP_COORD_HOST", "DMTCP_SUPERVISE", "DMTCP_HIJACK"} <= read
    # the fence sees each stray use when it is put back
    assert _env_names(STRAY_ENV, {}) == (
        {"DMTCP_GZIP", "DMTCP_STORE_REPLICAS"},
        {"DMTCP_CMD_RETRIES", "DMTCP_GZIP"},
        [2],
    )
