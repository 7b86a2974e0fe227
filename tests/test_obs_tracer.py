"""Tests for repro.obs: the tracer, the exporters, and the traced
end-to-end scenarios behind `python -m repro trace`."""

import io
import json

import pytest

from repro.errors import TraceError
from repro.obs import Tracer, chrome_trace, jsonl_lines, proc_track, write_jsonl
from repro.obs.scenarios import run_scenario


def make_tracer(enabled=True):
    t = {"now": 0.0}
    tracer = Tracer(clock=lambda: t["now"], enabled=enabled)
    return t, tracer


# ----------------------------------------------------------------------
# Span bookkeeping
# ----------------------------------------------------------------------

def test_begin_end_returns_duration_and_records():
    t, tracer = make_tracer()
    assert tracer.begin("a/p[1]", "write") == 0.0
    t["now"] = 2.5
    assert tracer.end("a/p[1]", "write") == pytest.approx(2.5)
    assert [ev.ph for ev in tracer.events] == ["B", "E"]
    assert tracer.open_spans() == 0


def test_spans_nest_per_track():
    t, tracer = make_tracer()
    tracer.begin("x", "outer")
    t["now"] = 1.0
    tracer.begin("x", "inner")
    t["now"] = 2.0
    assert tracer.end("x", "inner") == pytest.approx(1.0)
    t["now"] = 5.0
    assert tracer.end("x", "outer") == pytest.approx(5.0)
    spans = {s["name"]: s for s in tracer.spans()}
    assert spans["inner"]["begin"] == 1.0
    assert spans["outer"]["duration"] == 5.0


def test_tracks_are_independent():
    _, tracer = make_tracer()
    tracer.begin("a", "s1")
    tracer.begin("b", "s2")
    tracer.end("a", "s1")  # no TraceError: b's span is on another track
    assert tracer.open_spans("b") == 1
    assert tracer.open_spans() == 1


def test_mismatched_end_raises():
    _, tracer = make_tracer()
    tracer.begin("x", "write")
    with pytest.raises(TraceError, match="does not match"):
        tracer.end("x", "drain")
    # the open span survives a failed close
    assert tracer.open_spans("x") == 1
    tracer.end("x", "write")


def test_end_without_begin_raises():
    _, tracer = make_tracer()
    with pytest.raises(TraceError, match="no open span"):
        tracer.end("x", "write")


def test_a_track_keeps_no_span_stack_once_its_spans_close():
    t, tracer = make_tracer(enabled=False)
    tracks = [proc_track("n", "p", vpid) for vpid in range(100)]
    for track in tracks:
        tracer.begin(track, "outer")
        tracer.begin(track, "inner")
    t["now"] = 1.5
    for track in tracks:
        assert tracer.end(track, "inner") == 1.5
        assert tracer.open_spans(track) == 1
        assert tracer.end(track, "outer") == 1.5
        assert tracer.open_spans(track) == 0
    assert tracer.open_spans() == 0 and tracer._stacks == {}


def test_a_tree_checkpoint_leaves_no_span_stack_behind():
    """Every process, gateway and barrier track opens spans once per
    checkpoint; with none open, the tracer holds nothing for them."""
    from repro.cluster import build_cluster
    from repro.core.launch import DmtcpComputation

    world = build_cluster(n_nodes=8, seed=0)

    def sleeper(sys, argv):
        while True:
            yield from sys.sleep(1.0)

    world.register_program("sleeper", sleeper)
    comp = DmtcpComputation(world, compression=False, tree_fanout=4)
    for i in range(64):
        comp.launch(world.machine.hostnames[i % 8], "sleeper")
    world.engine.run(until=0.5)
    comp.checkpoint()
    assert not world.tracer.enabled
    assert world.tracer.open_spans() == 0 and world.tracer._stacks == {}


def test_proc_track_format():
    assert proc_track("node00", "app", 17) == "node00/app[17]"


# ----------------------------------------------------------------------
# Zero-cost disabled path
# ----------------------------------------------------------------------

def test_disabled_tracer_measures_but_records_nothing():
    t, tracer = make_tracer(enabled=False)
    tracer.begin("x", "write")
    t["now"] = 3.0
    duration = tracer.end("x", "write")
    tracer.instant("x", "ping")
    tracer.count("n", 5)
    tracer.count_max("m", 9)
    # measurement still works (Table 1 relies on this) ...
    assert duration == pytest.approx(3.0)
    # ... but nothing is retained: no events, no counters, no growth
    assert tracer.events == []
    assert tracer.snapshot() == {}
    assert jsonl_lines(tracer) == []


def test_enable_mid_run_tolerates_unmatched_end():
    t, tracer = make_tracer(enabled=False)
    tracer.begin("x", "outer")
    tracer.enable()
    t["now"] = 1.0
    tracer.end("x", "outer")  # E recorded with no matching B
    assert tracer.spans() == []  # pairing skips it instead of crashing
    assert chrome_trace(tracer)["traceEvents"]  # export still well-formed


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------

def test_counters_accumulate_and_track_max():
    _, tracer = make_tracer()
    tracer.count("bytes", 10)
    tracer.count("bytes", 32)
    tracer.count("calls")
    tracer.count_max("depth", 4)
    tracer.count_max("depth", 2)
    snap = tracer.snapshot()
    assert snap == {"bytes": 42, "calls": 1, "depth": 4}
    snap["bytes"] = 0  # snapshot is a copy
    assert tracer.counters["bytes"] == 42


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------

def test_jsonl_every_line_is_json_with_sorted_keys():
    t, tracer = make_tracer()
    tracer.begin("n/p[1]", "write", cat="ckpt", path="/tmp/x")
    t["now"] = 1.0
    tracer.end("n/p[1]", "write", cat="ckpt")
    tracer.count("z", 1)
    tracer.count("a", 2)
    buf = io.StringIO()
    write_jsonl(tracer, buf)
    lines = buf.getvalue().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["ph"] == "B" and records[0]["args"]["path"] == "/tmp/x"
    assert records[-1] == {"ph": "counters", "values": {"a": 2, "z": 1}}
    for line in lines:
        assert line == json.dumps(json.loads(line), sort_keys=True)


def test_chrome_trace_structure():
    t, tracer = make_tracer()
    tracer.begin("node00/app[1]", "write", cat="ckpt")
    t["now"] = 0.5
    tracer.instant("node00/app[1]", "tick")
    t["now"] = 1.0
    tracer.end("node00/app[1]", "write", cat="ckpt")
    tracer.begin("node01/app[2]", "drain")
    tracer.end("node01/app[2]")
    tracer.count("bytes", 7)
    doc = chrome_trace(tracer)
    events = doc["traceEvents"]
    by_ph = {}
    for ev in events:
        by_ph.setdefault(ev["ph"], []).append(ev)
    # two nodes -> two process_name entries, one thread_name per track
    assert len(by_ph["M"]) == 4
    # B/E balance, microsecond timestamps
    assert len(by_ph["B"]) == len(by_ph["E"]) == 2
    write = by_ph["B"][0]
    assert write["ts"] == 0.0 and write["cat"] == "ckpt"
    assert by_ph["E"][0]["ts"] == pytest.approx(1_000_000.0)
    assert by_ph["i"][0]["s"] == "t"
    assert by_ph["C"][0]["args"] == {"value": 7}
    # distinct (pid, tid) per track
    keys = {(ev["pid"], ev["tid"]) for ev in events if ev["ph"] in "BE"}
    assert len(keys) == 2


# ----------------------------------------------------------------------
# End-to-end scenario: monotonicity, coverage, determinism
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def ckpt_restart_tracer():
    return run_scenario("ckpt-restart", seed=0)


def test_scenario_timestamps_monotonic(ckpt_restart_tracer):
    tracer = ckpt_restart_tracer
    assert tracer.events, "scenario recorded nothing"
    ts = [ev.ts for ev in tracer.events]
    assert all(b >= a for a, b in zip(ts, ts[1:])), "virtual time went backwards"


def test_scenario_spans_balanced(ckpt_restart_tracer):
    assert ckpt_restart_tracer.open_spans() == 0


def test_scenario_covers_all_stages(ckpt_restart_tracer):
    from repro.core.stats import CKPT_STAGES, RESTART_STAGES

    tracer = ckpt_restart_tracer
    ckpt = {s["name"] for s in tracer.spans(cat="ckpt")}
    restart = {s["name"] for s in tracer.spans() if s["cat"] in ("restart", "mtcp")}
    assert set(CKPT_STAGES) <= ckpt
    assert set(RESTART_STAGES) <= restart
    barriers = tracer.spans(cat="barrier")
    assert barriers and all(s["duration"] >= 0 for s in barriers)
    snap = tracer.snapshot()
    assert snap["sys.total"] > 0
    assert snap["sched.context_switches"] > 0
    assert snap["mtcp.images_written"] >= 2
    assert snap["restart.processes_restored"] == 2


def test_scenario_trace_is_deterministic():
    a = "\n".join(jsonl_lines(run_scenario("ckpt-restart", seed=7)))
    b = "\n".join(jsonl_lines(run_scenario("ckpt-restart", seed=7)))
    assert a == b, "same seed must replay to a byte-identical trace"


def test_store_scenario_separates_lease_wait_from_write_work():
    tracer = run_scenario("store", seed=0)
    waits = [s for s in tracer.spans(cat="store") if s["name"] == "store.lease_wait"]
    writes = [s for s in tracer.spans(cat="mtcp") if s["name"] == "mtcp.write"]
    assert len(waits) == len(writes) == 4  # two writers, two checkpoints
    assert tracer.spans(track="coordinator/store")
    assert tracer.snapshot()["store.lease_max_share"] <= 0.5


def test_scenario_chrome_export_roundtrips(tmp_path):
    tracer = run_scenario("checkpoint", seed=0)
    out = tmp_path / "trace.json"
    tracer.write_chrome(str(out))
    doc = json.loads(out.read_text())
    assert doc["traceEvents"]
    phases = {ev["ph"] for ev in doc["traceEvents"]}
    assert {"M", "B", "E", "C"} <= phases
