"""Tests of the ledger's own arithmetic and bookkeeping.

Run with ``python -m pytest ledger/test_ledger.py``; the file is outside
the tier-1 ``testpaths`` because it tests the benchmark, not the program.
"""

from __future__ import annotations

import re

import pytest

from ledger import compare, run
from ledger.trace import SpanRecorder, self_times

workloads = run._import_workloads()
CONTRACT = run.load_contract()


# -- BENCHMARK.json <-> builders ---------------------------------------

def test_every_workload_has_a_builder_and_every_builder_is_listed():
    listed = [w["name"] for w in CONTRACT["workloads"]]
    assert sorted(listed) == sorted(workloads.WORKLOADS)
    assert len(listed) == len(set(listed))


def test_metric_names_and_units_are_well_formed():
    metrics = CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m
        assert m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])


def test_every_reported_layer_metric_is_declared():
    declared = {m["name"] for m in CONTRACT["per_layer"]}
    from ledger.micro import SECTIONS

    produced = set(SECTIONS)
    produced |= {f"{layer}.host_self_s" for layer in run.LAYERS + ("other",)}
    produced |= {f"phase.{p}_s" for p in run.PHASES}
    produced |= set(workloads._TRACER_SUMS) | set(workloads._TRACER_MAXES)
    assert produced <= declared


# -- inputs -------------------------------------------------------------

def test_seed_zero_is_the_pinned_calibration():
    from repro.config import CLUSTER_2008

    assert workloads.Inputs.from_seed(0).spec() == CLUSTER_2008


def test_seeds_slow_the_cluster_by_less_than_the_tolerance():
    slowdowns = [workloads.Inputs.from_seed(s).slowdown for s in range(1, 200)]
    assert len(set(slowdowns)) == len(slowdowns)
    assert all(1.0 < k < 1.0 + workloads.TOLERANCE for k in slowdowns)
    spec = workloads.Inputs.from_seed(7).spec()
    assert spec.san.backend_bps < 350e6 and spec.network.latency_s > 50e-6
    assert workloads.Inputs.from_seed(7) == workloads.Inputs.from_seed(7)


# -- the tail-percentile rule -------------------------------------------

@pytest.mark.parametrize("n, label, beyond", [
    (1, "max", 0), (9, "max", 0), (199, "max", 0),
    (200, "p95", 10), (290, "p95", 14), (999, "p95", 49), (1000, "p99", 10),
])
def test_tail_percentile_needs_ten_samples_beyond_it(n, label, beyond):
    values = list(range(n, 0, -1))  # unsorted on purpose
    value, got = workloads.tail_percentile(values)
    assert got == label
    assert sum(1 for v in values if v > value) == beyond


# -- span self time -------------------------------------------------------

def test_self_time_is_duration_minus_child_cover():
    spans = [
        (0, None, "rep", 0.0, 10.0),
        (1, 0, "build", 1.0, 3.0),
        (2, 0, "checkpoint", 4.0, 9.0),
        (3, 2, "write", 5.0, 8.0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 2.0, 2: 2.0, 3: 3.0}
    assert sum(own.values()) == 10.0  # self times add up to the root


def test_overlapping_and_overhanging_children_are_counted_once():
    spans = [
        (0, None, "parent", 0.0, 10.0),
        (1, 0, "a", 2.0, 6.0),
        (2, 0, "b", 4.0, 8.0),    # overlaps a
        (3, 0, "c", 9.0, 12.0),   # overhangs the parent
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_recorder_nests_by_call_order(tmp_path):
    ticks = iter(range(100))
    rec = SpanRecorder(clock=lambda: float(next(ticks)))
    with rec.span("rep"):
        with rec.span("build"):
            pass
        with rec.span("checkpoint"):
            with rec.span("write"):
                pass
    assert [(row[0], row[1], row[2]) for row in rec.spans] == [
        (0, None, "rep"), (1, 0, "build"), (2, 0, "checkpoint"), (3, 2, "write")]
    assert rec.total_by_name()["rep"] == 7.0
    assert rec.self_times() == {0: 3.0, 1: 1.0, 2: 2.0, 3: 1.0}
    rec.write_jsonl(tmp_path / "trace.jsonl")
    assert len((tmp_path / "trace.jsonl").read_text().splitlines()) == 4


# -- compare verdicts -----------------------------------------------------

def _stats(values):
    return run.summarize(values)


@pytest.mark.parametrize("a, b, better, want", [
    ([10.0, 10.1, 10.2], [10.3, 10.4, 10.5], "lower", "same"),        # +3 % < 10 %
    ([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "lower", "worse"),
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "lower", "better"),
    ([10.0, 10.1, 10.2], [8.0, 8.1, 8.2], "higher", "worse"),
    ([10.0, 10.1, 10.2], [12.0, 12.1, 12.2], "higher", "better"),
    ([10.0, 12.0, 14.0], [10.5, 12.5, 14.5], "lower", "unresolved"),  # A spreads 20 %
    ([10.0, 10.1, 10.2], [10.5, 12.5, 14.5], "lower", "unresolved"),  # B spreads
    ([10.0, 12.0, 14.0], [5.0, 6.0, 7.0], "lower", "better"),         # wide, but disjoint
    ([10.0, 12.0, 14.0], [10.0, 12.0, 14.0], "lower", "same"),        # wide, but identical
])
def test_compare_verdicts(a, b, better, want):
    got, _change = compare.verdict(_stats(a), _stats(b), 0.10, better)
    assert got == want


def test_compare_change_is_signed_towards_worse():
    _what, change = compare.verdict(_stats([2.0]), _stats([2.2]), 0.05, "lower")
    assert change == pytest.approx(0.10)
    _what, change = compare.verdict(_stats([2.0]), _stats([2.2]), 0.05, "higher")
    assert change == pytest.approx(-0.10)


def test_compare_walks_every_workload_and_metric():
    def ledger(wall):
        entry = {
            "end_to_end": {m["name"]: {**_stats([wall]), "unit": m["unit"]}
                           for m in CONTRACT["end_to_end"]},
            "per_layer": {"sim.events_fired": {"value": wall, "unit": "count"}},
        }
        return {"host": {}, "workloads": {w["name"]: entry for w in CONTRACT["workloads"]}}

    rows, layer_rows = compare.compare(ledger(1.0), ledger(1.0), CONTRACT)
    assert len(rows) == len(CONTRACT["workloads"]) * len(CONTRACT["end_to_end"])
    assert {row[-1] for row in rows} == {"same"} and not layer_rows
    rows, layer_rows = compare.compare(ledger(1.0), ledger(2.0), CONTRACT)
    assert {row[-1] for row in rows} == {"worse"}
    assert len(layer_rows) == len(CONTRACT["workloads"])


# -- the runner, end to end on the cheapest workload ------------------------

def test_gate_counts_a_rep_that_does_not_reproduce_the_warm_up():
    warm = workloads.Rep(virtual={"ckpt_s": 1.0}, digests={"checkpoint": "a", "restart": "b"})
    same = workloads.Rep(virtual={"ckpt_s": 1.0}, digests={"checkpoint": "a"})
    run._gate(warm, same, "rep 0")
    assert (same.attempted, same.failed) == (3, 0)
    drifted = workloads.Rep(virtual={"ckpt_s": 1.5}, digests={"checkpoint": "x"}, failures_logged=1)
    run._gate(warm, drifted, "rep 1")
    assert (drifted.attempted, drifted.failed) == (3, 3)


def test_chaos_run_reports_every_metric_and_only_declared_ones(capsys):
    result = run.run_workload("chaos-mtbf", seed=1, seconds=0.5, trace=True)
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["end_to_end"]) == {m["name"] for m in CONTRACT["end_to_end"]}
    assert all(v > 0 for v in result["end_to_end"].values())
    assert set(result["per_layer"]) <= {m["name"] for m in CONTRACT["per_layer"]}
    assert result["per_layer"]["faults.live_failovers"] == len(workloads.CHAOS_KILLS)
    assert result["per_layer"]["trace.unattributed_frac"] <= 0.05
    assert run.report_single(result, False, CONTRACT) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert set(__import__("json").loads(last)) == {"correct", "attempted", "failed", "metrics"}
