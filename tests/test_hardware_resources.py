"""Unit and property tests for the fair-share bandwidth server."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.hardware.resources import BandwidthResource
from repro.sim import Engine


def fluid_reference(jobs, rate, per_job_cap=None):
    """Completion time of every job under the per-job fluid scan.

    ``jobs`` is a list of ``(arrival, volume, cap)``.  Between events
    every active job progresses at ``min(rate / n, per_job_cap, cap)``;
    an event is the next arrival or the next completion, and at each one
    every job's remaining volume is credited and checked -- O(jobs) per
    event.  The server keeps virtual finish times instead; this scan is
    the oracle it must agree with.
    """
    order = sorted(range(len(jobs)), key=lambda i: (jobs[i][0], i))
    remaining: dict[int, float] = {}
    done: dict[int, float] = {}
    now = 0.0
    k = 0
    while k < len(order) or remaining:
        while k < len(order) and jobs[order[k]][0] <= now:
            remaining[order[k]] = float(jobs[order[k]][1])
            k += 1
        if not remaining:
            now = jobs[order[k]][0]
            continue
        share = rate / len(remaining)
        if per_job_cap is not None:
            share = min(share, per_job_cap)
        rates = {i: share if jobs[i][2] is None else min(share, jobs[i][2]) for i in remaining}
        dt = min(remaining[i] / rates[i] for i in remaining)
        if k < len(order) and jobs[order[k]][0] - now < dt:
            dt = jobs[order[k]][0] - now
            now = jobs[order[k]][0]
        else:
            now += dt
        for i in list(remaining):
            remaining[i] -= rates[i] * dt
            if remaining[i] <= jobs[i][1] * 1e-9:
                done[i] = now
                del remaining[i]
    return done


def run_jobs(jobs, rate, per_job_cap=None):
    """Completion times of ``(arrival, volume, cap)`` jobs on the server."""
    eng = Engine()
    res = BandwidthResource(eng, rate=rate, per_job_cap=per_job_cap)
    times = {}

    def submit(i, vol, cap):
        res.submit(vol, cap=cap).add_done(lambda: times.__setitem__(i, eng.now))

    for i, (arrival, vol, cap) in enumerate(jobs):
        if arrival:
            eng.call_at(arrival, submit, i, vol, cap)
        else:
            submit(i, vol, cap)
    eng.run()
    assert res.active_jobs == 0
    return times


def _completion_times(engine, resource, volumes, caps=None):
    times = {}
    caps = caps or [None] * len(volumes)
    for i, (vol, cap) in enumerate(zip(volumes, caps)):
        resource.submit(vol, cap=cap).add_done(
            lambda i=i: times.__setitem__(i, engine.now)
        )
    engine.run()
    return times


def test_single_job_runs_at_full_rate():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    times = _completion_times(eng, res, [500.0])
    assert times[0] == pytest.approx(5.0)


def test_two_equal_jobs_share_fairly():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    times = _completion_times(eng, res, [500.0, 500.0])
    # both run at 50/s throughout
    assert times[0] == pytest.approx(10.0)
    assert times[1] == pytest.approx(10.0)


def test_short_job_finishes_then_long_job_speeds_up():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    times = _completion_times(eng, res, [100.0, 300.0])
    # phase 1: both at 50/s for 2s (job0 done, job1 has 200 left)
    # phase 2: job1 alone at 100/s for 2s
    assert times[0] == pytest.approx(2.0)
    assert times[1] == pytest.approx(4.0)


def test_late_arrival_shares_from_arrival_time():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    done = {}
    res.submit(400.0).add_done(lambda: done.__setitem__("a", eng.now))
    eng.call_at(2.0, lambda: res.submit(100.0).add_done(lambda: done.__setitem__("b", eng.now)))
    eng.run()
    # a: 200 served by t=2, then 50/s; b: 50/s from t=2
    # b done at t=4 (100/50); a has 100 left at t=4, alone at 100/s -> t=5
    assert done["b"] == pytest.approx(4.0)
    assert done["a"] == pytest.approx(5.0)


def test_per_job_cap_limits_single_job():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0, per_job_cap=10.0)
    times = _completion_times(eng, res, [100.0])
    assert times[0] == pytest.approx(10.0)


def test_individual_job_cap():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    times = _completion_times(eng, res, [100.0, 100.0], caps=[5.0, None])
    # job0 capped at 5/s -> 20s; job1 gets 50/s share -> 2s
    assert times[1] == pytest.approx(2.0)
    assert times[0] == pytest.approx(20.0)


def test_zero_volume_resolves_immediately():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    fut = res.submit(0.0)
    assert fut.done


def test_negative_volume_rejected():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    with pytest.raises(SimulationError):
        res.submit(-1.0)


def test_invalid_rate_rejected():
    with pytest.raises(SimulationError):
        BandwidthResource(Engine(), rate=0.0)


def test_estimate_unloaded():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0, per_job_cap=25.0)
    assert res.estimate_unloaded(50.0) == pytest.approx(2.0)


def test_volume_served_accounting():
    eng = Engine()
    res = BandwidthResource(eng, rate=100.0)
    _completion_times(eng, res, [100.0, 200.0, 300.0])
    assert res.volume_served == pytest.approx(600.0)


@settings(max_examples=30, deadline=None)
@given(
    volumes=st.lists(
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False), min_size=1, max_size=8
    ),
    rate=st.floats(min_value=1.0, max_value=1e6),
)
def test_property_total_time_bounded_by_work_conservation(volumes, rate):
    """Makespan is exactly total/rate when jobs start together and none is
    capped: the server is work-conserving."""
    eng = Engine()
    res = BandwidthResource(eng, rate=rate)
    times = _completion_times(eng, res, volumes)
    makespan = max(times.values())
    assert makespan == pytest.approx(sum(volumes) / rate, rel=1e-6)


@settings(max_examples=30, deadline=None)
@given(
    volumes=st.lists(
        st.floats(min_value=1.0, max_value=1e6, allow_nan=False), min_size=2, max_size=8
    )
)
def test_property_completion_order_matches_volume_order(volumes):
    """With equal shares, smaller jobs never finish after bigger ones."""
    eng = Engine()
    res = BandwidthResource(eng, rate=1000.0)
    times = _completion_times(eng, res, volumes)
    order = sorted(range(len(volumes)), key=lambda i: (volumes[i], i))
    finish = [times[i] for i in order]
    assert finish == sorted(finish)


@settings(max_examples=200, deadline=None)
@given(
    jobs=st.lists(
        st.tuples(
            # a small set of arrival instants makes simultaneous arrivals
            # (and simultaneous completions) common
            st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 5.0)),
            st.floats(min_value=1.0, max_value=1e4),
            st.one_of(st.none(), st.sampled_from([20.0, 50.0]), st.floats(1.0, 500.0)),
        ),
        min_size=1,
        max_size=24,
    ),
    rate=st.floats(min_value=10.0, max_value=1000.0),
    per_job_cap=st.one_of(st.none(), st.floats(min_value=5.0, max_value=1000.0)),
)
def test_property_completions_match_fluid_reference(jobs, rate, per_job_cap):
    """Virtual finish times complete every job when the per-job scan does:
    random arrivals, volumes, per-job caps and a server-wide cap."""
    times = run_jobs(jobs, rate, per_job_cap)
    expected = fluid_reference(jobs, rate, per_job_cap)
    assert set(times) == set(expected) == set(range(len(jobs)))
    for i in expected:
        assert times[i] == pytest.approx(expected[i], rel=1e-9, abs=1e-9)
