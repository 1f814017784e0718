"""Streaming rollup vs. exact reduction: bit-for-bit parity (DESIGN.md §13).

The :class:`~repro.monitor.Rollup` mirrors every accumulation the exact
:class:`~repro.monitor.RunMetrics` path performs, expression for
expression, so its windowed timelines must be *bit* identical — not
approximately equal — on real runs.  These tests tap both folds onto
the same bus for the quickstart, chaos, and corruption scenarios
and compare bin-for-bin, then pin down the degenerate cases (empty run,
single event) where off-by-one window arithmetic likes to hide.
"""

import numpy as np
import pytest

from repro.desim import Environment, EventBus, Topics
from repro.monitor import Rollup, RunMetrics, replay, tap, verify_parity
from repro.scenarios import execute_prepared, prepare_chaos, prepare_quickstart


def _run_with_both_folds(prepare, **kwargs):
    """Execute a scenario with a rollup tapped onto the bus the run's
    exact metrics fold listens on; returns (rollup, metrics, master)."""
    env = Environment()
    rollup = Rollup()
    tap(env.bus, [rollup])
    prepared = prepare(env=env, **kwargs)
    execute_prepared(prepared, settle=300.0)
    return rollup, prepared.run.metrics, prepared.run.master


@pytest.fixture(scope="module")
def quickstart_pair():
    return _run_with_both_folds(
        prepare_quickstart, events=20_000, workers=4, seed=11
    )


@pytest.fixture(scope="module")
def chaos_pair():
    return _run_with_both_folds(
        prepare_chaos, files=20, machines=6, cores=4, seed=5
    )


@pytest.fixture(scope="module")
def corruption_pair():
    return _run_with_both_folds(
        prepare_chaos,
        files=20,
        machines=6,
        cores=4,
        seed=9,
        bit_rot=2,
        truncate=2,
        duplicates=2,
    )


# --------------------------------------------------------------- full runs
def test_quickstart_parity(quickstart_pair):
    rollup, metrics, _ = quickstart_pair
    assert metrics.n_tasks > 0  # the run actually ran
    assert verify_parity(rollup, metrics) == []


def test_chaos_parity(chaos_pair):
    rollup, metrics, _ = chaos_pair
    assert metrics.evictions_seen + metrics.n_faults_injected > 0
    assert verify_parity(rollup, metrics) == []


def test_corruption_parity(corruption_pair):
    rollup, metrics, _ = corruption_pair
    assert metrics.has_integrity_data()
    assert len(metrics.duplicates_dropped) > 0
    assert verify_parity(rollup, metrics) == []


def test_requeue_reasons_match_the_master(corruption_pair):
    """Both folds count ``task.requeue`` by the loss reason the master
    emitted, and agree with the master's own tally (a no-crash chaos run:
    one master saw every requeue)."""
    rollup, metrics, master = corruption_pair
    assert master.requeues_by_reason  # the barrage lost some attempts
    assert rollup.requeues_by_reason == master.requeues_by_reason
    assert metrics.requeues_by_reason == master.requeues_by_reason


def test_efficiency_timeline_bit_identical(quickstart_pair):
    """Spot-check the headline timeline beyond verify_parity: same dtype,
    same edges, same bits."""
    rollup, metrics, _ = quickstart_pair
    r_starts, r_values = rollup.efficiency_timeline()
    m_starts, m_values = metrics.efficiency_timeline(
        bin_width=rollup.bin_width
    )
    assert r_starts.dtype == m_starts.dtype
    assert np.array_equal(r_starts, m_starts)
    assert np.array_equal(r_values, m_values)  # exact, not allclose


def test_bandwidth_timeline_bit_identical_per_class(chaos_pair):
    rollup, metrics, _ = chaos_pair
    assert rollup.flow_bytes  # the run moved data
    r_starts, r_by_class = rollup.bandwidth_timeline()
    m_starts, m_by_class = metrics.bandwidth_timeline(rollup.bin_width)
    assert np.array_equal(r_starts, m_starts)
    assert set(r_by_class) == set(m_by_class)
    for klass in m_by_class:
        assert np.array_equal(r_by_class[klass], m_by_class[klass]), klass


def test_rollup_memory_is_windows_not_events():
    """Piling events into the same windows must not grow the cell
    population — retention is O(occupied windows), never O(events)."""
    def fill(n_tasks):
        bus = EventBus()
        rollup = Rollup()
        tap(bus, [rollup])
        for task_id in range(n_tasks):
            finished = 100.0 + (task_id % 7)  # all within window 0
            bus.publish(
                Topics.TASK_RESULT,
                _time=finished,
                workflow="wf",
                task_id=task_id,
                category="analysis",
                exit_code=0,
                submitted=0.0,
                started=finished - 50.0,
                finished=finished,
                segments={"cpu": 40.0},
                wq_stage_in=0.0,
                wq_stage_out=0.0,
                lost_time=0.0,
                output_bytes=1e6,
            )
            bus.publish(
                Topics.NET_FLOW,
                _time=finished,
                klass="stage-out",
                nbytes=1e6,
                elapsed=10.0,
                src="w",
                dst="se",
            )
        return rollup

    sparse, dense = fill(10), fill(500)
    assert dense.events_seen == 50 * sparse.events_seen
    assert dense.retained_cells() == sparse.retained_cells()


# ------------------------------------------------------------- replay twin
def test_replayed_rollup_matches_live(tmp_path, quickstart_pair):
    """A rollup replayed from a JSONL recording == the live tapped one."""
    from repro.monitor import JsonlSink, load_events

    env = Environment()
    sink = JsonlSink(str(tmp_path / "events.jsonl"))
    env.bus.attach(sink)
    live = Rollup()
    tap(env.bus, [live])
    prepared = prepare_quickstart(events=20_000, workers=4, seed=11, env=env)
    execute_prepared(prepared, settle=300.0)
    sink.close()

    replayed = Rollup()
    replay(load_events(sink.path), [replayed])
    assert replayed.events_seen == live.events_seen
    assert verify_parity(replayed, prepared.run.metrics) == []


def test_rollup_collector_workflow_filter_matches_buscollector():
    """A filtered streaming rollup accepts exactly the events its exact
    RunMetrics twin accepts when both sit behind one ``tap`` filter."""
    bus = EventBus()
    exact, streaming = RunMetrics(), Rollup()
    tap(bus, [exact, streaming], workflows=["wf-a"])
    fields = dict(
        category="analysis",
        exit_code=0,
        submitted=0.0,
        started=0.0,
        finished=100.0,
        segments={"cpu": 80.0},
        wq_stage_in=0.0,
        wq_stage_out=0.0,
        lost_time=0.0,
        output_bytes=1e6,
    )
    bus.publish(Topics.TASK_RESULT, _time=100.0, workflow="wf-a", task_id=1,
                **fields)
    bus.publish(Topics.TASK_RESULT, _time=100.0, workflow="wf-b", task_id=2,
                **fields)
    bus.publish(Topics.EVICTION, _time=5.0, workflows=["wf-b"], slot="s")
    bus.publish(Topics.EVICTION, _time=6.0, workflows=["wf-a"], slot="s")
    assert [r.task_id for r in exact.records] == [1]
    assert exact.n_tasks == streaming.n_tasks == 1
    assert exact.evictions_seen == streaming.evictions == 1
    assert verify_parity(streaming, exact) == []


# ------------------------------------------------------------- degenerates
def test_empty_run_parity():
    """No events at all: every timeline is empty/degenerate on both paths
    and parity still holds."""
    rollup = Rollup()
    metrics = RunMetrics()
    assert verify_parity(rollup, metrics) == []
    starts, values = rollup.efficiency_timeline()
    m_starts, m_values = metrics.efficiency_timeline(bin_width=1800.0)
    assert np.array_equal(starts, m_starts)
    assert np.array_equal(values, m_values)


def test_single_event_parity():
    """One task result: a single occupied window, still bit-identical."""
    bus = EventBus()
    exact, streaming = RunMetrics(), Rollup()
    tap(bus, [exact, streaming])
    bus.publish(
        Topics.TASK_RESULT,
        _time=90.0,
        workflow="wf",
        task_id=1,
        category="analysis",
        exit_code=0,
        submitted=0.0,
        started=10.0,
        finished=90.0,
        segments={"cpu": 60.0, "setup": 5.0},
        wq_stage_in=2.0,
        wq_stage_out=1.0,
        lost_time=0.0,
        output_bytes=5e6,
    )
    assert streaming.n_tasks == 1
    assert verify_parity(streaming, exact) == []


def test_single_instantaneous_flow_parity():
    """A zero-duration flow lands its full volume in one bin on both
    paths (the rate*overlap spread degenerates to nbytes/bw)."""
    bus = EventBus()
    exact, streaming = RunMetrics(), Rollup()
    tap(bus, [exact, streaming])
    bus.publish(
        Topics.NET_FLOW,
        _time=42.0,
        klass="stage-out",
        nbytes=1e9,
        elapsed=0.0,
        src="worker",
        dst="se",
    )
    assert streaming.n_flows == 1
    assert verify_parity(streaming, exact) == []


def test_event_at_exact_bin_boundary_parity():
    """A task finishing exactly at a bin edge exercises the final-bin
    clamp (min(int(t/bw), n-1)) that the rollup replays via overflow
    folding."""
    bus = EventBus()
    exact, streaming = RunMetrics(), Rollup()
    tap(bus, [exact, streaming])
    for task_id, finished in enumerate((1800.0, 3600.0), start=1):
        bus.publish(
            Topics.TASK_RESULT,
            _time=finished,
            workflow="wf",
            task_id=task_id,
            category="analysis",
            exit_code=0,
            submitted=0.0,
            started=finished - 600.0,
            finished=finished,
            segments={"cpu": 500.0},
            wq_stage_in=0.0,
            wq_stage_out=0.0,
            lost_time=0.0,
            output_bytes=0.0,
        )
    assert verify_parity(streaming, exact) == []
