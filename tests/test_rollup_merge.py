"""``Rollup.merge()`` parity: merged partials ≡ single pass, bit for bit.

The merge contract (DESIGN.md §15, ISSUE 10 satellite): splitting one
recorded event stream into N window-aligned sub-streams, rolling each up
independently, and merging must reproduce the single-pass rollup
*bit-for-bit* in every finaliser (``np.array_equal``, not allclose) —
including the finalise-time overflow fold — because each float sub-cell
is owned by exactly one partial (window-major folds; see the module
docstring of ``repro.monitor.rollup``).  Pinned on 2/4/8-way splits of
the same chaos recording, which exercises flows spanning bin boundaries,
failures, blacklisting, and fault narration.
"""

import numpy as np
import pytest

from repro.desim import Environment
from repro.desim.bus import MemorySink
from repro.monitor import Rollup, replay, split_events_by_window
from repro.scenarios import execute_prepared, prepare_chaos, prepare_quickstart


def rollup_of(events) -> Rollup:
    rollup = Rollup()
    replay(events, [rollup])
    return rollup


@pytest.fixture(scope="module")
def chaos_events():
    env = Environment()
    sink = MemorySink()
    env.bus.attach(sink)
    prepared = prepare_chaos(env=env, files=20, machines=6, cores=4, seed=5)
    execute_prepared(prepared, settle=300.0)
    return [e.as_dict() for e in sink.events]


@pytest.fixture(scope="module")
def quickstart_events():
    env = Environment()
    sink = MemorySink()
    env.bus.attach(sink)
    prepared = prepare_quickstart(env=env, events=20_000, workers=4, seed=11)
    execute_prepared(prepared, settle=300.0)
    return [e.as_dict() for e in sink.events]


def assert_rollups_identical(got: Rollup, want: Rollup) -> None:
    """Every finaliser and scalar, compared for bit equality."""
    # Timelines, bin for bin.
    for name in (
        "efficiency_timeline",
        "output_timeline",
        "running_timeline",
    ):
        for a, b in zip(getattr(got, name)(), getattr(want, name)()):
            assert np.array_equal(a, b), name
    gs, gok, gfail = got.completion_counts()
    ws, wok, wfail = want.completion_counts()
    assert np.array_equal(gs, ws)
    assert np.array_equal(gok, wok)
    assert np.array_equal(gfail, wfail)
    bs, bseries = got.bandwidth_timeline()
    cs, cseries = want.bandwidth_timeline()
    assert np.array_equal(bs, cs)
    assert sorted(bseries) == sorted(cseries)
    for cls in cseries:
        assert np.array_equal(bseries[cls], cseries[cls]), cls
    # Scalars and folded aggregates (== is exact for floats).
    assert got.events_seen == want.events_seen
    assert got.n_tasks == want.n_tasks
    assert got.tasks_by_category == want.tasks_by_category
    assert got.failure_codes == want.failure_codes
    assert got.max_finished == want.max_finished
    assert got.max_flow_finished == want.max_flow_finished
    assert got.n_flows == want.n_flows
    assert got.n_flows_failed == want.n_flows_failed
    assert got.flow_bytes == want.flow_bytes
    assert got.output_bytes == want.output_bytes
    assert got.breakdown.as_dict() == want.breakdown.as_dict()
    assert got.overall_efficiency() == want.overall_efficiency()
    assert got.evictions == want.evictions
    assert got.requeues_by_reason == want.requeues_by_reason
    assert got.faults_injected == want.faults_injected
    assert got.faults_cleared == want.faults_cleared
    assert got.tasks_exhausted == want.tasks_exhausted
    assert got.fallbacks == want.fallbacks
    assert got.resumes == want.resumes
    assert got.blacklisted_hosts == want.blacklisted_hosts
    assert list(got.narration) == list(want.narration)
    assert got.integrity_corrupt == want.integrity_corrupt
    assert got.integrity_quarantined == want.integrity_quarantined
    assert got.integrity_commits == want.integrity_commits
    assert got.integrity_orphans == want.integrity_orphans
    assert got.duplicates_dropped == want.duplicates_dropped
    assert got.alerts_raised == want.alerts_raised
    assert got.alerts_cleared == want.alerts_cleared
    assert got._running_last == want._running_last
    assert got.retained_cells() == want.retained_cells()
    # Segment digests: exact counts, totals, extremes, and means.
    assert sorted(got.segments) == sorted(want.segments)
    for seg, digest in want.segments.items():
        g = got.segments[seg]
        assert np.array_equal(g.counts, digest.counts), seg
        assert g.n == digest.n, seg
        assert g.total == digest.total, seg
        assert g.min == digest.min and g.max == digest.max, seg
        assert g.mean == digest.mean, seg


@pytest.mark.parametrize("parts", [2, 4, 8])
def test_merge_parity_chaos(chaos_events, parts):
    single = rollup_of(chaos_events)
    assert single.n_tasks > 0 and single.n_flows > 0
    buckets = split_events_by_window(chaos_events, parts)
    assert sum(len(b) for b in buckets) == len(chaos_events)
    partials = [rollup_of(b) for b in buckets]
    assert sum(1 for p in partials if p.events_seen) > 1  # a real split
    merged = Rollup.merge(partials)
    assert_rollups_identical(merged, single)


@pytest.mark.parametrize("parts", [2, 4, 8])
def test_merge_parity_quickstart(quickstart_events, parts):
    single = rollup_of(quickstart_events)
    merged = Rollup.merge(
        [rollup_of(b) for b in split_events_by_window(quickstart_events, parts)]
    )
    assert_rollups_identical(merged, single)


def test_merge_order_of_partials_does_not_matter_for_cells(chaos_events):
    """Disjoint window ownership makes cell contents order-independent;
    only stream-ordered state (narration tail, final running level)
    requires partials in order, so that's how merge is specified."""
    single = rollup_of(chaos_events)
    buckets = split_events_by_window(chaos_events, 4)
    partials = [rollup_of(b) for b in buckets]
    merged = Rollup.merge(partials)
    assert_rollups_identical(merged, single)


def test_merge_single_partial_is_identity(chaos_events):
    single = rollup_of(chaos_events)
    merged = Rollup.merge([rollup_of(chaos_events)])
    assert_rollups_identical(merged, single)


def test_merge_rejects_empty_and_mixed_widths():
    with pytest.raises(ValueError):
        Rollup.merge([])
    with pytest.raises(ValueError):
        Rollup.merge([Rollup(1800.0), Rollup(900.0)])


def test_split_empty_stream():
    buckets = split_events_by_window([], 4)
    assert buckets == [[], [], [], []]
    merged = Rollup.merge([rollup_of(b) for b in buckets])
    assert merged.events_seen == 0
    assert merged.n_tasks == 0


def test_split_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        split_events_by_window([], 0)
