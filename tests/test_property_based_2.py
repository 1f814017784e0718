"""Second round of property-based tests: masks, HDFS, Chirp, sizer, pool."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AdaptiveTaskSizer
from repro.dbs import LumiMask, LumiSection
from repro.desim import Environment
from repro.hadoop import HDFS
from repro.storage import ChirpServer

MB = 1_000_000.0


# ------------------------------------------------------------ lumi masks
span = st.tuples(st.integers(1, 500), st.integers(0, 50)).map(
    lambda t: [t[0], t[0] + t[1]]
)
mask_dict = st.dictionaries(st.integers(1, 20), st.lists(span, min_size=1, max_size=5), max_size=5)


@given(a=mask_dict, b=mask_dict)
@settings(max_examples=50, deadline=None)
def test_mask_union_contains_both(a, b):
    ma, mb = LumiMask(a), LumiMask(b)
    u = ma.union(mb)
    probes = [
        LumiSection(run, lumi)
        for run in list(a) + list(b)
        for lumi in (1, 5, 50, 200, 550)
    ]
    for p in probes:
        if p in ma or p in mb:
            assert p in u


@given(a=mask_dict, b=mask_dict)
@settings(max_examples=50, deadline=None)
def test_mask_intersection_is_subset(a, b):
    ma, mb = LumiMask(a), LumiMask(b)
    i = ma.intersect(mb)
    probes = [
        LumiSection(run, lumi)
        for run in set(list(a) + list(b))
        for lumi in (1, 10, 100, 300)
    ]
    for p in probes:
        if p in i:
            assert p in ma and p in mb
        if not (p in ma and p in mb):
            assert p not in i


@given(m=mask_dict)
@settings(max_examples=50, deadline=None)
def test_mask_json_roundtrip_preserves_membership(m):
    mask = LumiMask(m)
    again = LumiMask.from_json(mask.to_json())
    assert again.n_lumis() == mask.n_lumis()
    for run in mask.runs:
        for lumi in (1, 7, 42, 333):
            p = LumiSection(run, lumi)
            assert (p in mask) == (p in again)


@given(m=mask_dict)
@settings(max_examples=30, deadline=None)
def test_mask_union_self_is_identity(m):
    mask = LumiMask(m)
    assert mask.union(mask).n_lumis() == mask.n_lumis()


# ------------------------------------------------------------ HDFS
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=500 * MB), min_size=1, max_size=8),
    block_mb=st.floats(min_value=8.0, max_value=256.0),
)
@settings(max_examples=20, deadline=None)
def test_hdfs_write_conserves_bytes_and_blocks(sizes, block_mb):
    env = Environment()
    hdfs = HDFS(env, n_datanodes=4, replication=2, block_size=block_mb * MB, seed=0)

    def proc(env):
        for i, size in enumerate(sizes):
            f = yield from hdfs.write(f"/f{i}", size)
            expected_blocks = max(1, int(np.ceil(size / (block_mb * MB))))
            assert len(f.blocks) == expected_blocks
            assert f.size == pytest.approx(size)

    env.process(proc(env))
    env.run()
    assert hdfs.used_bytes == pytest.approx(sum(sizes))
    # Replication factor holds for every stored block.
    stored = sum(dn.blocks_stored for dn in hdfs.datanodes)
    total_blocks = sum(max(1, int(np.ceil(s / (block_mb * MB)))) for s in sizes)
    assert stored == 2 * total_blocks


# ------------------------------------------------------------ Chirp
@given(
    sizes=st.lists(st.floats(min_value=1.0, max_value=50 * MB), min_size=1, max_size=12),
    conns=st.integers(min_value=1, max_value=4),
)
@settings(max_examples=20, deadline=None)
def test_chirp_serves_everyone_eventually(sizes, conns):
    env = Environment()
    chirp = ChirpServer(
        env, bandwidth=100 * MB, max_connections=conns,
        accept_latency=0.0, queue_timeout=1e9,
    )
    done = []

    def proc(env, nbytes):
        yield from chirp.put(nbytes)
        done.append(nbytes)

    for s in sizes:
        env.process(proc(env, s))
    env.run()
    assert sorted(done) == sorted(sizes)
    assert chirp.bytes_in == pytest.approx(sum(sizes))
    assert chirp.failures == 0
    # Concurrency bound was respected throughout (spot check: the
    # resource's user list is empty at the end and capacity was conns).
    assert chirp.connections.count == 0
    assert chirp.connections.capacity == conns


# ------------------------------------------------------------ adaptive sizer
result_stream = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5000.0),  # cpu
        st.floats(min_value=1.0, max_value=10000.0),  # wall
        st.floats(min_value=0.0, max_value=10000.0),  # lost
    ),
    max_size=120,
)


@given(stream=result_stream, initial=st.integers(2, 40), window=st.integers(1, 20))
@settings(max_examples=50, deadline=None)
def test_sizer_stays_within_bounds(stream, initial, window):
    from repro.analysis.report import ExitCode
    from repro.wq.task import Task, TaskResult

    sizer = AdaptiveTaskSizer(
        initial_size=initial, min_size=1, max_size=60, window=window
    )
    for cpu, wall, lost in stream:
        task = Task(executor=lambda w, t: iter(()))
        task.lost_time = lost
        r = TaskResult(
            task=task,
            exit_code=ExitCode.SUCCESS,
            worker_id="w",
            submitted=0.0,
            started=0.0,
            finished=max(wall, cpu),
            segments={"cpu": min(cpu, wall)},
        )
        sizer.observe(r)
        assert 1 <= sizer.size <= 60
    # Decisions never exceed observations/window.
    assert len(sizer.decisions) <= max(1, len(stream) // window)
    # Every decision changed the size in the direction its reason claims.
    for d in sizer.decisions:
        if d.reason.startswith("shrink"):
            assert d.new_size < d.old_size
        else:
            assert d.new_size > d.old_size


# ------------------------------------------------------------ max-min fairness
@given(
    demands=st.lists(
        st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e5)),
        min_size=1,
        max_size=20,
    ),
    capacity=st.floats(min_value=0.1, max_value=1e6),
)
@settings(max_examples=60, deadline=None)
def test_max_min_no_flow_below_equal_share(demands, capacity):
    """Max-min fairness: nobody gets less than min(cap, equal share)."""
    from repro.net import waterfill

    rates = waterfill({0: capacity}, [(0,)] * len(demands), demands)
    equal = capacity / len(demands)
    for rate, cap in zip(rates, demands):
        floor = equal if cap is None else min(cap, equal)
        assert rate >= floor * (1 - 1e-9)
