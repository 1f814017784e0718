"""Property-based tests (hypothesis) for core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import TaskletState, TaskletStore, plan_groups
from repro.core.tasksize import TaskSizeConfig, TaskSizeSimulator
from repro.desim import Environment
from repro.distributions import (
    ConstantHazardEviction,
    EmpiricalEviction,
    NoEviction,
    binomial_errors,
    eviction_probability_curve,
)
from repro.monitor import TimeSeries
from repro.net import Fabric, waterfill
from repro.storage import StoredFile


def allocate_max_min(demands, capacity):
    """Reference single-link max-min allocation (test-only oracle).

    Serves capped flows in increasing cap order; each takes
    min(cap, equal share of what remains).  ``None`` = uncapped."""
    n = len(demands)
    rates = [0.0] * n
    remaining = capacity
    order = sorted(range(n), key=lambda i: float("inf") if demands[i] is None else demands[i])
    left = n
    for i in order:
        share = remaining / left
        cap = demands[i]
        rate = share if cap is None else min(cap, share)
        rates[i] = rate
        remaining -= rate
        left -= 1
    return rates


def one_link(demands, capacity):
    """The fabric allocator's rates for *demands* sharing one link."""
    return waterfill({0: capacity}, [(0,)] * len(demands), demands)


# ------------------------------------------------------------ max-min fairness
caps = st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e6))


@given(demands=st.lists(caps, max_size=30), capacity=st.floats(min_value=0.1, max_value=1e9))
def test_allocation_never_exceeds_capacity(demands, capacity):
    rates = one_link(demands, capacity)
    assert len(rates) == len(demands)
    assert sum(rates) <= capacity * (1 + 1e-9)
    for rate, cap in zip(rates, demands):
        assert rate >= 0
        if cap is not None:
            assert rate <= cap * (1 + 1e-9)


@given(
    demands=st.lists(st.floats(min_value=0.01, max_value=1e3), min_size=1, max_size=20),
    capacity=st.floats(min_value=0.1, max_value=1e9),
)
def test_allocation_work_conserving(demands, capacity):
    """If total demand exceeds capacity, every drop of capacity is used;
    otherwise every flow gets its full demand."""
    rates = one_link(list(demands), capacity)
    if sum(demands) <= capacity:
        assert rates == pytest.approx(list(demands))
    else:
        assert sum(rates) == pytest.approx(capacity)


@given(n=st.integers(min_value=1, max_value=50), capacity=st.floats(min_value=1, max_value=1e6))
def test_allocation_uncapped_flows_get_equal_share(n, capacity):
    rates = one_link([None] * n, capacity)
    assert all(r == pytest.approx(capacity / n) for r in rates)


# ------------------------------------------------- multi-link water-filling
@st.composite
def waterfill_problems(draw):
    """A random tree-free allocation problem: links, routes, rate caps,
    and either no weights or a weight of 1-8 flows per route."""
    n_links = draw(st.integers(min_value=1, max_value=6))
    caps = {
        i: draw(st.floats(min_value=0.1, max_value=1e6))
        for i in range(n_links)
    }
    n_flows = draw(st.integers(min_value=0, max_value=12))
    routes = []
    for _ in range(n_flows):
        size = draw(st.integers(min_value=1, max_value=n_links))
        routes.append(tuple(draw(st.permutations(range(n_links)))[:size]))
    max_rates = [
        draw(st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e5)))
        for _ in range(n_flows)
    ]
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(st.integers(min_value=1, max_value=8), min_size=n_flows, max_size=n_flows),
        )
    )
    return caps, routes, max_rates, weights


def link_load(link, rates, routes, weights):
    """Total rate the flows crossing *link* put on it."""
    weights = weights if weights is not None else [1] * len(routes)
    return sum(r * w for r, rt, w in zip(rates, routes, weights) if link in rt)


@given(problem=waterfill_problems())
def test_waterfill_conserves_capacity_and_caps(problem):
    caps, routes, max_rates, weights = problem
    rates = waterfill(caps, routes, max_rates, weights)
    assert len(rates) == len(routes)
    for rate, cap in zip(rates, max_rates):
        assert rate >= 0.0
        if cap is not None:
            assert rate <= cap * (1 + 1e-6)
    for link, capacity in caps.items():
        assert link_load(link, rates, routes, weights) <= capacity * (1 + 1e-6)


@given(problem=waterfill_problems())
def test_waterfill_is_max_min_fair(problem):
    """Every flow is either at its own cap or bottlenecked: it crosses a
    saturated link where no sharing flow gets a strictly larger rate."""
    caps, routes, max_rates, weights = problem
    rates = waterfill(caps, routes, max_rates, weights)
    for i, (rate, route, cap) in enumerate(zip(rates, routes, max_rates)):
        if cap is not None and rate >= cap * (1 - 1e-6):
            continue  # pinned by its own cap
        bottlenecked = False
        for link in route:
            load = link_load(link, rates, routes, weights)
            saturated = load >= caps[link] * (1 - 1e-6)
            biggest = max(
                (r for r, rt in zip(rates, routes) if link in rt),
                default=0.0,
            )
            if saturated and rate >= biggest * (1 - 1e-6):
                bottlenecked = True
                break
        assert bottlenecked, f"flow {i} is neither capped nor bottlenecked"


@given(problem=waterfill_problems())
def test_weighted_waterfill_matches_expanded_problem(problem):
    """A route of weight w gets the rate each of w identical one-flow
    routes gets when the problem is spelled out flow by flow."""
    caps, routes, max_rates, weights = problem
    weights = weights if weights is not None else [1] * len(routes)
    rates = waterfill(caps, routes, max_rates, weights=weights)
    expanded = [i for i, w in enumerate(weights) for _ in range(w)]
    plain = waterfill(caps, [routes[i] for i in expanded], [max_rates[i] for i in expanded])
    assert plain == pytest.approx([rates[i] for i in expanded], rel=1e-9)


@given(
    capacity=st.floats(min_value=0.1, max_value=1e6),
    max_rates=st.lists(
        st.one_of(st.none(), st.floats(min_value=0.01, max_value=1e5)),
        min_size=1,
        max_size=15,
    ),
)
def test_waterfill_single_link_matches_allocate_max_min(capacity, max_rates):
    """On one shared link the multi-link allocator reduces exactly to the
    classic single-link max-min allocation."""
    rates = one_link(max_rates, capacity)
    reference = allocate_max_min(max_rates, capacity)
    assert rates == pytest.approx(reference, rel=1e-9, abs=1e-12)


@given(
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=10),
    st.floats(min_value=10.0, max_value=1e4),
)
@settings(max_examples=25, deadline=None)
def test_fair_share_link_conserves_bytes(sizes, capacity):
    """Every transfer completes and the link moves exactly the bytes offered."""
    env = Environment()
    link = Fabric(env).attach("l", capacity)
    done = []

    def proc(env, nbytes):
        yield link.transfer(nbytes)
        done.append(nbytes)

    for nbytes in sizes:
        env.process(proc(env, nbytes))
    env.run()
    assert sorted(done) == sorted(sizes)
    assert link.bytes_moved == pytest.approx(sum(sizes), rel=1e-6)
    assert link.active_flows == 0
    # The link can never finish faster than capacity allows.
    assert env.now * capacity >= sum(sizes) * (1 - 1e-9)


# ------------------------------------------------------------ eviction models
@given(
    intervals=st.lists(
        st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=200
    )
)
def test_empirical_eviction_samples_within_range(intervals):
    model = EmpiricalEviction(intervals)
    rng = np.random.default_rng(0)
    draws = model.sample_survival(rng, 100)
    assert draws.min() >= min(intervals) - 1e-9
    assert draws.max() <= max(intervals) + 1e-9


@given(
    intervals=st.lists(
        st.floats(min_value=0.0, max_value=1e5), min_size=1, max_size=100
    ),
    age=st.floats(min_value=0, max_value=1e5),
)
def test_hazard_is_probability(intervals, age):
    model = EmpiricalEviction(intervals)
    h = model.hazard(age)
    assert 0.0 <= h <= 1.0


@given(k=st.integers(min_value=0, max_value=1000), extra=st.integers(min_value=0, max_value=1000))
def test_binomial_errors_bounded(k, extra):
    n = k + extra
    err = binomial_errors(k, n)
    if n > 0:
        # The maximum possible binomial error is 0.5 / sqrt(n).
        assert 0.0 <= err <= 0.5 / np.sqrt(n) + 1e-12
    else:
        assert err == 0.0


@given(
    intervals=st.lists(
        st.floats(min_value=1.0, max_value=1e5), min_size=1, max_size=100
    )
)
def test_eviction_curve_probabilities_valid(intervals):
    starts, probs, errs = eviction_probability_curve(intervals, bin_width=3600.0)
    assert np.all((probs >= 0) & (probs <= 1))
    assert np.all(errs >= 0)
    assert len(starts) == len(probs) == len(errs)


# ------------------------------------------------------------ merge planning
file_sizes = st.lists(st.floats(min_value=1.0, max_value=5e9), min_size=0, max_size=100)


@given(sizes=file_sizes, target=st.floats(min_value=1e6, max_value=1e10))
def test_plan_groups_partitions_files(sizes, target):
    files = [StoredFile(f"/store/f{i:05d}", s) for i, s in enumerate(sizes)]
    groups, leftovers = plan_groups(files, target, "wf")
    regrouped = [f.name for g in groups for f in g.inputs] + [f.name for f in leftovers]
    assert sorted(regrouped) == sorted(f.name for f in files)
    # With partial groups allowed, nothing is left over.
    assert leftovers == []


@given(sizes=file_sizes, target=st.floats(min_value=1e6, max_value=1e10))
def test_plan_groups_without_partial_leftover_undersized(sizes, target):
    files = [StoredFile(f"/store/f{i:05d}", s) for i, s in enumerate(sizes)]
    groups, leftovers = plan_groups(files, target, "wf", allow_partial=False)
    # Every emitted group reaches the target.
    for g in groups:
        assert g.total_bytes >= target
    # Leftovers are strictly under one target's worth.
    assert sum(f.size_bytes for f in leftovers) < target
    # Partition property still holds.
    regrouped = [f.name for g in groups for f in g.inputs] + [f.name for f in leftovers]
    assert sorted(regrouped) == sorted(f.name for f in files)


# ------------------------------------------------------------ tasklets
@given(
    n_events=st.integers(min_value=1, max_value=100_000),
    per_tasklet=st.integers(min_value=1, max_value=10_000),
)
def test_event_decomposition_conserves_events(n_events, per_tasklet):
    store = TaskletStore.from_event_count("wf", n_events, per_tasklet)
    assert sum(t.n_events for t in store) == n_events
    assert all(1 <= t.n_events <= per_tasklet for t in store)


@given(
    n=st.integers(min_value=1, max_value=50),
    claims=st.lists(st.integers(min_value=1, max_value=10), max_size=20),
)
def test_claim_never_duplicates_tasklets(n, claims):
    store = TaskletStore.from_event_count("wf", n * 10, 10)
    seen = set()
    for c in claims:
        for t in store.claim(c):
            assert t.tasklet_id not in seen
            seen.add(t.tasklet_id)
            assert t.state == TaskletState.ASSIGNED
    assert len(seen) + store.pending_count == store.total


class _ListPendingOracle:
    """The tasklet state machine with its pending queue as a plain list
    drained by ``pop(0)`` -- the store's FIFO before it became a deque."""

    def __init__(self, n: int):
        self.state = {i: TaskletState.PENDING for i in range(1, n + 1)}
        self.attempts = dict.fromkeys(self.state, 0)
        self.pending = list(range(n))  # indices, FIFO

    def claim(self, k):
        claimed = []
        while self.pending and len(claimed) < k:
            tid = self.pending.pop(0) + 1
            self.state[tid] = TaskletState.ASSIGNED
            claimed.append(tid)
        return claimed

    def mark_done(self, ids):
        for tid in ids:
            self.state[tid] = TaskletState.DONE

    def mark_failed_attempt(self, ids, max_retries):
        permanent = []
        for tid in ids:
            self.attempts[tid] += 1
            if self.attempts[tid] >= max_retries:
                self.state[tid] = TaskletState.FAILED
                permanent.append(tid)
            else:
                self.state[tid] = TaskletState.PENDING
                self.pending.append(tid - 1)
        return permanent

    def settle_done(self, ids):
        settled = [tid for tid in sorted(self.state)
                   if tid in ids and self.state[tid] == TaskletState.PENDING]
        for tid in settled:
            self.state[tid] = TaskletState.DONE
        self.pending = [i for i in self.pending if i + 1 not in settled]
        return settled

    def reopen(self, ids):
        reopened = [tid for tid in sorted(self.state)
                    if tid in ids and self.state[tid] == TaskletState.DONE]
        for tid in reopened:
            self.state[tid] = TaskletState.PENDING
            self.attempts[tid] += 1
            self.pending.append(tid - 1)
        return reopened


@given(
    n=st.integers(min_value=1, max_value=40),
    ops=st.lists(
        st.tuples(
            st.sampled_from(["claim", "fail", "done", "settle", "reopen"]),
            st.integers(min_value=0, max_value=8),
        ),
        max_size=60,
    ),
)
@settings(max_examples=200, deadline=None)
def test_pending_fifo_matches_list_oracle(n, ops):
    """Claim, fail, settle_done and reopen drive the deque-backed store
    and the list-backed oracle alike: same ids claimed in the same order,
    same pending count after every step."""
    store = TaskletStore.from_event_count("wf", n * 10, 10)
    oracle = _ListPendingOracle(n)
    by_id = {t.tasklet_id: t for t in store}
    for op, k in ops:
        assigned = sorted(i for i, s in oracle.state.items()
                          if s == TaskletState.ASSIGNED)[:k]
        if op == "claim":
            got = [t.tasklet_id for t in store.claim(k)]
            assert got == oracle.claim(k)
        elif op == "fail":
            got = store.mark_failed_attempt([by_id[i] for i in assigned], 3)
            assert [t.tasklet_id for t in got] == oracle.mark_failed_attempt(assigned, 3)
        elif op == "done":
            store.mark_done([by_id[i] for i in assigned])
            oracle.mark_done(assigned)
        elif op == "settle":
            ids = {i for i in oracle.state if i % (k + 1) == 0}
            got = store.settle_done(ids)
            assert [t.tasklet_id for t in got] == oracle.settle_done(ids)
        else:
            ids = {i for i in oracle.state if i % (k + 2) == 1}
            got = store.reopen(ids)
            assert [t.tasklet_id for t in got] == oracle.reopen(ids)
        assert store.pending_count == len(oracle.pending)
        assert {t.tasklet_id: t.state for t in store} == oracle.state
    # A warm restart rebuilds the queue from DB rows (ASSIGNED re-pends).
    rows = [(t.tasklet_id, t.lfn, t.n_events, t.input_bytes, t.state, t.attempts)
            for t in store]
    restored = TaskletStore.restore("wf", rows)
    expected = [i for i, s in sorted(oracle.state.items())
                if s in (TaskletState.PENDING, TaskletState.ASSIGNED)]
    assert [t.tasklet_id for t in restored.claim(n)] == expected
    assert [t.tasklet_id for t in store.claim(n)] == oracle.claim(n)
    assert store.pending_count == 0


@given(
    n=st.integers(min_value=1, max_value=30),
    max_retries=st.integers(min_value=1, max_value=5),
)
@settings(max_examples=30, deadline=None)
def test_retry_exhaustion_terminates(n, max_retries):
    """Failing everything forever always reaches a complete store."""
    store = TaskletStore.from_event_count("wf", n * 10, 10)
    for _ in range(max_retries + 1):
        claimed = store.claim(store.total)
        if not claimed:
            break
        store.mark_failed_attempt(claimed, max_retries)
    assert store.complete
    assert store.failed_count == store.total


# ------------------------------------------------------------ time series
monotone_samples = st.lists(
    st.tuples(
        st.floats(min_value=0, max_value=1e4),
        st.floats(min_value=-1e6, max_value=1e6),
    ),
    min_size=1,
    max_size=50,
).map(lambda pts: sorted(pts, key=lambda p: p[0]))


@given(samples=monotone_samples, bin_width=st.floats(min_value=1.0, max_value=1e4))
@settings(max_examples=50, deadline=None)
def test_binned_mean_bounded_by_extremes(samples, bin_width):
    ts = TimeSeries(samples=samples)
    starts, vals = ts.binned(bin_width, agg="mean")
    lo = min(0.0, min(v for _, v in samples))
    hi = max(0.0, max(v for _, v in samples))
    assert np.all(vals >= lo - 1e-6)
    assert np.all(vals <= hi + 1e-6)


@given(samples=monotone_samples, t=st.floats(min_value=-10, max_value=2e4))
def test_at_returns_last_sample_before(samples, t):
    ts = TimeSeries(samples=samples)
    value = ts.at(t)
    earlier = [v for when, v in samples if when <= t]
    assert value == (earlier[-1] if earlier else 0.0)


# ------------------------------------------------------------ task-size model
@given(
    n_tasklets=st.integers(min_value=10, max_value=500),
    n_workers=st.integers(min_value=1, max_value=50),
    task_hours=st.floats(min_value=0.1, max_value=12.0),
    probability=st.floats(min_value=0.01, max_value=0.9),
)
@settings(max_examples=20, deadline=None)
def test_efficiency_is_always_a_ratio(n_tasklets, n_workers, task_hours, probability):
    sim = TaskSizeSimulator(
        TaskSizeConfig(n_tasklets=n_tasklets, n_workers=n_workers, max_retries=50),
        seed=0,
    )
    for model in (NoEviction(), ConstantHazardEviction(probability)):
        r = sim.simulate(task_hours * 3600.0, model)
        assert 0.0 <= r.efficiency <= 1.0
        assert r.effective_time <= r.total_time
        assert r.tasks_completed >= 0
