"""Max-min fair bandwidth sharing on a single fabric link.

A standalone :class:`~repro.net.Link` is the simulator's plain
fair-share link (disks, point resources, private flat fabrics); these
closed-form cases pin its single-link dynamics and the one-link case of
the :func:`~repro.net.waterfill` allocator.
"""

import pytest

from repro.desim import Environment
from repro.net import Fabric, TransferCancelled, waterfill


def allocate(demands, capacity):
    """Max-min rates for *demands* (``None`` = uncapped) on one link."""
    return waterfill({"l": capacity}, [("l",)] * len(demands), demands)


def flat_link(env, capacity):
    return Fabric(env).attach("l", capacity)


# ------------------------------------------------------------ allocation
def test_allocate_equal_split_uncapped():
    assert allocate([None, None], 100.0) == [50.0, 50.0]


def test_allocate_empty():
    assert allocate([], 100.0) == []


def test_allocate_capped_flow_releases_spare():
    rates = allocate([10.0, None], 100.0)
    assert rates == [10.0, 90.0]


def test_allocate_all_capped_below_capacity():
    rates = allocate([10.0, 20.0], 100.0)
    assert rates == [10.0, 20.0]


def test_allocate_three_way_waterfill():
    # cap 30 flow limited; other two split remaining 90 equally.
    rates = allocate([30.0, None, None], 120.0)
    assert rates == [30.0, 45.0, 45.0]


def test_allocate_never_exceeds_capacity():
    rates = allocate([None] * 7, 100.0)
    assert sum(rates) == pytest.approx(100.0)


# ------------------------------------------------------------ link behaviour
def test_single_transfer_duration():
    env = Environment()
    link = flat_link(env, 100.0)
    done = []

    def proc(env):
        yield link.transfer(1000.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [pytest.approx(10.0)]


def test_zero_byte_transfer_completes_immediately():
    env = Environment()
    link = flat_link(env, 100.0)
    done = []

    def proc(env):
        yield link.transfer(0.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [0.0]


def test_two_transfers_share_bandwidth():
    env = Environment()
    link = flat_link(env, 100.0)
    done = {}

    def proc(env, tag, nbytes):
        yield link.transfer(nbytes)
        done[tag] = env.now

    env.process(proc(env, "a", 1000.0))
    env.process(proc(env, "b", 1000.0))
    env.run()
    # Both share 100 B/s: each gets 50 B/s → both finish at t=20.
    assert done["a"] == pytest.approx(20.0)
    assert done["b"] == pytest.approx(20.0)


def test_late_joiner_slows_existing_flow():
    env = Environment()
    link = flat_link(env, 100.0)
    done = {}

    def early(env):
        yield link.transfer(1000.0)
        done["early"] = env.now

    def late(env):
        yield env.timeout(5)
        yield link.transfer(250.0)
        done["late"] = env.now

    env.process(early(env))
    env.process(late(env))
    env.run()
    # Early: 500 B in first 5 s at 100 B/s, then 50 B/s shared.
    # Late: 250 B at 50 B/s = 5s → finishes at t=10; early's remaining
    # 500-250=250 B... careful: from t=5..10 early moves 250 B (50 B/s),
    # leaving 250 B at full 100 B/s → 2.5 s → t=12.5.
    assert done["late"] == pytest.approx(10.0)
    assert done["early"] == pytest.approx(12.5)


def test_max_rate_caps_flow():
    env = Environment()
    link = flat_link(env, 1000.0)
    done = []

    def proc(env):
        yield link.transfer(100.0, max_rate=10.0)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [pytest.approx(10.0)]


def test_cancel_mid_transfer():
    env = Environment()
    link = flat_link(env, 100.0)
    outcome = []

    def proc(env):
        t = link.transfer(1000.0)

        def axe(env, t):
            yield env.timeout(3)
            t.cancel()

        env.process(axe(env, t))
        try:
            yield t
        except TransferCancelled:
            outcome.append(("cancelled", env.now))

    env.process(proc(env))
    env.run()
    assert outcome == [("cancelled", 3.0)]
    assert link.active_flows == 0


def test_cancel_frees_bandwidth_for_others():
    env = Environment()
    link = flat_link(env, 100.0)
    done = {}
    flows = {}

    def victim(env):
        flows["victim"] = link.transfer(10000.0)
        try:
            yield flows["victim"]
        except TransferCancelled:
            done["victim"] = env.now

    def killer(env, victim_proc):
        yield env.timeout(10)
        flows["victim"].cancel()

    def survivor(env):
        yield link.transfer(1000.0)
        done["survivor"] = env.now

    vp = env.process(victim(env))
    env.process(killer(env, vp))
    env.process(survivor(env))
    env.run()
    # Survivor: 10 s at 50 B/s = 500 B, then 500 B at 100 B/s = 5 s → 15.
    assert done["survivor"] == pytest.approx(15.0)


def test_outage_stalls_transfers():
    env = Environment()
    link = flat_link(env, 100.0)
    done = []

    def proc(env):
        yield link.transfer(1000.0)
        done.append(env.now)

    def outage(env):
        yield env.timeout(5)
        link.set_capacity(0.0)
        yield env.timeout(20)
        link.set_capacity(100.0)

    env.process(proc(env))
    env.process(outage(env))
    env.run()
    # 500 B before outage, 20 s stall, 5 s more → t=30.
    assert done == [pytest.approx(30.0)]


def test_bytes_moved_accounting():
    env = Environment()
    link = flat_link(env, 100.0)

    def proc(env):
        yield link.transfer(500.0)
        yield link.transfer(250.0)

    env.process(proc(env))
    env.run()
    assert link.bytes_moved == pytest.approx(750.0)


def test_many_concurrent_flows_complete():
    env = Environment()
    link = flat_link(env, 1000.0)
    done = []

    def proc(env, nbytes):
        yield link.transfer(nbytes)
        done.append(env.now)

    for i in range(50):
        env.process(proc(env, 100.0 * (i + 1)))
    env.run()
    assert len(done) == 50
    # Largest flow transfers 5000 B; total = 127500 B at 1000 B/s
    # aggregate → last completion is total/capacity.
    assert max(done) == pytest.approx(127.5)


def test_negative_bytes_rejected():
    env = Environment()
    link = flat_link(env, 100.0)
    with pytest.raises(ValueError):
        link.transfer(-1.0)
    with pytest.raises(ValueError):
        link.set_capacity(-5.0)
