"""Tests for the shared network fabric (repro.net)."""

import pytest

from repro.core import Services
from repro.desim import Environment, Topics
from repro.monitor import RunMetrics, tap
from repro.net import (
    Fabric,
    LinkDown,
    TopologySpec,
    TrafficClass,
    TransferCancelled,
    rack_for,
    waterfill,
)
from repro.storage.wan import OutageWindow, WideAreaNetwork
from repro.wq.transfer import ship


def drive(env, gen):
    """Run a generator as a process and capture its result or error."""
    out = {}

    def wrapper(env):
        try:
            out["value"] = yield from gen
        except BaseException as exc:  # noqa: BLE001 - recorded for asserts
            out["error"] = exc
        return None

    env.process(wrapper(env))
    return out


# ---------------------------------------------------------------- allocator
def test_waterfill_single_link_equal_share():
    rates = waterfill({"l": 100.0}, [("l",), ("l",)], [None, None])
    assert rates == pytest.approx([50.0, 50.0])


def test_waterfill_respects_caps():
    rates = waterfill({"l": 100.0}, [("l",), ("l",)], [20.0, None])
    assert rates == pytest.approx([20.0, 80.0])


def test_waterfill_multilink_bottleneck():
    # Two flows share a 12-unit trunk; each also crosses its own roomy NIC.
    caps = {"nic1": 10.0, "nic2": 10.0, "trunk": 12.0}
    rates = waterfill(
        caps, [("nic1", "trunk"), ("nic2", "trunk")], [None, None]
    )
    assert rates == pytest.approx([6.0, 6.0])


def test_waterfill_asymmetric_bottlenecks():
    # Flow 1 is pinned by its 2-unit NIC; flow 2 soaks up the slack.
    caps = {"nic1": 2.0, "nic2": 100.0, "trunk": 10.0}
    rates = waterfill(
        caps, [("nic1", "trunk"), ("nic2", "trunk")], [None, None]
    )
    assert rates == pytest.approx([2.0, 8.0])


# ---------------------------------------------------------------- single link
def test_single_link_matches_fair_share_link():
    """A one-link fabric gives the closed-form fair-share split: two
    100 B flows on a 100 B/s link each run at 50 B/s and land at t=2."""
    env = Environment()
    fabric = Fabric(env)
    link = fabric.attach("l", 100.0)

    times = {}

    def timed(env, key, transfer):
        yield transfer
        times[key] = env.now

    env.process(timed(env, "a", link.transfer(100.0)))
    env.process(timed(env, "b", link.transfer(100.0)))
    env.run()
    assert times["a"] == pytest.approx(2.0)
    assert times["b"] == pytest.approx(2.0)
    assert link.bytes_moved == pytest.approx(200.0)


def test_late_joiner_reshapes_rates():
    """A flow joining mid-transfer halves the first flow's rate."""
    env = Environment()
    fabric = Fabric(env)
    link = fabric.attach("l", 100.0)
    times = {}

    def first(env):
        yield link.transfer(100.0)
        times["a"] = env.now

    def second(env):
        yield env.timeout(0.5)
        yield link.transfer(100.0)
        times["b"] = env.now

    env.process(first(env))
    env.process(second(env))
    env.run()
    # A: 50 B alone, then 50 B at half rate -> 0.5 + 1.0 = 1.5.
    # B: 50 B at half rate, then 50 B alone -> 1.5 + 0.5 = 2.0.
    assert times["a"] == pytest.approx(1.5)
    assert times["b"] == pytest.approx(2.0)


# ---------------------------------------------------------------- routing
def test_route_walks_the_tree():
    env = Environment()
    fabric = Fabric(env)
    trunk = fabric.attach("trunk", 100.0, node="rack0")
    nic = fabric.attach("nic", 10.0, node="m0", parent="rack0")
    wan = fabric.attach("wan", 5.0, node="world")
    names = [l.name for l in fabric.route("m0", "world")]
    assert names == ["nic", "trunk", "wan"]
    # Same-rack path does not touch the core.
    fabric.attach("nic2", 10.0, node="m1", parent="rack0")
    names = [l.name for l in fabric.route("m0", "m1")]
    assert names == ["nic", "nic2"]
    assert fabric.route("m0", "m0") == ()
    assert trunk is fabric.uplink("rack0")
    assert wan is fabric.uplink("world")
    assert nic is fabric.uplink("m0")


def test_multihop_flow_runs_at_bottleneck_rate():
    env = Environment()
    fabric = Fabric(env)
    fabric.attach("trunk", 100.0, node="rack0")
    fabric.attach("nic", 10.0, node="m0", parent="rack0")
    fabric.attach("wan", 5.0, node="world")
    flow = fabric.transfer(50.0, src="m0", dst="world")
    done = drive(env, iter_flow(flow))
    env.run()
    assert env.now == pytest.approx(10.0)  # 50 B at the 5 B/s WAN rate
    assert "error" not in done
    # Every hop carried the bytes.
    for name in ("nic", "trunk", "wan"):
        assert fabric.links[name].bytes_moved == pytest.approx(50.0)


def iter_flow(flow):
    yield flow
    return flow


def test_shared_trunk_gives_max_min_rates():
    env = Environment()
    fabric = Fabric(env)
    fabric.attach("trunk", 12.0, node="rack0")
    fabric.attach("nic1", 2.0, node="m1", parent="rack0")
    fabric.attach("nic2", 100.0, node="m2", parent="rack0")
    f1 = fabric.transfer(20.0, src="m1", dst=fabric.root)
    f2 = fabric.transfer(80.0, src="m2", dst=fabric.root)
    env.run()
    # f1 pinned at 2 by its NIC, f2 gets the trunk's remaining 8.
    assert f1.ok and f2.ok
    assert fabric.links["nic1"].bytes_moved == pytest.approx(20.0)
    assert fabric.links["nic2"].bytes_moved == pytest.approx(80.0)
    assert fabric.links["trunk"].bytes_moved == pytest.approx(100.0)


# ---------------------------------------------------------------- accounting
def test_per_class_byte_accounting():
    env = Environment()
    fabric = Fabric(env)
    link = fabric.attach("l", 100.0)
    link.transfer(60.0, cls=TrafficClass.XROOTD)
    link.transfer(40.0, cls=TrafficClass.OUTPUT)
    env.run()
    assert link.bytes_by_class[TrafficClass.XROOTD] == pytest.approx(60.0)
    assert link.bytes_by_class[TrafficClass.OUTPUT] == pytest.approx(40.0)
    assert link.bytes_moved == pytest.approx(100.0)


def test_net_flow_events_feed_bus_collector():
    env = Environment()
    m = RunMetrics()
    tap(env.bus, [m])
    fabric = Fabric(env)
    link = fabric.attach("l", 100.0)
    link.transfer(60.0, cls=TrafficClass.XROOTD)
    link.transfer(40.0, cls=TrafficClass.OUTPUT)
    env.run()
    assert len(m.flows) == 2
    totals = m.flow_bytes_by_class()
    assert totals[TrafficClass.XROOTD] == pytest.approx(60.0)
    assert totals[TrafficClass.OUTPUT] == pytest.approx(40.0)
    starts, series = m.bandwidth_timeline(0.5)
    # 100 B/s aggregate over the first second, split by class.
    assert len(starts) >= 2
    assert series[TrafficClass.XROOTD][0] > 0
    total_bytes = sum(arr.sum() * 0.5 for arr in series.values())
    assert total_bytes == pytest.approx(100.0, rel=0.01)


# ---------------------------------------------------------------- outages
def test_outage_fails_every_class_crossing_the_link():
    env = Environment()
    fabric = Fabric(env)
    wan = fabric.attach("wan", 10.0, node="world")
    fabric.attach("nic", 100.0, node="m0")
    wan.schedule_outages([OutageWindow(10.0, 1000.0)], fail_after=30.0)

    errors = {}

    def xfer(env, key, cls, src):
        flow = fabric.transfer(1e6, src=src, dst="world", cls=cls)
        try:
            yield flow
        except LinkDown as exc:
            errors[key] = (env.now, exc)

    env.process(xfer(env, "a", TrafficClass.XROOTD, "m0"))
    env.process(xfer(env, "b", TrafficClass.OUTPUT, "m0"))
    # A flow that avoids the WAN survives.
    survivor = fabric.transfer(500.0, src="m0", dst=fabric.root)
    fails = []
    env.bus.subscribe(Topics.NET_FLOW_FAIL, lambda ev: fails.append(ev))
    env.run(until=2000.0)

    assert set(errors) == {"a", "b"}
    for t, _exc in errors.values():
        assert t == pytest.approx(40.0)  # outage start + fail_after
    assert survivor.ok
    assert {ev.fields["cls"] for ev in fails} == {
        TrafficClass.XROOTD,
        TrafficClass.OUTPUT,
    }
    assert fabric.flows_failed == 2


def test_flow_joining_dead_link_is_killed_after_grace():
    env = Environment()
    fabric = Fabric(env)
    wan = fabric.attach("wan", 10.0, node="world")
    wan.schedule_outages([OutageWindow(0.0, 500.0)], fail_after=30.0)
    errors = {}

    def late(env):
        yield env.timeout(100.0)  # the link's own kill sweep has passed
        try:
            yield fabric.transfer(1e6, src=fabric.root, dst="world")
        except LinkDown:
            errors["t"] = env.now

    env.process(late(env))
    env.run(until=1000.0)
    assert errors["t"] == pytest.approx(130.0)


def test_capacity_restored_after_outage():
    env = Environment()
    fabric = Fabric(env)
    wan = fabric.attach("wan", 10.0, node="world")
    wan.schedule_outages([OutageWindow(5.0, 15.0)], fail_after=None)
    done = {}

    def after(env):
        yield env.timeout(20.0)
        yield wan.transfer(100.0)
        done["t"] = env.now

    env.process(after(env))
    env.run(until=100.0)
    assert not wan.is_down
    assert wan.capacity == pytest.approx(10.0)
    assert done["t"] == pytest.approx(30.0)


# ------------------------------------------------- satellite regression fixes
def test_utilization_is_mean_over_link_lifetime():
    """Utilization is bytes moved over capacity × time since creation."""
    env = Environment()
    fabric = Fabric(env)
    link = fabric.attach("l", 100.0)
    link.transfer(100.0)
    env.run(until=2.0)
    # 100 B in 2 s on a 100 B/s link.
    assert link.utilization() == pytest.approx(0.5)
    env.run(until=4.0)
    # Nothing moved since: the same 100 B now spread over 4 s.
    assert link.utilization() == pytest.approx(0.25)


def test_newcomer_rate_honours_existing_caps():
    """A capped flow leaves its spare capacity to a newcomer (90 B/s,
    not a naive 50), and the newcomer's own cap binds when tighter."""
    env = Environment()
    fabric = Fabric(env)
    link = fabric.attach("l", 100.0)
    link.transfer(1e9, max_rate=10.0)
    times = []

    def newcomers(env):
        yield env.timeout(1.0)
        yield link.transfer(90.0)
        times.append(env.now)
        yield link.transfer(90.0, max_rate=9.0)
        times.append(env.now)

    env.process(newcomers(env))
    env.run(until=20.0)
    assert times == [pytest.approx(2.0), pytest.approx(12.0)]


def test_zero_byte_wan_transfer_publishes_nothing():
    """Satellite: empty transfers emit no phantom LINK_TRANSFER event."""
    env = Environment()
    wan = WideAreaNetwork(env, bandwidth=10.0)
    seen = []
    env.bus.subscribe(Topics.LINK_TRANSFER, lambda ev: seen.append(ev))
    done = drive(env, iter_flow(wan.transfer(0.0)))
    env.run()
    assert "error" not in done
    assert env.now == 0.0
    assert seen == []
    assert wan.bytes_moved == 0.0


# ---------------------------------------------------------------- ship()
def test_ship_uses_one_end_to_end_flow_on_shared_fabric():
    env = Environment()
    fabric = Fabric(env)
    fabric.attach("trunk0", 1000.0, node="rack0")
    fabric.attach("trunk1", 1000.0, node="rack1")
    a = fabric.attach("a.nic", 10.0, node="a", parent="rack0")
    b = fabric.attach("b.nic", 40.0, node="b", parent="rack1")
    done = drive(env, ship(a, b, 100.0))
    env.run()
    assert "error" not in done
    assert env.now == pytest.approx(10.0)  # a.nic is the bottleneck
    for name in ("a.nic", "trunk0", "trunk1", "b.nic"):
        assert fabric.links[name].bytes_moved == pytest.approx(100.0)


def test_ship_legacy_pair_of_flat_links():
    """Two NICs on different fabrics: the hop occupies both links
    concurrently and takes as long as the slower one."""
    env = Environment()
    a = Fabric(env).attach("a.nic", 10.0, node="a")
    b = Fabric(env).attach("b.nic", 40.0, node="b")
    done = drive(env, ship(a, b, 100.0))
    env.run()
    assert "error" not in done
    assert env.now == pytest.approx(10.0)
    assert a.bytes_by_class[TrafficClass.STAGING] == pytest.approx(100.0)
    assert b.bytes_by_class[TrafficClass.STAGING] == pytest.approx(100.0)


def test_link_transfer_tags_traffic_class():
    env = Environment()
    link = Fabric(env).attach("l", 100.0)
    link.transfer(50.0, cls=TrafficClass.STAGING)
    link.transfer(30.0)
    env.run()
    assert env.now == pytest.approx(0.8)
    assert link.bytes_by_class == pytest.approx(
        {TrafficClass.STAGING: 50.0, TrafficClass.DEFAULT: 30.0}
    )


# ---------------------------------------------------------------- services
def test_services_default_shares_one_fabric():
    env = Environment()
    services = Services.default(env)
    fabric = services.fabric
    assert fabric is not None
    assert services.wan.fabric is fabric
    assert services.chirp.fabric is fabric
    assert services.frontier.fabric is fabric
    for proxy in services.proxies.proxies:
        assert proxy.fabric is fabric
    # The frontier origin sits beyond the WAN uplink.
    route = [l.name for l in fabric.route(fabric.root, "frontier-origin")]
    assert route == ["wan", "frontier-origin"]
    # The SE spindles sit behind the Chirp NIC.
    chirp = services.chirp
    route = [l.name for l in fabric.route(fabric.root, chirp.store_node)]
    assert route[-1].endswith(".spindles")


def test_topology_spec_validation():
    spec = TopologySpec()
    assert spec.machines_per_switch > 0
    with pytest.raises(ValueError):
        TopologySpec(machines_per_switch=0)
    with pytest.raises(ValueError):
        TopologySpec(wan_bandwidth=-1.0)


def test_rack_for_groups_machines_under_switches():
    env = Environment()
    fabric = Fabric(env)
    r0 = rack_for(fabric, 0, machines_per_switch=2)
    r0b = rack_for(fabric, 1, machines_per_switch=2)
    r1 = rack_for(fabric, 2, machines_per_switch=2)
    assert r0 == r0b == "rack000"
    assert r1 == "rack001"
    assert fabric.uplink("rack000").name == "rack000.trunk"


def test_describe_and_utilization_table():
    env = Environment()
    fabric = Fabric(env)
    fabric.attach("trunk", 100.0, node="rack0")
    fabric.attach("nic", 10.0, node="m0", parent="rack0")
    fabric.attach("disk", 5.0)  # standalone
    text = fabric.describe()
    assert "campus-core" in text
    assert "rack0" in text and "m0" in text
    assert "standalone links:" in text and "disk" in text
    names = [name for name, _, _ in fabric.utilization_table()]
    assert names == ["trunk", "nic", "disk"]


def test_campus_uplink_saturation_slows_every_class():
    """Many streams crossing the uplink squeeze a stage-out flow too."""
    env = Environment()
    fabric = Fabric(env)
    wan = fabric.attach("wan", 100.0, node="world")
    fabric.attach("trunk", 10_000.0, node="rack0")
    for i in range(10):
        fabric.attach(f"m{i}.nic", 50.0, node=f"m{i}", parent="rack0")
    # 10 streaming flows + 1 output flow share the 100 B/s uplink.
    for i in range(10):
        fabric.transfer(1e9, src=f"m{i}", dst="world", cls=TrafficClass.XROOTD)
    out = fabric.transfer(90.0, src="m0", dst="world", cls=TrafficClass.OUTPUT)
    env.run(until=10.0)
    # Fair share is 100/11 ≈ 9.09 B/s: the output flow took ~9.9 s for
    # 90 B instead of ~1.8 s at its NIC rate.
    assert out.ok
    assert wan.bytes_by_class[TrafficClass.OUTPUT] == pytest.approx(90.0)
    assert wan.utilization() == pytest.approx(1.0, abs=0.01)


# ---------------------------------------------------------------- edge cases
def test_cancel_is_idempotent_and_safe_after_completion():
    env = Environment()
    fabric = Fabric(env)
    link = fabric.attach("l", 100.0)
    flow = link.transfer(50.0)
    env.run()
    assert flow.ok
    flow.cancel()  # no-op after completion
    assert flow.ok

    flow2 = link.transfer(50.0)
    flow2.cancel()
    flow2.cancel()
    env.run()
    assert not flow2.ok
    assert isinstance(flow2.value, TransferCancelled)


def test_duplicate_names_rejected():
    env = Environment()
    fabric = Fabric(env)
    fabric.attach("l", 10.0, node="n")
    with pytest.raises(ValueError):
        fabric.attach("l", 10.0)
    with pytest.raises(ValueError):
        fabric.attach("l2", 10.0, node="n")
    with pytest.raises(ValueError):
        fabric.attach("l3", 10.0, node="n2", parent="missing")
    with pytest.raises(ValueError):
        fabric.transfer(10.0)  # neither route nor endpoints


def test_stats_count_route_classes_not_flows():
    env = Environment()
    fabric = Fabric(env)
    fabric.attach("wan", 100.0, node="world")
    for i in range(3):
        fabric.attach(f"nic{i}", 50.0, node=f"m{i}")
    for i in range(3):
        for size in (10.0, 20.0, 30.0, 40.0):
            fabric.transfer(size, src=f"m{i}", dst="world")
    env.run()
    stats = fabric.stats()
    assert stats["peak_flows"] == 12
    assert stats["peak_classes"] == 3
    assert stats["component_classes_max"] == 3
    assert stats["component_links_max"] == 4
    # One join flush, then one flush per distinct finish time.
    assert stats["flushes"] == 5
    assert stats["waterfills"] == 4
    assert stats["waterfill_rounds"] >= stats["waterfills"]
    assert all(isinstance(v, int) for v in stats.values())


def test_stats_repeat_and_leave_the_recording_unchanged(tmp_path):
    """Same seed, same ``stats()``; reading them throughout a run changes
    no byte of its event recording."""
    from repro.monitor import JsonlSink
    from repro.scenarios import execute_prepared, prepare_quickstart
    from repro.testing import reset_id_counters

    def run(path, poll):
        reset_id_counters()
        env = Environment()
        sink = JsonlSink(str(path))
        env.bus.attach(sink)
        prepared = prepare_quickstart(events=20_000, workers=6, seed=2, env=env)
        fabric = prepared.services.fabric
        seen = []
        if poll:
            env.bus.subscribe(Topics.NET_FLOW, lambda rec: seen.append(fabric.stats()), raw=True)
        execute_prepared(prepared, settle=60.0)
        sink.close()
        return fabric.stats(), seen

    stats_a, seen = run(tmp_path / "a.jsonl", poll=True)
    stats_b, _ = run(tmp_path / "b.jsonl", poll=False)
    assert stats_a == stats_b
    assert stats_a["flushes"] > 0 and stats_a["waterfills"] > 0
    assert seen and [s["flushes"] for s in seen] == sorted(s["flushes"] for s in seen)
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()
