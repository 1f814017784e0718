"""Differential test: the route-class fabric against the per-flow
reference fabric it replaced (``tests/_reference_fabric.py``).

Both fabrics compute the same max-min allocation; they only sum floats
in a different order.  So every integer outcome, every task record and
the order of flow completions must be identical, and every time and
byte count must agree within a relative 1e-9.
"""

import dataclasses

import pytest

from repro.analysis.profiles import profile
from repro.desim import Environment, Topics
from repro.net import Fabric, LinkDown, TrafficClass, TransferCancelled
from repro.scenarios import (
    execute_prepared,
    prepare_chaos,
    prepare_process,
    prepare_quickstart,
    warm_restart,
)
from repro.testing import reset_id_counters

from tests import _reference_fabric as reference

RTOL = 1e-9


def assert_matches(got, want, path="outcome"):
    """Exact on everything but floats, which agree within ``RTOL``."""
    if isinstance(want, float) or isinstance(got, float):
        assert got == pytest.approx(want, rel=RTOL, abs=1e-9), path
    elif dataclasses.is_dataclass(want):
        assert type(got) is type(want), path
        for field in dataclasses.fields(want):
            name = field.name
            assert_matches(getattr(got, name), getattr(want, name), f"{path}.{name}")
    elif isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_matches(got[key], want[key], f"{path}[{key!r}]")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{path}[{i}]")
    else:
        assert got == want, path


def observe(prepared, flows):
    """Record every completed flow, in completion order, off the bus."""

    def on_flow(rec):
        for f in rec["flows"]:
            flows.append((rec["t"], f["cls"], f["nbytes"], f["started"], f["src"], f["dst"]))

    prepared.env.bus.subscribe(Topics.NET_FLOW, on_flow, raw=True)


def outcome(results, flows):
    fabric = results[-1].services.fabric
    return {
        "summaries": [r.run.summary() for r in results],
        "tasks": [list(r.run.metrics.records) for r in results],
        "flow_records": [list(r.run.metrics.flows) for r in results],
        "flows": flows,
        "link_bytes": {
            name: [link.bytes_by_class.get(cls, 0.0) for cls in TrafficClass.ALL]
            for name, link in fabric.links.items()
        },
        "counts": (fabric.flows_started, fabric.flows_completed, fabric.flows_failed),
        "fabric": type(fabric),
    }


def run_quickstart():
    flows = []
    prepared = prepare_quickstart(events=40_000, workers=8, seed=3, env=Environment())
    observe(prepared, flows)
    execute_prepared(prepared, settle=60.0)
    return outcome([prepared], flows)


def run_process():
    flows = []
    prepared = prepare_process(
        profile("ntuple"), files=80, machines=20, cores=8, wan_gbit=0.3, seed=1,
        env=Environment(),
    )
    observe(prepared, flows)
    execute_prepared(prepared, settle=60.0)
    return outcome([prepared], flows)


def run_chaos_with_crash():
    flows = []
    prepared = prepare_chaos(
        files=24, machines=8, cores=2, seed=1, master_crash_at=1500.0, env=Environment()
    )
    observe(prepared, flows)
    execute_prepared(prepared, settle=60.0)
    assert prepared.run.crashed
    resumed = warm_restart(prepared)
    execute_prepared(resumed, settle=300.0)
    return outcome([prepared, resumed], flows)


def run_corruption():
    flows = []
    prepared = prepare_chaos(
        files=24, machines=8, cores=2, seed=2, truncate=2, bit_rot=2, duplicates=2,
        env=Environment(),
    )
    observe(prepared, flows)
    execute_prepared(prepared, settle=60.0)
    return outcome([prepared], flows)


@pytest.mark.parametrize(
    "scenario", [run_quickstart, run_process, run_chaos_with_crash, run_corruption]
)
def test_campaign_matches_reference_fabric(scenario, monkeypatch):
    reset_id_counters()
    got = scenario()
    with monkeypatch.context() as patch:
        reference.install(patch)
        reset_id_counters()
        want = scenario()
    assert (got.pop("fabric"), want.pop("fabric")) == (Fabric, reference.Fabric)
    assert want["flows"], "the scenario moved no bytes over the fabric"
    assert_matches(got, want)


def mid_transfer_faults(fabric_cls):
    """Cancel one flow and fail a shared link while bytes are moving;
    return the bytes each flow moved, how and in which order the flows
    ended, and the bytes each link carried."""
    env = Environment()
    fabric = fabric_cls(env)
    fabric.attach("wan", 300.0, node="world")
    fabric.attach("trunk", 500.0, node="rack")
    for i in range(4):
        fabric.attach(f"nic{i}", 120.0 + 10 * i, node=f"m{i}", parent="rack")
    disk = fabric.attach("disk", 70.0)
    flows = [
        fabric.transfer(5_000.0 + 700 * i, src=f"m{i % 4}", dst="world",
                        cls=TrafficClass.XROOTD, max_rate=90.0 if i % 3 == 0 else None)
        for i in range(8)
    ]
    flows += [disk.transfer(900.0 + 50 * i) for i in range(3)]
    # Within tolerance of finishing together, the later start first.
    tape = fabric.attach("tape", 40.0)
    flows += [tape.transfer(1000.0 + 1e-7), tape.transfer(1000.0)]
    ended = {}

    def watch(i, flow):
        try:
            yield flow
            ended[i] = ("done", env.now)
        except LinkDown:
            ended[i] = ("link-down", env.now)
        except TransferCancelled:
            ended[i] = ("cancelled", env.now)

    def faults():
        yield env.timeout(7.5)
        flows[2].cancel()
        yield env.timeout(4.25)
        fabric.links["nic1"].fail_flows("nic1 down")
        yield env.timeout(1.0)
        fabric.links["wan"].set_capacity(150.0)

    for i, flow in enumerate(flows):
        env.process(watch(i, flow))
    env.process(faults())
    env.run()
    moved = [flow.nbytes - flow.remaining for flow in flows]
    link_bytes = {name: link.bytes_moved for name, link in fabric.links.items()}
    return moved, [ended[i] for i in range(len(flows))], list(ended), link_bytes


def test_cancel_and_link_failure_move_the_same_bytes():
    got = mid_transfer_faults(Fabric)
    want = mid_transfer_faults(reference.Fabric)
    assert_matches(got, want)
    kinds = [kind for kind, _t in want[1]]
    assert kinds.count("cancelled") == 1 and kinds.count("link-down") >= 1
    assert "done" in kinds
