"""Tests of the campaign benchmark itself, on tiny campaigns.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import os

import pytest

import layers
import speed
import run
import workloads as W

NAMES = sorted(W.WORKLOADS)


def tiny_only(monkeypatch, name):
    """Make every in-process campaign of *name* tiny (set-up probes in
    fresh interpreters still build the declared full size)."""
    wl = W.WORKLOADS[name]
    monkeypatch.setitem(
        W.WORKLOADS, name, dataclasses.replace(wl, quarter=wl.tiny, full=wl.tiny)
    )
    monkeypatch.setattr(run, "SETUP_PROBES", 1)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_prints_with_name_and_unit(monkeypatch, capsys, tmp_path, name, trace):
    tiny_only(monkeypatch, name)
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0",
                     "--trace", trace]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = run.metric_units()[trace]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
    assert lines[-2].startswith(f"sim_digest workload={name} seed=3 ")
    if trace == "1":
        spans = (tmp_path / f"{name}-seed3.spans.jsonl").read_text().splitlines()
        assert spans and {"id", "parent", "name", "start", "end"} == set(json.loads(spans[0]))


@pytest.mark.parametrize("name", NAMES)
def test_gate_fails_a_campaign_that_leaves_a_tasklet_undone(name):
    wl = W.WORKLOADS[name]
    campaign = W.build(wl, 1, wl.tiny)
    campaign.env.run(until=600.0)  # stop long before the campaign ends
    campaign.segments.append(campaign.prepared)
    problems = W.gate(campaign)
    assert any("tasklets undone" in p for p in problems), problems


def test_gate_fails_a_campaign_that_never_ran():
    wl = W.WORKLOADS["mc-burst"]
    assert W.gate(W.build(wl, 1, wl.tiny)) == ["campaign never ran"]


@pytest.mark.parametrize("name", NAMES)
def test_sim_digest_identical_across_two_runs(name):
    wl = W.WORKLOADS[name]
    first = W.run_campaign(wl, 5, wl.tiny)
    second = W.run_campaign(wl, 5, wl.tiny)
    assert first.problems == [] and second.problems == []
    assert len(first.digest) == 16
    assert first.digest == second.digest
    assert W.run_campaign(wl, 6, wl.tiny).digest != first.digest


def test_ledger_fails_a_digest_that_differs_from_its_siblings():
    ok = W.Outcome(1.0, [], "aaaa", None)
    ledger = run.Ledger()
    ledger.check("full", ok)
    ledger.check("full", dataclasses.replace(ok, digest="bbbb"))
    ledger.check("full", dataclasses.replace(ok, problems=["x: 1 of 2 tasklets undone"]))
    assert (ledger.attempted, ledger.failed) == (3, 2)


@pytest.mark.parametrize("name", NAMES)
def test_layer_shares_sum_to_one(name):
    wl = W.WORKLOADS[name]
    outcome, metrics = layers.profiled_run(
        lambda instrument: W.run_campaign(wl, 2, wl.tiny, instrument)
    )
    assert outcome.problems == []
    names = layers.LAYERS + (layers.OTHER,)
    shares = [metrics[f"{layer}.share"] for layer in names]
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
    assert all(s >= 0 for s in shares)
    assert metrics["desim.self_s"] > 0 and metrics["net.self_s"] > 0


def test_builtin_self_time_is_charged_to_the_calling_layer():
    net = (os.path.join(layers._REPRO_DIR, "net", "fabric.py"), 10, "_flush")
    wq = (os.path.join(layers._REPRO_DIR, "wq", "worker.py"), 20, "_fits")
    helper = ("heapq.py", 5, "helper")
    builtin = ("~", 0, "<built-in method builtins.max>")
    stats = {
        net: (1, 1, 1.0, 4.0, {}),
        wq: (1, 1, 2.0, 3.0, {}),
        # helper is pure Python outside repro, called only from net
        helper: (1, 1, 0.5, 1.5, {net: (1, 1, 0.5, 1.5)}),
        # max: 1 s of its self time came from helper, 3 s directly from wq
        builtin: (2, 2, 4.0, 4.0, {helper: (1, 1, 1.0, 1.0), wq: (1, 1, 3.0, 3.0)}),
    }
    self_s = layers.attribute_self_time(stats)
    assert self_s["net"] == pytest.approx(1.0 + 0.5 + 1.0)
    assert self_s["wq"] == pytest.approx(2.0 + 3.0)
    assert sum(self_s.values()) == pytest.approx(7.5)


def test_db_seconds_counts_nested_db_calls_once():
    recorder = layers.SpanRecorder()
    recorder.spans = [
        (1, 0, "core:LobsterDB.record_result", 0.0, 10.0),
        (2, 1, "core:LobsterDB.checkpoint", 1.0, 3.0),  # inside span 1
        (3, 0, "wq:Master.task_finished", 10.0, 20.0),
        (5, 4, "core:LobsterDB.ledger_commit", 11.0, 12.0),  # via an untimed call
    ]
    recorder._untimed = {4: 3}
    assert recorder.db_seconds() == pytest.approx(10.0 + 1.0)
    parents = {s["id"]: s["parent"] for s in recorder.resolved_spans()}
    assert parents == {1: None, 2: 1, 3: None, 5: 3}



def synthetic_meter(readings, interval=0.004):
    """A meter that read *readings* (loop seconds), one per *interval*."""
    meter = speed.SpeedMeter(interval)
    for k, loop in enumerate(readings, start=1):
        meter.loop.append(loop)
        meter.at.append(k * interval)
    meter.end = len(readings) * interval
    return meter


def test_reference_seconds_scale_host_time_to_the_reference_speed():
    ref = speed.REFERENCE_S
    at_speed = synthetic_meter([ref] * 250)
    assert at_speed.seconds == pytest.approx(1.0)
    # the speedometer's own time is left out
    assert at_speed.reference_seconds() == pytest.approx(1.0 - 250 * ref)
    # a host twice as slow: the same work took twice the host time
    slow = synthetic_meter([2 * ref] * 250, interval=0.008)
    assert slow.reference_seconds() == pytest.approx(1.0 - 250 * ref)
    # slow only in its second half
    mixed = synthetic_meter([ref] * 125 + [2 * ref] * 125)
    assert mixed.reference_seconds() == pytest.approx(0.75 - 250 * ref, rel=0.02)


def test_reference_seconds_ignore_a_stray_reading():
    ref = speed.REFERENCE_S
    steady = synthetic_meter([ref] * 250).reference_seconds()
    readings = [ref] * 250
    readings[100] = 100 * ref  # the handler was interrupted once
    assert synthetic_meter(readings).reference_seconds() == pytest.approx(steady, rel=0.01)


@pytest.mark.parametrize("name", NAMES)
def test_speed_meter_leaves_the_campaign_unchanged(name):
    wl = W.WORKLOADS[name]
    plain = W.run_campaign(wl, 4, wl.tiny)
    meter = speed.SpeedMeter(interval=0.0005)
    metered = W.run_campaign(wl, 4, wl.tiny, lambda campaign: meter)
    assert metered.problems == [] and metered.digest == plain.digest
    assert len(meter.loop) >= 1 and all(v > 0 for v in meter.loop)
    assert 0 < meter.reference_seconds() < 10 * meter.seconds
