"""Alert-stream determinism (ISSUE 10 satellite: live ≡ replay ≡ N jobs).

The watch engine is a pure fold of the event stream: a live
:class:`~repro.monitor.RunWatcher` and an offline
:func:`~repro.monitor.replay` of the same recording through a fresh engine
must serialise to *byte-identical* alert streams; a sweep over DES
scenarios must report identical ``alerts_raised`` metrics under
``jobs=1`` and ``jobs=N``; and because the watcher subscribes to the
environment's bus (which ``warm_restart`` reuses), its engine keeps
accumulating across a master crash + warm restart.
"""

import json

import pytest

from repro.desim import Environment
from repro.desim.bus import MemorySink
from repro.monitor import RunWatcher, SpanTracer, WatchEngine, replay
from repro.scenarios import (
    execute_prepared,
    prepare_chaos,
    warm_restart,
)
from repro.sweep import Axis, SweepSpec, Variant, run_sweep
from repro.testing import reset_id_counters


def replayed_engine(events) -> WatchEngine:
    engine = WatchEngine()
    replay(events, [engine])
    return engine


@pytest.fixture(scope="module")
def chaos_recording():
    """Chaos run with a live watcher and a full event recording."""
    reset_id_counters()
    env = Environment()
    sink = MemorySink()
    env.bus.attach(sink)
    SpanTracer(env)
    watcher = RunWatcher(env.bus)
    prepared = prepare_chaos(files=60, machines=12, cores=4, seed=5, env=env)
    execute_prepared(prepared, settle=300.0)
    return [e.as_dict() for e in sink.events], watcher.engine


def test_live_and_replay_alert_streams_are_byte_identical(chaos_recording):
    events, live_engine = chaos_recording
    assert live_engine.alerts, "fixture run raised no alerts to compare"
    replay = replayed_engine(events)
    assert json.dumps(live_engine.alerts, sort_keys=True) == json.dumps(
        replay.alerts, sort_keys=True
    )


def test_replay_is_idempotent(chaos_recording):
    events, _ = chaos_recording
    a = replayed_engine(events).alerts
    b = replayed_engine(events).alerts
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_recorded_alert_events_match_engine_output(chaos_recording):
    """The bus recording contains exactly the engine's emissions —
    same alerts at the same times, in the same order."""
    events, live_engine = chaos_recording
    recorded = [e for e in events if e["topic"].startswith("alert.")]
    assert len(recorded) == len(live_engine.alerts)
    for rec, emitted in zip(recorded, live_engine.alerts):
        assert rec["topic"] == emitted["topic"]
        assert rec["t"] == emitted["t"]
        assert rec["alert"] == emitted["alert"]
        assert rec["level"] == emitted["level"]
        assert rec.get("evidence") == emitted.get("evidence")


def test_alert_events_are_time_ordered(chaos_recording):
    events, _ = chaos_recording
    times = [e["t"] for e in events]
    assert times == sorted(times), (
        "publishing alerts at the triggering event's time must keep the "
        "recorded stream monotone"
    )


def chaos_spec() -> SweepSpec:
    return SweepSpec(
        name="watch-parity",
        scenario="chaos",
        seed=5,
        base={"files": 12, "machines": 6, "cores": 2},
        axes=[
            Axis("seed", (Variant("s5", {"seed": 5}),
                          Variant("s6", {"seed": 6}))),
        ],
    )


def test_sweep_jobs_do_not_change_alert_metrics():
    p1 = run_sweep(chaos_spec(), jobs=1)
    p2 = run_sweep(chaos_spec(), jobs=2)
    rows1 = {r["run_id"]: r["metrics"] for r in p1["runs"]}
    rows2 = {r["run_id"]: r["metrics"] for r in p2["runs"]}
    assert rows1 == rows2
    for metrics in rows1.values():
        assert "alerts_raised" in metrics
        assert "alerts_cleared" in metrics


def test_watcher_survives_warm_restart():
    reset_id_counters()
    env = Environment()
    watcher = RunWatcher(env.bus)
    prepared = prepare_chaos(
        env=env, files=12, machines=6, cores=2, seed=1,
        master_crash_at=1500.0,
    )
    execute_prepared(prepared, settle=60.0)
    assert prepared.run.crashed
    seen_at_crash = watcher.engine.events_seen
    windows_at_crash = watcher.engine.windows_closed

    resumed = warm_restart(prepared)
    execute_prepared(resumed, settle=300.0)
    assert resumed.run.finished_at is not None
    # Same env, same bus, same watcher: the engine kept folding.
    assert watcher.engine.events_seen > seen_at_crash
    assert watcher.engine.windows_closed > windows_at_crash
    # Post-restart, the exact metrics of the resumed run see any alerts
    # the (still-attached) watcher publishes from here on.
    assert resumed.run.metrics.n_alerts_raised <= len(
        watcher.engine.alerts_raised()
    )
