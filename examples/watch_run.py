#!/usr/bin/env python
"""Live run-health watching (paper §5, mid-run operator view).

Three demonstrations in one script, each with a greppable gate line:

1. **Clean run, silent watch.**  The quickstart runs with a
   :class:`~repro.monitor.RunWatcher` attached; every §5 detector must
   stay below its raise threshold for the whole run — zero alerts.  CI
   greps ``WATCH CLEAN OK``.

2. **Chaos fires the §5 detectors.**  The chaos barrage (black-hole
   host, eviction burst) must raise at least one ``eviction_storm`` and
   one ``blacklist_saturation`` alert, each carrying non-empty
   evidence whose ``(trace, span)`` ids resolve against the causal
   tracer's finished spans.  CI greps ``WATCH CHAOS OK``.

3. **Live ≡ replay, byte for byte.**  The recorded event stream of the
   chaos run is replayed (:func:`~repro.monitor.replay`) through a fresh
   :class:`~repro.monitor.WatchEngine` and must serialise to exactly the bytes the live engine emitted.
   CI greps ``WATCH REPLAY OK``.

Artifacts land in ``benchmarks/out/``: the alert stream as JSON and
the watch dashboard HTML (written atomically mid-run and at the end).

    python examples/watch_run.py
"""

import json
import os

from repro.desim import Environment
from repro.desim.bus import MemorySink
from repro.monitor import (
    Rollup,
    RunWatcher,
    SpanTracer,
    WatchEngine,
    replay,
    tap,
    write_dashboard,
)
from repro.scenarios import execute_prepared, prepare_chaos, prepare_quickstart

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "out")


def watch_clean_quickstart() -> None:
    """A healthy run must be alert-silent (the false-positive gate)."""
    env = Environment()
    SpanTracer(env)
    watcher = RunWatcher(env.bus)
    prepared = prepare_quickstart(events=200_000, workers=8, seed=11, env=env)
    execute_prepared(prepared, settle=300.0)
    engine = watcher.engine
    for a in engine.alerts:
        print(f"  unexpected: {a['topic']} {a['alert']} level={a['level']}")
    assert not engine.alerts, (
        f"clean quickstart raised {len(engine.alerts)} alert(s) — "
        f"detector thresholds have drifted into false-positive territory"
    )
    assert engine.windows_closed > 0, "watch never closed a window"
    print(
        f"WATCH CLEAN OK windows={engine.windows_closed} "
        f"events={engine.events_seen} alerts=0"
    )


def watch_chaos() -> list:
    """Chaos must fire the storm + blacklist detectors with evidence."""
    env = Environment()
    sink = MemorySink()
    env.bus.attach(sink)
    tracer = SpanTracer(env)
    rollup = Rollup()
    tap(env.bus, [rollup])
    watcher = RunWatcher(env.bus)
    prepared = prepare_chaos(files=60, machines=12, cores=4, seed=5, env=env)
    execute_prepared(prepared, settle=300.0)
    tracer.finalize()
    engine = watcher.engine

    raised = engine.alerts_raised()
    by_detector = {}
    for a in raised:
        by_detector.setdefault(a["detector"], []).append(a)
    for det in ("eviction_storm", "blacklist_saturation"):
        hits = by_detector.get(det)
        assert hits, f"chaos run never raised {det}"
        for a in hits:
            assert a["evidence"], f"{a['alert']} raised with empty evidence"

    # Every evidence id must resolve against the tracer's span stream.
    known = {(s.trace_id, s.span_id) for s in tracer.spans}
    for a in raised:
        for e in a.get("evidence", []):
            assert (e["trace"], e["span"]) in known, (
                f"{a['alert']}: evidence span {e['trace']}/{e['span']} "
                f"does not resolve against the trace"
            )

    # The alert events also rode the bus into the exact metrics.
    m = prepared.run.metrics
    assert m.n_alerts_raised == len(raised), (
        f"collector saw {m.n_alerts_raised} raises, engine emitted "
        f"{len(raised)}"
    )

    os.makedirs(OUT_DIR, exist_ok=True)
    alerts_path = os.path.join(OUT_DIR, "watch_alerts.json")
    with open(alerts_path, "w", encoding="utf-8") as fh:
        json.dump(engine.alerts, fh, sort_keys=True, indent=1)
        fh.write("\n")
    dash_path = os.path.join(OUT_DIR, "watch.html")
    write_dashboard(
        dash_path,
        rollup,
        metrics=m,
        spans=list(tracer.spans),
        bus_stats=env.bus.stats(),
        title="chaos run (examples/watch_run.py)",
        alerts=engine.alerts,
        watch_history=engine.history,
        bus_timeline=watcher.bus_timeline,
        now=float(env.now),
    )
    html = open(dash_path, encoding="utf-8").read()
    assert "Live run health" in html, "dashboard missing the watch panel"
    print(f"watch artifacts: {alerts_path}, {dash_path}")
    print(
        f"WATCH CHAOS OK raised={len(raised)} "
        f"detectors={sorted(by_detector)} "
        f"evidence={sum(len(a['evidence']) for a in raised)}"
    )
    return [e.as_dict() for e in sink.events], engine


def replay_identity(events: list, live_engine) -> None:
    """The recorded stream must replay to the identical alert bytes."""
    engine = WatchEngine()
    replay(events, [engine])
    live_bytes = json.dumps(live_engine.alerts, sort_keys=True)
    replay_bytes = json.dumps(engine.alerts, sort_keys=True)
    assert live_bytes == replay_bytes, (
        "replayed alert stream diverged from the live run"
    )
    print(
        f"WATCH REPLAY OK alerts={len(engine.alerts)} "
        f"bytes={len(replay_bytes)}"
    )


def main() -> None:
    watch_clean_quickstart()
    events, engine = watch_chaos()
    replay_identity(events, engine)


if __name__ == "__main__":
    main()
