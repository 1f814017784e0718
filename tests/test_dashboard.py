"""The ops dashboard renderer and its CLI entry points (DESIGN.md §13).

``python -m repro run/replay --dash-out`` must render a complete,
self-contained HTML document from both a live scenario run and a
replayed JSONL recording,
with every §5 diagnosis evidence link resolving to an anchored span
row.  The renderer itself is also exercised directly on synthetic
rollups so panel presence doesn't depend on scenario runtime.
"""

import re

import pytest

from repro.desim import Environment, EventBus, Topics
from repro.monitor import (
    Rollup,
    RunMetrics,
    SpanTracer,
    render_dashboard,
    tap,
    write_dashboard,
)
from repro.scenarios import execute_prepared, prepare_chaos


PANELS = (
    "Task state timeline",
    "Network bandwidth by traffic class",
    "Chaos &amp; recovery",
    "Output integrity &amp; exactly-once",
    "Segment durations (streaming digests)",
    "Telemetry",
)


@pytest.fixture(scope="module")
def chaos_artifacts():
    """One small faulty run shared by the rendering tests."""
    env = Environment()
    tracer = SpanTracer(env)
    rollup = Rollup()
    tap(env.bus, [rollup])
    prepared = prepare_chaos(
        files=15, machines=6, cores=4, seed=7,
        bit_rot=1, truncate=1, duplicates=1, env=env,
    )
    execute_prepared(prepared, settle=300.0)
    tracer.finalize()
    return rollup, prepared.run.metrics, list(tracer.spans), env


# -------------------------------------------------------------- renderer
def test_render_is_complete_standalone_html(chaos_artifacts):
    rollup, metrics, spans, env = chaos_artifacts
    html = render_dashboard(
        rollup, metrics=metrics, spans=spans, bus_stats=env.bus.stats(),
        title="chaos <test> run",
    )
    assert html.startswith("<!DOCTYPE html>")
    assert html.rstrip().endswith("</html>")
    for panel in PANELS:
        assert panel in html, panel
    # Title is escaped, not interpolated raw.
    assert "chaos &lt;test&gt; run" in html
    assert "<test>" not in html
    # No external fetches: a single self-contained file.
    assert "http://" not in html and "https://" not in html
    assert "<script" not in html


def test_chaos_panel_breaks_requeues_down_by_reason(chaos_artifacts):
    rollup, metrics, spans, env = chaos_artifacts
    assert rollup.requeues_by_reason == metrics.requeues_by_reason
    html = render_dashboard(rollup)
    reasons = ", ".join(
        f"{reason} {n}"
        for reason, n in sorted(
            rollup.requeues_by_reason.items(), key=lambda kv: (-kv[1], kv[0])
        )
    )
    total = sum(rollup.requeues_by_reason.values())
    assert total > 0
    assert (
        f'<div class="v">{total}</div><div class="k">requeues ({reasons})</div>'
        in html
    )


def test_every_evidence_link_resolves_to_an_anchor(chaos_artifacts):
    rollup, metrics, spans, env = chaos_artifacts
    html = render_dashboard(rollup, metrics=metrics, spans=spans)
    links = re.findall(r'href="#(span-[^"]+)"', html)
    anchors = re.findall(r"id='(span-[^']+)'", html)
    assert links, "faulty run produced no evidence links"
    assert set(links) <= set(anchors)


def test_render_without_metrics_skips_diagnosis_only(chaos_artifacts):
    rollup, _metrics, _spans, _env = chaos_artifacts
    html = render_dashboard(rollup)
    assert "Troubleshooting" not in html
    for panel in ("Task state timeline", "Telemetry"):
        assert panel in html


def test_render_empty_rollup_degenerates_gracefully():
    from repro.monitor import Rollup

    html = render_dashboard(Rollup(), title="empty")
    assert html.startswith("<!DOCTYPE html>")
    assert "Telemetry" in html


def test_write_dashboard_round_trips(tmp_path, chaos_artifacts):
    rollup, metrics, spans, env = chaos_artifacts
    path = str(tmp_path / "dash.html")
    assert write_dashboard(path, rollup, metrics=metrics) == path
    assert open(path, encoding="utf-8").read().startswith("<!DOCTYPE html>")


def test_write_dashboard_is_atomic_under_concurrent_reads(tmp_path, chaos_artifacts):
    """ISSUE 10 satellite: a reader interleaved with periodic re-renders
    must only ever observe complete documents (temp file + os.replace),
    never a torn half-write."""
    import threading

    rollup, metrics, spans, env = chaos_artifacts
    path = str(tmp_path / "live.html")
    write_dashboard(path, rollup, title="seed render")

    torn = []
    stop = threading.Event()

    def reader():
        while not stop.is_set():
            try:
                text = open(path, encoding="utf-8").read()
            except FileNotFoundError:  # pragma: no cover - would be a tear
                torn.append("missing file during replace")
                continue
            if not (text.startswith("<!DOCTYPE html>")
                    and text.rstrip().endswith("</html>")):
                torn.append(f"torn read: {len(text)} bytes")

    t = threading.Thread(target=reader)
    t.start()
    try:
        for i in range(30):
            write_dashboard(path, rollup, metrics=metrics,
                            title=f"refresh {i}", now=float(i * 1800))
    finally:
        stop.set()
        t.join()
    assert torn == []
    assert not list(tmp_path.glob(".dash-*")), "temp files leaked"


def test_write_dashboard_cleans_temp_on_render_failure(tmp_path):
    from repro.monitor import Rollup

    class Boom(Rollup):
        def running_timeline(self, now=None):
            raise RuntimeError("mid-render failure")

    # Render happens before the temp file exists, so the destination is
    # simply never created; a failing *write* cleans its temp file up.
    with pytest.raises(RuntimeError):
        write_dashboard(str(tmp_path / "x.html"), Boom())
    assert not list(tmp_path.glob(".dash-*"))


# -------------------------------------------------------------- CLI: live
def test_cli_dash_live_with_parity(tmp_path, run_cli):
    out_path = str(tmp_path / "live.html")
    code, text = run_cli([
        "run", "quickstart",
        "--param", "events=20000", "--param", "workers=4",
        "--check-parity", "--dash-out", out_path,
    ])
    assert code == 0
    assert "parity OK" in text
    assert f"dashboard written to {out_path}" in text
    html = open(out_path, encoding="utf-8").read()
    for panel in PANELS:
        assert panel in html, panel


def test_cli_dash_unknown_scenario_exits_with_catalog(run_cli):
    with pytest.raises(SystemExit, match="unknown scenario.*quickstart"):
        run_cli(["run", "nope", "--dash-out", "never.html"])


def test_cli_dash_non_des_scenario_rejected(run_cli):
    with pytest.raises(SystemExit, match="not a DES run scenario"):
        run_cli(["run", "tasksize", "--dash-out", "never.html"])


def test_cli_dash_bad_param_rejected(run_cli):
    with pytest.raises(SystemExit, match="KEY=VALUE"):
        run_cli(["run", "quickstart", "--param", "events"])
    with pytest.raises(SystemExit, match="unexpected keyword argument 'bogus'"):
        run_cli(["run", "quickstart", "--param", "bogus=1"])


# ------------------------------------------------------------ CLI: replay
def test_cli_dash_replay_matches_live(tmp_path, run_cli):
    events_path = str(tmp_path / "events.jsonl")
    live_path = str(tmp_path / "live.html")
    replay_path = str(tmp_path / "replay.html")
    code, _ = run_cli([
        "run", "quickstart", "--param", "events=20000", "--param", "workers=4",
        "--events-out", events_path, "--dash-out", live_path,
    ])
    assert code == 0
    code, text = run_cli([
        "replay", events_path, "--check-parity", "--dash-out", replay_path,
    ])
    assert code == 0
    assert "parity OK" in text
    live = open(live_path, encoding="utf-8").read()
    replay = open(replay_path, encoding="utf-8").read()
    for panel in PANELS:
        assert panel in live and panel in replay, panel


def test_cli_dash_replay_missing_file_exits(run_cli):
    with pytest.raises(SystemExit):
        run_cli(["replay", "/nonexistent/events.jsonl", "--dash-out", "never.html"])


# --------------------------------------------------- telemetry truthfulness
def test_telemetry_panel_reports_true_bus_totals():
    """The dashboard's bus figures must include port/raw emits (the
    fast paths legacy counters used to miss)."""
    bus = EventBus()
    rollup = Rollup()
    tap(bus, [RunMetrics(), rollup])  # the full monitoring topic set
    port = bus.port(Topics.TASK_START)
    for i in range(5):
        port.emit(running=i)
    stats = bus.stats()
    assert stats["published"] == 5
    assert stats["delivered"] > 0
    html = render_dashboard(rollup, bus_stats=stats)
    assert f"{stats['published']:,}" in html or str(stats["published"]) in html
