"""Static HTML ops dashboard rendered from streaming rollups.

``python -m repro run <scenario> --dash-out`` (or ``replay <jsonl>
--dash-out``) turns any run — live, or replayed from a JSONL recording —
into one self-contained HTML file: headline tiles, per-class
bandwidth strips, the task-state timeline, efficiency, chaos and
integrity panels, segment-duration digests, bus telemetry, and the §5
``diagnose()`` findings with click-through links from each heuristic to
its evidence spans.

Everything is hand-rolled inline SVG/CSS — no plotting library, no
external assets, no JavaScript beyond what a static page needs (none).
The renderer consumes a :class:`~repro.monitor.rollup.Rollup` (bounded
memory) plus, optionally, the exact-path extras: a ``RunMetrics`` for
the diagnose heuristics and a span list for evidence click-through.

Like everything under ``repro.monitor`` this module only speaks the bus
vocabulary; it never imports scheduler/batch/cvmfs/storage layers.
"""

from __future__ import annotations

import html
import os
import tempfile
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from .report import format_reasons
from .rollup import Rollup

__all__ = ["render_dashboard", "write_dashboard"]

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 0; background: #11151c; color: #d7dde6; }
h1 { font-size: 20px; margin: 0 0 2px 0; }
h2 { font-size: 14px; text-transform: uppercase; letter-spacing: .08em;
     color: #8fa1b8; border-bottom: 1px solid #2a3342; padding-bottom: 4px; }
.wrap { max-width: 1180px; margin: 0 auto; padding: 18px 22px 60px; }
.sub { color: #8fa1b8; font-size: 12px; margin-bottom: 18px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin: 14px 0 6px; }
.tile { background: #1a2230; border: 1px solid #2a3342; border-radius: 8px;
        padding: 10px 16px; min-width: 120px; }
.tile .v { font-size: 22px; font-weight: 600; }
.tile .k { font-size: 11px; color: #8fa1b8; text-transform: uppercase;
           letter-spacing: .06em; }
.panel { background: #161c27; border: 1px solid #2a3342; border-radius: 10px;
         padding: 12px 16px; margin: 14px 0; }
.strip { margin: 10px 0 2px; }
.strip .label { font-size: 12px; color: #aab7c9; margin-bottom: 2px; }
table { border-collapse: collapse; font-size: 13px; width: 100%; }
th, td { text-align: left; padding: 3px 10px 3px 0; }
th { color: #8fa1b8; font-weight: 500; font-size: 11px;
     text-transform: uppercase; letter-spacing: .06em; }
tr:target { background: #2a3a28; }
.diag { border-left: 3px solid #e0a33b; padding: 6px 10px; margin: 8px 0;
        background: #1d2230; }
.diag .symptom { font-weight: 600; color: #e0a33b; }
.diag a { color: #7db7e8; text-decoration: none; }
.ok { color: #72c585; } .bad { color: #e06c5b; } .warn { color: #e0a33b; }
.mono { font-family: ui-monospace, 'SF Mono', Menlo, monospace; font-size: 12px; }
"""


# -- formatting helpers -----------------------------------------------------
def _esc(x) -> str:
    return html.escape(str(x))


def _fmt_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB", "TB", "PB"):
        if abs(n) < 1024.0 or unit == "PB":
            return f"{n:.1f} {unit}" if unit != "B" else f"{n:.0f} B"
        n /= 1024.0
    return f"{n:.1f} PB"  # pragma: no cover - unreachable


def _fmt_secs(s: float) -> str:
    if s >= 2 * 3600:
        return f"{s / 3600:.1f} h"
    if s >= 120:
        return f"{s / 60:.1f} min"
    return f"{s:.1f} s"


# -- SVG strips -------------------------------------------------------------
def _svg_bars(
    values: Sequence[float],
    color: str = "#5b9bd5",
    width: int = 1080,
    height: int = 54,
    ymax: Optional[float] = None,
) -> str:
    """One bar per bin, scaled to the series (or *ymax*) maximum."""
    vals = np.asarray(values, dtype=float)
    n = len(vals)
    if n == 0:
        return '<div class="sub">(no data)</div>'
    top = float(ymax) if ymax else float(vals.max())
    if top <= 0:
        top = 1.0
    bar_w = width / n
    parts = [
        f'<svg viewBox="0 0 {width} {height}" width="100%" height="{height}" '
        f'preserveAspectRatio="none" role="img">'
    ]
    for i, v in enumerate(vals):
        h = 0.0 if v <= 0 else max(1.0, v / top * (height - 2))
        if h <= 0:
            continue
        parts.append(
            f'<rect x="{i * bar_w:.2f}" y="{height - h:.2f}" '
            f'width="{max(bar_w - 0.5, 0.5):.2f}" height="{h:.2f}" '
            f'fill="{color}"/>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _strip(label: str, svg: str, note: str = "") -> str:
    note_html = f' <span class="sub">{_esc(note)}</span>' if note else ""
    return (
        f'<div class="strip"><div class="label">{_esc(label)}{note_html}</div>'
        f"{svg}</div>"
    )


def _tile(key: str, value: str, klass: str = "") -> str:
    cls = f' class="v {klass}"' if klass else ' class="v"'
    return (
        f'<div class="tile"><div{cls}>{_esc(value)}</div>'
        f'<div class="k">{_esc(key)}</div></div>'
    )


# -- panels -----------------------------------------------------------------
def _headline(rollup: Rollup) -> str:
    failed = rollup.n_failed()
    makespan = rollup.max_finished or 0.0
    tiles = [
        _tile("tasks", str(rollup.n_tasks)),
        _tile("succeeded", str(rollup.n_succeeded()), "ok"),
        _tile("failed", str(failed), "bad" if failed else "ok"),
        _tile("cpu / wall", f"{rollup.overall_efficiency():.1%}"),
        _tile("makespan", _fmt_secs(makespan)),
        _tile("output", _fmt_bytes(rollup.output_bytes)),
        _tile("bytes moved", _fmt_bytes(sum(rollup.flow_bytes.values()))),
    ]
    return '<div class="tiles">' + "".join(tiles) + "</div>"


def _bandwidth_panel(rollup: Rollup, now: Optional[float] = None) -> str:
    starts, series = rollup.bandwidth_timeline(now=now)
    if not series:
        return ""
    colors = ["#5b9bd5", "#72c585", "#e0a33b", "#b37fd4", "#e06c5b", "#5bc8c2"]
    strips = []
    for i, (cls, vals) in enumerate(series.items()):
        total = rollup.flow_bytes.get(cls, 0.0)
        peak = float(vals.max()) if len(vals) else 0.0
        strips.append(
            _strip(
                f"{cls}",
                _svg_bars(vals, color=colors[i % len(colors)]),
                note=f"total {_fmt_bytes(total)} · peak {_fmt_bytes(peak)}/s",
            )
        )
    failed = rollup.n_flows_failed
    note = (
        f'<div class="sub">{rollup.n_flows} flows, '
        f'<span class="{"bad" if failed else "ok"}">{failed} failed</span></div>'
    )
    return (
        "<div class='panel'><h2>Network bandwidth by traffic class</h2>"
        + "".join(strips)
        + note
        + "</div>"
    )


def _taskstate_panel(rollup: Rollup, now: Optional[float] = None) -> str:
    r_starts, running = rollup.running_timeline(now=now)
    c_starts, ok, failed = rollup.completion_counts(now=now)
    e_starts, eff = rollup.efficiency_timeline(now=now)
    strips = []
    if len(running):
        strips.append(
            _strip(
                "concurrent running tasks (bin max)",
                _svg_bars(running, color="#7db7e8"),
                note=f"peak {int(max(running))}",
            )
        )
    if len(c_starts):
        strips.append(
            _strip(
                "completions per bin",
                _svg_bars(ok, color="#72c585"),
                note=f"{int(ok.sum())} ok",
            )
        )
        if failed.sum():
            strips.append(
                _strip(
                    "failures per bin",
                    _svg_bars(failed, color="#e06c5b", ymax=float(ok.max() or 1)),
                    note=f"{int(failed.sum())} failed",
                )
            )
    if len(eff):
        strips.append(
            _strip(
                "cpu/wall efficiency per bin",
                _svg_bars(eff, color="#b37fd4", ymax=1.0),
                note="scale 0–100%",
            )
        )
    if not strips:
        return ""
    bin_note = (
        f'<div class="sub">bin width {_fmt_secs(rollup.bin_width)}, '
        f"time runs left→right from t=0</div>"
    )
    return (
        "<div class='panel'><h2>Task state timeline</h2>"
        + "".join(strips)
        + bin_note
        + "</div>"
    )


def _failure_rows(rollup: Rollup) -> str:
    if not rollup.failure_codes:
        return ""
    rows = "".join(
        f"<tr><td class='mono'>{_esc(name)}</td><td>{count}</td></tr>"
        for name, count in sorted(
            rollup.failure_codes.items(), key=lambda kv: -kv[1]
        )
    )
    return (
        "<div class='panel'><h2>Failures by exit code</h2>"
        f"<table><tr><th>exit code</th><th>tasks</th></tr>{rows}</table></div>"
    )


def _chaos_panel(rollup: Rollup) -> str:
    have = (
        rollup.faults_injected
        or rollup.evictions
        or rollup.tasks_exhausted
        or rollup.fallbacks
        or rollup.resumes
        or rollup.blacklisted_hosts
    )
    if not have:
        return ""
    requeues = rollup.requeues_by_reason
    tiles = [
        _tile("faults injected", str(rollup.faults_injected), "warn"),
        _tile("faults cleared", str(rollup.faults_cleared)),
        _tile("evictions", str(rollup.evictions)),
        _tile(
            f"requeues ({format_reasons(requeues)})" if requeues else "requeues",
            str(sum(requeues.values())),
        ),
        _tile("retry budgets spent", str(rollup.tasks_exhausted)),
        _tile("stream fallbacks", str(rollup.fallbacks)),
        _tile("warm restarts", str(rollup.resumes)),
        _tile("hosts blacklisted", str(len(rollup.blacklisted_hosts))),
    ]
    narration = ""
    if rollup.narration:
        rows = "".join(
            f"<tr><td>{_fmt_secs(t)}</td><td class='mono'>{_esc(topic)}</td>"
            f"<td>{_esc(what)}</td></tr>"
            for t, topic, what in rollup.narration
        )
        narration = (
            "<table><tr><th>t</th><th>topic</th><th>what</th></tr>"
            + rows
            + "</table>"
        )
    return (
        "<div class='panel'><h2>Chaos &amp; recovery</h2>"
        + '<div class="tiles">'
        + "".join(tiles)
        + "</div>"
        + narration
        + "</div>"
    )


def _integrity_panel(rollup: Rollup) -> str:
    have = (
        rollup.integrity_corrupt
        or rollup.integrity_quarantined
        or rollup.integrity_commits
        or rollup.integrity_orphans
        or rollup.duplicates_dropped
    )
    if not have:
        return ""
    tiles = [
        _tile("ledger commits", str(rollup.integrity_commits), "ok"),
        _tile(
            "corruptions",
            str(rollup.integrity_corrupt),
            "bad" if rollup.integrity_corrupt else "ok",
        ),
        _tile("quarantined", str(rollup.integrity_quarantined)),
        _tile("orphans swept", str(rollup.integrity_orphans)),
        _tile("duplicates dropped", str(rollup.duplicates_dropped)),
    ]
    return (
        "<div class='panel'><h2>Output integrity &amp; exactly-once</h2>"
        + '<div class="tiles">'
        + "".join(tiles)
        + "</div></div>"
    )


def _segments_panel(rollup: Rollup) -> str:
    if not rollup.segments:
        return ""
    rows = []
    for seg in sorted(rollup.segments):
        d = rollup.segments[seg]
        hist = _svg_bars(d.counts, color="#8fa1b8", width=300, height=26)
        rows.append(
            f"<tr><td class='mono'>{_esc(seg)}</td><td>{d.n}</td>"
            f"<td>{_fmt_secs(d.mean)}</td><td>{_fmt_secs(d.quantile(0.5))}</td>"
            f"<td>{_fmt_secs(d.quantile(0.99))}</td><td>{_fmt_secs(d.max)}</td>"
            f"<td style='min-width:300px'>{hist}</td></tr>"
        )
    return (
        "<div class='panel'><h2>Segment durations (streaming digests)</h2>"
        "<table><tr><th>segment</th><th>n</th><th>mean</th><th>~p50</th>"
        "<th>~p99</th><th>max</th><th>log-spaced histogram</th></tr>"
        + "".join(rows)
        + "</table></div>"
    )


def _telemetry_panel(rollup: Rollup, bus_stats: Optional[Dict[str, int]]) -> str:
    tiles = [
        _tile("events folded", str(rollup.events_seen)),
        _tile("retained cells", str(rollup.retained_cells())),
        _tile("bin width", _fmt_secs(rollup.bin_width)),
    ]
    if bus_stats:
        tiles.extend(
            [
                _tile("bus published", str(bus_stats.get("published", 0))),
                _tile("bus delivered", str(bus_stats.get("delivered", 0))),
                _tile("subscriptions", str(bus_stats.get("subscriptions", 0))),
                _tile("ports", str(bus_stats.get("ports", 0))),
            ]
        )
    return (
        "<div class='panel'><h2>Telemetry</h2><div class='tiles'>"
        + "".join(tiles)
        + "</div><div class='sub'>memory is bounded by retained cells "
        "(windows × series), never by event count</div></div>"
    )


def _span_anchor(e) -> str:
    return f"span-{e.trace_id}-{e.span_id}"


def _alert_span_anchor(entry: Dict) -> str:
    """Anchor for a watch-alert evidence entry ({trace, span, ...})."""
    return f"span-{entry.get('trace')}-{entry.get('span')}"


def _watch_panel(
    alerts: Sequence[Dict],
    watch_history: Optional[Sequence[Dict]],
    bus_timeline: Optional[Sequence] = None,
) -> str:
    """Live run health: the alert timeline plus per-window telemetry.

    *alerts* is the engine's emitted stream (``{"t", "topic", ...}``
    dicts); *watch_history* its per-window summaries; *bus_timeline*
    the watcher's ``(t, published, delivered)`` samples.
    """
    blocks: List[str] = []
    raised = sum(1 for a in alerts if a.get("topic", "").endswith("raise"))
    cleared = len(alerts) - raised
    if not alerts:
        blocks.append(
            "<div class='sub ok'>no alerts raised — the run looks "
            "healthy</div>"
        )
    else:
        blocks.append(
            f"<div class='sub'><span class='warn'>{raised} raised</span> · "
            f"{cleared} cleared</div>"
        )
        rows = []
        for a in alerts:
            raise_ = a.get("topic", "").endswith("raise")
            verb = (
                "<span class='bad'>RAISE</span>"
                if raise_
                else "<span class='ok'>clear</span>"
            )
            evidence = a.get("evidence") or []
            cites = ", ".join(
                f'<a href="#{_alert_span_anchor(e)}">{_esc(e.get("name"))}'
                f"/{_esc(e.get('span'))}</a>"
                for e in evidence
            )
            rows.append(
                f"<tr><td>{_fmt_secs(float(a.get('t', 0.0)))}</td>"
                f"<td>{verb}</td>"
                f"<td class='mono'>{_esc(a.get('alert'))}</td>"
                f"<td>{_esc(a.get('severity'))}</td>"
                f"<td>{a.get('window')}</td>"
                f"<td class='mono'>{float(a.get('level', 0.0)):.3g}</td>"
                f"<td>{cites}</td></tr>"
            )
        blocks.append(
            "<table><tr><th>t</th><th>event</th><th>alert</th>"
            "<th>severity</th><th>window</th><th>level</th>"
            "<th>evidence</th></tr>" + "".join(rows) + "</table>"
        )
        # Evidence spans referenced by the alerts, resolvable in-page
        # (and in the trace viewer by the same ids).
        seen: Dict[str, Dict] = {}
        for a in alerts:
            for e in a.get("evidence") or []:
                seen.setdefault(_alert_span_anchor(e), e)
        if seen:
            ev_rows = "".join(
                f"<tr id='{anchor}'><td class='mono'>{_esc(e.get('trace'))}"
                f"</td><td>{_esc(e.get('span'))}</td>"
                f"<td class='mono'>{_esc(e.get('name'))}</td>"
                f"<td>{_esc(e.get('status'))}</td></tr>"
                for anchor, e in seen.items()
            )
            blocks.append(
                "<div class='sub'>alert evidence spans:</div>"
                "<table><tr><th>trace</th><th>span</th><th>name</th>"
                "<th>status</th></tr>" + ev_rows + "</table>"
            )
    if watch_history:
        oks = [w.get("ok", 0) for w in watch_history]
        evs = [w.get("evictions", 0) for w in watch_history]
        blocks.append(
            _strip(
                "completions per watch window",
                _svg_bars(oks, color="#72c585", height=32),
            )
        )
        if any(evs):
            blocks.append(
                _strip(
                    "evictions per watch window",
                    _svg_bars(evs, color="#e06c5b", height=32),
                )
            )
    if bus_timeline and len(bus_timeline) > 1:
        published = [row[1] for row in bus_timeline]
        deltas = [
            max(b - a, 0) for a, b in zip(published, published[1:])
        ]
        blocks.append(
            _strip(
                "bus events published per watch window",
                _svg_bars(deltas, color="#8fa1b8", height=32),
                note=f"{published[-1]} total",
            )
        )
    return (
        "<div class='panel'><h2>Live run health (watch alerts)</h2>"
        + "".join(blocks)
        + "</div>"
    )


def _diagnosis_panel(diagnoses: Sequence) -> str:
    if not diagnoses:
        return (
            "<div class='panel'><h2>Troubleshooting (§5 heuristics)</h2>"
            "<div class='sub ok'>no heuristic fired</div></div>"
        )
    blocks = []
    for d in diagnoses:
        links = ""
        if d.evidence:
            cites = ", ".join(
                f'<a href="#{_span_anchor(e)}">{_esc(e.name)} '
                f"{e.seconds:.1f}s</a>"
                for e in d.evidence
            )
            links = f"<div class='sub'>evidence: {cites}</div>"
        blocks.append(
            "<div class='diag'>"
            f"<span class='symptom'>{_esc(d.symptom)}</span> "
            f"<span class='mono'>{d.metric:.3g} &gt; {d.threshold:.3g}</span>"
            f"<div>{_esc(d.suggestion)}</div>{links}</div>"
        )
    return (
        "<div class='panel'><h2>Troubleshooting (§5 heuristics)</h2>"
        + "".join(blocks)
        + "</div>"
    )


def _evidence_table(diagnoses: Sequence) -> str:
    evidence = [e for d in diagnoses for e in d.evidence]
    if not evidence:
        return ""
    rows = "".join(
        f"<tr id='{_span_anchor(e)}'><td class='mono'>{_esc(e.trace_id)}</td>"
        f"<td>{e.span_id}</td><td class='mono'>{_esc(e.name)}</td>"
        f"<td>{e.seconds:.1f}s</td><td>{_esc(e.status)}</td></tr>"
        for e in evidence
    )
    return (
        "<div class='panel'><h2>Evidence spans</h2>"
        "<table><tr><th>trace</th><th>span</th><th>name</th>"
        "<th>duration</th><th>status</th></tr>"
        + rows
        + "</table><div class='sub'>open these ids in the trace viewer "
        "(<span class='mono'>python -m repro replay --chrome-out</span>)</div></div>"
    )


# -- entry points -----------------------------------------------------------
def render_dashboard(
    rollup: Rollup,
    metrics=None,
    spans: Optional[Iterable] = None,
    bus_stats: Optional[Dict[str, int]] = None,
    title: str = "repro run",
    alerts: Optional[Sequence[Dict]] = None,
    watch_history: Optional[Sequence[Dict]] = None,
    bus_timeline: Optional[Sequence] = None,
    now: Optional[float] = None,
) -> str:
    """Render one self-contained HTML dashboard string.

    *rollup* drives every strip and counter panel.  *metrics* (a
    ``RunMetrics``) additionally enables the §5 ``diagnose()`` panel;
    *spans* (finished Span objects) makes each firing heuristic link to
    its evidence spans; *bus_stats* (``EventBus.stats()``) fills the
    telemetry panel's bus counters.

    The watch extras light up the live-health panel: *alerts* is a
    ``WatchEngine.alerts`` stream, *watch_history* its per-window
    summaries, *bus_timeline* the ``RunWatcher.bus_timeline`` samples.
    *now* (current simulated time) extends every timeline to the
    present — a mid-run refresh then shows the silent tail instead of
    truncating at the last completed event.
    """
    diagnoses: List = []
    if metrics is not None:
        from .troubleshoot import diagnose

        diagnoses = diagnose(metrics, spans=list(spans) if spans else None)
    body = [
        f"<h1>{_esc(title)}</h1>",
        "<div class='sub'>static ops dashboard · rendered from streaming "
        "rollups · <span class='mono'>python -m repro run/replay --dash-out</span></div>",
        _headline(rollup),
        _watch_panel(alerts, watch_history, bus_timeline)
        if alerts is not None
        else "",
        _taskstate_panel(rollup, now=now),
        _bandwidth_panel(rollup, now=now),
        _failure_rows(rollup),
        _chaos_panel(rollup),
        _integrity_panel(rollup),
        _segments_panel(rollup),
        _diagnosis_panel(diagnoses) if metrics is not None else "",
        _evidence_table(diagnoses),
        _telemetry_panel(rollup, bus_stats),
    ]
    return (
        "<!DOCTYPE html><html lang='en'><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_CSS}</style></head>"
        "<body><div class='wrap'>" + "".join(body) + "</div></body></html>"
    )


def write_dashboard(path: str, rollup: Rollup, **kwargs) -> str:
    """Render and write the dashboard atomically; returns the path.

    The page is written to a temp file in the destination directory and
    moved into place with ``os.replace``, so a reader (browser refresh,
    CI artifact scrape) never observes a torn half-written page even
    while a live watcher re-renders every window.
    """
    html_text = render_dashboard(rollup, **kwargs)
    dest_dir = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=dest_dir, prefix=".dash-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(html_text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
