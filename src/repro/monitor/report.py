"""Human-readable run reports.

The paper's operators lived in dashboards built from the Lobster DB and
master statistics; :func:`render_report` condenses the same views into a
terminal-friendly report: workload summary, Fig 8 breakdown, efficiency
timeline, failure census, infrastructure counters, and the §5
troubleshooting findings.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..analysis.report import ExitCode
from .records import RunMetrics
from .stats import all_segment_stats
from .troubleshoot import diagnose

__all__ = ["render_report", "requeue_summary", "ascii_bar", "ascii_timeline"]

HOUR = 3600.0


def ascii_bar(fraction: float, width: int = 30) -> str:
    """A [####    ] bar for a 0..1 fraction."""
    fraction = min(1.0, max(0.0, fraction))
    filled = int(round(fraction * width))
    return "[" + "#" * filled + " " * (width - filled) + "]"


def ascii_timeline(values, width: int = 60, height_chars: str = " .:-=+*#%@") -> str:
    """One-line density strip of a series (resampled to *width*)."""
    values = np.asarray(list(values), dtype=float)
    if values.size == 0:
        return ""
    if values.size > width:
        # Resample by block means.
        edges = np.linspace(0, values.size, width + 1).astype(int)
        values = np.array(
            [values[a:b].mean() if b > a else 0.0 for a, b in zip(edges, edges[1:])]
        )
    top = values.max()
    if top <= 0:
        return " " * len(values)
    scale = len(height_chars) - 1
    return "".join(height_chars[int(round(v / top * scale))] for v in values)


def format_reasons(counts: Dict[str, int]) -> str:
    """Per-reason counts, largest first: ``"eviction 3, fast-abort 2"``."""
    by_reason = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return ", ".join(f"{reason} {n}" for reason, n in by_reason)


def requeue_summary(master) -> str:
    """``"N requeued"`` plus the per-reason breakdown, largest first,
    e.g. ``"5 requeued (eviction 3, fast-abort 2)"``."""
    text = f"{master.tasks_requeued} requeued"
    if master.requeues_by_reason:
        text += f" ({format_reasons(master.requeues_by_reason)})"
    return text


def render_report(run, bin_width: float = 1800.0) -> str:
    """Full text report for a (possibly still running) LobsterRun."""
    m: RunMetrics = run.metrics
    lines: List[str] = []
    push = lines.append

    push("=" * 72)
    push("LOBSTER RUN REPORT")
    push("=" * 72)
    start = run.started_at if run.started_at is not None else 0.0
    end = run.finished_at if run.finished_at is not None else run.env.now
    push(f"simulated span : {start / HOUR:.2f} h -> {end / HOUR:.2f} h "
         f"({(end - start) / HOUR:.2f} h)")
    push(f"tasks          : {m.n_succeeded()} succeeded, {m.n_failed()} failed, "
         f"{requeue_summary(run.master)}")
    if run.master.worker_samples:
        peak_workers = max(v for _, v in run.master.worker_samples)
        peak_cores = max((v for _, v in run.master.core_samples), default=0)
        push(f"workers        : peak {peak_workers} connected "
             f"({peak_cores} cores)")
    push(f"efficiency     : {m.overall_efficiency():.1%} "
         f"{ascii_bar(m.overall_efficiency())}")
    push("")

    # ---- workflows ------------------------------------------------------
    push("workflows:")
    for label, w in run.workflows.items():
        t = w.tasklets
        if t is None:
            push(f"  {label}: (not started)")
            continue
        push(
            f"  {label}: {t.done_count}/{t.total} tasklets done, "
            f"{t.failed_count} failed permanently, "
            f"{w.outputs_created} outputs, "
            f"{len(w.merge.merged_files)} merged files"
        )
        if w.sizer is not None and w.sizer.decisions:
            for d in w.sizer.decisions:
                push(
                    f"    task size {d.old_size} -> {d.new_size} at "
                    f"{d.time / HOUR:.1f} h ({d.reason})"
                )
    push("")

    # ---- Fig 8 breakdown --------------------------------------------------
    push("runtime breakdown (cf. paper Fig 8):")
    breakdown = m.runtime_breakdown()
    for label, hours, pct in breakdown.rows():
        push(f"  {label:<18s} {hours:10.1f} h  {pct:5.1f} %  "
             f"{ascii_bar(pct / 100.0, 20)}")
    push("")

    # ---- efficiency timeline ------------------------------------------------
    starts, eff = m.efficiency_timeline(bin_width)
    if len(eff):
        push(f"efficiency per {bin_width / HOUR:.1f} h bin "
             f"(peak {eff.max():.2f}):")
        push("  " + ascii_timeline(eff))
        push("")

    # ---- segment distributions --------------------------------------------------
    stats = all_segment_stats(m)
    if stats:
        push("segment durations (analysis tasks):")
        for seg in ("validate", "setup", "stage_in", "cpu", "io", "stage_out"):
            if seg in stats:
                push("  " + stats[seg].row())
        push("")

    # ---- failures -------------------------------------------------------------
    if m.n_failed():
        push("failures by exit code:")
        by_code = {}
        for r in m.records:
            if not r.succeeded:
                name = ExitCode(r.exit_code).name
                by_code[name] = by_code.get(name, 0) + 1
        for name, n in sorted(by_code.items(), key=lambda kv: -kv[1]):
            push(f"  {name:<22s} {n:6d}")
        push("")

    # ---- infrastructure counters ------------------------------------------------
    services = run.services
    push("infrastructure:")
    push(f"  WAN bytes streamed      : {services.wan.bytes_moved / 1e12:.3f} TB")
    push(f"  XrootD opens / errors   : {services.xrootd.opens} / {services.xrootd.errors}")
    push(f"  Chirp transfers / fails : {services.chirp.transfers} / {services.chirp.failures}")
    push(f"  squid timeouts          : {services.proxies.total_timeouts}")
    if services.frontier is not None:
        push(f"  frontier hit rate       : {services.frontier.hit_rate:.1%}")
    push("")

    # ---- network fabric (Fig 10 analogue) -------------------------------------
    if m.flows:
        push("network traffic by class (cf. paper Fig 10):")
        totals = m.flow_bytes_by_class()
        _, series = m.bandwidth_timeline(bin_width)
        for cls in sorted(totals, key=lambda c: -totals[c]):
            strip = ascii_timeline(series.get(cls, []))
            push(f"  {cls:<10s} {totals[cls] / 1e9:10.2f} GB  {strip}")
        failed = m.n_flows_failed()
        if failed:
            push(f"  flows failed in transit : {failed}")
        fabric = services.fabric
        if fabric is not None:
            busy = [
                (name, util, gb)
                for name, util, gb in fabric.utilization_table()
                if gb > 0
            ]
            busy.sort(key=lambda row: -row[1])
            if busy:
                push("  busiest links:")
                for name, util, gb in busy[:8]:
                    push(f"    {name:<22s} {util:6.1%} {ascii_bar(util, 20)} "
                         f"{gb:9.2f} GB")
        push("")

    # ---- fault injection & recovery -------------------------------------------
    if m.has_chaos_data():
        push("fault injection & recovery:")
        n_inject = m.n_faults_injected
        n_clear = len(m.faults) - n_inject
        push(f"  faults injected / cleared : {n_inject} / {n_clear}")
        for t, topic, fields in m.faults:
            verb = "inject" if topic.endswith("inject") else "clear"
            detail = ", ".join(
                f"{k}={v}" for k, v in fields.items() if k != "index"
            )
            push(f"    {t / HOUR:6.2f} h  {verb:<7s} {detail}")
        hosts = m.hosts_blacklisted()
        if hosts:
            push(f"  hosts blacklisted         : {len(hosts)} "
                 f"({', '.join(hosts)})")
        if m.tasks_exhausted:
            push(f"  tasks exhausted (budget)  : {m.tasks_exhausted}")
        for t, fields in m.stream_fallbacks:
            push(f"  fallback at {t / HOUR:.2f} h     : "
                 f"{fields.get('workflow')} degraded "
                 f"{fields.get('frm')} -> {fields.get('to')} "
                 f"after {fields.get('failures')} stream failures")
        for t, fields in m.recovery_resumes:
            push(f"  warm restart at {t / HOUR:.2f} h : "
                 f"{fields.get('workflow')} re-attached "
                 f"{fields.get('done')}/{fields.get('tasklets')} done, "
                 f"{fields.get('pending')} pending "
                 f"({fields.get('outputs_recovered', 0)} outputs, "
                 f"{fields.get('merged_recovered', 0)} merged recovered, "
                 f"{fields.get('orphans_swept', 0)} orphans swept)")
        push("")

    # ---- integrity & exactly-once ----------------------------------------------
    if m.has_integrity_data():
        push("output integrity & exactly-once:")
        push(f"  outputs committed         : {m.integrity_commits}")
        push(f"  corruptions detected      : {len(m.integrity_corrupt)}")
        for t, fields in m.integrity_corrupt:
            push(f"    {t / HOUR:6.2f} h  {fields.get('name')} "
                 f"at {fields.get('where')}")
        if m.integrity_quarantined:
            push(f"  outputs quarantined       : {len(m.integrity_quarantined)}")
            for t, fields in m.integrity_quarantined:
                push(f"    {t / HOUR:6.2f} h  {fields.get('name')} "
                     f"({fields.get('stage')})")
        if m.duplicates_dropped:
            push(f"  duplicate results dropped : {len(m.duplicates_dropped)}")
            for t, fields in m.duplicates_dropped:
                push(f"    {t / HOUR:6.2f} h  task {fields.get('task_id')} "
                     f"via {fields.get('source')}")
        if m.integrity_orphans:
            push(f"  orphans swept on recovery : {len(m.integrity_orphans)}")
        db = getattr(run, "db", None)
        if db is not None and hasattr(db, "ledger_counts"):
            counts = db.ledger_counts()
            detail = ", ".join(
                f"{state}={n}" for state, n in sorted(counts.items())
            )
            push(f"  ledger reconciliation     : {detail or 'empty'}")
            pending = counts.get("pending", 0)
            if pending:
                push(f"  WARNING: {pending} ledger rows still pending "
                     f"(uncommitted outputs)")
        push("")

    # ---- live run health (streaming watch alerts) -------------------------
    if m.alerts:
        push("live run health (watch alerts):")
        push(f"  raised / cleared          : {m.n_alerts_raised} / "
             f"{m.n_alerts_cleared}")
        for t, topic, fields in m.alerts:
            verb = "RAISE" if topic.endswith("raise") else "clear"
            evidence = fields.get("evidence") or []
            tail = ""
            if verb == "RAISE" and evidence:
                spans = ", ".join(
                    f"{e.get('trace')}/{e.get('span')}" for e in evidence[:3]
                )
                tail = f" [evidence: {spans}]"
            push(f"    {t / HOUR:6.2f} h  {verb:<5s} "
                 f"{fields.get('alert'):<24s} {fields.get('severity'):<8s} "
                 f"window {fields.get('window')}{tail}")
        push("")

    # ---- critical path (causal tracing) ----------------------------------
    tracer = getattr(getattr(run, "env", None), "spans", None)
    spans = list(getattr(tracer, "spans", ()) or ())
    if spans:
        from .tracing import critical_path, format_breakdown

        slices, makespan = critical_path(spans)
        if slices:
            push(format_breakdown(slices, makespan))
            push("")

    # ---- troubleshooting ------------------------------------------------------------
    findings = diagnose(m, spans=spans or None)
    push("troubleshooting (paper section 5 heuristics):")
    if not findings:
        push("  no anomalies flagged")
    for d in findings:
        push(f"  - {d}")
    push("=" * 72)
    return "\n".join(lines)
