"""``repro.monitor`` — comprehensive run monitoring (paper §5).

Collects per-task segment records and pool/server samples, reduces them
to the paper's tables and timelines (Figs 8–11), and applies the
troubleshooting heuristics the Lobster operators used in production.
"""

from .collector import BusCollector, metrics_from_events
from .context import CMS_2015_RESOURCES, ContextStatement, contextualize
from .dash import render_dashboard, write_dashboard
from .export import (
    CsvSink,
    JsonlSink,
    export_run,
    load_events,
    load_task_records,
    records_from_events,
)
from .metrics import EventLog, TimeSeries
from .records import RunMetrics, RuntimeBreakdown, TaskRecord
from .report import ascii_bar, ascii_timeline, render_report, requeue_summary
from .rollup import (
    Rollup,
    RollupCollector,
    SegmentDigest,
    rollup_from_events,
    split_events_by_window,
    verify_parity,
)
from .stats import (
    SegmentStats,
    all_segment_stats,
    histogram_ascii,
    percentile,
    segment_stats,
    summarize,
)
from .tracing import (
    PathSlice,
    Span,
    SpanStreamBuilder,
    SpanTracer,
    TraceContext,
    attribute,
    attribute_hosts,
    chrome_trace,
    critical_path,
    format_breakdown,
    spans_from_events,
    work_coverage,
    write_chrome_trace,
    write_spans_jsonl,
)
from .troubleshoot import Diagnosis, EvidenceSpan, diagnose
from .watch import (
    DEFAULT_DETECTORS,
    DetectorSpec,
    RunWatcher,
    WatchEngine,
    alerts_from_events,
)

__all__ = [
    "TimeSeries",
    "EventLog",
    "TaskRecord",
    "RuntimeBreakdown",
    "RunMetrics",
    "Diagnosis",
    "diagnose",
    "render_report",
    "requeue_summary",
    "ascii_bar",
    "ascii_timeline",
    "contextualize",
    "ContextStatement",
    "CMS_2015_RESOURCES",
    "SegmentStats",
    "segment_stats",
    "all_segment_stats",
    "histogram_ascii",
    "percentile",
    "summarize",
    "export_run",
    "load_task_records",
    "BusCollector",
    "metrics_from_events",
    "JsonlSink",
    "CsvSink",
    "load_events",
    "records_from_events",
    "TraceContext",
    "Span",
    "SpanTracer",
    "SpanStreamBuilder",
    "spans_from_events",
    "PathSlice",
    "critical_path",
    "attribute",
    "attribute_hosts",
    "work_coverage",
    "format_breakdown",
    "chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
    "EvidenceSpan",
    "Rollup",
    "RollupCollector",
    "SegmentDigest",
    "rollup_from_events",
    "split_events_by_window",
    "verify_parity",
    "render_dashboard",
    "write_dashboard",
    "DetectorSpec",
    "DEFAULT_DETECTORS",
    "WatchEngine",
    "RunWatcher",
    "alerts_from_events",
]
