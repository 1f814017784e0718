"""Causal tracing: span trees, critical paths, evidence-backed answers.

Public surface of the tracing subsystem (DESIGN.md §10):

* :class:`TraceContext` / :class:`Span` — the vocabulary.
* :class:`SpanTracer` — attach to an environment before running; every
  task attempt then yields a span tree rooted at its work unit.
* :class:`SpanStreamBuilder` — a fold that rebuilds spans offline from a
  JSONL recording of a traced run.
* :func:`critical_path` and friends — the "why was this slow" table.
* :func:`write_spans_jsonl` / :func:`write_chrome_trace` —
  deterministic span exports (Perfetto-loadable).
"""

from .context import Span, TraceContext
from .critical_path import (
    PathSlice,
    attribute,
    attribute_hosts,
    critical_path,
    format_breakdown,
    work_coverage,
)
from .export import chrome_trace, write_chrome_trace, write_spans_jsonl
from .tracer import ROOT_NAMES, SpanStreamBuilder, SpanTracer, orphan_spans

__all__ = [
    "TraceContext",
    "Span",
    "SpanTracer",
    "SpanStreamBuilder",
    "ROOT_NAMES",
    "orphan_spans",
    "PathSlice",
    "critical_path",
    "attribute",
    "attribute_hosts",
    "work_coverage",
    "format_breakdown",
    "chrome_trace",
    "write_chrome_trace",
    "write_spans_jsonl",
]
