"""Run-level metric aggregation (paper §5, Figs 8, 10, 11).

:class:`RunMetrics` receives every task result as it returns to the
master and reduces the stream to the paper's views:

* the runtime breakdown table (Fig 8): CPU / I/O / failed / WQ stage-in
  / WQ stage-out as fractions of total consumed wall time,
* run timelines (Figs 10, 11): concurrent tasks, completions and
  failures per bin, CPU/wall efficiency per bin, setup and stage-out
  segment durations over time, failure exit codes over time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from ..analysis.report import ExitCode
from ..desim.bus import Topics
from .fold import METRIC_TOPICS, RUNNING_TOPICS, payload
from .metrics import EventLog, TimeSeries

__all__ = ["TaskRecord", "FlowRecord", "RuntimeBreakdown", "RunMetrics"]


@dataclass(frozen=True)
class TaskRecord:
    """Flattened, immutable view of one task attempt's outcome."""

    task_id: int
    workflow: str
    category: str
    exit_code: int
    submitted: float
    started: float
    finished: float
    segments: Dict[str, float]
    wq_stage_in: float
    wq_stage_out: float
    lost_time: float
    output_bytes: float

    @property
    def succeeded(self) -> bool:
        return self.exit_code == int(ExitCode.SUCCESS)

    @property
    def wall_time(self) -> float:
        return self.finished - self.started

    @classmethod
    def from_result(cls, workflow: str, result) -> "TaskRecord":
        """Build a record from a ``TaskResult``-shaped object.

        Duck-typed on purpose: the monitor layer subscribes to the run,
        it does not import the scheduler's types.
        """
        return cls(
            task_id=result.task.task_id,
            workflow=workflow,
            category=result.task.category,
            exit_code=int(result.exit_code),
            submitted=result.submitted,
            started=result.started,
            finished=result.finished,
            segments=dict(result.segments),
            wq_stage_in=result.wq_stage_in,
            wq_stage_out=result.wq_stage_out,
            lost_time=result.task.lost_time,
            output_bytes=(result.report.output_bytes if result.report else 0.0),
        )

    @classmethod
    def from_event(cls, fields: Dict) -> "TaskRecord":
        """Build a record from a ``task.result`` bus event's fields."""
        return cls(
            task_id=int(fields["task_id"]),
            workflow=fields["workflow"],
            category=fields["category"],
            exit_code=int(fields["exit_code"]),
            submitted=float(fields["submitted"]),
            started=float(fields["started"]),
            finished=float(fields["finished"]),
            segments=dict(fields.get("segments") or {}),
            wq_stage_in=float(fields.get("wq_stage_in", 0.0)),
            wq_stage_out=float(fields.get("wq_stage_out", 0.0)),
            lost_time=float(fields.get("lost_time", 0.0)),
            output_bytes=float(fields.get("output_bytes", 0.0)),
        )


@dataclass(frozen=True)
class FlowRecord:
    """One completed (or failed) network-fabric flow."""

    cls: str
    nbytes: float  #: bytes actually moved
    started: float
    finished: float
    src: Optional[str]
    dst: Optional[str]
    hops: int
    ok: bool

    @property
    def elapsed(self) -> float:
        return self.finished - self.started

    @classmethod
    def from_event(cls, topic: str, time: float, fields: Dict) -> "FlowRecord":
        """Build a record from a ``net.flow`` / ``net.flow.fail`` event."""
        ok = topic == Topics.NET_FLOW
        nbytes = float(fields.get("nbytes" if ok else "moved", 0.0))
        elapsed = float(fields.get("elapsed", 0.0))
        return cls(
            cls=fields.get("cls", "bulk"),
            nbytes=nbytes,
            started=float(fields.get("started", time - elapsed)),
            finished=time,
            src=fields.get("src"),
            dst=fields.get("dst"),
            hops=int(fields.get("hops", 0)),
            ok=ok,
        )


@dataclass
class RuntimeBreakdown:
    """The Fig 8 table: hours and fractions per phase."""

    task_cpu: float = 0.0
    task_io: float = 0.0
    task_failed: float = 0.0
    wq_stage_in: float = 0.0
    wq_stage_out: float = 0.0
    other: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.task_cpu
            + self.task_io
            + self.task_failed
            + self.wq_stage_in
            + self.wq_stage_out
            + self.other
        )

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total <= 0:
            return {k: 0.0 for k in self.as_dict()}
        return {k: v / total for k, v in self.as_dict().items()}

    def as_dict(self) -> Dict[str, float]:
        return {
            "task_cpu": self.task_cpu,
            "task_io": self.task_io,
            "task_failed": self.task_failed,
            "wq_stage_in": self.wq_stage_in,
            "wq_stage_out": self.wq_stage_out,
            "other": self.other,
        }

    def rows(self) -> List[tuple]:
        """(label, hours, percent) rows in the paper's order."""
        labels = {
            "task_cpu": "Task CPU Time",
            "task_io": "Task I/O Time",
            "task_failed": "Task Failed",
            "wq_stage_in": "WQ Stage In",
            "wq_stage_out": "WQ Stage Out",
            "other": "Other Overhead",
        }
        fr = self.fractions()
        return [
            (labels[k], v / 3600.0, 100.0 * fr[k])
            for k, v in self.as_dict().items()
        ]


class RunMetrics:
    """Accumulates task records and reduces them to the paper's figures.

    A :class:`~repro.monitor.fold.Fold`: ``tap`` it onto a live bus or
    ``replay`` a recording through it (:meth:`ingest`).
    """

    topics = METRIC_TOPICS

    def __init__(self) -> None:
        self.records: List[TaskRecord] = []
        #: (time, value): concurrent running tasks (fed from Master samples).
        self.running = TimeSeries("tasks-running")
        self.completions = EventLog("completions")  # category = "ok"/"failed"
        self.failures = EventLog("failures")  # category = exit code name
        self.evictions_seen = 0
        #: ``task.requeue`` count per loss reason (eviction, worker-crash,
        #: fast-abort).
        self.requeues_by_reason: Dict[str, int] = {}
        #: (time, output bytes) per successful task, for the cumulative
        #: output-written-to-disk view of §5.
        self.output_log: List[tuple] = []
        #: Completed and failed network-fabric flows (``net.flow`` /
        #: ``net.flow.fail`` bus events).
        self.flows: List[FlowRecord] = []
        # ---- chaos: fault injection & active recovery ----
        #: (time, fields) for every ``fault.inject`` / ``fault.clear``.
        self.faults: List[tuple] = []
        #: (time, host, active) blacklist transitions (``host.blacklist``).
        self.blacklist_log: List[tuple] = []
        #: Tasks whose retry budget was spent (``task.exhausted``).
        self.tasks_exhausted = 0
        #: (time, fields) streaming→staging fallbacks (``recovery.fallback``).
        self.stream_fallbacks: List[tuple] = []
        #: (time, fields) warm-restart re-attachments (``recovery.resume``):
        #: one per workflow a recovering master reloaded from the Lobster DB.
        self.recovery_resumes: List[tuple] = []
        # ---- integrity & exactly-once accounting ----
        #: (time, fields) checksum mismatches (``integrity.corrupt``).
        self.integrity_corrupt: List[tuple] = []
        #: (time, fields) quarantined outputs (``integrity.quarantine``).
        self.integrity_quarantined: List[tuple] = []
        #: Outputs verified + committed in the ledger (``integrity.commit``).
        self.integrity_commits = 0
        #: (time, fields) half-written outputs swept on recovery.
        self.integrity_orphans: List[tuple] = []
        #: (time, fields) late/duplicate results dropped (``task.duplicate``).
        self.duplicates_dropped: List[tuple] = []
        # ---- live run health (monitor.watch) ----
        #: (time, topic, fields) for every ``alert.raise``/``alert.clear``
        #: a watch engine published on this run's bus, in bus order.
        self.alerts: List[tuple] = []
        #: The remaining topics, each logged as (time, fields).
        self._logs = {
            Topics.RECOVERY_FALLBACK: self.stream_fallbacks,
            Topics.RECOVERY_RESUME: self.recovery_resumes,
            Topics.INTEGRITY_CORRUPT: self.integrity_corrupt,
            Topics.INTEGRITY_QUARANTINE: self.integrity_quarantined,
            Topics.INTEGRITY_ORPHAN: self.integrity_orphans,
            Topics.TASK_DUPLICATE: self.duplicates_dropped,
        }

    # -- ingestion -------------------------------------------------------------
    def ingest(self, topic: str, t: float, fields: Dict) -> None:
        """Fold one event; ``net.flow`` (the hot topic) is tested first."""
        if topic == Topics.NET_FLOW:
            # The fabric batches flush narration: one net.flow record may
            # carry a ``flows`` list of per-flow records.
            flows = fields.get("flows")
            if flows is None:
                self.flows.append(FlowRecord.from_event(topic, t, fields))
            else:
                add = self.flows.append
                for rec in flows:
                    add(FlowRecord.from_event(topic, t, rec))
        elif topic in RUNNING_TOPICS:
            running = fields.get("running")
            if running is not None:
                self.observe_running(t, running)
            if topic == Topics.TASK_REQUEUE:
                reason = fields.get("reason", "unknown")
                self.requeues_by_reason[reason] = self.requeues_by_reason.get(reason, 0) + 1
        elif topic == Topics.TASK_RESULT:
            self.add_record(TaskRecord.from_event(fields))
        elif topic == Topics.NET_FLOW_FAIL:
            # Failures are emitted per flow, never batched.
            self.flows.append(FlowRecord.from_event(topic, t, fields))
        elif topic == Topics.EVICTION:
            self.evictions_seen += 1
        elif topic == Topics.TASK_EXHAUSTED:
            self.tasks_exhausted += 1
        elif topic == Topics.INTEGRITY_COMMIT:
            self.integrity_commits += 1
        elif topic == Topics.HOST_BLACKLIST:
            self.blacklist_log.append(
                (t, fields.get("host"), bool(fields.get("active", True)))
            )
        elif topic == Topics.FAULT_INJECT or topic == Topics.FAULT_CLEAR:
            self.faults.append((t, topic, payload(fields)))
        elif topic == Topics.ALERT_RAISE or topic == Topics.ALERT_CLEAR:
            self.alerts.append((t, topic, payload(fields)))
        else:
            self._logs[topic].append((t, payload(fields)))

    def add_record(self, rec: TaskRecord) -> TaskRecord:
        """Ingest one flattened task record (the bus-facing entry point)."""
        self.records.append(rec)
        self.completions.record(rec.finished, "ok" if rec.succeeded else "failed")
        if not rec.succeeded:
            self.failures.record(rec.finished, ExitCode(rec.exit_code).name)
        elif rec.output_bytes > 0:
            self.output_log.append((rec.finished, rec.output_bytes))
        return rec

    def add_result(self, workflow: str, result) -> TaskRecord:
        """Ingest a ``TaskResult``-shaped object directly (duck-typed)."""
        return self.add_record(TaskRecord.from_result(workflow, result))

    def observe_running(self, t: float, running: float) -> None:
        """Append one (time, concurrent running tasks) sample."""
        if len(self.running) and t < self.running.times[-1]:
            return
        self.running.append(t, running)

    def ingest_running_samples(self, samples) -> None:
        """Copy (time, running) samples from the master."""
        for t, v in samples:
            self.observe_running(t, v)

    # -- Fig 8 ------------------------------------------------------------------
    def runtime_breakdown(self, analysis_only: bool = True) -> RuntimeBreakdown:
        b = RuntimeBreakdown()
        for r in self.records:
            if analysis_only and r.category != "analysis":
                continue
            b.task_failed += r.lost_time  # evicted attempts are lost work
            if r.succeeded:
                seg = r.segments
                b.task_cpu += seg.get("cpu", 0.0)
                b.task_io += (
                    seg.get("io", 0.0)
                    + seg.get("stage_in", 0.0)
                    + seg.get("stage_out", 0.0)
                )
                b.wq_stage_in += r.wq_stage_in
                b.wq_stage_out += r.wq_stage_out
                b.other += seg.get("validate", 0.0) + seg.get("setup", 0.0)
            else:
                b.task_failed += r.wall_time
        return b

    # -- Figs 10/11 ------------------------------------------------------------------
    def efficiency_timeline(self, bin_width: float):
        """(bin_starts, cpu/wall ratio) per bin over finished tasks."""
        if not self.records:
            return np.array([]), np.array([])
        end = max(r.finished for r in self.records)
        starts = np.arange(0.0, max(end, bin_width), bin_width)
        cpu = np.zeros_like(starts)
        wall = np.zeros_like(starts)
        for r in self.records:
            if r.category != "analysis":
                continue
            i = min(int(r.finished / bin_width), len(starts) - 1)
            cpu[i] += r.segments.get("cpu", 0.0)
            wall[i] += r.wall_time + r.lost_time
        with np.errstate(divide="ignore", invalid="ignore"):
            eff = np.where(wall > 0, cpu / wall, 0.0)
        return starts, eff

    def segment_timeline(self, segment: str, category: str = "analysis"):
        """(finish time, segment seconds) scatter for Fig 11 panels."""
        pts = [
            (r.finished, r.segments.get(segment, 0.0))
            for r in self.records
            if r.category == category and segment in r.segments
        ]
        pts.sort()
        t = np.asarray([p[0] for p in pts])
        v = np.asarray([p[1] for p in pts])
        return t, v

    def failure_codes_timeline(self):
        """(time, exit code name) pairs for the Fig 11 bottom panel."""
        return list(zip(self.failures.times, self.failures._cat))

    def output_written(self, bin_width: Optional[float] = None):
        """Cumulative output volume over time (§5's overview panel).

        Without *bin_width*: (times, cumulative bytes) at each output.
        With it: (bin_starts, cumulative bytes at each bin end).
        """
        if not self.output_log:
            return np.array([]), np.array([])
        times = np.asarray([t for t, _ in self.output_log])
        sizes = np.asarray([b for _, b in self.output_log])
        order = np.argsort(times)
        times, cum = times[order], np.cumsum(sizes[order])
        if bin_width is None:
            return times, cum
        starts = np.arange(0.0, times[-1] + bin_width, bin_width)
        idx = np.searchsorted(times, starts + bin_width, side="right") - 1
        vals = np.where(idx >= 0, cum[np.maximum(idx, 0)], 0.0)
        return starts, vals

    # -- network (Fig 10 analogue) ------------------------------------------------
    def flow_bytes_by_class(self) -> Dict[str, float]:
        """Total bytes moved per traffic class (failed flows count what
        they moved before dying)."""
        out: Dict[str, float] = {}
        for f in self.flows:
            out[f.cls] = out.get(f.cls, 0.0) + f.nbytes
        return out

    def n_flows_failed(self) -> int:
        return sum(1 for f in self.flows if not f.ok)

    def bandwidth_timeline(self, bin_width: float):
        """Per-traffic-class bandwidth over time (the Fig 10 analogue).

        Returns ``(bin_starts, {cls: bytes/s array})``.  Each flow's
        bytes are spread uniformly over its active interval, so a bin's
        value is the aggregate rate that class sustained during it.
        """
        if not self.flows:
            return np.array([]), {}
        end = max(f.finished for f in self.flows)
        starts = np.arange(0.0, max(end, bin_width), bin_width)
        series: Dict[str, np.ndarray] = {}
        for f in self.flows:
            if f.nbytes <= 0:
                continue
            arr = series.setdefault(f.cls, np.zeros_like(starts))
            t0, t1 = f.started, max(f.finished, f.started)
            if t1 <= t0:  # instantaneous: drop it all in one bin
                arr[min(int(t0 / bin_width), len(starts) - 1)] += f.nbytes / bin_width
                continue
            rate = f.nbytes / (t1 - t0)
            lo = min(int(t0 / bin_width), len(starts) - 1)
            hi = min(int(t1 / bin_width), len(starts) - 1)
            for i in range(lo, hi + 1):
                b0, b1 = starts[i], starts[i] + bin_width
                overlap = min(t1, b1) - max(t0, b0)
                if overlap > 0:
                    arr[i] += rate * overlap / bin_width
        return starts, series

    # -- headline numbers ---------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return len(self.records)

    def n_succeeded(self, category: Optional[str] = None) -> int:
        return sum(
            1
            for r in self.records
            if r.succeeded and (category is None or r.category == category)
        )

    def n_failed(self, category: Optional[str] = None) -> int:
        return sum(
            1
            for r in self.records
            if not r.succeeded and (category is None or r.category == category)
        )

    def overall_efficiency(self) -> float:
        """CPU time / total consumed time over the whole run (≤ ~0.7)."""
        b = self.runtime_breakdown()
        return b.task_cpu / b.total if b.total > 0 else 0.0

    # -- chaos (fault injection & active recovery) ---------------------------
    @property
    def n_faults_injected(self) -> int:
        return sum(1 for _, topic, _f in self.faults if topic == Topics.FAULT_INJECT)

    def hosts_blacklisted(self) -> List[str]:
        """Hosts ever blacklisted, in first-transition order."""
        seen: List[str] = []
        for _t, host, active in self.blacklist_log:
            if active and host not in seen:
                seen.append(host)
        return seen

    def has_chaos_data(self) -> bool:
        return bool(
            self.faults
            or self.blacklist_log
            or self.stream_fallbacks
            or self.recovery_resumes
            or self.tasks_exhausted
        )

    # -- live run health, integrity & exactly-once -----------------------------
    @property
    def n_alerts_raised(self) -> int:
        return sum(1 for _, topic, _f in self.alerts if topic == Topics.ALERT_RAISE)

    @property
    def n_alerts_cleared(self) -> int:
        return sum(1 for _, topic, _f in self.alerts if topic == Topics.ALERT_CLEAR)

    def has_integrity_data(self) -> bool:
        return bool(
            self.integrity_corrupt
            or self.integrity_quarantined
            or self.integrity_commits
            or self.integrity_orphans
            or self.duplicates_dropped
        )
