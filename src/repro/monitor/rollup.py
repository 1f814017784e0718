"""Streaming, windowed telemetry rollups: O(windows) memory, exact parity.

:class:`~repro.monitor.records.RunMetrics` keeps every task and flow
record in memory — fine for 10k tasks, fatal for the 100k-worker
campaigns the roadmap targets.  This module is the bounded-memory twin:
:class:`Rollup` folds the same bus event stream into *per-window
accumulator cells* (dicts keyed by bin index) plus scalar counters and
fixed-bin segment digests, so peak retention scales with the number of
occupied time windows and never with the number of events.

Parity is the contract, not an aspiration: the finalisers replicate the
``RunMetrics`` binning arithmetic expression-for-expression —

* ``efficiency_timeline``: per-bin ``cpu += segments["cpu"]`` /
  ``wall += wall_time + lost_time`` over analysis records, bins from
  ``np.arange(0, max(end, bin_width), bin_width)`` with the final-bin
  clamp ``min(int(t / bin_width), n - 1)``;
* ``bandwidth_timeline``: each flow's bytes spread uniformly over its
  active interval with the identical per-bin overlap expression
  ``rate * overlap / bin_width``;
* scalar counters are plain integer sums; float aggregates use the
  *window-major fold* described below.

**Window-major folds and the merge contract.**  IEEE float addition is
not associative, so a rollup that must support :meth:`Rollup.merge`
(combining partial rollups from a sharded or split event stream into
the same bits a single-pass rollup would produce) cannot keep plain
run-global float accumulators — a merged ``S1 + S2`` differs in the
last ulp from the single-pass fold whenever both partials touched the
accumulator.  Instead, *every float accumulator is keyed by the owner
window of the event that feeds it* (a task's finish bin, a flow's
completion bin), and the finalisers fold those per-window sub-sums in
ascending window order.  Under a window-aligned split (see
:func:`split_events_by_window`) each sub-cell is owned by exactly one
partial, so ``merge`` is a disjoint union that re-adds nothing — the
merged rollup is bit-identical to the single-pass rollup in every
finaliser, including the finalise-time overflow fold.
:func:`verify_parity` pins the same window-major fold against
independent reductions of the exact path's retained record lists.

Streaming accumulation is *unclamped* (cells keyed by the raw bin
index); the clamp needs the run's end, which is only known at finalise
time, so overflow cells are folded into the last bin then.  Overflow
can only hold events stamped exactly at the run end when the end is an
exact bin multiple, and such events also arrive last, so the fold adds
them in the same order the exact path would.

:func:`verify_parity` checks a rollup against a ``RunMetrics`` built
from the same stream and returns the list of mismatches (empty on
success); ``tests/test_rollup_parity.py`` runs it on the tier-1
scenarios.

Like everything under ``repro.monitor``, this module depends only on
the bus vocabulary — never on the scheduler, batch, CVMFS, or storage
layers.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..desim.bus import EventBus, Topics
from .fold import METRIC_TOPICS, RUNNING_TOPICS, tap
from .records import RunMetrics, RuntimeBreakdown

__all__ = [
    "Rollup",
    "RollupCollector",
    "SegmentDigest",
    "split_events_by_window",
    "verify_parity",
]

#: Bounded narration kept for the dashboard's chaos panel.
_NARRATION_LIMIT = 64


class SegmentDigest:
    """Fixed-bin log-spaced duration histogram: O(1) memory per segment.

    Durations from 1 ms to ~11.5 days land in 54 log-spaced bins (six
    per decade); shorter/longer samples hit the under/overflow bins.
    Alongside the histogram the digest keeps exact count / sum / min /
    max, so the mean is exact and quantiles are bin-resolution
    estimates (within one bin edge, ~47% relative width).
    """

    LO = 1e-3
    HI = 1e6
    BINS = 54  # six per decade across nine decades

    __slots__ = ("counts", "n", "_totals", "min", "max")

    def __init__(self) -> None:
        # [underflow, BINS regular bins, overflow]
        self.counts = np.zeros(self.BINS + 2, dtype=np.int64)
        self.n = 0
        #: Owner window -> sum of samples stamped in that window; the
        #: exact total is the ascending-window fold (see the module
        #: docstring on window-major folds — this is what keeps digest
        #: means bit-identical under ``Rollup.merge``).
        self._totals: Dict[int, float] = {}
        self.min = float("inf")
        self.max = float("-inf")

    @classmethod
    def edges(cls) -> np.ndarray:
        """The regular bins' edges (length ``BINS + 1``)."""
        return np.logspace(np.log10(cls.LO), np.log10(cls.HI), cls.BINS + 1)

    @property
    def total(self) -> float:
        total = 0.0
        for w in sorted(self._totals):
            total += self._totals[w]
        return total

    def add(self, x: float, window: int = 0) -> None:
        x = float(x)
        if not np.isfinite(x):
            return
        self.n += 1
        self._totals[window] = self._totals.get(window, 0.0) + x
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x
        if x < self.LO:
            self.counts[0] += 1
        elif x >= self.HI:
            self.counts[-1] += 1
        else:
            span = self.BINS / (np.log10(self.HI) - np.log10(self.LO))
            i = int((np.log10(x) - np.log10(self.LO)) * span)
            self.counts[1 + min(i, self.BINS - 1)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else float("nan")

    def quantile(self, q: float) -> float:
        """Histogram-resolution quantile estimate (exact at min/max)."""
        if self.n == 0:
            return float("nan")
        if q <= 0:
            return self.min
        if q >= 1:
            return self.max
        target = q * self.n
        cum = 0
        edges = self.edges()
        for i, c in enumerate(self.counts):
            cum += int(c)
            if cum >= target:
                if i == 0:
                    return self.min
                if i == len(self.counts) - 1:
                    return self.max
                # Geometric midpoint of the log-spaced bin.
                return float(np.sqrt(edges[i - 1] * edges[i]))
        return self.max  # pragma: no cover - defensive

    def merge_from(self, other: "SegmentDigest") -> None:
        """Fold *other* into this digest (window-disjoint partials merge
        without any float re-addition; overlapping windows sum)."""
        self.counts += other.counts
        self.n += other.n
        for w, v in other._totals.items():
            self._totals[w] = self._totals.get(w, 0.0) + v
        if other.min < self.min:
            self.min = other.min
        if other.max > self.max:
            self.max = other.max

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SegmentDigest n={self.n} mean={self.mean:.3g}>"


class Rollup:
    """Windowed streaming aggregation of a run's bus event stream.

    A :class:`~repro.monitor.fold.Fold` over the same topics as
    :class:`RunMetrics`: ``tap`` it onto a live bus or ``replay`` a
    recording through it.  Read the finalisers at any point — they are
    pure functions of the accumulated cells and may be called
    repeatedly, including mid-run.
    """

    topics = METRIC_TOPICS

    def __init__(self, bin_width: float = 1800.0):
        if bin_width <= 0:
            raise ValueError("bin_width must be positive")
        self.bin_width = float(bin_width)
        self.events_seen = 0
        # ---- tasks ----
        self.n_tasks = 0
        #: category -> [ok, failed] counts.
        self.tasks_by_category: Dict[str, List[int]] = {}
        #: exit code name -> count over failed tasks.
        self.failure_codes: Dict[str, int] = {}
        self.max_finished: Optional[float] = None
        #: finish window -> Fig 8 breakdown over tasks finishing there;
        #: the run-global :attr:`breakdown` is the ascending-window fold.
        self._breakdown: Dict[int, RuntimeBreakdown] = {}
        #: bin -> [cpu, wall] over analysis records (efficiency numerator
        #: and denominator, unclamped bin index).
        self._eff: Dict[int, List[float]] = {}
        #: bin -> [ok, failed] completion counts (all categories).
        self._completions: Dict[int, List[int]] = {}
        #: bin -> output bytes written by tasks finishing in that bin.
        self._output: Dict[int, float] = {}
        #: segment name -> digest over analysis records.
        self.segments: Dict[str, SegmentDigest] = {}
        # ---- running concurrency ----
        #: bin -> max running sample seen in that bin.
        self._running_max: Dict[int, float] = {}
        self._running_last = 0.0
        self._running_seen = False
        # ---- flows ----
        self.n_flows = 0
        self.n_flows_failed = 0
        #: class -> finish window -> bytes, outer dict in first-seen
        #: class order (fold ascending windows for the class total).
        self._flow_bytes: Dict[str, Dict[int, float]] = {}
        self.max_flow_finished: Optional[float] = None
        #: class -> owner window (flow completion bin) -> bin -> bytes/s
        #: contribution (unclamped bin index).
        self._bw: Dict[str, Dict[int, Dict[int, float]]] = {}
        # ---- live run health (repro.monitor.watch) ----
        self.alerts_raised = 0
        self.alerts_cleared = 0
        # ---- chaos ----
        self.evictions = 0
        #: ``task.requeue`` count per loss reason.
        self.requeues_by_reason: Dict[str, int] = {}
        self.faults_injected = 0
        self.faults_cleared = 0
        self.tasks_exhausted = 0
        self.fallbacks = 0
        #: Warm-restart re-attachments (one per workflow a recovering
        #: master reloaded from the Lobster DB).
        self.resumes = 0
        self.blacklisted_hosts: List[str] = []
        #: Bounded (time, topic, description) narration for the dash.
        self.narration: deque = deque(maxlen=_NARRATION_LIMIT)
        # ---- integrity ----
        self.integrity_corrupt = 0
        self.integrity_quarantined = 0
        self.integrity_commits = 0
        self.integrity_orphans = 0
        self.duplicates_dropped = 0

    # -- ingestion ---------------------------------------------------------
    def add_task(self, fields: Dict) -> None:
        """Fold one ``task.result`` event's fields (no record retained)."""
        self.events_seen += 1
        self.n_tasks += 1
        bw = self.bin_width
        category = fields["category"]
        exit_code = int(fields["exit_code"])
        ok = exit_code == 0
        started = float(fields["started"])
        finished = float(fields["finished"])
        segments = fields.get("segments") or {}
        lost_time = float(fields.get("lost_time", 0.0))
        output_bytes = float(fields.get("output_bytes", 0.0))
        if self.max_finished is None or finished > self.max_finished:
            self.max_finished = finished
        cat = self.tasks_by_category.setdefault(category, [0, 0])
        cat[0 if ok else 1] += 1
        i = int(finished / bw)
        cell = self._completions.get(i)
        if cell is None:
            cell = self._completions[i] = [0, 0]
        cell[0 if ok else 1] += 1
        if not ok:
            name = _exit_code_name(exit_code)
            self.failure_codes[name] = self.failure_codes.get(name, 0) + 1
        elif output_bytes > 0:
            self._output[i] = self._output.get(i, 0.0) + output_bytes
        # Fig 8 breakdown — same branch structure as
        # RunMetrics.runtime_breakdown(analysis_only=True), accumulated
        # per finish window (window-major fold; see module docstring).
        if category == "analysis":
            b = self._breakdown.get(i)
            if b is None:
                b = self._breakdown[i] = RuntimeBreakdown()
            b.task_failed += lost_time
            if ok:
                b.task_cpu += segments.get("cpu", 0.0)
                b.task_io += (
                    segments.get("io", 0.0)
                    + segments.get("stage_in", 0.0)
                    + segments.get("stage_out", 0.0)
                )
                b.wq_stage_in += float(fields.get("wq_stage_in", 0.0))
                b.wq_stage_out += float(fields.get("wq_stage_out", 0.0))
                b.other += segments.get("validate", 0.0) + segments.get("setup", 0.0)
            else:
                b.task_failed += finished - started
            # Efficiency cells — mirrors efficiency_timeline's loop body.
            eff = self._eff.get(i)
            if eff is None:
                eff = self._eff[i] = [0.0, 0.0]
            eff[0] += segments.get("cpu", 0.0)
            eff[1] += (finished - started) + lost_time
            for seg, dur in segments.items():
                digest = self.segments.get(seg)
                if digest is None:
                    digest = self.segments[seg] = SegmentDigest()
                digest.add(dur, window=i)

    def add_flow(self, time: float, fields: Dict, ok: bool = True) -> None:
        """Fold one ``net.flow`` / ``net.flow.fail`` record."""
        self.events_seen += 1
        self.n_flows += 1
        if not ok:
            self.n_flows_failed += 1
        cls = fields.get("cls", "bulk")
        nbytes = float(fields.get("nbytes" if ok else "moved", 0.0))
        elapsed = float(fields.get("elapsed", 0.0))
        started = float(fields.get("started", time - elapsed))
        finished = float(time)
        bw = self.bin_width
        w = int(finished / bw)  # owner window: the flow's completion bin
        per_win = self._flow_bytes.get(cls)
        if per_win is None:
            per_win = self._flow_bytes[cls] = {}
        per_win[w] = per_win.get(w, 0.0) + nbytes
        if self.max_flow_finished is None or finished > self.max_flow_finished:
            self.max_flow_finished = finished
        if nbytes <= 0:
            return
        windows = self._bw.get(cls)
        if windows is None:
            windows = self._bw[cls] = {}
        cells = windows.get(w)
        if cells is None:
            cells = windows[w] = {}
        t0, t1 = started, max(finished, started)
        if t1 <= t0:  # instantaneous: all bytes land in one bin
            i = int(t0 / bw)
            cells[i] = cells.get(i, 0.0) + nbytes / bw
            return
        rate = nbytes / (t1 - t0)
        for i in range(int(t0 / bw), int(t1 / bw) + 1):
            b0 = i * bw
            overlap = min(t1, b0 + bw) - max(t0, b0)
            if overlap > 0:
                cells[i] = cells.get(i, 0.0) + rate * overlap / bw

    def observe_running(self, t: float, running: float) -> None:
        """Fold one concurrency sample into the per-bin running maxima."""
        self.events_seen += 1
        i = int(t / self.bin_width)
        prev = self._running_max.get(i)
        if prev is None or running > prev:
            self._running_max[i] = running
        self._running_last = running
        self._running_seen = True

    def ingest(self, topic: str, t: float, fields: Dict) -> None:
        """Fold one event (the :class:`~repro.monitor.fold.Fold` entry);
        ``net.flow`` (the hot topic) is tested first."""
        if topic == Topics.NET_FLOW:
            flows = fields.get("flows")
            if flows is None:
                self.add_flow(t, fields)
            else:
                add = self.add_flow
                for rec in flows:
                    add(t, rec)
        elif topic in RUNNING_TOPICS:
            running = fields.get("running")
            if running is not None:
                self.observe_running(t, running)
            if topic == Topics.TASK_REQUEUE:
                reason = fields.get("reason", "unknown")
                self.requeues_by_reason[reason] = self.requeues_by_reason.get(reason, 0) + 1
        elif topic == Topics.TASK_RESULT:
            self.add_task(fields)
        elif topic == Topics.NET_FLOW_FAIL:
            self.add_flow(t, fields, ok=False)
        else:
            self._note(topic, t, fields)

    def _note(self, topic: str, t: float, fields: Dict) -> None:
        """The counters, and the dashboard's chaos narration."""
        self.events_seen += 1
        narrate = self.narration.append
        if topic == Topics.EVICTION:
            self.evictions += 1
        elif topic == Topics.TASK_EXHAUSTED:
            self.tasks_exhausted += 1
        elif topic == Topics.TASK_DUPLICATE:
            self.duplicates_dropped += 1
        elif topic == Topics.INTEGRITY_CORRUPT:
            self.integrity_corrupt += 1
        elif topic == Topics.INTEGRITY_QUARANTINE:
            self.integrity_quarantined += 1
        elif topic == Topics.INTEGRITY_COMMIT:
            self.integrity_commits += 1
        elif topic == Topics.INTEGRITY_ORPHAN:
            self.integrity_orphans += 1
        elif topic == Topics.FAULT_INJECT or topic == Topics.FAULT_CLEAR:
            if topic == Topics.FAULT_INJECT:
                self.faults_injected += 1
            else:
                self.faults_cleared += 1
            narrate((t, topic, str(fields.get("kind", fields.get("fault", "")))))
        elif topic == Topics.HOST_BLACKLIST:
            host = fields.get("host")
            if fields.get("active", True) and host not in self.blacklisted_hosts:
                self.blacklisted_hosts.append(host)
            narrate((t, topic, str(host)))
        elif topic == Topics.RECOVERY_FALLBACK or topic == Topics.RECOVERY_RESUME:
            if topic == Topics.RECOVERY_FALLBACK:
                self.fallbacks += 1
            else:
                self.resumes += 1
            narrate((t, topic, str(fields.get("workflow", ""))))
        else:  # alert.raise / alert.clear
            if topic == Topics.ALERT_RAISE:
                self.alerts_raised += 1
            else:
                self.alerts_cleared += 1
            label = f"{fields.get('detector', '?')}:{fields.get('severity', '')}"
            narrate((t, topic, label))

    # -- window-major folded aggregates ------------------------------------
    @property
    def breakdown(self) -> RuntimeBreakdown:
        """Run-global Fig 8 breakdown: ascending-window fold of the
        per-window cells (bit-stable under :meth:`merge`)."""
        total = RuntimeBreakdown()
        for w in sorted(self._breakdown):
            b = self._breakdown[w]
            total.task_cpu += b.task_cpu
            total.task_io += b.task_io
            total.task_failed += b.task_failed
            total.wq_stage_in += b.wq_stage_in
            total.wq_stage_out += b.wq_stage_out
            total.other += b.other
        return total

    @property
    def output_bytes(self) -> float:
        total = 0.0
        for w in sorted(self._output):
            total += self._output[w]
        return total

    @property
    def flow_bytes(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for cls, per_win in self._flow_bytes.items():
            total = 0.0
            for w in sorted(per_win):
                total += per_win[w]
            out[cls] = total
        return out

    # -- finalisers --------------------------------------------------------
    def _starts(self, end: float) -> np.ndarray:
        return np.arange(0.0, max(end, self.bin_width), self.bin_width)

    @staticmethod
    def _fold(cells: Dict[int, float], n: int) -> np.ndarray:
        """Scatter unclamped cells into an *n*-bin array, clamping the
        overflow into the last bin (see module docstring)."""
        out = np.zeros(n)
        for i in sorted(cells):
            out[min(i, n - 1)] += cells[i]
        return out

    def efficiency_timeline(
        self, now: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bit-parity twin of ``RunMetrics.efficiency_timeline``.

        *now* (mid-run rendering) extends the time axis to the current
        sim time without changing any accumulated bin value.
        """
        if self.n_tasks == 0:
            return np.array([]), np.array([])
        end = self.max_finished
        if now is not None and now > end:
            end = now
        starts = self._starts(end)
        n = len(starts)
        cpu = self._fold({i: c[0] for i, c in self._eff.items()}, n)
        wall = self._fold({i: c[1] for i, c in self._eff.items()}, n)
        with np.errstate(divide="ignore", invalid="ignore"):
            eff = np.where(wall > 0, cpu / wall, 0.0)
        return starts, eff

    def bandwidth_timeline(
        self, now: Optional[float] = None
    ) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
        """Windowed twin of ``RunMetrics.bandwidth_timeline``: identical
        per-bin overlap arithmetic, per-bin sums folded owner-window
        ascending (bit-stable under :meth:`merge`)."""
        if self.n_flows == 0:
            return np.array([]), {}
        end = self.max_flow_finished
        if now is not None and now > end:
            end = now
        starts = self._starts(end)
        n = len(starts)
        series: Dict[str, np.ndarray] = {}
        for cls, windows in self._bw.items():
            out = np.zeros(n)
            for w in sorted(windows):
                cells = windows[w]
                for i in sorted(cells):
                    out[min(i, n - 1)] += cells[i]
            series[cls] = out
        return starts, series

    def completion_counts(
        self, now: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(bin_starts, ok counts, failed counts), all task categories.

        Bin edges match ``EventLog.counts(bin_width, t_end=end)``: the
        final edge closes the last bin, so completions stamped exactly
        at the run end fold into it.
        """
        if self.n_tasks == 0:
            return np.array([]), np.array([]), np.array([])
        end = self.max_finished
        if now is not None and now > end:
            end = now
        end = max(end, self.bin_width)
        edges = np.arange(0.0, end + self.bin_width, self.bin_width)
        n = len(edges) - 1
        ok = np.zeros(n, dtype=np.int64)
        failed = np.zeros(n, dtype=np.int64)
        for i, (o, f) in sorted(self._completions.items()):
            j = min(i, n - 1)
            ok[j] += o
            failed[j] += f
        return edges[:-1], ok, failed

    def output_timeline(
        self, now: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(bin_starts, cumulative output bytes at each bin end)."""
        if not self._output:
            return np.array([]), np.array([])
        end = self.max_finished or self.bin_width
        if now is not None and now > end:
            end = now
        starts = self._starts(end)
        n = len(starts)
        per_bin = self._fold(self._output, n)
        return starts, np.cumsum(per_bin)

    def running_timeline(
        self, now: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(bin_starts, max concurrent tasks per bin), gaps carried
        forward from the previous bin's last known level."""
        if not self._running_max:
            return np.array([]), np.array([])
        end_bin = max(self._running_max)
        if now is not None:
            end_bin = max(end_bin, int(now / self.bin_width))
        starts = np.arange(0, end_bin + 1) * self.bin_width
        out = np.zeros(len(starts))
        level = 0.0
        for i in range(len(starts)):
            level = self._running_max.get(i, level)
            out[i] = level
        return starts, out

    def overall_efficiency(self) -> float:
        b = self.breakdown
        return b.task_cpu / b.total if b.total > 0 else 0.0

    def n_succeeded(self, category: Optional[str] = None) -> int:
        if category is not None:
            return self.tasks_by_category.get(category, [0, 0])[0]
        return sum(v[0] for v in self.tasks_by_category.values())

    def n_failed(self, category: Optional[str] = None) -> int:
        if category is not None:
            return self.tasks_by_category.get(category, [0, 0])[1]
        return sum(v[1] for v in self.tasks_by_category.values())

    def retained_cells(self) -> int:
        """Peak-memory proxy: every live accumulator cell, counted.

        This is the number the CI density gate watches: it grows with
        *occupied windows* (and segment/class cardinality), never with
        event count.
        """
        return (
            len(self._eff)
            + len(self._completions)
            + len(self._output)
            + len(self._running_max)
            + len(self._breakdown)
            + sum(
                len(cells)
                for windows in self._bw.values()
                for cells in windows.values()
            )
            + len(self.segments) * (SegmentDigest.BINS + 2)
            + sum(len(d._totals) for d in self.segments.values())
            + len(self.narration)
            + len(self.blacklisted_hosts)
            + len(self.tasks_by_category)
            + len(self.failure_codes)
            + sum(len(per_win) for per_win in self._flow_bytes.values())
        )

    # -- merge -------------------------------------------------------------
    @classmethod
    def merge(cls, parts: Sequence["Rollup"]) -> "Rollup":
        """Combine partial rollups (sharded or split streams) into one.

        Under a window-aligned, order-preserving split (see
        :func:`split_events_by_window`) every float sub-cell is owned by
        exactly one partial, so merging is a disjoint union that re-adds
        nothing: every finaliser of the merged rollup matches the
        single-pass rollup bit for bit, including the finalise-time
        overflow fold.  Non-aligned splits still merge correctly —
        shared windows sum in partial order — but exactness then holds
        only up to float reassociation.
        """
        parts = list(parts)
        if not parts:
            raise ValueError("merge() needs at least one partial rollup")
        widths = {p.bin_width for p in parts}
        if len(widths) != 1:
            raise ValueError(f"merge() with mixed bin widths: {sorted(widths)}")
        out = cls(parts[0].bin_width)
        for p in parts:
            out.events_seen += p.events_seen
            # tasks
            out.n_tasks += p.n_tasks
            for k, v in p.tasks_by_category.items():
                cell = out.tasks_by_category.setdefault(k, [0, 0])
                cell[0] += v[0]
                cell[1] += v[1]
            for k, n in p.failure_codes.items():
                out.failure_codes[k] = out.failure_codes.get(k, 0) + n
            if p.max_finished is not None and (
                out.max_finished is None or p.max_finished > out.max_finished
            ):
                out.max_finished = p.max_finished
            for w, b in p._breakdown.items():
                cell = out._breakdown.get(w)
                if cell is None:
                    cell = out._breakdown[w] = RuntimeBreakdown()
                cell.task_cpu += b.task_cpu
                cell.task_io += b.task_io
                cell.task_failed += b.task_failed
                cell.wq_stage_in += b.wq_stage_in
                cell.wq_stage_out += b.wq_stage_out
                cell.other += b.other
            for i, c in p._eff.items():
                cell = out._eff.get(i)
                if cell is None:
                    cell = out._eff[i] = [0.0, 0.0]
                cell[0] += c[0]
                cell[1] += c[1]
            for i, c in p._completions.items():
                cell = out._completions.get(i)
                if cell is None:
                    cell = out._completions[i] = [0, 0]
                cell[0] += c[0]
                cell[1] += c[1]
            for i, v in p._output.items():
                out._output[i] = out._output.get(i, 0.0) + v
            for seg, digest in p.segments.items():
                mine = out.segments.get(seg)
                if mine is None:
                    mine = out.segments[seg] = SegmentDigest()
                mine.merge_from(digest)
            # running concurrency: per-bin max; the final level comes
            # from the rightmost partial that saw any sample.
            for i, v in p._running_max.items():
                prev = out._running_max.get(i)
                if prev is None or v > prev:
                    out._running_max[i] = v
            if p._running_seen:
                out._running_last = p._running_last
                out._running_seen = True
            # flows
            out.n_flows += p.n_flows
            out.n_flows_failed += p.n_flows_failed
            for fcls, per_win in p._flow_bytes.items():
                mine_fb = out._flow_bytes.setdefault(fcls, {})
                for w, v in per_win.items():
                    mine_fb[w] = mine_fb.get(w, 0.0) + v
            if p.max_flow_finished is not None and (
                out.max_flow_finished is None
                or p.max_flow_finished > out.max_flow_finished
            ):
                out.max_flow_finished = p.max_flow_finished
            for fcls, windows in p._bw.items():
                mine_w = out._bw.setdefault(fcls, {})
                for w, cells in windows.items():
                    mine_c = mine_w.setdefault(w, {})
                    for i, v in cells.items():
                        mine_c[i] = mine_c.get(i, 0.0) + v
            # alerts / chaos / integrity counters
            out.alerts_raised += p.alerts_raised
            out.alerts_cleared += p.alerts_cleared
            out.evictions += p.evictions
            for reason, n in p.requeues_by_reason.items():
                out.requeues_by_reason[reason] = out.requeues_by_reason.get(reason, 0) + n
            out.faults_injected += p.faults_injected
            out.faults_cleared += p.faults_cleared
            out.tasks_exhausted += p.tasks_exhausted
            out.fallbacks += p.fallbacks
            out.resumes += p.resumes
            for host in p.blacklisted_hosts:
                if host not in out.blacklisted_hosts:
                    out.blacklisted_hosts.append(host)
            # Partials arrive in stream order, so concatenation keeps the
            # newest entries and the deque's maxlen trims to the same
            # tail the single-pass narration would hold.
            out.narration.extend(p.narration)
            out.integrity_corrupt += p.integrity_corrupt
            out.integrity_quarantined += p.integrity_quarantined
            out.integrity_commits += p.integrity_commits
            out.integrity_orphans += p.integrity_orphans
            out.duplicates_dropped += p.duplicates_dropped
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<Rollup bin={self.bin_width:g}s events={self.events_seen} "
            f"tasks={self.n_tasks} flows={self.n_flows} "
            f"cells={self.retained_cells()}>"
        )


def _exit_code_name(code: int) -> str:
    from ..analysis.report import ExitCode

    try:
        return ExitCode(code).name
    except ValueError:
        return str(code)


class RollupCollector:
    """A :class:`Rollup` tapped onto a live bus (see :func:`tap`)."""

    def __init__(
        self,
        bus: EventBus,
        rollup: Optional[Rollup] = None,
        bin_width: float = 1800.0,
        workflows: Optional[Sequence[str]] = None,
    ):
        self.bus = bus
        self.rollup = rollup if rollup is not None else Rollup(bin_width)
        self._tap = tap(bus, [self.rollup], workflows=workflows)

    def close(self) -> None:
        self._tap.close()


def _owner_window(ev: dict, bin_width: float) -> int:
    """The window that owns a recorded event's float contributions.

    ``task.result`` events feed cells keyed by the task's *finish* bin;
    everything else (flows, running samples, chaos narration, alerts) is
    keyed by the event's bus time.  Batched ``net.flow`` events route
    whole: every flow in a batch completes at the batch's bus time.
    """
    if ev.get("topic") == Topics.TASK_RESULT:
        return int(float(ev["finished"]) / bin_width)
    return int(float(ev.get("t", 0.0)) / bin_width)


def split_events_by_window(
    events: Sequence[dict], parts: int, bin_width: float = 1800.0
) -> List[List[dict]]:
    """Split a recorded stream into *parts* window-aligned sub-streams.

    Owner windows are partitioned into contiguous, near-equal chunks;
    each event lands in the chunk owning its window, preserving stream
    order within every chunk.  Replaying each sub-stream into its own
    :class:`Rollup` and merging with :meth:`Rollup.merge`
    reproduces the single-pass rollup bit for bit (the pinned contract
    in ``tests/test_rollup_merge.py``).
    """
    if parts <= 0:
        raise ValueError("parts must be positive")
    events = list(events)
    owners = [_owner_window(ev, bin_width) for ev in events]
    buckets: List[List[dict]] = [[] for _ in range(parts)]
    occupied = sorted(set(owners))
    if not occupied:
        return buckets
    n = len(occupied)
    chunk_of = {w: min(idx * parts // n, parts - 1) for idx, w in enumerate(occupied)}
    for ev, w in zip(events, owners):
        buckets[chunk_of[w]].append(ev)
    return buckets


def _windowed_bandwidth_reference(
    flows, bw: float, n: int
) -> Dict[str, np.ndarray]:
    """Re-derive the rollup's window-major bandwidth fold from the exact
    path's retained flow records (independent double-entry bookkeeping:
    no bus wiring, no batch expansion, no streaming state)."""
    cells: Dict[str, Dict[int, Dict[int, float]]] = {}
    for f in flows:
        if f.nbytes <= 0:
            continue
        windows = cells.setdefault(f.cls, {})
        per = windows.setdefault(int(f.finished / bw), {})
        t0, t1 = f.started, max(f.finished, f.started)
        if t1 <= t0:
            i = int(t0 / bw)
            per[i] = per.get(i, 0.0) + f.nbytes / bw
            continue
        rate = f.nbytes / (t1 - t0)
        for i in range(int(t0 / bw), int(t1 / bw) + 1):
            b0 = i * bw
            overlap = min(t1, b0 + bw) - max(t0, b0)
            if overlap > 0:
                per[i] = per.get(i, 0.0) + rate * overlap / bw
    out: Dict[str, np.ndarray] = {}
    for cls_, windows in cells.items():
        arr = np.zeros(n)
        for w in sorted(windows):
            per = windows[w]
            for i in sorted(per):
                arr[min(i, n - 1)] += per[i]
        out[cls_] = arr
    return out


def _windowed_scalar_references(metrics: RunMetrics, bw: float):
    """Window-major references for the rollup's float scalars: regroup
    the exact path's record lists by owner window and fold ascending,
    mirroring the rollup's reassociation (see the module docstring).
    Returns ``(breakdown, output_bytes, flow_bytes)``."""
    bd: Dict[int, RuntimeBreakdown] = {}
    for r in metrics.records:
        if r.category != "analysis":
            continue
        w = int(r.finished / bw)
        cell = bd.get(w)
        if cell is None:
            cell = bd[w] = RuntimeBreakdown()
        cell.task_failed += r.lost_time
        if r.succeeded:
            seg = r.segments
            cell.task_cpu += seg.get("cpu", 0.0)
            cell.task_io += (
                seg.get("io", 0.0)
                + seg.get("stage_in", 0.0)
                + seg.get("stage_out", 0.0)
            )
            cell.wq_stage_in += r.wq_stage_in
            cell.wq_stage_out += r.wq_stage_out
            cell.other += seg.get("validate", 0.0) + seg.get("setup", 0.0)
        else:
            cell.task_failed += r.wall_time
    breakdown = RuntimeBreakdown()
    for w in sorted(bd):
        c = bd[w]
        breakdown.task_cpu += c.task_cpu
        breakdown.task_io += c.task_io
        breakdown.task_failed += c.task_failed
        breakdown.wq_stage_in += c.wq_stage_in
        breakdown.wq_stage_out += c.wq_stage_out
        breakdown.other += c.other
    out_cells: Dict[int, float] = {}
    for t, b in metrics.output_log:
        w = int(t / bw)
        out_cells[w] = out_cells.get(w, 0.0) + b
    output_bytes = 0.0
    for w in sorted(out_cells):
        output_bytes += out_cells[w]
    fb_cells: Dict[str, Dict[int, float]] = {}
    for f in metrics.flows:
        per = fb_cells.setdefault(f.cls, {})
        w = int(f.finished / bw)
        per[w] = per.get(w, 0.0) + f.nbytes
    flow_bytes: Dict[str, float] = {}
    for cls_, per in fb_cells.items():
        total = 0.0
        for w in sorted(per):
            total += per[w]
        flow_bytes[cls_] = total
    return breakdown, output_bytes, flow_bytes


def verify_parity(rollup: Rollup, metrics: RunMetrics) -> List[str]:
    """Compare a rollup against the exact path; return mismatch strings.

    Integer-fed timelines (efficiency, completions) are compared against
    ``RunMetrics`` bin-for-bin and expected to be *bit* identical.  The
    float aggregates the rollup keeps window-major (bandwidth, Fig 8
    breakdown, byte totals) are compared bit-for-bit against independent
    window-major regroupings of the exact path's retained record lists,
    then cross-checked at 1e-9 relative tolerance against records.py's
    own flat arrival-order reductions (which differ only by float
    reassociation).  Digest means use the same 1e-9 tolerance because
    ``np.mean`` sums pairwise while the digest sums per window.
    """
    from .stats import all_segment_stats

    problems: List[str] = []

    def check(name: str, a, b) -> None:
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            problems.append(f"{name}: shape {a.shape} != {b.shape}")
        elif a.size and not np.array_equal(a, b):
            worst = float(np.max(np.abs(a - b)))
            problems.append(f"{name}: values differ (max abs delta {worst:g})")

    bw = rollup.bin_width
    # Timelines, bin for bin.
    es, ev = metrics.efficiency_timeline(bw)
    rs, rv = rollup.efficiency_timeline()
    check("efficiency.starts", rs, es)
    check("efficiency.values", rv, ev)
    fs, fseries = metrics.bandwidth_timeline(bw)
    gs, gseries = rollup.bandwidth_timeline()
    check("bandwidth.starts", gs, fs)
    ref_series = _windowed_bandwidth_reference(metrics.flows, bw, len(fs))
    if sorted(fseries) != sorted(gseries):
        problems.append(
            f"bandwidth.classes: {sorted(gseries)} != {sorted(fseries)}"
        )
    else:
        for cls in fseries:
            check(f"bandwidth[{cls}]", gseries[cls], ref_series[cls])
            if not np.allclose(gseries[cls], fseries[cls], rtol=1e-9, atol=1e-6):
                problems.append(f"bandwidth[{cls}]: drift vs exact flat fold")
    if rollup.n_tasks:
        end = rollup.max_finished
        cs, ok, failed = rollup.completion_counts()
        e_ok_s, e_ok = metrics.completions.counts(bw, "ok", t_end=end)
        _, e_failed = metrics.completions.counts(bw, "failed", t_end=end)
        check("completions.starts", cs, e_ok_s)
        check("completions.ok", ok, e_ok)
        check("completions.failed", failed, e_failed)
    # Headline counters and the Fig 8 breakdown (window-major refs).
    ref_breakdown, ref_output, ref_flow_bytes = _windowed_scalar_references(
        metrics, bw
    )
    scalars = [
        ("n_tasks", rollup.n_tasks, metrics.n_tasks),
        ("n_succeeded", rollup.n_succeeded(), metrics.n_succeeded()),
        ("n_failed", rollup.n_failed(), metrics.n_failed()),
        ("evictions", rollup.evictions, metrics.evictions_seen),
        ("requeues_by_reason", rollup.requeues_by_reason, metrics.requeues_by_reason),
        ("exhausted", rollup.tasks_exhausted, metrics.tasks_exhausted),
        ("fallbacks", rollup.fallbacks, len(metrics.stream_fallbacks)),
        ("resumes", rollup.resumes, len(metrics.recovery_resumes)),
        ("faults_injected", rollup.faults_injected, metrics.n_faults_injected),
        ("blacklisted", rollup.blacklisted_hosts, metrics.hosts_blacklisted()),
        ("corrupt", rollup.integrity_corrupt, len(metrics.integrity_corrupt)),
        (
            "quarantined",
            rollup.integrity_quarantined,
            len(metrics.integrity_quarantined),
        ),
        ("commits", rollup.integrity_commits, metrics.integrity_commits),
        ("orphans", rollup.integrity_orphans, len(metrics.integrity_orphans)),
        ("duplicates", rollup.duplicates_dropped, len(metrics.duplicates_dropped)),
        ("n_flows", rollup.n_flows, len(metrics.flows)),
        ("n_flows_failed", rollup.n_flows_failed, metrics.n_flows_failed()),
        ("flow_bytes", rollup.flow_bytes, ref_flow_bytes),
        ("output_bytes", rollup.output_bytes, ref_output),
        ("breakdown", rollup.breakdown.as_dict(), ref_breakdown.as_dict()),
        (
            "overall_efficiency",
            rollup.overall_efficiency(),
            ref_breakdown.task_cpu / ref_breakdown.total
            if ref_breakdown.total > 0
            else 0.0,
        ),
        ("alerts_raised", rollup.alerts_raised, metrics.n_alerts_raised),
        ("alerts_cleared", rollup.alerts_cleared, metrics.n_alerts_cleared),
    ]
    for name, got, want in scalars:
        if got != want:
            problems.append(f"{name}: {got!r} != {want!r}")
    # Double-entry cross-checks: the window-major references must agree
    # with records.py's own flat reductions up to float reassociation.
    flat_bd = metrics.runtime_breakdown().as_dict()
    for k, v in ref_breakdown.as_dict().items():
        if not np.isclose(v, flat_bd[k], rtol=1e-9, atol=1e-6):
            problems.append(f"breakdown[{k}]: ref {v} drifts from flat {flat_bd[k]}")
    flat_out = sum(b for _, b in metrics.output_log)
    if not np.isclose(ref_output, flat_out, rtol=1e-9, atol=1e-6):
        problems.append(f"output_bytes: ref {ref_output} drifts from flat {flat_out}")
    flat_fb = metrics.flow_bytes_by_class()
    if sorted(flat_fb) != sorted(ref_flow_bytes):
        problems.append(
            f"flow_bytes.classes: {sorted(ref_flow_bytes)} != {sorted(flat_fb)}"
        )
    else:
        for k, v in ref_flow_bytes.items():
            if not np.isclose(v, flat_fb[k], rtol=1e-9, atol=1e-6):
                problems.append(
                    f"flow_bytes[{k}]: ref {v} drifts from flat {flat_fb[k]}"
                )
    # Segment digests: exact counts/min/max, near-exact means.
    exact = all_segment_stats(metrics)
    if sorted(exact) != sorted(rollup.segments):
        problems.append(
            f"segments: {sorted(rollup.segments)} != {sorted(exact)}"
        )
    else:
        for seg, stats in exact.items():
            d = rollup.segments[seg]
            if d.n != stats.n:
                problems.append(f"segment[{seg}].n: {d.n} != {stats.n}")
                continue
            if not np.isclose(d.mean, stats.mean, rtol=1e-9, atol=0.0):
                problems.append(f"segment[{seg}].mean: {d.mean} != {stats.mean}")
            if d.max != stats.max:
                problems.append(f"segment[{seg}].max: {d.max} != {stats.max}")
    return problems
