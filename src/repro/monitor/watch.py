"""Live run-health engine: streaming §5 detectors with typed alerts.

The paper's operational claim (§5) is that Lobster's monitoring lets
operators spot pathologies — eviction storms, squid overload, stuck
merges, black-hole hosts — *while the campaign is running*.  Everything
else under ``repro.monitor`` evaluates after the fact; this module is
the mid-run half: :class:`WatchEngine` folds the bus event stream into
per-window health counters and evaluates a declarative catalogue of
detectors (:data:`DEFAULT_DETECTORS`) every time a window closes,
publishing typed, deduplicated ``alert.raise`` / ``alert.clear`` events
with evidence span ids drawn from the causal tracer's stream.

Design rules that make a clean run alert-silent and replays exact:

* **Event-time window closure.**  Windows close when an *ingested
  event's* timestamp crosses the boundary — never on a simulation
  timer.  The engine's behaviour is therefore a pure function of the
  event sequence: a live run and a ``replay`` of its JSONL recording
  produce byte-identical alert streams (pinned in
  ``tests/test_watch_determinism.py``).  The trailing partial window is
  never evaluated; a window only counts once it has fully elapsed.
* **Hysteresis + dedup.**  A detector must hold ``level >=
  raise_above`` for ``raise_windows`` consecutive windows to raise, and
  ``level <= clear_below`` for ``clear_windows`` to clear; while an
  alert is active the detector publishes nothing.  Thresholds carry
  headroom over the clean-run envelope (the quickstart raises zero
  alerts — the false-positive gate in CI's ``watch-smoke`` job).
* **Evidence, not vibes.**  Each raise carries up to
  ``_EVIDENCE_LIMIT`` recent ``{trace, span, name, status}`` entries
  from the relevant evidence pool (eviction-ended attempt spans, failed
  flows, cvmfs fills, quarantine instants), resolvable against the span
  stream for click-through in the dashboard and report.

The engine is a :class:`~repro.monitor.fold.Fold`: ``replay`` a
recording through it offline, or attach it to a live bus with
:class:`RunWatcher`, which taps it alongside the other folds and
republishes its alerts on the bus.  The engine ignores ``alert.*``
topics by construction — its own output cannot feed back into
detection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..desim.bus import EventBus, Topics
from .fold import RUNNING_TOPICS, tap

__all__ = [
    "DEFAULT_DETECTORS",
    "DetectorSpec",
    "RunWatcher",
    "WatchEngine",
]

#: Evidence entries attached to one raise (newest last).
_EVIDENCE_LIMIT = 5

#: Trailing windows used for baseline estimates (throughput, cache).
_TRAILING = 4

#: Floor for the blacklist-saturation denominator (nominal pool scale).
_MIN_HOSTS = 8


@dataclass(frozen=True)
class DetectorSpec:
    """One declarative §5 heuristic: threshold, hysteresis, evidence.

    ``raise_above``/``clear_below`` bound the detector's *level* (its
    per-window health statistic); ``raise_windows``/``clear_windows``
    are the consecutive-window counts the level must hold for the
    transition to fire.
    """

    id: str
    severity: str  #: "critical" | "warning"
    raise_above: float
    clear_below: float
    raise_windows: int = 1
    clear_windows: int = 1
    evidence: str = "attempt"  #: evidence pool name (see WatchEngine)
    description: str = ""


#: The §5 detector catalogue.  Thresholds are calibrated so the clean
#: quickstart stays silent while the chaos scenario's eviction burst and
#: black-hole host fire their detectors (see tests/test_watch.py).
DEFAULT_DETECTORS: Tuple[DetectorSpec, ...] = (
    DetectorSpec(
        "throughput_collapse",
        "critical",
        raise_above=0.8,
        clear_below=0.25,
        raise_windows=1,
        clear_windows=1,
        evidence="attempt",
        description=(
            "completions fell to <20% of the trailing-window mean while "
            "workers stayed busy (squid overload, SE stall, livelock)"
        ),
    ),
    DetectorSpec(
        "eviction_storm",
        "warning",
        raise_above=8.0,
        clear_below=2.0,
        raise_windows=1,
        clear_windows=1,
        evidence="eviction",
        description="eviction rate far above the opportunistic baseline",
    ),
    DetectorSpec(
        "blacklist_saturation",
        "critical",
        raise_above=0.05,
        clear_below=0.0,
        raise_windows=1,
        clear_windows=1,
        evidence="failure",
        description="a meaningful fraction of known hosts is blacklisted",
    ),
    DetectorSpec(
        "cache_degradation",
        "warning",
        raise_above=0.25,
        clear_below=0.05,
        raise_windows=2,
        clear_windows=2,
        evidence="cvmfs",
        description=(
            "cache miss ratio jumped over its trailing baseline "
            "(cold-start is excluded: the baseline needs history)"
        ),
    ),
    DetectorSpec(
        "merge_backlog",
        "warning",
        raise_above=6.0,
        clear_below=2.0,
        raise_windows=3,
        clear_windows=2,
        evidence="queue",
        description="outstanding merge groups kept accumulating",
    ),
    DetectorSpec(
        "stuck_campaign",
        "critical",
        raise_above=1.0,
        clear_below=0.0,
        raise_windows=3,
        clear_windows=1,
        evidence="queue",
        description=(
            "no completions for several windows despite running or "
            "requeued work (livelock / wedged campaign)"
        ),
    ),
    DetectorSpec(
        "quarantine_spike",
        "critical",
        raise_above=1.0,
        clear_below=0.0,
        raise_windows=1,
        clear_windows=1,
        evidence="quarantine",
        description="integrity layer quarantined output this window",
    ),
)


#: Topics the engine folds.  ``alert.*`` is deliberately absent: the
#: engine's own output never feeds back into detection, so the alert
#: subsequence of a recording replays byte-identically.
WATCH_TOPICS = frozenset(
    {
        Topics.TASK_RESULT,
        Topics.TASK_START,
        Topics.TASK_DONE,
        Topics.TASK_REQUEUE,
        Topics.EVICTION,
        Topics.HOST_BLACKLIST,
        Topics.CACHE_HIT,
        Topics.CACHE_MISS,
        Topics.MERGE_SUBMIT,
        Topics.MERGE_DONE,
        Topics.MERGE_RETRY,
        Topics.INTEGRITY_QUARANTINE,
        Topics.SPAN_START,
        Topics.SPAN_END,
    }
)


class _DetectorState:
    __slots__ = ("active", "over", "under", "seq", "alert_id")

    def __init__(self) -> None:
        self.active = False
        self.over = 0
        self.under = 0
        self.seq = 0
        self.alert_id = ""


class WatchEngine:
    """Streaming detector evaluation over event-time windows.

    Feed events via :meth:`ingest` (``tap`` and ``replay`` both route
    through it, so live and replay behaviour is one code path).  Alerts
    accumulate in :attr:`alerts` as ``{"t", "topic", **fields}`` dicts
    and are also handed to the *emit* callback (the watcher's bus
    publisher).
    """

    topics = WATCH_TOPICS

    def __init__(
        self,
        window: float = 1800.0,
        detectors: Optional[Sequence[DetectorSpec]] = None,
        emit: Optional[Callable[[float, str, dict], None]] = None,
    ):
        if window <= 0:
            raise ValueError("window must be positive")
        self.window = float(window)
        self.detectors: Tuple[DetectorSpec, ...] = tuple(
            detectors if detectors is not None else DEFAULT_DETECTORS
        )
        self.emit = emit
        #: Every alert event emitted, in order: {"t", "topic", **fields}.
        self.alerts: List[dict] = []
        #: Per-closed-window health summaries (the dash telemetry feed).
        self.history: List[dict] = []
        #: Called after each window close with (window_index, t_emit) —
        #: the RunWatcher samples bus.stats() here.
        self.on_window: Optional[Callable[[int, float], None]] = None
        self.windows_closed = 0
        self.events_seen = 0
        self._state = {d.id: _DetectorState() for d in self.detectors}
        self._w = 0
        self._bound = self.window
        # per-window counters (reset at close)
        self._ok = 0
        self._failed = 0
        self._requeues = 0
        self._evictions = 0
        self._quarantines = 0
        self._hits = 0
        self._misses = 0
        # cumulative state
        self._running = 0.0
        self._peak_running = 0.0
        self._merge_outstanding = 0
        self._hosts_known: set = set()
        self._hosts_bad: set = set()
        # trailing baselines
        self._ok_hist: deque = deque(maxlen=_TRAILING)
        self._miss_hist: deque = deque(maxlen=_TRAILING)
        # evidence: span_id -> (trace_id, name) for open spans, plus
        # bounded most-recent pools per category
        self._span_names: Dict[int, tuple] = {}
        self._pools: Dict[str, deque] = {
            name: deque(maxlen=_EVIDENCE_LIMIT)
            for name in (
                "attempt",
                "eviction",
                "failure",
                "cvmfs",
                "flow_fail",
                "quarantine",
                "queue",
            )
        }

    # -- ingestion ---------------------------------------------------------
    def ingest(self, topic: str, t: float, fields: dict) -> None:
        """Fold one event; closes (and evaluates) any window *t* passed."""
        if t >= self._bound:
            self._close_until(t)
        self.events_seen += 1
        if topic == Topics.CACHE_HIT:
            self._hits += 1
        elif topic == Topics.CACHE_MISS:
            self._misses += 1
        elif topic == Topics.SPAN_START:
            self._on_span_start(fields)
        elif topic == Topics.SPAN_END:
            self._on_span_end(fields)
        elif topic in RUNNING_TOPICS:
            running = fields.get("running")
            if running is not None:
                self._running = float(running)
                if self._running > self._peak_running:
                    self._peak_running = self._running
            if topic == Topics.TASK_REQUEUE:
                self._requeues += 1
        elif topic == Topics.TASK_RESULT:
            if int(fields.get("exit_code", 0)) == 0:
                self._ok += 1
            else:
                self._failed += 1
        elif topic == Topics.EVICTION:
            self._evictions += 1
            machine = fields.get("machine")
            if machine is not None:
                self._hosts_known.add(machine)
        elif topic == Topics.HOST_BLACKLIST:
            host = fields.get("host")
            if host is not None:
                self._hosts_known.add(host)
                if fields.get("active", True):
                    self._hosts_bad.add(host)
                else:
                    self._hosts_bad.discard(host)
        elif topic == Topics.MERGE_SUBMIT:
            self._merge_outstanding += 1
        elif topic in (Topics.MERGE_DONE, Topics.MERGE_RETRY):
            # A retry resolves the previous submission; the re-submit
            # publishes a fresh merge.submit.
            self._merge_outstanding -= 1
        elif topic == Topics.INTEGRITY_QUARANTINE:
            self._quarantines += 1

    def _on_span_start(self, fields: dict) -> None:
        span = fields.get("span")
        name = fields.get("name")
        if span is None:
            return
        if name == Topics.INTEGRITY_QUARANTINE:
            self._pools["quarantine"].append(
                {
                    "trace": fields.get("trace"),
                    "span": span,
                    "name": name,
                    "status": "instant",
                }
            )
        self._span_names[span] = (fields.get("trace"), name)

    def _on_span_end(self, fields: dict) -> None:
        span = fields.get("span")
        info = self._span_names.pop(span, None)
        if info is None:
            return
        trace, name = info
        status = fields.get("status", "ok")
        entry = {"trace": trace, "span": span, "name": name, "status": status}
        if name == "attempt":
            self._pools["attempt"].append(entry)
            if status == "eviction":
                self._pools["eviction"].append(entry)
            if status not in ("ok", "cancelled"):
                self._pools["failure"].append(entry)
        elif name == "cvmfs.fill":
            self._pools["cvmfs"].append(entry)
        elif name == "net.flow":
            if status != "ok":
                self._pools["flow_fail"].append(entry)
        elif name == "queue.wait":
            self._pools["queue"].append(entry)

    # -- window closure ----------------------------------------------------
    def _close_until(self, t: float) -> None:
        while t >= self._bound:
            self._close_window(t)

    def _close_window(self, t_emit: float) -> None:
        w = self._w
        start = w * self.window
        end = self._bound
        traffic = self._hits + self._misses
        miss_ratio = self._misses / traffic if traffic else None
        levels = self._levels(miss_ratio)
        for det in self.detectors:
            self._evaluate(det, levels.get(det.id, 0.0), w, start, end, t_emit)
        self.history.append(
            {
                "window": w,
                "start": start,
                "end": end,
                "ok": self._ok,
                "failed": self._failed,
                "requeues": self._requeues,
                "evictions": self._evictions,
                "running": self._running,
                "miss_ratio": miss_ratio,
                "merge_outstanding": self._merge_outstanding,
                "quarantines": self._quarantines,
                "blacklisted": len(self._hosts_bad),
            }
        )
        self.windows_closed += 1
        if self.on_window is not None:
            self.on_window(w, t_emit)
        self._ok_hist.append(self._ok)
        self._miss_hist.append(miss_ratio)
        self._ok = self._failed = self._requeues = self._evictions = 0
        self._quarantines = self._hits = self._misses = 0
        self._w += 1
        self._bound = (self._w + 1) * self.window

    def _levels(self, miss_ratio: Optional[float]) -> Dict[str, float]:
        levels: Dict[str, float] = {}
        # throughput_collapse: completion deficit vs the trailing mean,
        # only meaningful with a full baseline and busy workers (the
        # end-of-run drain empties the pool and must stay silent).
        level = 0.0
        if len(self._ok_hist) == self._ok_hist.maxlen:
            mean = sum(self._ok_hist) / len(self._ok_hist)
            busy = (
                self._peak_running > 0
                and self._running >= 0.5 * self._peak_running
            )
            if mean >= 4.0 and busy:
                level = max(0.0, 1.0 - self._ok / mean)
        levels["throughput_collapse"] = level
        levels["eviction_storm"] = float(self._evictions)
        # blacklist_saturation: the denominator is the set of hosts the
        # stream has named (evictions + blacklist transitions — worker
        # registration is aggregate-only), floored at a nominal pool
        # scale so one early blacklisted host doesn't read as 100%.
        denom = max(len(self._hosts_known), _MIN_HOSTS)
        levels["blacklist_saturation"] = len(self._hosts_bad) / denom
        # cache_degradation: miss-ratio delta over the trailing baseline
        # (needs >= 2 prior windows with cache traffic, so a cold start
        # cannot fire it).
        level = 0.0
        prior = [r for r in self._miss_hist if r is not None]
        if miss_ratio is not None and len(prior) >= 2:
            level = max(0.0, miss_ratio - sum(prior) / len(prior))
        levels["cache_degradation"] = level
        levels["merge_backlog"] = float(self._merge_outstanding)
        stuck = (self._ok + self._failed == 0) and (
            self._running > 0 or self._requeues > 0
        )
        levels["stuck_campaign"] = 1.0 if stuck else 0.0
        levels["quarantine_spike"] = float(self._quarantines)
        return levels

    def _evaluate(
        self,
        det: DetectorSpec,
        level: float,
        w: int,
        start: float,
        end: float,
        t_emit: float,
    ) -> None:
        st = self._state[det.id]
        if not st.active:
            if level >= det.raise_above:
                st.over += 1
                if st.over >= det.raise_windows:
                    st.over = 0
                    st.active = True
                    st.seq += 1
                    st.alert_id = f"{det.id}-{st.seq}"
                    evidence = [dict(e) for e in self._pools[det.evidence]]
                    self._publish(
                        t_emit,
                        Topics.ALERT_RAISE,
                        {
                            "alert": st.alert_id,
                            "detector": det.id,
                            "severity": det.severity,
                            "window": w,
                            "window_start": start,
                            "window_end": end,
                            "level": level,
                            "threshold": det.raise_above,
                            "message": (
                                f"{det.id}: level {level:.4g} >= "
                                f"{det.raise_above:g} for "
                                f"{det.raise_windows} window(s)"
                            ),
                            "evidence": evidence,
                        },
                    )
            else:
                st.over = 0
        else:
            if level <= det.clear_below:
                st.under += 1
                if st.under >= det.clear_windows:
                    st.under = 0
                    st.active = False
                    self._publish(
                        t_emit,
                        Topics.ALERT_CLEAR,
                        {
                            "alert": st.alert_id,
                            "detector": det.id,
                            "severity": det.severity,
                            "window": w,
                            "window_start": start,
                            "window_end": end,
                            "level": level,
                            "threshold": det.clear_below,
                            "message": (
                                f"{det.id}: level {level:.4g} <= "
                                f"{det.clear_below:g} for "
                                f"{det.clear_windows} window(s)"
                            ),
                        },
                    )
            else:
                st.under = 0

    def _publish(self, t: float, topic: str, fields: dict) -> None:
        self.alerts.append({"t": t, "topic": topic, **fields})
        if self.emit is not None:
            self.emit(t, topic, fields)

    # -- inspection --------------------------------------------------------
    def active_alerts(self) -> List[str]:
        """Ids of alerts currently raised and not yet cleared."""
        return [
            st.alert_id for st in self._state.values() if st.active
        ]

    def alerts_raised(self) -> List[dict]:
        return [a for a in self.alerts if a["topic"] == Topics.ALERT_RAISE]

    def alerts_cleared(self) -> List[dict]:
        return [a for a in self.alerts if a["topic"] == Topics.ALERT_CLEAR]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<WatchEngine window={self.window:g}s closed="
            f"{self.windows_closed} alerts={len(self.alerts)}>"
        )


class RunWatcher:
    """Attach a :class:`WatchEngine` to a live bus.

    Taps the engine onto the bus (alongside the other folds) and
    republishes every engine alert as an ``alert.raise`` /
    ``alert.clear`` bus event stamped at the triggering event's time —
    so recordings stay time-ordered and the other folds (and any sink)
    see alerts like any other event.  Also samples ``bus.stats()`` at
    every window close into :attr:`bus_timeline` (the watch panel's
    telemetry strip).

    The watcher holds no simulation state of its own: it survives warm
    restarts for free because ``scenarios.warm_restart`` reuses the
    environment's bus.
    """

    def __init__(
        self,
        bus: EventBus,
        engine: Optional[WatchEngine] = None,
        window: float = 1800.0,
        detectors: Optional[Sequence[DetectorSpec]] = None,
    ):
        self.bus = bus
        self.engine = (
            engine
            if engine is not None
            else WatchEngine(window=window, detectors=detectors)
        )
        self.engine.emit = self._publish
        self.engine.on_window = self._sample_bus
        #: (t, published, delivered) sampled at each window close.
        self.bus_timeline: List[tuple] = []
        self._tap = tap(bus, [self.engine])

    def _publish(self, t: float, topic: str, fields: dict) -> None:
        self.bus.publish(topic, _time=t, **fields)

    def _sample_bus(self, window: int, t: float) -> None:
        stats = self.bus.stats()
        self.bus_timeline.append(
            (t, stats.get("published", 0), stats.get("delivered", 0))
        )

    def close(self) -> None:
        """Detach from the bus (the engine stays readable)."""
        self._tap.close()
