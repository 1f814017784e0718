"""Per-layer measurement from outside the program: a profiled run whose
self time is grouped by ``repro`` subpackage, and a traced run that
wraps each layer's public entry points and records spans and counts.

Neither instrumented run contributes to an end-to-end timing.
"""

from __future__ import annotations

import contextlib
import cProfile
import functools
import inspect
import json
import os
import pstats
import time
import types
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

import repro
from repro.batch.condor import CondorPool, WorkerSlot
from repro.core.jobit_db import LobsterDB
from repro.core.lobster import LobsterRun
from repro.cvmfs.frontier import FrontierService
from repro.cvmfs.parrot import ParrotCache
from repro.cvmfs.squid import ProxyFarm, SquidProxy
from repro.desim import Topics
from repro.desim.events import Event
from repro.desim.resources import FilterStore, PriorityStore, Store
from repro.faults import FaultInjector
from repro.monitor import RollupCollector, RunWatcher, SpanTracer
from repro.monitor.watch import WatchEngine
from repro.net import Fabric, Link
from repro.net.allocator import waterfill
from repro.storage.chirp import ChirpServer
from repro.storage.se import StorageElement
from repro.storage.xrootd import XrootdFederation, XrootdStream
from repro.wq import Master, Worker

#: The ``repro`` subpackages reported as layers; everything else in
#: ``repro`` (and the benchmark's own frames) is ``other``.
#: ``distributions`` is not one of the nine system layers but its random
#: sampling is a tenth or more of self time on the MC workload.
LAYERS = (
    "desim", "net", "wq", "batch", "core", "cvmfs", "storage", "monitor", "faults",
    "distributions",
)
OTHER = "other"

#: Profiler call counts reported as per-layer work counters.
CALL_COUNTERS = {
    "net.flushes": (Fabric._flush,),
    "net.waterfills": (waterfill,),
    "desim.store_retriggers": (Store._trigger, FilterStore._trigger, PriorityStore._trigger),
    "wq.match_checks": (Worker._fits,),
    "monitor.span_scans": (SpanTracer._open_descendants,),
}

#: Public entry points the traced run wraps, by layer.
TRACE_POINTS = {
    "net": (Fabric, Link),
    "desim": (Store, FilterStore),
    "wq": (Master, Worker),
    "batch": (CondorPool, WorkerSlot),
    "core": (LobsterRun, LobsterDB),
    "cvmfs": (ParrotCache, ProxyFarm, SquidProxy, FrontierService),
    "storage": (StorageElement, ChirpServer, XrootdFederation, XrootdStream),
    "monitor": (SpanTracer, RollupCollector, RunWatcher, WatchEngine),
    "faults": (FaultInjector,),
}

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep


def _code_key(fn) -> Tuple[str, int, str]:
    code = fn.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def file_layer(filename: str) -> Optional[str]:
    """The layer a source file belongs to, or ``None`` for code outside
    ``repro`` (builtins, C functions, the standard library) whose time
    is charged to the ``repro`` code that called it."""
    if filename.startswith(_REPRO_DIR):
        top = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
        return top if top in LAYERS else OTHER
    if filename.startswith(_HERE):
        return OTHER
    return None


# -- profiled run ------------------------------------------------------------------


def attribute_self_time(stats: dict) -> Dict[str, float]:
    """Self time per layer from a ``pstats`` table.

    A function outside ``repro`` has its self time split over its callers
    in proportion to the self time each call edge recorded; a non-repro
    caller passes its share further up in proportion to the cumulative
    time of its own call edges.  Time with no ``repro`` ancestor (the
    harness, cycles) lands in ``other``, so the layers sum to the total.
    """
    upward: Dict[tuple, Dict[str, float]] = {}

    def mix(edges: dict, col: int, seen: frozenset) -> Dict[str, float]:
        weights = {caller: edge[col] for caller, edge in edges.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {caller: edge[1] for caller, edge in edges.items()}
            total = sum(weights.values())
        out: Dict[str, float] = {}
        if total <= 0:
            return {OTHER: 1.0}
        for caller, w in weights.items():
            if w <= 0:
                continue
            for layer, frac in lineage(caller, seen).items():
                out[layer] = out.get(layer, 0.0) + frac * w / total
        return out

    def lineage(func: tuple, seen: frozenset) -> Dict[str, float]:
        layer = file_layer(func[0])
        if layer is not None:
            return {layer: 1.0}
        if func in upward:
            return upward[func]
        if func in seen or func not in stats:
            return {OTHER: 1.0}
        dist = mix(stats[func][4], 3, seen | {func})
        upward[func] = dist
        return dist

    self_s = dict.fromkeys(LAYERS + (OTHER,), 0.0)
    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        if tt <= 0:
            continue
        layer = file_layer(func[0])
        if layer is not None:
            self_s[layer] += tt
            continue
        dist = mix(callers, 2, frozenset({func})) if callers else {OTHER: 1.0}
        for lyr, frac in dist.items():
            self_s[lyr] += tt * frac
    return self_s


def call_counts(stats: dict) -> Dict[str, int]:
    counts = {}
    for metric, fns in CALL_COUNTERS.items():
        keys = {_code_key(fn) for fn in fns}
        counts[metric] = sum(stats[k][1] for k in keys if k in stats)
    return counts


def profiled_run(run_campaign) -> Tuple[object, Dict[str, float]]:
    """Drive one campaign under cProfile; return the outcome and the
    per-layer metrics the profile yields.

    *run_campaign* takes an ``instrument(campaign)`` hook that returns
    the context manager to drive the campaign in.
    """
    profiler = cProfile.Profile()
    outcome = run_campaign(lambda campaign: profiler)
    stats = pstats.Stats(profiler).stats
    self_s = attribute_self_time(stats)
    total = sum(self_s.values())
    metrics: Dict[str, float] = {}
    for layer, t in self_s.items():
        metrics[f"{layer}.self_s"] = t
        metrics[f"{layer}.share"] = t / total if total else 0.0
    metrics.update(call_counts(stats))
    bus = outcome.campaign.env.bus.stats()
    metrics["monitor.bus_published"] = bus["published"]
    metrics["monitor.bus_delivered"] = bus["delivered"]
    return outcome, metrics


# -- traced run ---------------------------------------------------------------------


class SpanRecorder:
    """Wraps public entry points of the layer classes while active.

    Synchronous calls become spans ``(id, parent, name, start, end)``
    kept in memory; calls that return a generator or an :class:`Event`
    (DES processes and completion events) are counted, not timed.
    """

    def __init__(self):
        self.spans: List[tuple] = []
        self.counts: Counter = Counter()
        self.net_bytes = 0.0
        self._stack: List[int] = [0]
        self._untimed: Dict[int, int] = {}
        self._next = 1
        self._patched: List[tuple] = []

    def _wrap(self, label: str, fn):
        counts = self.counts
        stack = self._stack
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[label] += 1
                return fn(*args, **kwargs)
            return counted

        spans = self.spans
        untimed = self._untimed
        clock = time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            counts[label] += 1
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            if isinstance(result, (Event, types.GeneratorType)):
                untimed[sid] = parent
            else:
                spans.append((sid, parent, label, start, end))
            return result
        return timed

    def __enter__(self) -> "SpanRecorder":
        for layer, classes in TRACE_POINTS.items():
            for cls in classes:
                for name, fn in list(vars(cls).items()):
                    if name.startswith("_") or not inspect.isfunction(fn):
                        continue
                    self._patched.append((cls, name, fn))
                    setattr(cls, name, self._wrap(f"{layer}:{cls.__name__}.{name}", fn))
        transfer = Fabric.transfer
        recorder = self

        @functools.wraps(transfer)
        def transfer_bytes(fabric, nbytes, *args, **kwargs):
            recorder.net_bytes += nbytes
            return transfer(fabric, nbytes, *args, **kwargs)
        Fabric.transfer = transfer_bytes
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, fn in reversed(self._patched):
            setattr(cls, name, fn)
        self._patched.clear()

    def resolved_spans(self) -> Iterable[dict]:
        """Spans with parents re-pointed past untimed calls."""
        untimed = self._untimed
        for sid, parent, name, start, end in self.spans:
            while parent in untimed:
                parent = untimed[parent]
            yield {"id": sid, "parent": parent or None, "name": name,
                   "start": start, "end": end}

    def db_seconds(self) -> float:
        """Wall time inside LobsterDB, counting nested DB calls once."""
        db = {sid for sid, _p, name, _s, _e in self.spans if name.startswith("core:LobsterDB.")}
        parent_of = {sid: parent for sid, parent, *_ in self.spans}
        parent_of.update(self._untimed)
        total = 0.0
        for sid, parent, _name, start, end in self.spans:
            if sid not in db:
                continue
            while parent and parent not in db:
                parent = parent_of.get(parent, 0)
            if not parent:
                total += end - start
        return total

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.resolved_spans():
                fh.write(json.dumps(span) + "\n")


def traced_run(run_campaign, spans_path: str):
    """Drive one campaign with every trace point wrapped and kernel-step
    and cache-access counters subscribed; return the outcome and the
    per-layer metrics the trace yields."""
    tally = Counter()

    def attach(campaign):
        bus = campaign.env.bus

        def steps(rec):
            tally["steps"] += rec["count"]
        bus.subscribe(Topics.KERNEL_STEP, steps, raw=True)
        for topic in (Topics.CACHE_HIT, Topics.CACHE_MISS):
            bus.subscribe(topic, lambda rec, t=topic: tally.update((t,)), raw=True)
        return contextlib.nullcontext()

    with SpanRecorder() as recorder:
        outcome = run_campaign(attach)
    recorder.write(spans_path)
    hits, misses = tally[Topics.CACHE_HIT], tally[Topics.CACHE_MISS]
    db_calls = sum(n for label, n in recorder.counts.items()
                   if label.startswith("core:LobsterDB."))
    metrics = {
        "net.flows": recorder.counts["net:Fabric.transfer"],
        "net.bytes": recorder.net_bytes,
        "desim.events": tally["steps"],
        "core.db_s": recorder.db_seconds(),
        "core.db_calls": db_calls,
        "cvmfs.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
    }
    return outcome, metrics


def campaign_facts(campaign) -> Dict[str, float]:
    """Modelled quantities read from the finished campaign itself."""
    services = campaign.prepared.services
    summaries = [run.summary() for run in campaign.runs]
    attempts = sum(s["tasks_recorded"] for s in summaries)
    succeeded = sum(s["tasks_succeeded"] for s in summaries)
    injector = campaign.prepared.injector
    monitors = campaign.monitors or {}
    tracer = monitors.get("tracer")
    return {
        "net.cancelled": services.fabric.flows_failed,
        "wq.useful_ratio": succeeded / attempts if attempts else 0.0,
        "monitor.spans": len(tracer.spans) if tracer is not None else 0,
        "storage.xrootd_opens": services.xrootd.opens,
        "storage.chirp_transfers": services.chirp.transfers,
        "batch.evictions": sum(seg.pool.total_evictions for seg in campaign.segments),
        "faults.injected": injector.injected if injector is not None else 0,
    }
