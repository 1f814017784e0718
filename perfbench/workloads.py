"""The benchmark's three campaign workloads, their correctness gate and
the simulated-outcome digest.

Each workload builds a full simulated campaign through the public
``repro.scenarios`` builders and drives it to completion.  Sizes are
given as keyword overrides so one definition serves the quarter-size
run, the full-size run and the tiny runs of the benchmark's own tests.

Importing this module imports ``repro``; the caller puts the
repository's ``src`` directory on ``sys.path`` first.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, ContextManager, Dict, List, Optional

from repro.analysis import simulation_code
from repro.analysis.profiles import profile
from repro.desim import Environment
from repro.monitor import RollupCollector, RunWatcher, SpanTracer
from repro.net import TrafficClass
from repro.scenarios import (
    execute_prepared,
    prepare_chaos,
    prepare_process,
    prepare_simulate,
    warm_restart,
)
from repro.testing import reset_id_counters

#: Window of the live monitor stack on ``chaos-watched`` (the default
#: ``watch``/sweep window).
MONITOR_WINDOW = 1800.0


@dataclass
class Campaign:
    """A built campaign: the clock has not moved yet."""

    env: Environment
    prepared: object
    drive: Callable[["Campaign"], None]
    monitors: Optional[dict] = None
    #: Every PreparedRun the campaign drove (crashed, then resumed).
    segments: List[object] = field(default_factory=list)

    @property
    def runs(self) -> List[object]:
        return [seg.run for seg in self.segments]


@dataclass
class Outcome:
    """One driven campaign: host time, gate verdict and digest."""

    seconds: float
    problems: List[str]
    digest: str
    campaign: Campaign


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., Campaign]
    quarter: Dict[str, float]
    full: Dict[str, float]
    #: Small enough for the benchmark's own tests (well under a second).
    tiny: Dict[str, float]
    #: Campaigns per benchmark seed.  A campaign's host cost depends on
    #: its seed (by 3-5% between seeds), so a run averages over several
    #: campaign seeds drawn from the benchmark seed.
    campaigns: int = 1

    def campaign_seeds(self, seed: int) -> List[int]:
        return [seed * self.campaigns + j for j in range(self.campaigns)]


# -- drivers ------------------------------------------------------------------


def _drive_plain(campaign: Campaign) -> None:
    execute_prepared(campaign.prepared, settle=None)
    campaign.segments.append(campaign.prepared)


def _drive_crash_restart(campaign: Campaign) -> None:
    """Run until the master crash, then warm-restart to completion
    (the ``python -m repro chaos --master-crash-at`` flow)."""
    first = campaign.prepared
    execute_prepared(first, settle=60.0)
    campaign.segments.append(first)
    if first.run.crashed:
        resumed = warm_restart(first)
        execute_prepared(resumed, settle=None)
        campaign.segments.append(resumed)
    campaign.monitors["tracer"].finalize()


# -- builders -----------------------------------------------------------------


def build_data_stream(seed: int, machines: int, files: int) -> Campaign:
    """Fig 10 conditions: XrootD streaming over one 0.6 Gbit/s WAN,
    Weibull eviction, interleaved merge."""
    env = Environment()
    prepared = prepare_process(
        profile("ntuple"), files=files, machines=machines, wan_gbit=0.6,
        seed=seed, env=env,
    )
    return Campaign(env, prepared, _drive_plain)


def build_mc_burst(seed: int, machines: int, events: int) -> Campaign:
    """Fig 11 conditions: cold caches, glide-ins every 0.5 s."""
    env = Environment()
    prepared = prepare_simulate(
        simulation_code(), events=events, machines=machines, seed=seed, env=env
    )
    return Campaign(env, prepared, _drive_plain)


def build_chaos_watched(seed: int, machines: int, files: int) -> Campaign:
    """The fault barrage plus a master crash and warm restart, with the
    live monitor stack attached the way ``watch`` attaches it."""
    env = Environment()
    monitors = {
        "tracer": SpanTracer(env),
        "collector": RollupCollector(env.bus, bin_width=MONITOR_WINDOW),
        "watcher": RunWatcher(env.bus, window=MONITOR_WINDOW),
    }
    prepared = prepare_chaos(
        files=files, machines=machines, seed=seed,
        bit_rot=4, truncate=4, duplicates=4, master_crash_at=4000.0, env=env,
    )
    return Campaign(env, prepared, _drive_crash_restart, monitors)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "data-stream", build_data_stream,
            quarter={"machines": 32, "files": 64},
            full={"machines": 128, "files": 256},
            tiny={"machines": 4, "files": 8},
            campaigns=2,
        ),
        Workload(
            "mc-burst", build_mc_burst,
            quarter={"machines": 16, "events": 320_000},
            full={"machines": 64, "events": 1_280_000},
            tiny={"machines": 4, "events": 24_000},
            campaigns=4,
        ),
        Workload(
            "chaos-watched", build_chaos_watched,
            quarter={"machines": 8, "files": 40},
            full={"machines": 32, "files": 160},
            tiny={"machines": 4, "files": 12},
            campaigns=4,
        ),
    )
}


# -- gate and digest ------------------------------------------------------------


def build(workload: Workload, seed: int, size: Dict[str, float]) -> Campaign:
    """Build a campaign from a clean process state (id counters rewound,
    garbage collected), so reruns in one process are identical."""
    reset_id_counters()
    gc.collect()
    return workload.build(seed, **size)


def gate(campaign: Campaign) -> List[str]:
    """Why a driven campaign is wrong; an empty list means it passed.

    Simulated evictions, task failures and injected faults are modelled
    behaviour and never fail the gate; an undone tasklet or a broken
    DB/SE invariant does.
    """
    if not campaign.runs:
        return ["campaign never ran"]
    run = campaign.runs[-1]
    problems = []
    for label, wf in run.summary()["workflows"].items():
        undone = wf["tasklets"] - wf["tasklets_done"]
        if undone or not wf["tasklets"]:
            problems.append(f"{label}: {undone} of {wf['tasklets']} tasklets undone")
    problems.extend(f"invariant: {p}" for p in run.check_invariants())
    return problems


def class_bytes(campaign: Campaign) -> Dict[str, float]:
    """Bytes moved per fabric traffic class, summed over every link."""
    totals = dict.fromkeys(TrafficClass.ALL, 0.0)
    for link in campaign.prepared.services.fabric.links.values():
        for cls, moved in link.bytes_by_class.items():
            totals[cls] = totals.get(cls, 0.0) + moved
    return totals


def sim_digest(campaign: Campaign) -> str:
    """Hash of the simulated outcome: every run's ``summary()``, bytes per
    traffic class and alerts raised.  Identical under a fixed seed, so a
    simulator-only speed-up can prove it changed no simulated statistic."""
    alerts = []
    if campaign.monitors is not None:
        alerts = campaign.monitors["watcher"].engine.alerts
    doc = {
        "summaries": [run.summary() for run in campaign.runs],
        "class_bytes": class_bytes(campaign),
        "alerts": alerts,
    }
    blob = json.dumps(doc, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def run_campaign(
    workload: Workload,
    seed: int,
    size: Dict[str, float],
    instrument: Callable[[Campaign], ContextManager] = lambda campaign: nullcontext(),
) -> Outcome:
    """Build, drive and check one campaign; only driving is timed.

    *instrument* is called on the built campaign and returns the context
    the drive runs in (a profiler, say).  An exception inside the
    simulation is a failed outcome, not a crash of the benchmark.
    """
    campaign = build(workload, seed, size)
    context = instrument(campaign)
    t0 = time.perf_counter()
    try:
        with context:
            campaign.drive(campaign)
    except Exception as exc:  # noqa: BLE001 - recorded as a failed run
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return Outcome(seconds, [f"raised {type(exc).__name__}: {exc}"], "", campaign)
    seconds = time.perf_counter() - t0
    return Outcome(seconds, gate(campaign), sim_digest(campaign), campaign)
