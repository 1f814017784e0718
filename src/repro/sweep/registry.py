"""Scenario registry: the names a :class:`~repro.sweep.SweepSpec` can target.

A registered scenario is a thin declarative wrapper over the shared
builders in :mod:`repro.scenarios`: every parameter is JSON-able (so it
can be hashed into the run ID and shipped to a worker process) and the
wrapper resolves the declarative encodings — eviction models, cache
modes, outage windows — into the objects the builders take.

Two kinds exist:

* ``des`` scenarios build a full discrete-event simulation; the engine
  attaches a :class:`~repro.monitor.SpanTracer`, drives the run with
  :func:`~repro.scenarios.execute_campaign` and extracts the standard
  metric set plus critical-path attribution.  ``python -m repro run``
  drives the same builders.
* ``model`` scenarios are closed-form/Monte-Carlo models (the Fig 3
  task-size model, the Fig 6 cache microbenchmark); they return their
  metrics dict directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

__all__ = [
    "ScenarioDef",
    "register_scenario",
    "get_scenario",
    "list_scenarios",
]

SCENARIOS: Dict[str, "ScenarioDef"] = {}


@dataclass(frozen=True)
class ScenarioDef:
    """A sweepable scenario: ``kind`` is ``"des"`` or ``"model"``.

    ``des`` builders take ``(env, **params)`` and return a
    :class:`~repro.scenarios.PreparedRun` (built, clock not moved);
    ``model`` builders take ``(**params)`` and return a flat metrics
    dict.
    """

    name: str
    kind: str
    build: Callable
    description: str = ""


def register_scenario(
    name: str, kind: str, description: str = ""
) -> Callable[[Callable], Callable]:
    """Decorator: add a scenario to the registry under *name*."""
    if kind not in ("des", "model"):
        raise ValueError(f"scenario kind must be 'des' or 'model', got {kind!r}")

    def deco(fn: Callable) -> Callable:
        if name in SCENARIOS:
            raise ValueError(f"scenario {name!r} already registered")
        SCENARIOS[name] = ScenarioDef(
            name=name, kind=kind, build=fn, description=description
        )
        return fn

    return deco


def get_scenario(name: str) -> ScenarioDef:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r} (known: {known})") from None


def list_scenarios() -> List[ScenarioDef]:
    return [SCENARIOS[k] for k in sorted(SCENARIOS)]


# --------------------------------------------------------------------------
# Declarative encodings
# --------------------------------------------------------------------------


def resolve_eviction(spec):
    """Resolve a declarative eviction model.

    ``None`` keeps the scenario builder's default; strings are
    ``"none"``, ``"weibull"``, ``"constant:<p>"``, or
    ``"empirical:<n_workers>:<seed>"`` (a synthetic availability trace).
    """
    from ..batch import synthetic_availability_trace
    from ..distributions import (
        ConstantHazardEviction,
        EmpiricalEviction,
        EvictionModel,
        NoEviction,
        WeibullEviction,
    )

    if spec is None or isinstance(spec, EvictionModel):
        return spec
    kind, _, rest = str(spec).partition(":")
    if kind == "none":
        return NoEviction()
    if kind == "weibull":
        return WeibullEviction()
    if kind == "constant":
        return ConstantHazardEviction(float(rest or 0.1))
    if kind == "empirical":
        n_workers, _, trace_seed = rest.partition(":")
        trace = synthetic_availability_trace(
            n_workers=int(n_workers or 20_000), seed=int(trace_seed or 0)
        )
        return EmpiricalEviction.from_trace(trace)
    raise ValueError(f"unknown eviction spec {spec!r}")


def resolve_cache_mode(spec):
    """``"alien"``/``"locked"``/``"private"`` -> :class:`CacheMode`."""
    from ..cvmfs import CacheMode

    if spec is None or isinstance(spec, CacheMode):
        return spec
    try:
        return CacheMode[str(spec).upper()]
    except KeyError:
        known = ", ".join(m.name.lower() for m in CacheMode)
        raise ValueError(f"unknown cache mode {spec!r} (known: {known})") from None


def resolve_outages(spec):
    """``[[start_s, end_s], ...]`` -> list of :class:`OutageWindow`."""
    from ..storage.wan import OutageWindow

    if spec is None:
        return None
    return [
        w if isinstance(w, OutageWindow) else OutageWindow(float(w[0]), float(w[1]))
        for w in spec
    ]


def resolve_profile(name: str, kind: str):
    """The bundled analysis profile *name*; it must be of *kind*."""
    from ..analysis.profiles import profile

    try:
        code = profile(name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    if code.kind.value != kind:
        raise ValueError(f"profile {name!r} is not a {kind} profile")
    return code


# --------------------------------------------------------------------------
# Built-in scenarios
# --------------------------------------------------------------------------


@register_scenario(
    "data_processing", "des",
    "Fig 10-style data run (XrootD streaming / Chirp staging over a WAN)",
)
def _data_processing(env, **params):
    from ..scenarios import prepare_data_processing

    params["eviction"] = resolve_eviction(params.get("eviction"))
    params["outages"] = resolve_outages(params.get("outages"))
    return prepare_data_processing(env=env, **params)


@register_scenario(
    "simulation", "des",
    "Fig 11-style Monte-Carlo run (cold caches, squid transient, Chirp queueing)",
)
def _simulation(env, **params):
    from ..scenarios import prepare_simulation

    params["eviction"] = resolve_eviction(params.get("eviction"))
    params["cache_mode"] = resolve_cache_mode(params.get("cache_mode"))
    return prepare_simulation(env=env, **params)


@register_scenario(
    "quickstart", "des", "tiny end-to-end MC run (the CLI quickstart)"
)
def _quickstart(env, **params):
    from ..scenarios import prepare_quickstart

    return prepare_quickstart(env=env, **params)


@register_scenario(
    "simulate", "des",
    "MC production run of a bundled simulation profile (label mc-<profile>)",
)
def _simulate(env, profile: str = "digi-reco-mc", **params):
    from ..scenarios import prepare_simulate

    code = resolve_profile(profile, "simulation")
    return prepare_simulate(code, label=f"mc-{profile}", env=env, **params)


@register_scenario(
    "process", "des",
    "data run of a bundled data profile over a synthetic dataset "
    "(label data-<profile>)",
)
def _process(env, profile: str = "ntuple", **params):
    from ..scenarios import prepare_process

    code = resolve_profile(profile, "data-processing")
    return prepare_process(code, label=f"data-{profile}", env=env, **params)


@register_scenario(
    "chaos", "des",
    "data run under the injected fault barrage with active recovery",
)
def _chaos(env, **params):
    from ..scenarios import prepare_chaos

    return prepare_chaos(env=env, **params)


@register_scenario(
    "tasksize", "model",
    "Fig 3 Monte-Carlo model: CPU efficiency vs task length under eviction",
)
def _tasksize(
    task_hours: float = 1.0,
    eviction: str = "constant:0.1",
    n_tasklets: int = 20_000,
    n_workers: int = 1_600,
    seed: int = 0,
):
    from ..core import TaskSizeConfig, TaskSizeSimulator

    HOUR = 3600.0
    sim = TaskSizeSimulator(
        TaskSizeConfig(n_tasklets=n_tasklets, n_workers=n_workers), seed=seed
    )
    r = sim.simulate(task_hours * HOUR, resolve_eviction(eviction))
    return {
        "task_length_s": r.task_length,
        "tasklets_per_task": r.tasklets_per_task,
        "efficiency": r.efficiency,
        "evictions": r.evictions,
        "abandoned_tasks": r.abandoned_tasks,
        "tasks_completed": r.tasks_completed,
    }


@register_scenario(
    "cache_node", "model",
    "Fig 6 microbenchmark: concurrent cold cache setups on one node",
)
def _cache_node(**params):
    from ..scenarios import cache_node_scenario

    metrics = cache_node_scenario(
        params["mode"],
        n_instances=params.get("n_instances", 8),
        squid_gbit=params.get("squid_gbit", 2.0),
    )
    metrics.pop("mode", None)
    return metrics


@register_scenario(
    "crashtest", "model",
    "crash-consistency fuzz: kill the master at sampled checkpoints, "
    "warm-restart, assert convergence",
)
def _crashtest(
    scenario: str = "micro",
    mode: str = "sample",
    samples: int = 10,
    seed: int = 0,
    double_crash: bool = False,
):
    """Sweepable wrapper over :func:`repro.crashtest.run_crashtest`.

    Registered as a ``model`` scenario: the harness drives its own DES
    environments internally (one donor plus one per crash point), so it
    takes no outer ``env``.  The flat metrics let a sweep grid e.g.
    ``seed`` x ``scenario`` and gate on ``points_failed == 0``.
    """
    from ..crashtest import run_crashtest

    report = run_crashtest(
        scenario=scenario,
        mode=mode,
        samples=samples,
        seed=seed,
        double_crash=double_crash,
    )
    return {
        "checkpoints": report.checkpoints_total,
        "points_tested": len(report.points),
        "points_failed": report.n_failed,
        "invariant_violations": report.invariant_violations,
        "donor_problems": len(report.donor_problems),
        "converged": float(report.ok),
    }


@register_scenario(
    "toy", "model",
    "instant deterministic model with failure knobs (tests, smoke sweeps)",
)
def _toy(
    value: float = 1.0,
    factor: float = 1.0,
    crash: bool = False,
    hard_exit: bool = False,
    sleep_s: float = 0.0,
    seed: int = 0,
):
    """A microscopic stand-in scenario.

    ``crash`` raises, ``hard_exit`` kills the process without cleanup,
    and ``sleep_s`` stalls — the knobs the failure-path tests and the
    CI smoke sweep use to exercise the executor.
    """
    import os
    import time

    import numpy as np

    if crash:
        raise RuntimeError("toy scenario: injected crash")
    if hard_exit:
        os._exit(13)
    if sleep_s:
        time.sleep(sleep_s)
    rng = np.random.default_rng(seed)
    noise = float(rng.random())
    return {
        "makespan_s": value * factor * 100.0 + noise,
        "efficiency": 1.0 / (1.0 + value * factor),
        "noise": noise,
    }
