"""End-to-end campaign benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload data-stream --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: passes over the
quarter-size and full-size campaigns of the workload's campaign seeds
(which derive from ``--seed``) until ``--seconds`` have passed, with
set-up probes in fresh interpreters before, between and after the
passes.  Every time is host time at the reference speed of ``speed.py``;
a campaign's time is its median over the passes, averaged over the
campaign seeds, and set-up time is the median of the probes.
``--trace 1`` instead makes one untimed full-size run, one traced run and
one profiled run and reports the per-layer metrics.  Every campaign is
checked by the correctness gate and its simulated-outcome digest must
match its siblings'.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; metric names
and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from speed import SpeedMeter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where traced runs write their spans.
OUT_DIR = os.path.join(HERE, "out")

#: Fresh-interpreter set-up probes per run; set-up time is their median.
SETUP_PROBES = 5
#: Timed passes per run, however short ``--seconds`` is.
MIN_PASSES = 2
#: Stop starting new passes once the run would pass this many seconds.
HARD_LIMIT_S = 150.0


def metric_units() -> Dict[str, Dict[str, str]]:
    """Declared units of the end-to-end (trace 0) and per-layer (trace 1)
    metrics, from ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


class Ledger:
    """Correctness bookkeeping over every campaign a run drives."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[str, str] = {}

    def check(self, kind: str, outcome) -> None:
        """Count *outcome*; it fails on gate problems or on a digest that
        differs from the first campaign of the same *kind*."""
        self.attempted += 1
        problems = list(outcome.problems)
        if not problems:
            first = self.digests.setdefault(kind, outcome.digest)
            if outcome.digest != first:
                problems.append(f"sim_digest {outcome.digest} != {first}")
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: {kind} campaign failed: {p}", file=sys.stderr)


def setup_probe(workload: str, seed: int, lazy: List[str]) -> Dict[str, float]:
    """Import and build time of one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "setup_probe.py"), workload, str(seed)],
        input=json.dumps(lazy), capture_output=True, text=True, cwd=ROOT,
        timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_metrics(samples: List[Dict[str, float]]) -> Dict[str, float]:
    """Medians of set-up probes: the total, and its import and build halves."""
    imports = [s["import_s"] for s in samples]
    builds = [s["build_s"] for s in samples]
    return {
        "setup_s": statistics.median(i + b for i, b in zip(imports, builds)),
        "setup.import_s": statistics.median(imports),
        "setup.build_s": statistics.median(builds),
    }


def measure_end_to_end(W, wl, seed, seconds, ledger, lazy, started) -> Dict[str, float]:
    """Passes over the quarter- and full-size campaign of every campaign
    seed, each driven under a speed meter, until another pass would end
    after *seconds*; set-up probes run before, between and after the
    passes.  A campaign's host time is the median over its repeats of
    the time at reference speed; the reported times are the mean over
    the campaign seeds."""
    seeds = wl.campaign_seeds(seed)
    sizes = (("quarter", wl.quarter), ("full", wl.full))
    repeats = {(kind, s): [] for kind, _size in sizes for s in seeds}
    probe = functools.partial(setup_probe, wl.name, seeds[0], lazy)
    deadline = time.perf_counter() + seconds
    setup = [probe()]
    passes = 0
    while True:
        t0 = time.perf_counter()
        for s in seeds:
            for kind, size in sizes:
                meter = SpeedMeter()
                outcome = W.run_campaign(wl, s, size, lambda campaign: meter)
                ledger.check(f"{kind}/{s}", outcome)
                repeats[kind, s].append(meter.reference_seconds())
        passes += 1
        if len(setup) < SETUP_PROBES - 1:
            setup.append(probe())
        now = time.perf_counter()
        last_pass = now - t0
        if passes >= MIN_PASSES and now + last_pass > deadline:
            break
        if now + last_pass - started > HARD_LIMIT_S:
            break
    while len(setup) < SETUP_PROBES:
        setup.append(probe())

    def host_s(kind: str) -> float:
        return statistics.fmean(statistics.median(repeats[kind, s]) for s in seeds)

    campaign_s = host_s("full")
    metrics = setup_metrics(setup)
    metrics.update({
        "campaign_s": campaign_s,
        "scaling_exp": math.log(campaign_s / host_s("quarter")) / math.log(4),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return metrics


def measure_per_layer(W, L, wl, seed, ledger, spans_path) -> Dict[str, float]:
    """Untimed, traced and profiled full-size runs of the first campaign
    seed."""
    run = functools.partial(W.run_campaign, wl, wl.campaign_seeds(seed)[0], wl.full)
    base = run()
    ledger.check("full", base)
    traced, metrics = L.traced_run(run, spans_path)
    ledger.check("full", traced)
    profiled, profile_metrics = L.profiled_run(run)
    ledger.check("full", profiled)
    metrics.update(profile_metrics)
    metrics.update(L.campaign_facts(traced.campaign))
    metrics["trace.overhead"] = traced.seconds / base.seconds - 1.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    units = metric_units()[args.trace]
    sys.path[:0] = [SRC, HERE]
    import workloads as W

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have: {', '.join(W.WORKLOADS)})")
    wl = W.WORKLOADS[args.workload]
    ledger = Ledger()

    # Warm-up: a tiny campaign pays one-time costs (lazy imports) before
    # anything is timed; the modules it pulls in count toward set-up.
    known = set(sys.modules)
    first_seed = wl.campaign_seeds(args.seed)[0]
    ledger.check("tiny", W.run_campaign(wl, first_seed, wl.tiny))
    lazy = [m for m in sys.modules if m not in known]

    if args.trace == "0":
        metrics = measure_end_to_end(W, wl, args.seed, args.seconds, ledger, lazy, started)
    else:
        import layers as L

        metrics = setup_metrics([setup_probe(wl.name, first_seed, lazy)
                                 for _ in range(SETUP_PROBES)])
        spans_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl")
        metrics.update(measure_per_layer(W, L, wl, args.seed, ledger, spans_path))

    missing = sorted(set(units) - set(metrics))
    if missing:
        raise SystemExit(f"perfbench: metrics not measured: {', '.join(missing)}")
    digests = " ".join(f"{k}={v}" for k, v in ledger.digests.items())
    print(f"sim_digest workload={args.workload} seed={args.seed} {digests}")
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
