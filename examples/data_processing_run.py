#!/usr/bin/env python
"""A Fig 10-style data processing run: streaming analysis at scale.

Reproduces (at 1/50 scale) the paper's headline production run: a data
processing workload streaming CMS-like events over a saturated WAN,
with worker evictions, a transient federation outage causing a failure
burst, and interleaved merging.  Prints the timeline panels and the
Fig 8 runtime-breakdown table, then applies the §5 troubleshooting
heuristics.

    python examples/data_processing_run.py
"""

from repro.analysis import data_processing_code
from repro.batch import CondorPool, GlideinRequest, MachinePool
from repro.core import (
    LobsterConfig,
    LobsterRun,
    MergeMode,
    Services,
    WorkflowConfig,
)
from repro.dbs import DBS, synthetic_dataset
from repro.desim import Environment
from repro.distributions import WeibullEviction
from repro.monitor import diagnose, requeue_summary
from repro.storage.wan import OutageWindow

HOUR = 3600.0
GBIT = 125_000_000.0


def main() -> None:
    env = Environment()

    # The dataset: 300 files, one ~1-hour task per file.
    dbs = DBS()
    dataset = synthetic_dataset(
        name="/SingleMu/Run2015A-v1/AOD",
        n_files=300,
        events_per_file=45_000,
        lumis_per_file=60,
    )
    dbs.register(dataset)
    print(f"dataset: {dataset.name}")
    print(f"  files={len(dataset)} events={dataset.total_events:,} "
          f"volume={dataset.total_bytes / 1e12:.2f} TB")

    # Infrastructure: a 0.6 Gbit/s uplink (scaled from the paper's
    # 10 Gbit/s) with a one-hour outage of the data federation mid-run.
    services = Services.default(
        env,
        dbs=dbs,
        wan_bandwidth=0.6 * GBIT,
        outages=[OutageWindow(3 * HOUR, 4 * HOUR)],
    )

    config = LobsterConfig(
        workflows=[
            WorkflowConfig(
                label="single-mu",
                code=data_processing_code(),
                dataset=dataset.name,
                lumis_per_tasklet=10,
                tasklets_per_task=6,
                merge_mode=MergeMode.INTERLEAVED,
                max_retries=50,
            )
        ],
        cores_per_worker=8,
    )
    run = LobsterRun(env, config, services)
    run.start()

    machines = MachinePool.homogeneous(env, 25, cores=8)
    pool = CondorPool(env, machines, eviction=WeibullEviction(), seed=4)
    pool.submit(
        GlideinRequest(n_workers=25, cores_per_worker=8, start_interval=2.0),
        run.worker_payload,
    )

    summary = env.run(until=run.process)
    pool.drain()

    # ---- the Fig 10 panels ------------------------------------------
    m = run.metrics
    print(f"\nrun finished after {env.now / HOUR:.1f} simulated hours")
    print(f"tasks: {m.n_succeeded()} ok, {m.n_failed()} failed, "
          f"{requeue_summary(run.master)}")

    bin_w = 0.5 * HOUR
    t, running = m.running.binned(bin_w, agg="mean", t_end=env.now)
    _, ok = m.completions.counts(bin_w, category="ok", t_end=env.now)
    _, bad = m.completions.counts(bin_w, category="failed", t_end=env.now)
    _, eff = m.efficiency_timeline(bin_w)
    print("\n  hour  running  ok  failed  efficiency")
    for i in range(min(len(t), len(ok), len(eff))):
        bar = "#" * int(30 * eff[i])
        print(f"  {t[i] / HOUR:5.1f} {running[i]:8.0f} {ok[i]:4d} {bad[i]:6d}"
              f"  {eff[i]:5.2f} {bar}")

    # ---- the Fig 8 table ---------------------------------------------
    print("\nruntime breakdown (cf. paper Fig 8):")
    for label, hours, pct in m.runtime_breakdown().rows():
        print(f"  {label:<18s} {hours:9.1f} h  {pct:5.1f} %")

    # ---- §5 troubleshooting --------------------------------------------
    print("\ntroubleshooting heuristics:")
    findings = diagnose(m)
    if not findings:
        print("  (no anomalies flagged)")
    for d in findings:
        print(f"  - {d}")

    wf = summary["workflows"]["single-mu"]
    print(f"\nmerged files: {wf['merged_files']} "
          f"(from {wf['outputs']} task outputs)")


if __name__ == "__main__":
    main()
