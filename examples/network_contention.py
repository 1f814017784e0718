#!/usr/bin/env python
"""End-to-end path contention on the campus network fabric (Fig 10).

The paper reports ~9000 simultaneous streaming tasks saturating Notre
Dame's 10 Gbit/s campus uplink, squeezing every other protocol that
crossed it, and a transient wide-area outage mid-run failing the tasks
whose data was in flight.  This example reproduces that situation at the
fabric level:

* 1125 worker nodes x 8 cores under rack switches, one shared fabric
  with the WAN, squids, Chirp/SE spindles, and the Frontier origin;
* 9000 XrootD streams plus CVMFS cache fills, Frontier pulls, Chirp
  stage-out waves, and merge publication uploads, each tagged with its
  traffic class;
* a one-shot WAN outage that fails the in-flight flows of *every*
  class crossing the uplink, while intra-campus traffic sails on.

    python examples/network_contention.py
"""

from collections import Counter

from repro.batch import MachinePool
from repro.core import Services
from repro.desim import Environment, Topics
from repro.monitor import RunMetrics, tap
from repro.monitor.report import ascii_bar, ascii_timeline
from repro.net import TrafficClass, TransferCancelled
from repro.storage.wan import OutageWindow

MB = 1_000_000.0
GB = 1_000_000_000.0
GBIT = 125_000_000.0

N_MACHINES = 1125  # x 8 cores = 9000 concurrent streams
OUTAGE = OutageWindow(3600.0, 4200.0)


def main() -> None:
    env = Environment()
    metrics = RunMetrics()
    tap(env.bus, [metrics])
    failures = Counter()
    env.bus.subscribe(
        Topics.NET_FLOW_FAIL, lambda ev: failures.update([ev.fields["cls"]])
    )

    services = Services.default(env, wan_bandwidth=10 * GBIT, outages=[OUTAGE])
    fabric = services.fabric
    pool = MachinePool.homogeneous(env, N_MACHINES, cores=8, fabric=fabric)
    nodes = [m.name for m in pool]
    world = services.wan.remote_node
    squid = services.proxies.proxies[0].name
    store = services.chirp.store_node
    measured = {}

    def driver(env):
        # t=0: cold CVMFS cache fills from the squid tier, and the full
        # 9000-stream wave.  All starts share one timestamp, so the
        # fabric folds them into a single allocation recompute.
        for node in nodes:
            fabric.transfer(0.5 * GB, src=squid, dst=node, cls=TrafficClass.CVMFS)
        sizes = (150 * MB, 250 * MB, 350 * MB, 450 * MB)
        for i, node in enumerate(nodes):
            for core in range(8):
                fabric.transfer(
                    sizes[(i + core) % len(sizes)],
                    src=world,
                    dst=node,
                    cls=TrafficClass.XROOTD,
                )

        # A merge publication upload while the uplink is saturated.
        yield env.timeout(500.0)
        t0 = env.now
        yield fabric.transfer(50 * MB, src=store, dst=world, cls=TrafficClass.MERGE)
        measured["merge_saturated"] = env.now - t0

        # t=3000: a second streaming batch that will still be in flight
        # when the WAN outage begins, alongside a Frontier conditions
        # pull and another merge upload — three classes crossing the
        # dead uplink, all failed after the 30 s client timeout.
        yield env.timeout(3000.0 - env.now)
        for node in nodes[:375]:
            for core in range(8):
                fabric.transfer(
                    500 * MB, src=world, dst=node, cls=TrafficClass.XROOTD
                )
        yield env.timeout(550.0)
        fabric.transfer(
            50 * MB, src="frontier-origin", dst=fabric.root, cls=TrafficClass.FRONTIER
        )
        fabric.transfer(500 * MB, src=store, dst=world, cls=TrafficClass.MERGE)

        # t=4300: the uplink is back; a recovery wave completes cleanly.
        yield env.timeout(4300.0 - env.now)
        for node in nodes[:250]:
            for core in range(8):
                fabric.transfer(
                    50 * MB, src=world, dst=node, cls=TrafficClass.XROOTD
                )

        # The same merge upload on a quiet uplink, for comparison.
        yield env.timeout(5600.0 - env.now)
        t0 = env.now
        yield fabric.transfer(50 * MB, src=store, dst=world, cls=TrafficClass.MERGE)
        measured["merge_idle"] = env.now - t0

    def stage_out(env):
        # Periodic Chirp stage-out waves: intra-campus, never touching
        # the WAN, so they survive the outage untouched.
        wave = 0
        while env.now < 5400.0:
            yield env.timeout(600.0)
            for node in nodes[(wave * 250) % N_MACHINES:][:250]:
                fabric.transfer(30 * MB, src=node, dst=store, cls=TrafficClass.OUTPUT)
            wave += 1

    env.process(driver(env))
    env.process(stage_out(env))
    try:
        env.run(until=6000.0)
    except TransferCancelled:  # pragma: no cover - nothing should leak
        raise

    m = metrics
    print("=" * 64)
    print("NETWORK FABRIC CONTENTION (paper Fig 10 conditions)")
    print("=" * 64)
    print(f"flows: {fabric.flows_started} started, "
          f"{fabric.flows_completed} completed, {fabric.flows_failed} failed")
    print()

    print("traffic by class (bandwidth timeline, full run left to right):")
    totals = m.flow_bytes_by_class()
    _, series = m.bandwidth_timeline(100.0)
    for cls in sorted(totals, key=lambda c: -totals[c]):
        strip = ascii_timeline(series.get(cls, []), width=48)
        print(f"  {cls:<10s} {totals[cls] / 1e12:7.3f} TB  |{strip}|")
    print()

    wan = services.wan.link
    print(f"campus uplink: {wan.utilization():.1%} mean utilization "
          f"{ascii_bar(wan.utilization())}")
    busiest = sorted(
        (row for row in fabric.utilization_table() if row[2] > 0),
        key=lambda row: -row[1],
    )[:6]
    for name, util, gb in busiest:
        print(f"  {name:<22s} {util:6.1%} {ascii_bar(util, 20)} {gb:9.1f} GB")
    print()

    print(f"WAN outage {OUTAGE.start:.0f}-{OUTAGE.end:.0f} s "
          f"failed in-flight flows by class:")
    for cls, n in failures.most_common():
        print(f"  {cls:<10s} {n:5d}")
    survivors = [c for c in (TrafficClass.CVMFS, TrafficClass.OUTPUT)
                 if c not in failures]
    print(f"  untouched  {', '.join(survivors)} (no WAN hop on their routes)")
    print()

    print("merge publication upload of 50 MB across the uplink:")
    print(f"  during 9000-stream saturation : {measured['merge_saturated']:8.1f} s")
    print(f"  on the quiet uplink           : {measured['merge_idle']:8.1f} s")


if __name__ == "__main__":
    main()
