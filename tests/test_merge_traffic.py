"""Hadoop merge traffic is visible wherever bandwidth is reported.

HDFS datanode disks and NICs are links on the run's shared fabric and
every HDFS/MapReduce byte is tagged ``merge``, so a hadoop-mode campaign
reports the same merge bytes in the fabric's per-class counters, the
streaming rollup, the exact ``RunMetrics`` reduction, the dashboard's
bandwidth panel and the critical path.
"""

import pytest

from repro.core import MergeMode
from repro.desim import Environment
from repro.monitor import Rollup, SpanTracer, critical_path, render_dashboard, tap
from repro.net import TrafficClass
from repro.scenarios import simulation_scenario

MERGE = TrafficClass.MERGE


@pytest.fixture(scope="module")
def hadoop_campaign():
    env = Environment()
    rollup = Rollup()
    tap(env.bus, [rollup])
    tracer = SpanTracer(env)
    result = simulation_scenario(
        n_machines=4,
        cores=4,
        n_events=40_000,
        events_per_tasklet=250,
        tasklets_per_task=4,
        cpu_per_event=0.2,
        merge_mode=MergeMode.HADOOP,
        seed=3,
        env=env,
    )
    tracer.finalize()
    return result, rollup, tracer


def test_merge_bytes_agree_across_fabric_rollup_and_metrics(hadoop_campaign):
    result, rollup, _tracer = hadoop_campaign
    services = result.run.services
    assert services.hdfs.fabric is services.fabric
    assert result.run.workflows["mc"].merge.merged_files

    fabric_bytes = sum(
        link.bytes_by_class.get(MERGE, 0.0) for link in services.fabric.links.values()
    )
    rollup_bytes = rollup.flow_bytes[MERGE]
    metrics_bytes = result.run.metrics.flow_bytes_by_class()[MERGE]
    assert fabric_bytes > 0
    # Every HDFS flow crosses exactly one (standalone) link, so the
    # per-link counters and the per-flow records add up to the same total.
    assert rollup_bytes == pytest.approx(fabric_bytes, rel=1e-9)
    assert metrics_bytes == pytest.approx(fabric_bytes, rel=1e-9)


def test_merge_traffic_on_dashboard_and_critical_path(hadoop_campaign):
    _result, rollup, tracer = hadoop_campaign
    html = render_dashboard(rollup)
    panel = html.split("Network bandwidth by traffic class", 1)[1]
    assert f'<div class="label">{MERGE} <span' in panel

    slices, _makespan = critical_path(tracer.spans)
    labels = {s.label for s in slices}
    assert f"net.flow:{MERGE}" in labels
    assert not tracer.orphans()
