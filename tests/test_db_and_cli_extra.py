"""Extra coverage: Lobster DB queries against a real run, CLI variants."""

import pytest

from repro.analysis import simulation_code
from repro.batch import CondorPool, GlideinRequest, MachinePool
from repro.core import LobsterConfig, LobsterRun, MergeMode, Services, WorkflowConfig
from repro.desim import Environment
from repro.distributions import ConstantHazardEviction


def completed_run():
    env = Environment()
    services = Services.default(env)
    cfg = LobsterConfig(
        workflows=[
            WorkflowConfig(
                label="mc",
                code=simulation_code(intrinsic_failure_rate=0.05),
                n_events=20_000,
                events_per_tasklet=500,
                tasklets_per_task=4,
                merge_mode=MergeMode.NONE,
                max_retries=20,
            )
        ],
        cores_per_worker=4,
        bad_machine_rate=0.0,
    )
    run = LobsterRun(env, cfg, services)
    run.start()
    machines = MachinePool.homogeneous(env, 4, cores=4)
    pool = CondorPool(env, machines, eviction=ConstantHazardEviction(0.2), seed=23)
    pool.submit(
        GlideinRequest(n_workers=4, cores_per_worker=4, start_interval=0.5),
        run.worker_payload,
    )
    env.run(until=run.process)
    pool.drain()
    return env, run


def test_db_reflects_live_run():
    env, run = completed_run()
    db = run.db
    # Task counts match the metrics stream.
    assert db.task_count() == run.metrics.n_tasks
    # Exit-code census matches.
    counts = db.exit_code_counts()
    assert counts.get(0, 0) == run.metrics.n_succeeded()
    failures = sum(v for k, v in counts.items() if k != 0)
    assert failures == run.metrics.n_failed()
    # Segment totals line up with the breakdown's CPU bucket.
    totals = db.segment_totals()
    cpu_from_records = sum(
        r.segments.get("cpu", 0.0) for r in run.metrics.records
    )
    assert totals["cpu"] == pytest.approx(cpu_from_records)
    # Completions timeline covers every recorded task.
    timeline = db.completions_timeline(bin_width=1800.0)
    assert sum(ok + bad for _, ok, bad in timeline) == run.metrics.n_tasks
    # Lost time matches the tasks table.
    assert db.lost_time_total() >= 0.0
    # All tasklets ended in a terminal state, and the DB agrees.
    states = db.tasklet_state_counts("mc")
    assert set(states) <= {"done", "failed"}
    assert sum(states.values()) == 40


def test_db_segment_histogram_covers_all_tasks():
    env, run = completed_run()
    hist = run.db.segment_histogram("cpu", bin_width=600.0)
    assert sum(c for _, c in hist) == sum(
        1 for r in run.metrics.records if "cpu" in r.segments
    )


# ---------------------------------------------------------------- CLI extras
def test_cli_tasksize_weibull_and_none(run_cli):
    code, text = run_cli(
        ["tasksize", "--tasklets", "400", "--workers", "40", "--eviction", "weibull"]
    )
    assert code == 0 and "optimal:" in text
    code, text = run_cli(
        ["tasksize", "--tasklets", "400", "--workers", "40", "--eviction", "none"]
    )
    assert code == 0
    # Without eviction the longest task length wins.
    assert "optimal: 10.00 h" in text


def test_cli_process_with_outage(run_cli):
    code, text = run_cli(
        [
            "run", "process",
            "--param", "files=12",
            "--param", "machines=2",
            "--param", "cores=4",
            "--param", "outage_hours=0.2",
        ]
    )
    assert code == 0
    assert "LOBSTER RUN REPORT" in text


def test_cli_unknown_profile_exits(run_cli):
    with pytest.raises(SystemExit, match="unknown profile 'no-such-profile'"):
        run_cli(["run", "simulate", "--param", "profile=no-such-profile"])
