"""Tests for the command-line interface and the profile catalog."""

import pytest

from repro.analysis.profiles import PROFILES, list_profiles, profile
from repro.cli import build_parser, main


# ---------------------------------------------------------------- profiles
def test_profile_catalog_complete():
    assert {"skim", "ntuple", "rereco", "gensim", "digi-reco-mc"} <= set(PROFILES)
    for name in PROFILES:
        code = profile(name)
        assert code.per_event_cpu.mean() > 0
        assert code.output_bytes_per_event > 0


def test_profile_unknown_raises():
    with pytest.raises(KeyError, match="unknown profile"):
        profile("does-not-exist")


def test_profiles_have_expected_shape():
    # A skim computes far less per event than reconstruction.
    assert profile("skim").per_event_cpu.mean() < profile("rereco").per_event_cpu.mean() / 10
    # GEN-SIM is the CPU heavyweight and needs no real input.
    gensim = profile("gensim")
    assert gensim.input_bytes_per_event == 0.0
    assert gensim.per_event_cpu.mean() > 10
    # Ntupling reduces output by > 10x relative to input.
    nt = profile("ntuple")
    assert nt.output_bytes_per_event * 10 < nt.input_bytes_per_event


def test_list_profiles():
    listing = list_profiles()
    assert "ntuple" in listing
    assert "simulation" in listing["gensim"]


# ---------------------------------------------------------------- CLI
def test_cli_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_help_lists_run_and_replay(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
    assert commands.split(",") == [
        "run", "replay", "tasksize", "crashtest", "profiles", "topology", "sweep",
    ]


def test_cli_profiles(run_cli):
    code, text = run_cli(["profiles"])
    assert code == 0
    assert "ntuple" in text
    assert "gensim" in text


def test_cli_tasksize_small(run_cli):
    code, text = run_cli(
        ["tasksize", "--tasklets", "500", "--workers", "50", "--eviction", "constant"]
    )
    assert code == 0
    assert "optimal:" in text
    assert "efficiency" in text


def test_cli_quickstart_small(run_cli):
    code, text = run_cli(
        ["run", "quickstart", "--param", "events=4000", "--param", "workers=2"]
    )
    assert code == 0
    assert "LOBSTER RUN REPORT" in text
    assert "succeeded" in text


def test_cli_simulate_rejects_data_profile(run_cli):
    with pytest.raises(SystemExit, match="not a simulation profile"):
        run_cli(["run", "simulate", "--param", "profile=ntuple",
                 "--param", "events=1000"])


def test_cli_process_rejects_mc_profile(run_cli):
    with pytest.raises(SystemExit, match="not a data-processing profile"):
        run_cli(["run", "process", "--param", "profile=gensim"])


def test_cli_process_small(run_cli):
    code, text = run_cli(["run", "process", "--param", "files=10",
                          "--param", "machines=2", "--param", "cores=4"])
    assert code == 0
    assert "LOBSTER RUN REPORT" in text


def test_cli_simulate_small(run_cli):
    code, text = run_cli(["run", "simulate", "--param", "events=8000",
                          "--param", "machines=2", "--param", "cores=4"])
    assert code == 0
    assert "LOBSTER RUN REPORT" in text


# --------------------------------------------------- replay error paths
#: One ``replay`` per fold set: the plain summary, spans, dashboard, watch.
REPLAY_COMMANDS = {
    "events": lambda path, tmp: ["replay", path],
    "trace": lambda path, tmp: ["replay", path, "--spans-out", tmp / "s.jsonl"],
    "dash": lambda path, tmp: ["replay", path, "--dash-out", tmp / "d.html"],
    "watch": lambda path, tmp: ["replay", path, "--watch"],
}


@pytest.mark.parametrize("command", sorted(REPLAY_COMMANDS))
def test_replay_of_missing_file_exits(command, tmp_path, run_cli):
    path = str(tmp_path / "absent.jsonl")
    with pytest.raises(SystemExit, match="absent.jsonl"):
        run_cli(REPLAY_COMMANDS[command](path, tmp_path))


@pytest.mark.parametrize("command", sorted(REPLAY_COMMANDS))
def test_replay_of_truncated_stream_exits(command, tmp_path, run_cli):
    path = tmp_path / "cut.jsonl"
    path.write_text(
        '{"t": 1.0, "topic": "task.start", "running": 1}\n'
        '{"t": 2.0, "topic": "task.done", "runn'
    )
    with pytest.raises(SystemExit, match="not a valid event stream"):
        run_cli(REPLAY_COMMANDS[command](str(path), tmp_path))


# ------------------------------------------------ spans: live == replay
def test_cli_trace_live_matches_replay(tmp_path, run_cli):
    """A live ``run --spans-out --chrome-out`` and a ``replay`` of its
    recording write byte-identical span and Chrome-trace files."""
    events = str(tmp_path / "run.jsonl")
    outs = {
        mode: (str(tmp_path / f"{mode}.jsonl"), str(tmp_path / f"{mode}.json"))
        for mode in ("live", "replay")
    }
    code, text = run_cli([
        "run", "quickstart", "--param", "events=2000", "--param", "workers=2",
        "--events-out", events,
        "--spans-out", outs["live"][0], "--chrome-out", outs["live"][1],
    ])
    assert code == 0
    assert " 0 orphans" in text
    assert "critical path covers" in text
    code, text = run_cli([
        "replay", events,
        "--spans-out", outs["replay"][0], "--chrome-out", outs["replay"][1],
    ])
    assert code == 0
    assert f"events from {events}" in text
    assert "task records:" in text and " 0 orphans" in text
    for live, replayed in zip(outs["live"], outs["replay"]):
        with open(live, "rb") as a, open(replayed, "rb") as b:
            assert a.read() == b.read(), live


# ------------------------------------------------ one driver, only the folds asked for
def test_cli_plain_run_taps_only_the_metrics_fold(monkeypatch, run_cli):
    """``run`` with no output flags attaches no SpanTracer and taps no
    fold: its bus carries exactly the subscriptions of a bare build,
    i.e. the run's own ``LobsterRun.metrics_tap``."""
    from repro import scenarios
    from repro.desim import Environment
    from repro.testing import reset_id_counters

    seen = []
    drive = scenarios.execute_campaign

    def spy(prepared, *args, **kwargs):
        seen.append(prepared.env.bus.stats()["subscriptions"])
        return drive(prepared, *args, **kwargs)

    monkeypatch.setattr(scenarios, "execute_campaign", spy)
    code, _ = run_cli(["run", "quickstart", "--param", "events=2000",
                       "--param", "workers=2"])
    assert code == 0
    reset_id_counters()
    bare = scenarios.prepare_quickstart(events=2000, workers=2, env=Environment())
    assert seen == [bare.env.bus.stats()["subscriptions"]]


def test_cli_crashed_chaos_dashboard_folds_both_segments(tmp_path, run_cli):
    """The rollup behind ``run chaos --dash-out`` is tapped before the
    build, so its page counts the faults injected before the master
    crash as well as those after the warm restart."""
    import re

    from repro.monitor import load_events

    events, page = tmp_path / "crash.jsonl", tmp_path / "crash.html"
    code, text = run_cli([
        "run", "chaos", "--param", "files=12", "--param", "machines=6",
        "--param", "cores=2", "--seed", "1", "--param", "master_crash_at=1500",
        "--events-out", events, "--dash-out", page, "--check-parity",
    ])
    assert code == 0
    assert "MASTER CRASHED" in text and "WARM RESTART" in text
    assert "parity OK" in text
    injected = [e["t"] for e in load_events(str(events))
                if e["topic"] == "fault.inject"]
    before_crash = sum(1 for t in injected if t <= 1500.0)
    assert 0 < before_crash < len(injected)
    tile = re.search(r'>(\d+)</div><div class="k">faults injected<',
                     page.read_text(encoding="utf-8"))
    assert int(tile.group(1)) == len(injected)


def test_cli_refresh_every_needs_dash_out(run_cli):
    with pytest.raises(SystemExit, match="--refresh-every needs --dash-out"):
        run_cli(["run", "quickstart", "--refresh-every", "1800"])
