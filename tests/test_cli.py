"""Tests for the command-line interface and the profile catalog."""

import io

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
def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_cli_profiles():
    code, text = run_cli(["profiles"])
    assert code == 0
    assert "ntuple" in text
    assert "gensim" in text


def test_cli_tasksize_small():
    code, text = run_cli(
        ["tasksize", "--tasklets", "500", "--workers", "50", "--eviction", "constant"]
    )
    assert code == 0
    assert "optimal:" in text
    assert "efficiency" in text


def test_cli_quickstart_small():
    code, text = run_cli(["quickstart", "--events", "4000", "--workers", "2"])
    assert code == 0
    assert "LOBSTER RUN REPORT" in text
    assert "succeeded" in text


def test_cli_simulate_rejects_data_profile():
    with pytest.raises(SystemExit):
        run_cli(["simulate", "--profile", "ntuple", "--events", "1000"])


def test_cli_process_rejects_mc_profile():
    with pytest.raises(SystemExit):
        run_cli(["process", "--profile", "gensim"])


def test_cli_process_small():
    code, text = run_cli(
        ["process", "--files", "10", "--machines", "2", "--cores", "4"]
    )
    assert code == 0
    assert "LOBSTER RUN REPORT" in text


def test_cli_simulate_small():
    code, text = run_cli(
        ["simulate", "--events", "8000", "--machines", "2", "--cores", "4"]
    )
    assert code == 0
    assert "LOBSTER RUN REPORT" in text


# --------------------------------------------------- replay error paths
REPLAY_COMMANDS = {
    "events": lambda path, tmp: ["events", path],
    "trace": lambda path, tmp: ["trace", "--replay", path],
    "dash": lambda path, tmp: ["dash", "--replay", path, "--out", str(tmp / "d.html")],
    "watch": lambda path, tmp: ["watch", "--replay", path, "--out", str(tmp / "w.html")],
}


@pytest.mark.parametrize("command", sorted(REPLAY_COMMANDS))
def test_replay_of_missing_file_exits(command, tmp_path):
    path = str(tmp_path / "absent.jsonl")
    with pytest.raises(SystemExit, match="absent.jsonl"):
        run_cli(REPLAY_COMMANDS[command](path, tmp_path))


@pytest.mark.parametrize("command", sorted(REPLAY_COMMANDS))
def test_replay_of_truncated_stream_exits(command, tmp_path):
    path = tmp_path / "cut.jsonl"
    path.write_text(
        '{"t": 1.0, "topic": "task.start", "running": 1}\n'
        '{"t": 2.0, "topic": "task.done", "runn'
    )
    with pytest.raises(SystemExit, match="not a valid event stream"):
        run_cli(REPLAY_COMMANDS[command](str(path), tmp_path))


# ------------------------------------------------ trace: live == replay
def test_cli_trace_live_matches_replay(tmp_path):
    """A live ``trace`` and a ``trace --replay`` of its recording write
    byte-identical span and Chrome-trace files."""
    events = str(tmp_path / "run.jsonl")
    outs = {
        mode: (str(tmp_path / f"{mode}.jsonl"), str(tmp_path / f"{mode}.json"))
        for mode in ("live", "replay")
    }
    code, text = run_cli([
        "trace", "--events", "2000", "--workers", "2", "--events-out", events,
        "--spans-out", outs["live"][0], "--chrome-out", outs["live"][1],
    ])
    assert code == 0
    assert " 0 orphans" in text
    code, _ = run_cli([
        "trace", "--replay", events,
        "--spans-out", outs["replay"][0], "--chrome-out", outs["replay"][1],
    ])
    assert code == 0
    for live, replayed in zip(outs["live"], outs["replay"]):
        with open(live, "rb") as a, open(replayed, "rb") as b:
            assert a.read() == b.read(), live
