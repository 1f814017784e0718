"""Tests for the declarative sweep engine (``repro.sweep``).

Fast by construction: everything below the spec layer runs against the
instant ``toy`` model scenario, so expansion, hashing, fan-out, failure
isolation, resume, and reduction are exercised without paying for a
discrete-event simulation.
"""

import json
import os

import pytest

from repro.sweep import (
    Axis,
    SweepSpec,
    Variant,
    axis_importance,
    canonical_json,
    compute_deltas,
    content_hash,
    execute_plan,
    load_spec,
    load_sweep,
    run_sweep,
    write_json,
)
from repro.sweep.registry import (
    get_scenario,
    list_scenarios,
    resolve_cache_mode,
    resolve_eviction,
    resolve_outages,
)
from repro.scenarios import CRASH_SETTLE
from repro.testing import resolve_test_seed


def toy_spec(**kwargs) -> SweepSpec:
    """A 2x2 grid over the instant toy scenario."""
    defaults = dict(
        name="toy",
        scenario="toy",
        seed=3,
        axes=[
            Axis("value", (Variant("v1", {"value": 1.0}),
                           Variant("v2", {"value": 2.0}))),
            Axis("factor", (Variant("f1", {"factor": 1.0}),
                            Variant("f3", {"factor": 3.0}))),
        ],
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


# ---------------------------------------------------------------- expansion
def test_grid_expansion_counts_and_order():
    plans = toy_spec().expand()
    assert len(plans) == 4
    # Axis-major order: first axis varies slowest.
    assert [p.variants for p in plans] == [
        {"value": "v1", "factor": "f1"},
        {"value": "v1", "factor": "f3"},
        {"value": "v2", "factor": "f1"},
        {"value": "v2", "factor": "f3"},
    ]


def test_star_expansion_is_one_at_a_time():
    plans = toy_spec(mode="star").expand()
    # All-baseline plus one run per non-baseline variant.
    assert len(plans) == 3
    assert plans[0].variants == {"value": "v1", "factor": "f1"}
    assert {tuple(p.variants.values()) for p in plans[1:]} == {
        ("v2", "f1"), ("v1", "f3"),
    }


def test_run_ids_are_stable_and_content_addressed():
    a = toy_spec().expand()
    b = toy_spec().expand()
    assert [p.run_id for p in a] == [p.run_id for p in b]
    # Same params under reordered axes -> same content digest.
    flipped = toy_spec(
        axes=[
            Axis("factor", (Variant("f1", {"factor": 1.0}),
                            Variant("f3", {"factor": 3.0}))),
            Axis("value", (Variant("v1", {"value": 1.0}),
                           Variant("v2", {"value": 2.0}))),
        ]
    ).expand()
    assert {p.run_id.rsplit("-", 1)[1] for p in a} == {
        p.run_id.rsplit("-", 1)[1] for p in flipped
    }
    # Changing a parameter changes the digest.
    shifted = toy_spec(base={"sleep_s": 0.0}).expand()
    assert {p.run_id.rsplit("-", 1)[1] for p in a}.isdisjoint(
        p.run_id.rsplit("-", 1)[1] for p in shifted
    )


def test_identical_params_still_get_distinct_run_ids():
    # Two variants with identical params share a content digest but the
    # variant-name label keeps their run IDs distinct.
    plans = toy_spec(
        axes=[
            Axis("a", (Variant("x", {"value": 1.0}),)),
            Axis("b", (Variant("y1", {"value": 1.0}),
                       Variant("y2", {"value": 1.0}))),
        ]
    ).expand()
    assert len({p.run_id for p in plans}) == 2
    assert len({p.run_id.rsplit("-", 1)[1] for p in plans}) == 1


def test_colliding_labels_with_identical_params_are_rejected():
    # Pathological variant names can make two assignments produce the
    # same "+"-joined label AND the same params -> same run id.
    spec = toy_spec(
        axes=[
            Axis("a", (Variant("x"), Variant("x+y"))),
            Axis("b", (Variant("y+z"), Variant("z"))),
        ]
    )
    with pytest.raises(ValueError, match="duplicate run ids"):
        spec.expand()


def test_spec_validation():
    with pytest.raises(ValueError, match="at least one axis"):
        SweepSpec(name="x", scenario="toy", axes=[])
    with pytest.raises(ValueError, match="unknown sweep mode"):
        toy_spec(mode="zigzag")
    with pytest.raises(ValueError, match="duplicate variant names"):
        Axis("a", (Variant("x"), Variant("x")))
    with pytest.raises(ValueError, match="at least one variant"):
        Axis("a", ())


def test_spec_round_trip_and_hash():
    spec = toy_spec(objective="efficiency", timeout_s=7.5)
    clone = SweepSpec.from_dict(json.loads(canonical_json(spec.to_dict())))
    assert clone.to_dict() == spec.to_dict()
    assert clone.spec_hash() == spec.spec_hash()
    assert [p.run_id for p in clone.expand()] == [
        p.run_id for p in spec.expand()
    ]


def test_content_hash_is_order_insensitive():
    assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})


# ---------------------------------------------------------------- spec files
def test_load_spec_json(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(toy_spec().to_dict()))
    spec = load_spec(str(path))
    assert [p.run_id for p in spec.expand()] == [
        p.run_id for p in toy_spec().expand()
    ]


def test_load_spec_python(tmp_path):
    path = tmp_path / "spec.py"
    path.write_text(
        "from repro.sweep import Axis, SweepSpec, Variant\n"
        "SPEC = SweepSpec(name='py', scenario='toy', seed=1,\n"
        "                 axes=[Axis('a', (Variant('x', {'value': 1.0}),))])\n"
    )
    assert load_spec(str(path)).name == "py"


def test_load_spec_python_builder(tmp_path):
    path = tmp_path / "spec.py"
    path.write_text(
        "from repro.sweep import Axis, SweepSpec, Variant\n"
        "def build_spec():\n"
        "    return SweepSpec(name='built', scenario='toy', seed=1,\n"
        "                     axes=[Axis('a', (Variant('x'),))])\n"
    )
    assert load_spec(str(path)).name == "built"


def test_load_spec_rejects_other_files(tmp_path):
    empty = tmp_path / "spec.py"
    empty.write_text("x = 1\n")
    with pytest.raises(ValueError, match="no SPEC object"):
        load_spec(str(empty))
    with pytest.raises(ValueError, match="need .json or .py"):
        load_spec("spec.yaml")


# ---------------------------------------------------------------- seeds
def test_resolve_test_seed(monkeypatch):
    monkeypatch.delenv("REPRO_TEST_SEED", raising=False)
    assert resolve_test_seed() == 0
    assert resolve_test_seed(default=9) == 9
    monkeypatch.setenv("REPRO_TEST_SEED", "2")
    assert resolve_test_seed() == 2
    monkeypatch.setenv("REPRO_TEST_SEED", "  ")
    assert resolve_test_seed() == 0
    monkeypatch.setenv("REPRO_TEST_SEED", "two")
    with pytest.raises(ValueError, match="must be an integer"):
        resolve_test_seed()


def test_spec_seed_defaults_to_matrix_seed(monkeypatch):
    monkeypatch.setenv("REPRO_TEST_SEED", "2")
    assert toy_spec(seed=None).resolved_seed() == 2
    assert toy_spec(seed=7).resolved_seed() == 7
    # The seed lands in the run params, hence in the content hash.
    assert toy_spec(seed=None).expand()[0].params["seed"] == 2


# ---------------------------------------------------------------- execution
def test_execute_plan_runs_model_scenario():
    plan = toy_spec().expand()[0]
    row = execute_plan(plan)
    assert row.ok
    assert row.metrics["makespan_s"] == pytest.approx(100.0, abs=1.0)


def test_run_sweep_payload_shape():
    payload = run_sweep(toy_spec())
    assert payload["schema"] == "repro.sweep/1"
    assert payload["n_runs"] == 4 and payload["n_ok"] == 4
    assert payload["baseline"] == toy_spec().baseline_plan().run_id
    assert len(payload["deltas"]) == 4
    assert [a["axis"] for a in payload["importance"]] == ["factor", "value"]
    # Baseline delta row is exactly zero.
    base_row = next(
        d for d in payload["deltas"] if d["run_id"] == payload["baseline"]
    )
    assert base_row["delta"] == 0.0


def test_jobs_do_not_change_results():
    """Satellite 4: --jobs 1 and --jobs 4 agree run-for-run."""
    p1 = run_sweep(toy_spec(), jobs=1)
    p4 = run_sweep(toy_spec(), jobs=4)
    assert [r["run_id"] for r in p1["runs"]] == [
        r["run_id"] for r in p4["runs"]
    ]
    assert [r["metrics"] for r in p1["runs"]] == [
        r["metrics"] for r in p4["runs"]
    ]


def test_explicit_baseline_and_unknown_baseline():
    plans = toy_spec().expand()
    payload = run_sweep(toy_spec(), baseline=plans[3].run_id)
    assert payload["baseline"] == plans[3].run_id
    with pytest.raises(ValueError, match="not a run id"):
        run_sweep(toy_spec(), baseline="nope-123")


def test_jobs_must_be_positive():
    with pytest.raises(ValueError, match="jobs must be"):
        run_sweep(toy_spec(), jobs=0)


# ---------------------------------------------------------------- failure paths
def crashy_spec(**kwargs) -> SweepSpec:
    """One healthy and one failing variant."""
    defaults = dict(
        name="crashy",
        scenario="toy",
        seed=3,
        axes=[
            Axis("health", (Variant("fine", {}),
                            Variant("sick", {"crash": True}))),
            Axis("value", (Variant("v1", {"value": 1.0}),
                           Variant("v2", {"value": 2.0}))),
        ],
    )
    defaults.update(kwargs)
    return SweepSpec(**defaults)


def test_exception_marks_run_failed_without_poisoning_siblings():
    payload = run_sweep(crashy_spec(), jobs=2)
    assert payload["n_ok"] == 2 and payload["n_failed"] == 2
    by_id = {r["run_id"]: r for r in payload["runs"]}
    for r in by_id.values():
        if r["variants"]["health"] == "sick":
            assert r["status"] == "failed"
            assert "injected crash" in r["error"]
        else:
            assert r["status"] == "ok" and r["metrics"]


def test_worker_process_death_is_isolated():
    """A hard os._exit kills the worker, not the sweep."""
    spec = crashy_spec(
        axes=[
            Axis("health", (Variant("fine", {}),
                            Variant("dead", {"hard_exit": True}))),
        ]
    )
    payload = run_sweep(spec, jobs=2)
    by_health = {r["variants"]["health"]: r for r in payload["runs"]}
    assert by_health["fine"]["status"] == "ok"
    assert by_health["dead"]["status"] == "failed"
    assert "exit code 13" in by_health["dead"]["error"]
    assert by_health["fine"]["metrics"]["makespan_s"] > 0


def test_worker_timeout_is_isolated():
    spec = crashy_spec(
        axes=[
            Axis("health", (Variant("fine", {}),
                            Variant("stuck", {"sleep_s": 60.0}))),
        ],
        timeout_s=1.5,
    )
    payload = run_sweep(spec, jobs=2)
    by_health = {r["variants"]["health"]: r for r in payload["runs"]}
    assert by_health["fine"]["status"] == "ok"
    assert by_health["stuck"]["status"] == "failed"
    assert "timed out" in by_health["stuck"]["error"]


def test_resume_skips_completed_runs(tmp_path):
    first = run_sweep(crashy_spec(), jobs=2)
    assert first["n_failed"] == 2
    path = str(tmp_path / "sweep.json")
    write_json(first, path)

    executed = []
    second = run_sweep(
        crashy_spec(), resume=path, progress=lambda row: executed.append(row)
    )
    # The two ok runs come back marked resumed; only failures re-execute.
    resumed = [r for r in second["runs"] if r.get("resumed")]
    assert len(resumed) == 2
    assert all(r["status"] == "ok" for r in resumed)
    fresh = [row for row in executed if not row.resumed]
    assert {row.run_id for row in fresh} == {
        r["run_id"] for r in second["runs"] if not r.get("resumed")
    }
    assert load_sweep(path)["n_runs"] == 4


# ---------------------------------------------------------------- reduction
def synthetic_results():
    spec = toy_spec()
    rows = []
    for plan in spec.expand():
        row = execute_plan(plan)
        rows.append(row)
    return spec, rows


def test_compute_deltas_against_baseline():
    spec, rows = synthetic_results()
    deltas = compute_deltas(rows, "makespan_s", spec.baseline_plan().run_id)
    assert deltas[0]["delta"] == 0.0
    assert all("delta_pct" in d for d in deltas)


def test_axis_importance_ranks_strongest_axis_first():
    spec, rows = synthetic_results()
    ranking = axis_importance(spec, rows)
    # factor spans 1->3 (spread ~300), value spans 1->2 (spread ~200).
    assert ranking[0]["axis"] == "factor"
    assert ranking[0]["spread"] > ranking[1]["spread"] > 0


# ---------------------------------------------------------------- registry
def test_registry_resolvers():
    from repro.cvmfs import CacheMode
    from repro.distributions import (
        ConstantHazardEviction,
        EmpiricalEviction,
        NoEviction,
        WeibullEviction,
    )

    assert resolve_eviction(None) is None
    assert isinstance(resolve_eviction("none"), NoEviction)
    assert isinstance(resolve_eviction("weibull"), WeibullEviction)
    const = resolve_eviction("constant:0.25")
    assert isinstance(const, ConstantHazardEviction)
    assert isinstance(resolve_eviction("empirical:200:1"), EmpiricalEviction)
    with pytest.raises(ValueError, match="unknown eviction"):
        resolve_eviction("bogus")

    assert resolve_cache_mode("alien") is CacheMode.ALIEN
    assert resolve_cache_mode(None) is None
    with pytest.raises(ValueError, match="unknown cache mode"):
        resolve_cache_mode("warm")

    outages = resolve_outages([[10.0, 20.0]])
    assert outages[0].start == 10.0 and outages[0].end == 20.0
    assert resolve_outages(None) is None


def test_unknown_scenario_lists_known_names():
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("does-not-exist")


# ---------------------------------------------------------------- DES builders
#: Tiny parameters for every registered DES scenario.
SMALL_DES = {
    "quickstart": {"events": 1000, "workers": 1},
    "simulate": {"events": 1000, "machines": 1, "profile": "gensim"},
    "process": {"files": 2, "machines": 1, "profile": "skim"},
    "chaos": {"files": 2, "machines": 2},
    "data_processing": {"n_files": 2, "n_machines": 1},
    "simulation": {"n_events": 1000, "n_machines": 1},
}


def test_des_builders_return_prepared_runs():
    """Every ``des`` builder wires its campaign without moving the
    clock, so ``run`` can attach sinks and folds before driving it."""
    from repro.desim import Environment
    from repro.scenarios import PreparedRun

    assert sorted(s.name for s in list_scenarios() if s.kind == "des") == sorted(
        SMALL_DES
    )
    labels = {}
    for name, params in SMALL_DES.items():
        prepared = get_scenario(name).build(Environment(), **params)
        assert isinstance(prepared, PreparedRun), name
        assert prepared.env.now == 0.0, name
        labels[name] = [wf.label for wf in prepared.run.config.workflows]
    assert labels["simulate"] == ["mc-gensim"]
    assert labels["process"] == ["data-skim"]


@pytest.mark.parametrize("name, profile, message", [
    ("simulate", "skim", "not a simulation profile"),
    ("process", "gensim", "not a data-processing profile"),
    ("process", "nope", "unknown profile 'nope'"),
])
def test_profile_scenarios_reject_wrong_profiles(name, profile, message):
    from repro.desim import Environment

    with pytest.raises(ValueError, match=message):
        get_scenario(name).build(Environment(), profile=profile)


def test_sweep_cell_resumes_a_crashed_campaign():
    """A ``master_crash_at`` sweep cell runs the same crash, warm-restart
    and resume loop as ``run chaos``: the resumed campaign finishes."""
    plan = SweepSpec(
        name="crash", scenario="chaos", seed=1,
        base={"files": 12, "machines": 6, "cores": 2},
        axes=[Axis("crash", (Variant("t1500", {"master_crash_at": 1500.0}),))],
    ).expand()[0]
    row = execute_plan(plan)
    assert row.ok, row.error
    # Without the resume the cell would stop at the crash with 5 of the
    # 12 files' outputs created.
    assert row.metrics["makespan_s"] > 1500.0 + CRASH_SETTLE
    assert row.metrics["outputs_created"] == 12.0


# ---------------------------------------------------------------- CLI
def test_cli_sweep_list(tmp_path, run_cli):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(toy_spec().to_dict()))
    code, text = run_cli(["sweep", str(path), "--list"])
    assert code == 0
    for plan in toy_spec().expand():
        assert plan.run_id in text


def test_cli_sweep_end_to_end(tmp_path, run_cli):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(toy_spec().to_dict()))
    out_path = tmp_path / "BENCH_sweep.json"
    code, text = run_cli(
        ["sweep", str(path), "--jobs", "2", "--out", str(out_path)]
    )
    assert code == 0
    assert "4/4 runs ok" in text
    assert "axis importance" in text
    payload = load_sweep(str(out_path))
    assert payload["n_ok"] == 4
    assert os.path.getsize(out_path) > 0


def test_cli_sweep_failure_sets_exit_code(tmp_path, run_cli):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(crashy_spec().to_dict()))
    out_path = tmp_path / "BENCH_sweep.json"
    code, text = run_cli(["sweep", str(path), "--out", str(out_path)])
    assert code == 1
    assert "failed runs:" in text


def test_cli_sweep_missing_spec(run_cli):
    with pytest.raises(SystemExit):
        run_cli(["sweep", "/does/not/exist.json"])
