"""Tests of the benchmark itself (not collected by the package's suite).

    python3 -m pytest -q bench/tests
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Counts that must repeat exactly between two traced runs of one seed.
GUARDED = ("llm.requests.resident_opinion", "llm.requests.summarize",
           "planners.objective_evals", "geometry.point_edge_ops",
           "geometry.kernel_calls", "metrics.report_calls",
           "metrics.use_hits_calls", "discussion.view_payload_calls",
           "region.validate_plan_calls")


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of desk and search with one workload seed."""
    return {name: [run.run(name, 7, 0, True,
                           work=tmp_path_factory.mktemp(name))
                   for _ in range(2)]
            for name in ("desk", "search")}


def test_inputs_are_byte_identical_for_one_seed(tmp_path):
    for workload in workloads.WORKLOADS.values():
        a = workloads.write_inputs(workload, 11, tmp_path / workload.name / "a")
        b = workloads.write_inputs(workload, 11, tmp_path / workload.name / "b")
        for key in ("region", "demographics"):
            assert a[key].read_bytes() == b[key].read_bytes()
        assert (a["region"].parent / "seeds.json").read_bytes() == \
            (b["region"].parent / "seeds.json").read_bytes()
        other = workloads.seed_order(workload, 12)
        assert sorted(other) == sorted(a["seeds"])
        assert other != a["seeds"]


def test_desk_and_search_regions_are_the_bundled_ones(tmp_path):
    from participlan import fixtures
    from participlan.region import load_region
    for name, bundled in (("desk", fixtures.hlg_like_region()),
                          ("search", fixtures.dhm_like_region())):
        inputs = workloads.write_inputs(workloads.WORKLOADS[name], 1,
                                        tmp_path / name)
        assert load_region(inputs["region"]) == bundled


def test_city_region_follows_the_recipe(tmp_path):
    from participlan.region import load_region
    inputs = workloads.write_inputs(workloads.WORKLOADS["city"], 1, tmp_path)
    region = load_region(inputs["region"])
    assert len(region.areas) == 1600
    assert set(region.requirements.values()) == {len(region.vacant_ids) // 16}
    assert sorted(region.community_ids) == [1, 2, 3, 4]


def test_reference_check_rejects_changed_outputs():
    want = {"cmd": {"digest": "abc", "metrics": {
        c: 0.5 for c in run.METRIC_COLUMNS}}}
    same = json.loads(json.dumps(want))
    assert run.compare(same, want) is None
    off = json.loads(json.dumps(want))
    off["cmd"]["metrics"]["inclusion"] += 2e-12
    assert "inclusion" in run.compare(off, want)
    moved = json.loads(json.dumps(want))
    moved["cmd"]["digest"] = "abd"
    assert "digest" in run.compare(moved, want)
    assert run.compare(same, None) == "no reference recorded"


def test_every_pool_seed_has_a_reference():
    refs = run.load_references()
    for name, workload in workloads.WORKLOADS.items():
        assert sorted(map(int, refs[name])) == list(range(1, workload.pool + 1))


def test_traced_runs_pass_the_reference_check(traced):
    for name, runs in traced.items():
        for result, _, _ in runs:
            assert result["correct"], name
            assert result["attempted"] == workloads.WORKLOADS[name].trace_seeds
            assert result["failed"] == 0


def test_exact_count_guards_repeat(traced):
    for name, (first, second) in traced.items():
        a, b = first[0]["metrics"], second[0]["metrics"]
        for key in GUARDED:
            assert a[key]["value"] == b[key]["value"], (name, key)
    desk = traced["desk"][0][0]["metrics"]
    assert desk["llm.requests.resident_opinion"]["value"] == 600
    assert desk["llm.requests.summarize"]["value"] == 12
    search = traced["search"][0][0]["metrics"]
    assert search["planners.objective_evals"]["value"] > 1000
    assert search["geometry.point_edge_ops"]["value"] == 3 * 10_000 * 70 * 4


def test_city_makes_the_desk_requests_on_a_sparse_region(tmp_path):
    result, prov, _ = run.run("city", 7, 0, True, work=tmp_path)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert result["correct"]
    assert metrics["llm.requests.resident_opinion"] == 600
    assert metrics["llm.requests.summarize"] == 12
    assert metrics["metrics.distance_matrix_mb"] == 128.0
    assert metrics["geometry.point_edge_ops"] == 10_000 * 1600 * 4
    assert 0.012 < metrics["metrics.pairs_within_500m_share"] < 0.014
    assert prov["metrics.pairs_within_500m_share"] == pytest.approx(
        metrics["metrics.pairs_within_500m_share"], abs=1e-9)


def test_every_layer_metric_is_reported(traced):
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    for name, runs in traced.items():
        reported = {k: v["unit"] for k, v in runs[0][0]["metrics"].items()}
        assert reported == declared, name


def test_child_spans_stay_inside_their_parents(traced):
    for runs in traced.values():
        spans = runs[0][2]
        for rec in spans:
            if rec[tracing.PARENT] >= 0:
                parent = spans[rec[tracing.PARENT]]
                assert parent[tracing.START] <= rec[tracing.START]
                assert rec[tracing.END] <= parent[tracing.END]
                assert parent[tracing.SEED] == rec[tracing.SEED]


def test_top_level_spans_cover_each_seed(traced):
    for name, runs in traced.items():
        coverage = tracing.top_level_coverage(runs[0][2])
        assert len(coverage) == workloads.WORKLOADS[name].trace_seeds
        assert all(0.95 <= c <= 1.0 for c in coverage.values()), coverage


def test_provenance_share_matches_the_traced_matrix(traced):
    for runs in traced.values():
        _, prov, spans = runs[0]
        first = spans[0][tracing.SEED]
        totals = tracing.per_seed_totals(spans)[first]
        share = totals["metrics.distance_build",
                       "metrics.pairs_within_500m_share"]
        assert prov["metrics.pairs_within_500m_share"] == \
            pytest.approx(share, abs=1e-9)


def test_traced_and_untraced_runs_give_the_same_plans(tmp_path):
    from participlan.cli import main as cli_main
    from participlan.region import load_region
    workload = workloads.WORKLOADS["desk"]
    inputs = workloads.write_inputs(workload, 3, tmp_path / "inputs")
    region = load_region(inputs["region"])
    seeds = inputs["seeds"][:3]

    def outputs(tracer):
        got = {}
        for seed in seeds:
            out = tmp_path / "out"
            _, error = run.run_seed(cli_main, workload, inputs, seed, out,
                                    tracer)
            assert error is None
            got[seed] = run.seed_outputs(workload, region, seed, out)
            shutil.rmtree(out)
        return got

    plain = outputs(None)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        assert outputs(tracer) == plain
    finally:
        uninstall()
    assert any(rec[tracing.NAME] == "llm.complete" for rec in tracer.spans)


def test_untraced_run_reports_the_end_to_end_metrics(tmp_path):
    result, prov, spans = run.run("desk", 5, 0, False, work=tmp_path)
    assert result["correct"] and result["failed"] == 0
    with open(run.ROOT / "BENCHMARK.json") as fh:
        declared = {m["name"]: m["unit"] for m in json.load(fh)["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert spans == []
    assert prov["areas"] == 63 and prov["residents"] == 1000
    assert prov["seed_wall_s"] > 0 and prov["setup_wall_s"] > 0


def test_calibration_scales_by_the_bracketing_calibrations(monkeypatch):
    import calibration
    speeds = iter([0.01, 0.03, 0.02])
    monkeypatch.setattr(calibration, "chunk_seconds", lambda _: next(speeds))
    bracket = calibration.Bracket()
    ref = calibration.REFERENCE_S
    assert bracket.scale(1.0) == pytest.approx(ref / 0.02)
    assert bracket.scale(2.0) == pytest.approx(2.0 * ref / 0.025)


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
