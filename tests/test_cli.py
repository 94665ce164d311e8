import csv
import importlib.metadata
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import participlan
from participlan import metrics, planners, svgmap
from participlan.cli import main
from participlan.errors import InvariantError, ParseError, SpecError
from participlan.fixtures import data_path, make_grid_region
from participlan.llm import ChatMessage, RuleBackend
from participlan.population import load_demographics
from participlan.region import (ASSIGNABLE_USES, COORDINATE_BOUND_M,
                                load_plan, load_region, plan_digest,
                                save_region)

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

REGION = str(data_path("hlg_like.region.json"))
DEMOGRAPHICS = str(data_path("hlg_like.demographics.json"))


def _read_csv(path):
    with open(path) as fh:
        return list(csv.DictReader(fh))


def _declared_entry_point():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["participlan"]
    module, _, attr = target.partition(":")
    assert module and attr, target
    return module, attr


def _assert_help_lists_subcommands(argv, env=None):
    out = subprocess.run(argv + ["--help"], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("usage: participlan"), out.stdout
    # the subcommand choices sit on the usage paragraph, which may wrap
    usage = out.stdout.split("\n\n", 1)[0]
    choices = re.search(r"\{([\w,-]+)\}", usage)
    assert choices, usage
    assert "simulate" in choices.group(1).split(","), usage


def test_console_script_installed():
    # Run the declared [project.scripts] target the way an installer's
    # generated launcher does, against the participlan package under test.
    module, attr = _declared_entry_point()
    launcher = (f"import sys; from {module} import {attr}; "
                f"sys.exit({attr}())")
    package_root = str(Path(participlan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    _assert_help_lists_subcommands([sys.executable, "-c", launcher], env=env)

    # Where the distribution is installed, its launcher must be on PATH too.
    try:
        importlib.metadata.distribution("participlan")
    except importlib.metadata.PackageNotFoundError:
        return
    exe = shutil.which("participlan")
    assert exe, "console script should be on PATH after install"
    _assert_help_lists_subcommands([exe])


def test_plan_run_directory(tmp_path):
    out = tmp_path / "run"
    code = main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", "random", "--seeds", "101,202", "--out", str(out)])
    assert code == 0
    assert (out / "config.snapshot.json").exists()
    assert (out / "plans" / "seed101.json").exists()
    assert (out / "plans" / "seed202.json").exists()
    assert (out / "report.txt").exists()
    rows = _read_csv(out / "metrics.csv")
    assert [r["seed"] for r in rows] == ["101", "202", "mean"]
    assert list(rows[0])[-4:] == ["service", "ecology",
                                  "satisfaction", "inclusion"]
    # the mean row is the arithmetic mean of the per-seed values
    for col in ("service", "ecology", "satisfaction", "inclusion"):
        want = (float(rows[0][col]) + float(rows[1][col])) / 2.0
        assert float(rows[2][col]) == pytest.approx(want, abs=1e-12)


def test_plan_local_search_on_a_region_with_no_vacant_area(tmp_path):
    # every area fixed and every quota 0: a valid region whose plan is
    # empty, as gsca's is
    region = make_grid_region("no_vacancy", 2, 2, 250.0,
                              [(0, 0), (0, 1), (1, 0)], [(1, 1)],
                              {u: 0 for u in ASSIGNABLE_USES},
                              lambda row, col: 1, {1: "All"})
    save_region(region, tmp_path / "region.json")
    out = tmp_path / "run"
    code = main(["plan", "--region", str(tmp_path / "region.json"),
                 "--demographics", DEMOGRAPHICS, "--method", "local-search",
                 "--seeds", "101", "--out", str(out)])
    assert code == 0
    assert load_plan(out / "plans" / "seed101.json").assignment == {}
    assert [r["seed"] for r in _read_csv(out / "metrics.csv")] == ["101",
                                                                   "mean"]


@pytest.mark.parametrize("method, builds", [
    ("local-search", [("boundary", metrics.REACH_M)]),
    ("gsca", [("boundary", metrics.REACH_M),
              ("centroid", metrics.SERVICE_RADIUS_M)]),
    ("random", [("boundary", metrics.REACH_M)]),
])
def test_plan_builds_one_proximity_index_per_seed(tmp_path, monkeypatch,
                                                  method, builds):
    # the seed's boundary index serves the planner and the report; gsca
    # adds its centroid index
    built = []
    init = metrics.ProximityIndex.__init__

    def counted(self, region, homes, radius, mode="boundary"):
        built.append((mode, radius))
        init(self, region, homes, radius, mode)

    monkeypatch.setattr(metrics.ProximityIndex, "__init__", counted)
    code = main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", method, "--seeds", "101",
                 "--out", str(tmp_path / "run")])
    assert code == 0
    assert sorted(built) == builds


def test_plan_llm_method_uses_backend(tmp_path):
    out = tmp_path / "run"
    code = main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", "llm", "--seeds", "101", "--out", str(out)])
    assert code == 0
    doc = json.loads((out / "plans" / "seed101.json").read_text())
    assert len(doc["assignments"]) == 42


def test_simulate_run_directory(tmp_path):
    out = tmp_path / "sim"
    code = main(["simulate", "--region", REGION,
                 "--demographics", DEMOGRAPHICS, "--method", "random",
                 "--rounds", "2", "--speakers", "10",
                 "--seeds", "101", "--out", str(out)])
    assert code == 0
    assert (out / "plans" / "seed101.initial.json").exists()
    assert (out / "plans" / "seed101.final.json").exists()
    for cid in (1, 2, 3, 4):
        assert (out / "transcripts" / f"seed101.community{cid}.json").exists()
        assert (out / "transcripts" / f"seed101.community{cid}.txt").exists()
    traj = _read_csv(out / "trajectory.csv")
    assert [r["stage"] for r in traj] == ["0", "1", "2", "3", "4"]
    agg = json.loads((out / "aggregate.json").read_text())
    assert set(agg["metrics"]) == {"service", "ecology",
                                   "satisfaction", "inclusion"}
    assert agg["failures"] == {}


def test_simulate_with_buffer_above_the_service_radius(tmp_path):
    out = tmp_path / "run"
    code = main(["simulate", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", "random", "--rounds", "1", "--speakers", "5",
                 "--buffer", "800", "--seeds", "101", "--out", str(out)])
    assert code == 0
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["failures"] == {}
    assert agg["seeds"] == [101]


def test_simulate_trajectory_start_matches_plan_output(tmp_path):
    plan_out = tmp_path / "plan"
    sim_out = tmp_path / "sim"
    assert main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", "centralized", "--seeds", "303",
                 "--out", str(plan_out)]) == 0
    assert main(["simulate", "--region", REGION,
                 "--demographics", DEMOGRAPHICS, "--method", "centralized",
                 "--rounds", "1", "--speakers", "5", "--seeds", "303",
                 "--out", str(sim_out)]) == 0
    plan_rows = _read_csv(plan_out / "metrics.csv")
    traj = _read_csv(sim_out / "trajectory.csv")
    for col in ("service", "ecology", "satisfaction", "inclusion"):
        assert traj[0][col] == plan_rows[0][col]
    # and the saved initial plan equals the standalone planner output
    a = json.loads((plan_out / "plans" / "seed303.json").read_text())
    b = json.loads((sim_out / "plans" / "seed303.initial.json").read_text())
    assert a["assignments"] == b["assignments"]


def test_ablate_single_planner(tmp_path):
    out = tmp_path / "abl"
    code = main(["ablate", "--mode", "single-planner", "--region", REGION,
                 "--demographics", DEMOGRAPHICS, "--method", "gsca",
                 "--seeds", "101", "--out", str(out)])
    assert code == 0
    traj = _read_csv(out / "trajectory.csv")
    assert [r["stage"] for r in traj] == ["0"]
    assert not any((out / "transcripts").glob("*.json"))


@pytest.mark.parametrize("argv, builds", [
    (["simulate", "--method", "random"], 1),
    (["simulate", "--method", "local-search", "--search-iters", "50",
      "--restarts", "3"], 1 + 3),
    (["simulate", "--method", "gsca"], 2),
    (["ablate", "--mode", "no-discussion", "--method", "random"], 1),
    (["ablate", "--mode", "single-planner", "--method", "random"], 1),
])
def test_one_coverage_evaluator_per_seed(tmp_path, monkeypatch, argv,
                                         builds):
    # a pipeline run builds one evaluator, which every revision edits and
    # every stage's report reads; local search builds one per restart and
    # gsca one on its centroid index
    built = []
    init = metrics.CoverageCounts.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(metrics.CoverageCounts, "__init__", counting_init)
    assert main(argv + ["--region", REGION, "--demographics", DEMOGRAPHICS,
                        "--seeds", "7", "--backend", "rule", "--rounds", "1",
                        "--speakers", "10", "--out",
                        str(tmp_path / "run")]) == 0
    assert len(built) == builds


def test_compare_marks_best(tmp_path, capsys):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", "random", "--seeds", "101", "--out", str(a)]) == 0
    assert main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", "gsca", "--seeds", "101", "--out", str(b)]) == 0
    csv_path = tmp_path / "cmp.csv"
    assert main(["compare", str(a), str(b), "--out", str(csv_path)]) == 0
    text = capsys.readouterr().out
    assert "best" in text
    rows = _read_csv(csv_path)
    assert len(rows) == 2
    header = list(rows[0])
    assert header[3:7] == ["service", "ecology", "satisfaction", "inclusion"]
    marks = [r["service_mark"] for r in rows]
    assert sorted(marks) == ["best", "second"]


def test_export_svg(tmp_path):
    run = tmp_path / "run"
    assert main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", "random", "--seeds", "101",
                 "--out", str(run)]) == 0
    svg = tmp_path / "map.svg"
    assert main(["export-svg", "--region", REGION,
                 "--plan", str(run / "plans" / "seed101.json"),
                 "--out", str(svg)]) == 0
    content = svg.read_text()
    assert content.startswith("<?xml")
    assert "<polygon" in content


def test_sweep_rounds_writes_summary(tmp_path):
    out = tmp_path / "sweep"
    code = main(["sweep-rounds", "--region", REGION,
                 "--demographics", DEMOGRAPHICS, "--method", "random",
                 "--speakers", "5", "--seeds", "101",
                 "--rounds-list", "1,2", "--out", str(out)])
    assert code == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["rounds"] for r in rows] == ["1", "2"]
    assert (out / "rounds1" / "metrics.csv").exists()
    assert (out / "rounds2" / "metrics.csv").exists()


def _edited(path, keys, value):
    """The JSON text of `path` with the member at `keys` set to `value`,
    or removed if `value` is None."""
    doc = json.loads(Path(path).read_text())
    target = doc
    for key in keys[:-1]:
        target = target[key]
    if value is None:
        del target[keys[-1]]
    else:
        target[keys[-1]] = value
    return json.dumps(doc)


_FIRST = ["features", 0]
#: A JSON array nested deeper than the decoder's recursion limit.
NESTED = "[" * 100_000 + "]" * 100_000
MALFORMED = {
    "region-id-text": ("region", _edited(REGION, _FIRST + ["properties", "id"], "x")),
    "region-id-infinite": ("region", _edited(REGION, _FIRST + ["properties", "id"],
                                             float("inf"))),
    "region-coordinate-text": ("region", _edited(
        REGION, _FIRST + ["geometry", "coordinates", 0, 0, 0], "a")),
    "region-coordinate-nan": ("region", _edited(
        REGION, _FIRST + ["geometry", "coordinates", 0, 0, 0], float("nan"))),
    "region-coordinate-infinite": ("region", _edited(
        REGION, _FIRST + ["geometry", "coordinates", 0, 0, 1], float("inf"))),
    "region-community-id-text": ("region", _edited(
        REGION, _FIRST + ["properties", "community_id"], "q")),
    "region-feature-list": ("region", _edited(REGION, _FIRST, [1])),
    "region-community-without-id": ("region", _edited(
        REGION, ["communities", 0, "id"], None)),
    "region-not-utf8": ("region", b"\xff\xfe{}"),
    "demographics-list": ("demographics", "[1]"),
    "demographics-gender-list": ("demographics", _edited(
        DEMOGRAPHICS, ["gender"], ["female"])),
    "demographics-force-text": ("demographics", _edited(
        DEMOGRAPHICS, ["quotas", 0, "force", "age_band"], "65+")),
    "demographics-force-nested": ("demographics", _edited(
        DEMOGRAPHICS, ["quotas", 0, "force", "age_band"], [["65+"]])),
    "plan-assignments-list": ("plan", '{"assignments": [1]}'),
    "aggregate-without-means": ("aggregate", '{"metrics": {}}'),
    "aggregate-list": ("aggregate", "[1]"),
    "region-nested-too-deeply": ("region", NESTED),
    "demographics-nested-too-deeply": ("demographics", NESTED),
    "plan-nested-too-deeply": ("plan", NESTED),
    "aggregate-nested-too-deeply": ("aggregate", NESTED),
}
LOADERS = {"region": load_region, "demographics": load_demographics,
           "plan": load_plan}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_parse_error(tmp_path, case, capsys):
    kind, text = MALFORMED[case]
    path = tmp_path / f"{kind}.json"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    if kind in LOADERS:
        with pytest.raises(ParseError):
            LOADERS[kind](path)
    argv = {
        "region": ["plan", "--region", str(path), "--demographics",
                   DEMOGRAPHICS, "--method", "random"],
        "demographics": ["plan", "--region", REGION, "--demographics",
                         str(path), "--method", "random"],
        "plan": ["export-svg", "--region", REGION, "--plan", str(path)],
        "aggregate": ["compare", str(tmp_path)],
    }[kind]
    if kind == "aggregate":
        path.rename(tmp_path / "aggregate.json")
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error while")


def test_deeply_nested_transcript_is_a_usage_error(tmp_path, capsys):
    tape = tmp_path / "tape.json"
    tape.write_text(NESTED)
    assert main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", "llm", "--backend", "scripted", "--transcript",
                 str(tape), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith(
        "error while configuring backend")


def test_deeply_nested_plan_reply_is_a_failed_seed(tmp_path, capsys):
    tape = tmp_path / "tape.json"
    tape.write_text(json.dumps([{"reply_text": '{"assignments": ' + NESTED
                                 + "}", "request_digest": None}]))
    assert main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", "llm", "--backend", "scripted", "--transcript",
                 str(tape), "--seeds", "101",
                 "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "seed 101 failed: planning: scripted transcript exhausted" in err


def _scaled_region(path, scale, shift=0.0):
    doc = json.loads(Path(REGION).read_text())
    for feature in doc["features"]:
        feature["geometry"]["coordinates"] = [
            [[x * scale + shift, y * scale] for x, y in ring]
            for ring in feature["geometry"]["coordinates"]]
    path.write_text(json.dumps(doc))
    return path


def test_coordinates_beyond_the_bound_are_an_invariant_error(tmp_path,
                                                             capsys):
    # hlg_like scaled by 1e150 used to load, and then overflowed the
    # centroids into a NaN bearing in the neighbourhood view
    region = _scaled_region(tmp_path / "huge.json", 1e150)
    with pytest.raises(InvariantError, match="exceeds"):
        load_region(region)
    demographics = tmp_path / "demographics.json"
    demographics.write_text(_edited(DEMOGRAPHICS, ["n_agents"], 300))
    assert main(["simulate", "--region", str(region),
                 "--demographics", str(demographics), "--method", "random",
                 "--rounds", "1", "--speakers", "3", "--seeds", "101",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error while")
    # a region that reaches the bound loads
    width = max(x for a in load_region(REGION).areas for x, _ in a.boundary)
    edge = load_region(_scaled_region(tmp_path / "edge.json", 1.0,
                                      COORDINATE_BOUND_M - width))
    assert max(x for a in edge.areas for x, _ in a.boundary) \
        == COORDINATE_BOUND_M


def test_empty_quota_force_is_a_spec_error(tmp_path, capsys):
    path = tmp_path / "demographics.json"
    path.write_text(_edited(DEMOGRAPHICS, ["quotas", 0, "force", "age_band"], []))
    with pytest.raises(SpecError, match="no allowed age_band"):
        load_demographics(path)
    assert main(["plan", "--region", REGION, "--demographics", str(path),
                 "--method", "random", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error while")


@pytest.mark.parametrize("n_agents", [2 ** 63, 10 ** 400],
                         ids=["2**63", "10**400"])
def test_unsizable_n_agents_is_a_spec_error(tmp_path, capsys, n_agents):
    path = tmp_path / "demographics.json"
    path.write_text(_edited(DEMOGRAPHICS, ["n_agents"], n_agents))
    with pytest.raises(SpecError, match="n_agents"):
        load_demographics(path)
    assert main(["plan", "--region", REGION, "--demographics", str(path),
                 "--method", "random", "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error while")


def test_zero_rounds_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep-rounds", "--region", REGION,
              "--demographics", DEMOGRAPHICS, "--method", "random",
              "--rounds-list", "0,1", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--region", REGION,
              "--demographics", DEMOGRAPHICS, "--rounds", "0",
              "--out", str(tmp_path / "y")])
    assert exc.value.code == 2


@pytest.mark.parametrize("buffer", ["inf", "nan", "0"])
def test_bad_buffer_is_usage_error(tmp_path, buffer):
    # an infinite buffer cannot size the proximity index; fail before any seed
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--region", REGION,
              "--demographics", DEMOGRAPHICS, "--buffer", buffer,
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_unknown_method_is_usage_error(tmp_path):
    for command in ("plan", "simulate"):
        for method in ("frobnicate", "participatory"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--region", REGION,
                      "--demographics", DEMOGRAPHICS, "--method", method,
                      "--out", str(tmp_path / "x")])
            assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_bad_region_path_is_config_error(tmp_path, capsys):
    code = main(["plan", "--region", str(tmp_path / "missing.json"),
                 "--demographics", DEMOGRAPHICS, "--method", "random",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_remote_without_key_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    code = main(["simulate", "--region", REGION,
                 "--demographics", DEMOGRAPHICS, "--backend", "remote",
                 "--endpoint", "https://example.invalid/v1/chat",
                 "--model", "m", "--seeds", "101",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    err = capsys.readouterr().err
    assert "OPENAI_API_KEY" in err


def test_remote_without_endpoint_is_config_error(tmp_path, capsys):
    code = main(["simulate", "--region", REGION,
                 "--demographics", DEMOGRAPHICS, "--backend", "remote",
                 "--model", "m", "--seeds", "101",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert capsys.readouterr().err == ("error while configuring backend: "
                                       "remote backend needs endpoint and "
                                       "model\n")
    assert not (tmp_path / "x").exists()


def test_rerun_is_byte_identical(tmp_path):
    args = ["simulate", "--region", REGION, "--demographics", DEMOGRAPHICS,
            "--method", "random", "--rounds", "2", "--speakers", "10",
            "--seeds", "101"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    for rel in ("plans/seed101.initial.json", "plans/seed101.final.json",
                "transcripts/seed101.community1.json", "metrics.csv",
                "trajectory.csv", "aggregate.json"):
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


class _FakeResponse:
    status_code = 200
    headers = {}

    def __init__(self, content):
        self._content = content

    def json(self):
        return {"choices": [{"message": {"role": "assistant",
                                         "content": self._content}}]}


@pytest.fixture()
def fake_remote(monkeypatch):
    """requests.post answering from the rule backend, except that plan
    revision prompts, which the rule backend does not take, get no edits."""
    rule = RuleBackend()

    def post(url, json=None, headers=None, timeout=None):
        messages = [ChatMessage(**m) for m in json["messages"]]
        if "[role:plan_revision]" in messages[0].content:
            return _FakeResponse('{"edits": []}')
        return _FakeResponse(rule.complete(messages))

    monkeypatch.setenv("OPENAI_API_KEY", "sk-test")
    monkeypatch.setattr("requests.post", post)


REMOTE = ["--backend", "remote", "--endpoint", "https://llm.test/v1/chat",
          "--model", "gpt-4o-mini"]


def test_remote_run_records_a_transcript_that_replays(tmp_path, fake_remote):
    tape = tmp_path / "recorded.json"
    run = ["simulate", "--region", REGION, "--demographics", DEMOGRAPHICS,
           "--method", "llm", "--rounds", "1", "--speakers", "3",
           "--seeds", "101,202"]
    live, replay = tmp_path / "live", tmp_path / "replay"
    assert main(run + REMOTE + ["--transcript", str(tape),
                                "--out", str(live)]) == 0
    assert json.loads(tape.read_text())
    # one backend serves both seeds, so the replay reads the tape through
    assert main(run + ["--backend", "scripted", "--model", "gpt-4o-mini",
                       "--transcript", str(tape), "--out", str(replay)]) == 0
    agg = json.loads((replay / "aggregate.json").read_text())
    assert agg["failures"] == {}
    assert agg["seeds"] == [101, 202]
    live_files = sorted(p.name for p in (live / "transcripts").iterdir())
    assert live_files == sorted(p.name for p in (replay / "transcripts").iterdir())
    assert len(live_files) == 16
    for name in live_files:
        assert (live / "transcripts" / name).read_bytes() \
            == (replay / "transcripts" / name).read_bytes(), name
    for seed in (101, 202):
        final = f"plans/seed{seed}.final.json"
        assert plan_digest(load_plan(live / final)) \
            == plan_digest(load_plan(replay / final))


def test_sweep_records_one_tape_that_replays(tmp_path, fake_remote):
    tape = tmp_path / "recorded.json"
    run = ["sweep-rounds", "--region", REGION, "--demographics", DEMOGRAPHICS,
           "--method", "llm", "--rounds-list", "1,2", "--speakers", "3",
           "--seeds", "101"]
    live, replay = tmp_path / "live", tmp_path / "replay"
    assert main(run + REMOTE + ["--transcript", str(tape),
                                "--out", str(live)]) == 0
    # one backend serves every round count, so the replay reads the tape
    # through
    assert main(run + ["--backend", "scripted", "--model", "gpt-4o-mini",
                       "--transcript", str(tape), "--out", str(replay)]) == 0
    # the run ids hash the backend flags, which differ; nothing else does
    live_rows, replay_rows = (_read_csv(d / "sweep.csv") for d in (live, replay))
    for row in live_rows + replay_rows:
        del row["run_id"]
    assert live_rows == replay_rows
    assert [r["rounds"] for r in live_rows] == ["1", "2"]
    for rounds in ("rounds1", "rounds2"):
        names = sorted(p.name for p in (live / rounds / "transcripts").iterdir())
        assert names
        for name in names:
            assert (live / rounds / "transcripts" / name).read_bytes() \
                == (replay / rounds / "transcripts" / name).read_bytes(), name


def test_unwritable_transcript_is_runtime_error(tmp_path, fake_remote,
                                                capsys):
    code = main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
                 "--method", "llm", "--seeds", "101", *REMOTE,
                 "--transcript", str(tmp_path / "missing" / "tape.json"),
                 "--out", str(tmp_path / "x")])
    assert code == 1
    assert "tape.json" in capsys.readouterr().err


def test_bug_in_a_planner_is_not_a_failed_seed(tmp_path, monkeypatch):
    def broken(region, config):
        raise TypeError("a bug, not a bad input")

    monkeypatch.setattr(planners, "random_plan", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
              "--method", "random", "--seeds", "101",
              "--out", str(tmp_path / "x")])


def test_bug_in_the_svg_writer_is_not_an_input_error(tmp_path, monkeypatch):
    def broken(region, plan, path):
        raise TypeError("a bug, not a bad input")

    monkeypatch.setattr(svgmap, "write_svg", broken)
    with pytest.raises(TypeError, match="a bug"):
        main(["export-svg", "--region", REGION,
              "--out", str(tmp_path / "map.svg")])


@pytest.mark.parametrize("flag, value", [
    ("--speakers", "0"),
    ("--exchange-fraction", "1.5"),
    ("--exchange-fraction", "nan"),
    ("--restarts", "0"),
    ("--search-iters", "-1"),
    ("--timeout", "nan"),
    ("--timeout", "inf"),
    ("--temperature", "nan"),
    # a negative seed fails inside np.random.default_rng; a repeated one
    # runs and counts twice in the aggregate
    ("--seeds", "-1"),
    ("--seeds", "101,101"),
    ("--max-tokens", "0"),
])
def test_bad_numeric_flag_is_usage_error(tmp_path, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--region", REGION, "--demographics", DEMOGRAPHICS,
              flag, value, "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_repeated_round_count_is_usage_error(tmp_path):
    # each round count writes rounds<n>/ and one sweep.csv row
    with pytest.raises(SystemExit) as exc:
        main(["sweep-rounds", "--region", REGION,
              "--demographics", DEMOGRAPHICS, "--rounds-list", "2,2",
              "--seeds", "1", "--speakers", "3", "--method", "random",
              "--out", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


def test_repeated_community_id_is_an_input_error(tmp_path, capsys):
    doc = json.loads(Path(REGION).read_text())
    doc["communities"].append({"id": 1, "name": "again"})
    region = tmp_path / "region.json"
    region.write_text(json.dumps(doc))
    assert main(["simulate", "--region", str(region),
                 "--demographics", DEMOGRAPHICS, "--method", "random",
                 "--backend", "rule", "--seeds", "101", "--rounds", "1",
                 "--speakers", "3", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error while loading inputs")
    assert "community ids repeated: [1]" in err


def test_verbose_logs_each_seeds_synthesis(tmp_path, capsys):
    args = ["simulate", "--region", REGION, "--demographics", DEMOGRAPHICS,
            "--method", "random", "--rounds", "2", "--speakers", "10",
            "--seeds", "101,102"]
    quiet, verbose = tmp_path / "quiet", tmp_path / "verbose"
    assert main(args + ["--out", str(quiet)]) == 0
    assert capsys.readouterr().err == ""
    assert main(args + ["--verbose", "--out", str(verbose)]) == 0
    lines = capsys.readouterr().err.splitlines()
    for seed in (101, 102):
        pattern = (rf"DEBUG participlan\.population: seed {seed}: 1000 residents, "
                   r"\d+ personas, synthesized in \d+\.\d{4} s")
        assert sum(bool(re.fullmatch(pattern, line)) for line in lines) == 1
    files = sorted(p.relative_to(quiet) for p in quiet.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(verbose)
                           for p in verbose.rglob("*") if p.is_file())
    for rel in files:
        if rel.name != "report.txt":  # timings
            assert (quiet / rel).read_bytes() == (verbose / rel).read_bytes(), rel


def test_verbose_logs_under_python_m(tmp_path):
    # the synthesis line, and a failed seed's traceback from the cli module
    # run as __main__
    tape = tmp_path / "tape.json"
    tape.write_text("[]")
    package_root = str(Path(participlan.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "participlan.cli", "plan", "--region", REGION,
         "--demographics", DEMOGRAPHICS, "--method", "llm", "--backend",
         "scripted", "--transcript", str(tape), "--seeds", "7", "--verbose",
         "--out", str(tmp_path / "run")],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 1, out.stderr
    assert "DEBUG participlan.population: seed 7: 1000 residents, " in out.stderr
    assert "DEBUG participlan.cli: seed 7 failed\nTraceback" in out.stderr


def test_verbose_logs_remote_requests(tmp_path, fake_remote, capsys):
    run = ["plan", "--region", REGION, "--demographics", DEMOGRAPHICS,
           "--method", "llm", "--seeds", "101"] + REMOTE
    assert main(run + ["--verbose", "--out", str(tmp_path / "a")]) == 0
    err = capsys.readouterr().err
    assert "DEBUG participlan.llm: request to https://llm.test/v1/chat" in err
    assert "DEBUG participlan.llm: reply: " in err
    # one handler across calls of main: each line is printed once
    assert main(run + ["--verbose", "--out", str(tmp_path / "b")]) == 0
    assert capsys.readouterr().err.count("request to") == 1
    assert main(run + ["--out", str(tmp_path / "c")]) == 0
    assert "participlan.llm" not in capsys.readouterr().err
