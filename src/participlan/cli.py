"""Command-line front-end.

Subcommands: plan (baseline planners), simulate (full participatory
pipeline), ablate (pipeline variants), compare (cross-run tables),
export-svg (plan maps), sweep-rounds (discussion-length study).

Run directories are self-describing and byte-stable: a config snapshot,
per-seed plans and transcripts, metric CSVs with full-precision floats,
and an aggregate JSON. Timings go only to report.txt so everything else
is reproducible bit for bit.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
import time
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import discussion as discussion_mod
from . import metrics as metrics_mod
from . import planners as planners_mod
from . import svgmap
from .discussion import DiscussionConfig
from .errors import ParseError, PlanningError
from .llm import (BackendConfig, make_backend, request_initial_plan,
                  save_transcript_file)
from .metrics import METRIC_COLUMNS
from .planners import PLANNER_NAMES, PlannerConfig
from .population import load_demographics, synthesize
from .region import load_plan, load_region, save_plan, validate_plan

log = logging.getLogger("participlan.cli")  # not __main__ under python -m

DEFAULT_SEEDS = (101, 202, 303, 404, 505)


def _parse_int_list(text: str) -> list[int]:
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer list {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("need at least one value")
    return values


def _backend_config(args) -> BackendConfig:
    return BackendConfig(
        kind=args.backend,
        endpoint=args.endpoint,
        model=args.model,
        temperature=args.temperature,
        max_tokens=args.max_tokens,
        timeout_s=args.timeout,
        api_key_env=args.api_key_env,
        transcript_path=args.transcript,
    )


def _snapshot(args, extra: Optional[dict] = None) -> dict:
    keep = ("region", "demographics", "method", "backend", "rounds",
            "speakers", "exchange_fraction", "buffer", "seeds", "mode",
            "search_iters", "restarts", "endpoint", "model", "temperature",
            "rounds_list")
    doc = {}
    for key in keep:
        if hasattr(args, key):
            value = getattr(args, key)
            doc[key] = list(value) if isinstance(value, (list, tuple)) else value
    if extra:
        doc.update(extra)
    return doc


def _run_id(snapshot: dict) -> str:
    blob = json.dumps(snapshot, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _aggregate(rows: Sequence[dict]) -> dict:
    out = {}
    for col in METRIC_COLUMNS:
        values = [row[col] for row in rows if row.get(col) is not None]
        if values:
            arr = np.array(values, dtype=float)
            out[col] = {"mean": float(np.mean(arr)), "std": float(np.std(arr))}
        else:
            out[col] = {"mean": None, "std": None}
    return out


def _initial_plan(args, region, population, seed: int, backend, cache=None):
    """The plan of the --method planner for one seed; local search runs on
    `cache`, the seed's REACH_M boundary index, or builds its own."""
    method = args.method
    config = PlannerConfig(
        seed=seed, max_iters=args.search_iters, restarts=args.restarts)
    if method == "random":
        return planners_mod.random_plan(region, config)
    if method == "centralized":
        return planners_mod.centralized_plan(region, config)
    if method == "decentralized":
        return planners_mod.decentralized_plan(region, config)
    if method == "gsca":
        return planners_mod.gsca_plan(region, population, config)
    if method == "local-search":
        return planners_mod.local_search_plan(region, population, config,
                                              cache)
    if method == "llm":
        return request_initial_plan(region, backend)
    raise ValueError(f"unknown method {method!r}")


def _setup(args):
    """(region, demographic spec, backend, tape), or None once the error is
    printed: bad inputs or backend config are usage errors. One backend
    serves every seed, so a scripted replay reads its transcript straight
    through; a remote one records to the tape list if --transcript is set."""
    try:
        region = load_region(args.region)
        spec = load_demographics(args.demographics)
    except (PlanningError, OSError) as exc:
        print(f"error while loading inputs: {exc}", file=sys.stderr)
        return None
    config = _backend_config(args)
    tape = [] if config.kind == "remote" and config.transcript_path else None
    try:
        return region, spec, make_backend(config, record_to=tape), tape
    except (PlanningError, OSError, ValueError) as exc:
        print(f"error while configuring backend: {exc}", file=sys.stderr)
        return None


def _read_aggregate(run_dir) -> dict:
    """A run directory's aggregate.json as its run id, region, method and
    the mean of each metric; the means must be numbers or null."""
    path = Path(run_dir) / "aggregate.json"
    try:
        doc = json.loads(path.read_text())
        record = {"run_id": doc["run_id"], "region": doc.get("region", ""),
                  "method": doc.get("method", "?"),
                  **{col: doc["metrics"][col]["mean"] for col in METRIC_COLUMNS}}
    except (AttributeError, KeyError, RecursionError, TypeError,
            ValueError) as exc:
        raise ParseError(f"{path}: {exc!r}") from exc
    if not (isinstance(record["run_id"], str)
            and isinstance(record["region"], str)
            and all(record[col] is None or type(record[col]) in (int, float)
                    for col in METRIC_COLUMNS)):
        raise ParseError(f"{path}: run_id and region must be strings and "
                         "each metric mean a number or null")
    return record


def _finish(args, out: Path, snapshot: dict, run_id: str, rows: list[dict],
            failures: dict[int, str], t0: float, tape: Optional[list],
            trajectory: Optional[list[dict]]) -> int:
    """Write the run directory and tape, print each seed's metrics or
    failure; the exit status is 1 if every seed failed."""
    total_s = time.perf_counter() - t0
    if tape is not None:
        save_transcript_file(tape, args.transcript)
    method = args.method
    out.mkdir(parents=True, exist_ok=True)
    (out / "config.snapshot.json").write_text(
        json.dumps({"run_id": run_id, "config": snapshot},
                   indent=2, sort_keys=True) + "\n")
    all_rows = sorted(rows, key=lambda r: r["seed"])
    means = _aggregate(all_rows)
    mean_row = {"run_id": run_id, "seed": "mean", "method": method,
                **{col: stats["mean"] for col, stats in means.items()}}
    metrics_mod.write_metrics_csv(out / "metrics.csv", all_rows + [mean_row])
    if trajectory is not None:
        metrics_mod.write_metrics_csv(
            out / "trajectory.csv",
            sorted(trajectory, key=lambda r: (r["seed"], r["stage"])),
            keys=("run_id", "seed", "stage"))
    agg = {"run_id": run_id, "method": method,
           "region": snapshot.get("region_name", ""),
           "seeds": [r["seed"] for r in all_rows],
           "failures": {str(k): v for k, v in sorted(failures.items())},
           "metrics": means}
    (out / "aggregate.json").write_text(
        json.dumps(agg, indent=2, sort_keys=True) + "\n")
    lines = [f"run {run_id}: method={method} region={snapshot.get('region_name', '?')}"]
    for row in all_rows:
        vals = "  ".join(
            f"{c}={row[c]:.4f}" if row.get(c) is not None else f"{c}=n/a"
            for c in METRIC_COLUMNS)
        lines.append(f"seed {row['seed']}: {vals}")
    for col, stats in means.items():
        if stats["mean"] is not None:
            lines.append(f"mean {col} = {stats['mean']:.4f} "
                         f"(std {stats['std']:.4f})")
    for seed, msg in sorted(failures.items()):
        lines.append(f"seed {seed} FAILED: {msg}")
    lines.append(f"timing total: {total_s:.2f} s")
    (out / "report.txt").write_text("\n".join(lines) + "\n")

    for row in all_rows:
        incl = f"{row['inclusion']:.4f}" if row["inclusion"] is not None else "n/a"
        print(f"seed {row['seed']}: service={row['service']:.4f} "
              f"ecology={row['ecology']:.4f} "
              f"satisfaction={row['satisfaction']:.4f} inclusion={incl}")
    for seed, msg in sorted(failures.items()):
        print(f"seed {seed} failed: {msg}", file=sys.stderr)
    if rows:
        return 0
    print("error: every seed failed", file=sys.stderr)
    return 1


# ---------------------------------------------------------------------------
# Subcommands


def _run_seeds(args, setup, command: str, run_seed) -> int:
    """Every seed of one run on the `_setup` result. `run_seed(args, region,
    spec, backend, seed, out, provenance)` returns the seed's metrics
    report after each stage; a seed it fails with PlanningError or OSError
    is a failure. The final report is the seed's metrics row; every stage
    is a trajectory row, except for `plan`, which writes no trajectory."""
    region, spec, backend, tape = setup
    snapshot = _snapshot(args, {"command": command, "region_name": region.name})
    run_id = _run_id(snapshot)
    out = Path(args.out)
    rows, trajectory, failures, t0 = [], [], {}, time.perf_counter()
    for seed in args.seeds:
        try:
            reports = run_seed(args, region, spec, backend, seed, out,
                               {"run_id": run_id, "seed": seed,
                                "method": args.method})
        except (PlanningError, OSError) as exc:
            failures[seed] = str(exc)
            log.debug("seed %s failed", seed, exc_info=True)
            continue
        rows.append({"run_id": run_id, "seed": seed, "method": args.method,
                     **reports[-1].to_json_dict()})
        trajectory += [{"run_id": run_id, "seed": seed, "stage": stage,
                        **report.to_json_dict()}
                       for stage, report in enumerate(reports)]
    return _finish(args, out, snapshot, run_id, rows, failures, t0, tape,
                   None if command == "plan" else trajectory)


def _plan_seed(args, region, spec, backend, seed, out, provenance):
    """Plan, validate, evaluate and save one seed; a failure names the
    stage it happened in. One REACH_M boundary index of the seed's homes
    serves the planner (local search) and the report; gsca adds its own
    centroid index."""
    stage = "synthesizing population"
    try:
        population = synthesize(spec, region, seed)
        stage = "planning"
        index = metrics_mod.ProximityIndex(region, population.homes,
                                           metrics_mod.REACH_M)
        plan = _initial_plan(args, region, population, seed, backend, index)
        check = validate_plan(region, plan)
        if not check.ok:
            raise PlanningError(check.summary())
        stage = "evaluating"
        report = metrics_mod.report(region, plan, population, index)
        save_plan(plan, out / "plans" / f"seed{seed}.json",
                  provenance=provenance)
    except (PlanningError, OSError) as exc:
        raise PlanningError(f"{stage}: {exc}") from exc
    return [report]


def cmd_plan(args) -> int:
    setup = _setup(args)
    if setup is None:
        return 2
    (Path(args.out) / "plans").mkdir(parents=True, exist_ok=True)
    return _run_seeds(args, setup, "plan", _plan_seed)


def _simulate_seed(args, region, spec, backend, seed, out, provenance):
    """One pipeline or ablation run, saving its plans and transcripts."""
    population = synthesize(spec, region, seed)
    config = DiscussionConfig(
        rounds=args.rounds,
        speakers_per_round=args.speakers,
        invite_buffer_m=args.buffer,
        exchange_fraction=args.exchange_fraction,
        seed=seed,
    )
    # run the initial planner once so the saved plan is the one simulated
    initial_plan = _initial_plan(args, region, population, seed, backend)
    if args.command == "ablate":
        final_plan, transcripts, reports = discussion_mod.run_ablation(
            args.mode, region, population, lambda _r: initial_plan, backend,
            config)
    else:
        final_plan, transcripts, reports = discussion_mod.run_full_pipeline(
            region, population, lambda _r: initial_plan, backend, config)

    plans_dir = out / "plans"
    plans_dir.mkdir(parents=True, exist_ok=True)
    save_plan(initial_plan, plans_dir / f"seed{seed}.initial.json",
              provenance={**provenance, "stage": "initial"})
    save_plan(final_plan, plans_dir / f"seed{seed}.final.json",
              provenance={**provenance, "stage": "final"})
    tdir = out / "transcripts"
    tdir.mkdir(parents=True, exist_ok=True)
    for t in transcripts:
        stem = f"seed{seed}.community{t.community_id}"
        discussion_mod.save_transcript(t, tdir / f"{stem}.json")
        (tdir / f"{stem}.txt").write_text(
            discussion_mod.render_transcript_text(t))
    return reports


def cmd_simulate(args) -> int:
    """simulate, or ablate with --mode."""
    setup = _setup(args)
    if setup is None:
        return 2
    command = f"ablate:{args.mode}" if args.command == "ablate" else "simulate"
    return _run_seeds(args, setup, command, _simulate_seed)


def cmd_compare(args) -> int:
    try:
        entries = [_read_aggregate(run_dir) for run_dir in args.runs]
    except (PlanningError, OSError) as exc:
        print(f"error while reading run directories: {exc}", file=sys.stderr)
        return 2

    by_region: dict[str, list[dict]] = {}
    for doc in entries:
        by_region.setdefault(doc["region"], []).append(doc)

    marks: dict[tuple[str, str, str], str] = {}
    for region_name, docs in by_region.items():
        for col in METRIC_COLUMNS:
            scored = [(d[col], d["run_id"]) for d in docs if d[col] is not None]
            scored.sort(key=lambda t: (-t[0], t[1]))
            if scored:
                marks[(region_name, scored[0][1], col)] = "best"
            if len(scored) > 1:
                marks[(region_name, scored[1][1], col)] = "second"

    ordered = sorted(entries, key=lambda d: (d["region"], d["run_id"]))
    header = ["region", "method", "run_id"] + list(METRIC_COLUMNS)
    table_rows = []
    for doc in ordered:
        row = [doc["region"], doc["method"], doc["run_id"]]
        for col in METRIC_COLUMNS:
            if doc[col] is None:
                row.append("n/a")
                continue
            mark = marks.get((doc["region"], doc["run_id"], col), "")
            suffix = {"best": " *", "second": " ^"}.get(mark, "")
            row.append(f"{doc[col]:.4f}{suffix}")
        table_rows.append(row)

    widths = [max(len(str(r[i])) for r in [header] + table_rows)
              for i in range(len(header))]
    print("  ".join(h.ljust(w) for h, w in zip(header, widths)))
    for row in table_rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))
    print("(* best, ^ second best per metric within a region)")

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header + [f"{c}_mark" for c in METRIC_COLUMNS])
            for doc in ordered:
                writer.writerow(
                    [doc["region"], doc["method"], doc["run_id"]]
                    + metrics_mod.metric_cells(doc)
                    + [marks.get((doc["region"], doc["run_id"], col), "")
                       for col in METRIC_COLUMNS])
    return 0


def cmd_export_svg(args) -> int:
    try:
        region = load_region(args.region)
        plan = load_plan(args.plan) if args.plan else None
    except (PlanningError, OSError) as exc:
        print(f"error while loading inputs: {exc}", file=sys.stderr)
        return 2
    try:
        svgmap.write_svg(region, plan, args.out)
    except (PlanningError, OSError) as exc:
        print(f"error while rendering: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {args.out}")
    return 0


def cmd_sweep_rounds(args) -> int:
    # One backend and tape serve every round count, so a scripted replay
    # reads the tape in the order a remote sweep recorded it; each sub-run
    # rewrites the tape with everything recorded so far.
    setup = _setup(args)
    if setup is None:
        return 2
    out = Path(args.out)
    sweep_rows = []
    for n in args.rounds_list:
        sub = argparse.Namespace(**vars(args))
        sub.rounds = n
        sub.out = str(out / f"rounds{n}")
        code = _run_seeds(sub, setup, "simulate", _simulate_seed)
        if code != 0:
            return code
        sweep_rows.append({"rounds": n, **_read_aggregate(sub.out)})
    out.mkdir(parents=True, exist_ok=True)
    metrics_mod.write_metrics_csv(out / "sweep.csv", sweep_rows,
                                  keys=("rounds", "run_id"))
    print(f"wrote {out / 'sweep.csv'} with {len(sweep_rows)} rows")
    return 0


# ---------------------------------------------------------------------------
# Argument wiring


def _add_backend_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--backend", choices=("rule", "scripted", "remote"),
                   default="rule", help="chat backend kind")
    p.add_argument("--endpoint", default="",
                   help="chat-completions URL (remote backend)")
    p.add_argument("--model", default="", help="model name (remote backend)")
    p.add_argument("--temperature", type=float, default=0.0)
    p.add_argument("--max-tokens", dest="max_tokens", type=int, default=None)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--api-key-env", dest="api_key_env", default="OPENAI_API_KEY")
    p.add_argument("--transcript", default=None,
                   help="transcript file to record to (remote) or replay "
                        "from (scripted)")


def _add_common_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--region", required=True, help="region file")
    p.add_argument("--demographics", required=True, help="demographic spec file")
    p.add_argument("--seeds", type=_parse_int_list, default=list(DEFAULT_SEEDS),
                   help="comma-separated seed list")
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--search-iters", dest="search_iters", type=int, default=800)
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--verbose", action="store_true",
                   help="debug logging on stderr")
    _add_backend_args(p)


def _add_discussion_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--method", choices=PLANNER_NAMES, default="llm",
                   help="initial planner")
    p.add_argument("--rounds", type=int, default=3)
    p.add_argument("--speakers", type=int, default=50)
    p.add_argument("--exchange-fraction", dest="exchange_fraction",
                   type=float, default=1.0)
    p.add_argument("--buffer", type=float, default=500.0,
                   help="invite buffer in meters")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="participlan",
        description="Participatory land-use planning simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="run a baseline planner over seeds")
    _add_common_args(p)
    p.add_argument("--method", choices=PLANNER_NAMES, required=True)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("simulate", help="full discussion pipeline")
    _add_common_args(p)
    _add_discussion_args(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("ablate", help="pipeline with one ingredient removed")
    _add_common_args(p)
    _add_discussion_args(p)
    p.add_argument("--mode", choices=discussion_mod.ABLATION_MODES,
                   required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="table across run directories")
    p.add_argument("runs", nargs="+", help="run directories")
    p.add_argument("--out", default=None, help="CSV output path")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("export-svg", help="draw a region/plan map")
    p.add_argument("--region", required=True)
    p.add_argument("--plan", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_export_svg)

    p = sub.add_parser("sweep-rounds", help="simulate across round counts")
    _add_common_args(p)
    _add_discussion_args(p)
    p.add_argument("--rounds-list", dest="rounds_list", type=_parse_int_list,
                   default=[1, 2, 3, 4])
    p.set_defaults(func=cmd_sweep_rounds)
    return parser


# Numeric flags are checked before any seed runs: a bad value is a usage
# error, not a failure of every seed.
_FLAG_CHECKS = (
    ("seeds", lambda v: min(v) >= 0 and len(set(v)) == len(v),
     "--seeds values must be distinct and >= 0"),
    ("rounds", lambda v: v >= 1, "--rounds must be >= 1"),
    ("rounds_list", lambda v: min(v) >= 1, "--rounds-list values must be >= 1"),
    ("buffer", lambda v: 0 < v < np.inf, "--buffer must be positive and finite"),
    ("speakers", lambda v: v >= 1, "--speakers must be >= 1"),
    ("exchange_fraction", lambda v: 0 <= v <= 1,
     "--exchange-fraction must be in [0, 1]"),
    ("restarts", lambda v: v >= 1, "--restarts must be >= 1"),
    ("search_iters", lambda v: v >= 0, "--search-iters must be >= 0"),
    ("temperature", lambda v: v >= 0, "--temperature must be >= 0"),
    ("timeout", lambda v: 0 < v < np.inf, "--timeout must be positive and finite"),
)


class _StderrHandler(logging.StreamHandler):
    """Writes to sys.stderr as it is at each record, so one handler serves
    every call of main wherever stderr is redirected."""
    stream = property(lambda self: sys.stderr, lambda self, _stream: None)


_LOG_HANDLER = _StderrHandler()
_LOG_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for dest, ok, message in _FLAG_CHECKS:
        value = getattr(args, dest, None)
        if value is not None and not ok(value):
            parser.error(message)
    package_log = logging.getLogger("participlan")
    package_log.setLevel(logging.DEBUG if getattr(args, "verbose", False)
                         else logging.WARNING)
    package_log.addHandler(_LOG_HANDLER)  # a no-op once it is there
    try:
        return args.func(args)
    except (PlanningError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
