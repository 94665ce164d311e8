"""Benchmark of the participlan CLI: one workload per process.

Usage, from the repository root:

    python3 bench/run.py --workload desk --seed 1 --seconds 30 --trace 0

The run writes the workload's input files from ``--seed``, times the
set-up (the package's import plus loading the inputs) in fresh
interpreters, then runs the workload's CLI command(s) in-process, one CLI
seed at a time, until ``--seconds`` have passed. Set-up and the seeds of
calibrated workloads are reported in reference seconds (calibration.py).
Every seed's final plan digest and four metrics are checked against
``references.json``. With ``--trace 1`` a fixed number of seeds runs with
spans around each layer instead, and the per-layer metrics are reported.
The last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""
from __future__ import annotations

import os

# Single-threaded numerics, set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCES = BENCH / "references.json"

sys.path[:0] = [str(BENCH), str(SRC)]
import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh interpreters timed for set-up; the median is reported.
SETUP_REPEATS = 9

# The package's declared dependencies are imported before the timer, so
# set-up measures the package's own import and input loading; the timed
# part is bracketed by calibrations like a seed (see calibration.py).
SETUP_CODE = """\
import sys, time
import numpy, requests
import calibration
calibration.chunk_seconds(0)  # warm up: the first chunk runs cold
before = calibration.chunk_seconds(calibration.MIN_SECONDS)
t0 = time.perf_counter()
import participlan
from participlan.population import load_demographics
from participlan.region import load_region
load_region(sys.argv[1])
load_demographics(sys.argv[2])
wall = time.perf_counter() - t0
after = calibration.chunk_seconds(calibration.MIN_SECONDS)
print(repr(wall), repr(calibration.to_reference(wall, before, after)))
"""

METRIC_COLUMNS = ("service", "ecology", "satisfaction", "inclusion")
TOLERANCE = 1e-12


def measure_setup(inputs: dict) -> tuple[float, float]:
    """Median (wall, reference) seconds of set-up in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(inputs["region"]),
             str(inputs["demographics"])],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
            check=True)
        wall, ref = map(float, out.stdout.split())
        walls.append(wall)
        refs.append(ref)
    return statistics.median(walls), statistics.median(refs)


def command_argv(command, inputs: dict, seed: int, out: Path) -> list:
    return [*command, "--region", str(inputs["region"]),
            "--demographics", str(inputs["demographics"]),
            "--seeds", str(seed), "--out", str(out)]


def run_seed(cli_main, workload, inputs, seed, out: Path, tracer=None):
    """Run every command of one seed; returns (seconds, error or None)."""
    logs = io.StringIO()
    error = None
    spans = tracer.span("seed") if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    with spans, contextlib.redirect_stdout(logs), \
            contextlib.redirect_stderr(logs):
        for k, command in enumerate(workload.commands):
            argv = command_argv(command, inputs, seed, out / str(k))
            span = tracer.span(f"cli.{command[0]}") if tracer \
                else contextlib.nullcontext()
            try:
                with span:
                    code = cli_main(argv)
            except (Exception, SystemExit) as exc:  # crash or argparse exit
                error = f"{command[0]} raised {exc!r}"
                break
            if code != 0:
                error = f"{command[0]} exited {code}"
                break
    elapsed = time.perf_counter() - t0
    if error:
        error += "\n" + logs.getvalue()
    return elapsed, error


def seed_outputs(workload, region, seed: int, out: Path) -> dict:
    """Final plan digest and four metrics per command, from the run files.

    Raises RuntimeError when a seed failed or saved an invalid plan.
    """
    from participlan.region import load_plan, plan_digest, validate_plan
    result = {}
    for k, command in enumerate(workload.commands):
        run_dir = out / str(k)
        agg = json.loads((run_dir / "aggregate.json").read_text())
        if agg["failures"]:
            raise RuntimeError(f"failures in aggregate.json: {agg['failures']}")
        plans = sorted((run_dir / "plans").glob(f"seed{seed}*.json"))
        if not plans:
            raise RuntimeError(f"{command[0]}: no plan saved")
        for path in plans:
            check = validate_plan(region, load_plan(path))
            if not check.ok:
                raise RuntimeError(f"{path.name}: {check.summary()}")
        final = run_dir / "plans" / (f"seed{seed}.final.json"
                                     if command[0] == "simulate"
                                     else f"seed{seed}.json")
        with open(run_dir / "metrics.csv", newline="") as fh:
            row = next(r for r in csv.DictReader(fh) if r["seed"] == str(seed))
        result[" ".join(command)] = {
            "digest": plan_digest(load_plan(final)),
            "metrics": {c: float(row[c]) for c in METRIC_COLUMNS},
        }
    return result


def compare(got: dict, want: dict):
    """None when the outputs match the reference, else what differs."""
    if want is None:
        return "no reference recorded"
    if got.keys() != want.keys():
        return f"commands {sorted(got)} != {sorted(want)}"
    for command, ref in want.items():
        if got[command]["digest"] != ref["digest"]:
            return (f"{command}: plan digest {got[command]['digest']} "
                    f"!= {ref['digest']}")
        for col in METRIC_COLUMNS:
            diff = abs(got[command]["metrics"][col] - ref["metrics"][col])
            if not diff <= TOLERANCE:
                return f"{command}: {col} off by {diff!r}"
    return None


def load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text())
    except FileNotFoundError:
        return {}


def git_sha():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def l3_mb():
    # A read of the kernel's cache description, for provenance only.
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text()
    except OSError:
        return None
    text = text.strip()
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale / 1e6


def pairs_within(grid, homes, radius: float = 500.0) -> float:
    """Share of resident-cell pairs closer than ``radius`` (0 inside a cell).

    A closed form for the workloads' square cells, chunked so that it adds
    no peak memory of its own.
    """
    import numpy as np
    x0 = np.tile(np.arange(grid.cols) * grid.cell_m, grid.rows)
    y0 = np.repeat(np.arange(grid.rows) * grid.cell_m, grid.cols)
    hits = 0
    for start in range(0, len(homes), 1000):
        px = homes[start:start + 1000, :1]
        py = homes[start:start + 1000, 1:]
        dx = np.maximum(np.maximum(x0 - px, px - (x0 + grid.cell_m)), 0.0)
        dy = np.maximum(np.maximum(y0 - py, py - (y0 + grid.cell_m)), 0.0)
        hits += int((np.hypot(dx, dy) < radius).sum())
    return hits / (len(homes) * grid.rows * grid.cols)


def provenance(workload, inputs: dict, seed: int) -> dict:
    import numpy as np
    from participlan.population import load_demographics, synthesize
    from participlan.region import load_region
    region = load_region(inputs["region"])
    population = synthesize(load_demographics(inputs["demographics"]),
                            region, seed)
    matrix_mb = len(population) * len(region.areas) * 8 / 1e6
    l3 = l3_mb()
    return {
        "workload": workload.name,
        "areas": len(region.areas),
        "residents": len(population),
        "metrics.pairs_within_500m_share": pairs_within(workload.grid,
                                                        population.homes),
        "distance_matrix_mb": matrix_mb,
        "l3_mb": l3,
        "matrix_over_l3": matrix_mb / l3 if l3 else None,
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_seeds(workload, inputs: dict, seconds: float, tracer=None):
    """Time and check seeds; returns [(wall, reported, passed)] per seed.

    Reported seconds are calibrated reference seconds when the workload is
    calibrated and the run untraced (see calibration.py), else wall seconds.
    """
    from participlan.cli import main as cli_main
    from participlan.region import load_region
    region = load_region(inputs["region"])
    references = load_references().get(workload.name, {})
    out = inputs["region"].parent.parent / "out"
    order = inputs["seeds"]
    seeds = []
    bracket = calibration.Bracket() \
        if workload.calibrated and not tracer else None
    t_start = time.perf_counter()
    while True:
        seed = order[len(seeds) % len(order)]
        if tracer:
            tracer.seed = seed
        elapsed, error = run_seed(cli_main, workload, inputs, seed, out, tracer)
        reported = bracket.scale(elapsed) if bracket else elapsed
        if error is None:
            try:
                error = compare(seed_outputs(workload, region, seed, out),
                                references.get(str(seed)))
            except Exception as exc:  # unreadable output fails the seed
                error = f"output check: {exc!r}"
        shutil.rmtree(out, ignore_errors=True)
        seeds.append((elapsed, reported, error is None))
        if error is not None:
            print(f"seed {seed} failed: {error}", file=sys.stderr)
        if tracer:
            if len(seeds) >= workload.trace_seeds:
                return seeds
        elif time.perf_counter() - t_start >= seconds:
            return seeds


def run(name: str, seed: int, seconds: float, trace: bool,
        work: Path | None = None) -> tuple[dict, dict, list]:
    """One run; returns (result line, provenance, spans)."""
    workload = workloads.WORKLOADS[name]
    own_work = work is None
    if own_work:
        WORK.mkdir(exist_ok=True)
        work = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        inputs = workloads.write_inputs(workload, seed, work / "inputs")
        if trace:
            tracer = tracing.Tracer()
            uninstall = tracing.install(tracer)
            try:
                seeds = run_seeds(workload, inputs, seconds, tracer)
            finally:
                uninstall()
        else:
            setup_wall_s, setup_s = measure_setup(inputs)
            seeds = run_seeds(workload, inputs, seconds)
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024
        prov = provenance(workload, inputs, inputs["seeds"][0])
    finally:
        if own_work:
            shutil.rmtree(work, ignore_errors=True)

    if trace:
        metrics = tracing.layer_metrics(tracer.spans)
        metrics["trace.seed_s"] = {
            "value": statistics.median(
                r[tracing.END] - r[tracing.START]
                for r in tracer.spans if r[tracing.NAME] == "seed"),
            "unit": "s"}
        metrics["trace.coverage"] = {
            "value": min(tracing.top_level_coverage(tracer.spans).values()),
            "unit": "ratio"}
        spans = tracer.spans
    else:
        # Failed seeds are left out of the timing unless every seed failed.
        timed = [s for s in seeds if s[2]] or seeds
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "seed_s": {"value": statistics.median(r for _, r, _ in timed),
                       "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        prov["seeds_timed"] = len(timed)
        prov["seed_wall_s"] = statistics.median(w for w, _, _ in timed)
        prov["setup_wall_s"] = setup_wall_s
        spans = []
    failed = sum(not ok for _, _, ok in seeds)
    result = {"correct": failed == 0, "attempted": len(seeds),
              "failed": failed, "metrics": metrics}
    return result, prov, spans


def write_spans(name: str, seed: int, spans: list) -> Path:
    """Spans of a traced run, one [name, seed, parent, start, end, values]
    list each, for self-time analysis after the run."""
    path = WORK / "traces" / f"{name}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spans) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "participlan" / "__init__.py").is_file():
        print(f"error: no participlan sources under {SRC}", file=sys.stderr)
        return 2
    result, prov, spans = run(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    if spans:
        prov["spans_file"] = str(write_spans(args.workload, args.seed,
                                             spans).relative_to(ROOT))
    print(json.dumps({"provenance": prov}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
