"""Record the reference outputs that every benchmark seed is checked against.

    python3 bench/record.py [workload ...]

Runs every CLI seed of each named workload's pool (all workloads when none
is named) and writes each seed's final plan digest and four metrics into
``references.json``. Run it only on a commit whose outputs are trusted;
a change that alters outputs on purpose re-records them and says so.
"""
from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record(name: str) -> dict:
    from participlan.cli import main as cli_main
    from participlan.region import load_region
    workload = workloads.WORKLOADS[name]
    work = run.WORK / f"record-{name}"
    inputs = workloads.write_inputs(workload, 0, work / "inputs")
    region = load_region(inputs["region"])
    refs = {}
    try:
        for seed in range(1, workload.pool + 1):
            out = work / "out"
            elapsed, error = run.run_seed(cli_main, workload, inputs, seed, out)
            if error:
                raise SystemExit(f"{name} seed {seed} failed: {error}")
            refs[str(seed)] = run.seed_outputs(workload, region, seed, out)
            shutil.rmtree(out)
            print(f"{name} seed {seed}: {elapsed:.3f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return refs


def main(names) -> int:
    refs = run.load_references()
    for name in names or sorted(workloads.WORKLOADS):
        refs[name] = record(name)
    run.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
