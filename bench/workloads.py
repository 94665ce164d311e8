"""Workload definitions and their input files.

Every workload is a region file, a demographics file and one or more
``participlan`` CLI commands run per seed. The benchmark writes the input
files itself, from the recipes below, so that the program under test
receives only files and a later change to the package's own fixtures
cannot change what is measured. The workload seed picks the order in
which a fixed pool of CLI seeds is run; the reference outputs in
``references.json`` cover every seed of every pool.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

ASSIGNABLE = ("school", "hospital", "clinic", "business", "office",
              "recreation", "park", "open_space")

QUADRANT_NAMES = {1: "North-West", 2: "North-East",
                  3: "South-West", 4: "South-East"}


@dataclass(frozen=True)
class Grid:
    """A square-cell region; ids run row-major from the south-west corner."""
    name: str
    rows: int
    cols: int
    cell_m: float
    residential: frozenset
    green: frozenset
    requirements: dict
    row_split: int
    col_split: int

    def community_of(self, row: int, col: int) -> int:
        if row >= self.row_split:
            return 1 if col < self.col_split else 2
        return 3 if col < self.col_split else 4

    def to_geojson(self) -> dict:
        features = []
        for row in range(self.rows):
            for col in range(self.cols):
                x0, y0 = col * self.cell_m, row * self.cell_m
                ring = [[x0, y0], [x0 + self.cell_m, y0],
                        [x0 + self.cell_m, y0 + self.cell_m],
                        [x0, y0 + self.cell_m], [x0, y0]]
                props = {"id": row * self.cols + col + 1,
                         "community_id": self.community_of(row, col)}
                if (row, col) in self.residential:
                    props["fixed_use"] = "residential"
                elif (row, col) in self.green:
                    props["fixed_use"] = "green_fixed"
                features.append({
                    "type": "Feature",
                    "properties": props,
                    "geometry": {"type": "Polygon", "coordinates": [ring]},
                })
        return {
            "type": "FeatureCollection",
            "name": self.name,
            "crs_note": "synthetic local grid, meters",
            "requirements": dict(sorted(self.requirements.items())),
            "communities": [{"id": cid, "name": name}
                            for cid, name in sorted(QUADRANT_NAMES.items())],
            "features": features,
        }


def hlg_like() -> Grid:
    """The package's bundled 63-area ``hlg_like`` region (7x9 cells)."""
    return Grid(
        "hlg_like", 7, 9, 250.0,
        frozenset([(0, 0), (0, 2), (1, 1), (2, 0), (2, 3), (3, 2),
                   (0, 6), (1, 5), (1, 7), (2, 8), (3, 6),
                   (4, 1), (5, 3), (6, 0),
                   (4, 6), (5, 8), (6, 6)]),
        frozenset([(1, 3), (0, 8), (5, 0), (6, 8)]),
        {"school": 6, "hospital": 2, "clinic": 4, "business": 4,
         "office": 6, "recreation": 6, "park": 2, "open_space": 4},
        4, 5)


def dhm_like() -> Grid:
    """The package's bundled 70-area ``dhm_like`` region (7x10 cells)."""
    return Grid(
        "dhm_like", 7, 10, 250.0,
        frozenset([(0, 1), (0, 3), (1, 0), (1, 2), (2, 4), (3, 1), (3, 3),
                   (0, 6), (0, 8), (1, 5), (1, 9), (2, 6), (2, 8), (3, 7),
                   (4, 0), (4, 3), (5, 1), (5, 4), (6, 2),
                   (4, 8), (5, 6), (5, 9), (6, 5), (6, 7)]),
        frozenset([(2, 2), (1, 7), (6, 0), (4, 6)]),
        {"school": 7, "hospital": 1, "clinic": 4, "business": 4,
         "office": 2, "recreation": 6, "park": 2, "open_space": 6},
        4, 5)


def city_grid(n: int = 40) -> Grid:
    """The ROADMAP's fixed city recipe on an n x n grid of 250 m cells."""
    cells = [(r, c) for r in range(n) for c in range(n)]
    residential = frozenset(rc for rc in cells
                            if (7 * rc[0] + 3 * rc[1]) % 4 == 0)
    green = frozenset(rc for rc in cells
                      if (5 * rc[0] + 11 * rc[1]) % 13 == 0) - residential
    vacant = len(cells) - len(residential) - len(green)
    return Grid(f"grid{n}", n, n, 250.0, residential, green,
                {u: vacant // 16 for u in ASSIGNABLE}, n // 2, n // 2)


def demographics(n_agents: int) -> dict:
    """The bundled ``hlg_like`` demographic spec with ``n_agents`` replaced."""
    return {
        "n_agents": n_agents,
        "gender": {"female": 0.51, "male": 0.49},
        "age_band": {"18-29": 0.22, "30-44": 0.34, "45-64": 0.28, "65+": 0.16},
        "education": {"secondary": 0.35, "vocational": 0.20,
                      "bachelor": 0.33, "postgraduate": 0.12},
        "family_size": {"1": 0.18, "2": 0.24, "3": 0.32, "4": 0.16, "5+": 0.10},
        "quotas": [
            {"label": "elderly living alone", "count": 10,
             "force": {"age_band": ["65+"], "family_size": ["1"]}},
            {"label": "family with a sick member", "count": 10, "force": {}},
            {"label": "parenting family", "count": 50,
             "force": {"age_band": ["30-44"], "family_size": ["3", "4", "5+"]}},
            {"label": "family with school children", "count": 50,
             "force": {"family_size": ["3", "4", "5+"]}},
            {"label": "drifter", "count": 50,
             "force": {"age_band": ["18-29", "30-44"]}},
            {"label": "office worker", "count": 50,
             "force": {"age_band": ["18-29", "30-44", "45-64"]}},
        ],
    }


SIMULATE = ("simulate", "--method", "random", "--backend", "rule",
            "--rounds", "3", "--speakers", "50")


@dataclass(frozen=True)
class Workload:
    name: str
    #: One line for BENCHMARK.json.
    why: str
    grid: Grid
    residents: int
    #: CLI commands run per seed, without --region/--demographics/--seeds/--out.
    commands: tuple
    #: CLI seeds 1..pool have recorded reference outputs.
    pool: int
    #: Seeds run by a traced run, so its counts do not depend on timing.
    trace_seeds: int
    #: Report seed times in calibrated reference seconds (calibration.py).
    calibrated: bool = True


# Profile shares are from cProfile on a 2-core Xeon (105 MB L3) with the
# rule backend; "within 500 m" is the share of resident-area pairs whose
# boundary distance is under the 500 m service radius.
WORKLOADS = {
    # desk: the per-speaker loop (view_payload, render_opinion_prompt,
    # RuleBackend.complete and rules, parse_opinion_response) is about 60%
    # of a seed; synthesis about 16%, artifact I/O about 10%, and the
    # distance build only about 6%, so a proximity change should leave
    # this workload unchanged. 612 backend requests per seed, 24.6% of
    # pairs within 500 m, a 0.5 MB distance matrix. A seed takes about
    # 0.25 s, so a run measures many seeds and reports their median.
    "desk": Workload(
        "desk",
        "hlg_like region, 1k residents, simulate: the per-speaker loop "
        "dominates and the distance build is about 6%",
        hlg_like(), 1_000, (SIMULATE,), pool=64, trace_seeds=8),
    # city: the dense DistanceCache build is about 60% of a seed and
    # 128 MB, more than the 105 MB L3; greedy repair's use_hits about 18%
    # and the five report() calls about 10%. Only 1.28% of pairs are
    # within 500 m, the property a radius-bounded index exploits. The
    # speaker loop makes the same 612 requests as on desk and is a small
    # share here. 10k residents instead of the ROADMAP's 50k keep a seed
    # near 18 s; the 1.28% share depends on the extent, not the count.
    "city": Workload(
        "city",
        "40x40 grid of 250 m cells, 10k residents, simulate: the dense "
        "128 MB distance build dominates; 1.3% of pairs within 500 m",
        city_grid(40), 10_000, (SIMULATE,), pool=8, trace_seeds=1,
        # Memory traffic dominates a city seed, and its speed does not
        # follow the CPU-bound calibration: while calibration chunks swung
        # between 10 and 20 ms, city seeds stayed at 15-17 s, and
        # calibrating doubled the spread of city medians (7% to 15%).
        calibrated=False),
    # search: no discussion at all. The default 3x800 annealing loop
    # proposes 2,400 moves and re-scores plan_objective from scratch for
    # each one it does not skip (about 1,700 per seed), about 80% of the
    # time: many small evaluations on a 5.6 MB matrix instead of one big
    # build, so a change that makes the build faster but each evaluation
    # slower shows here.
    "search": Workload(
        "search",
        "dhm_like region, 10k residents, plan local-search then gsca: "
        "about 1,700 from-scratch objective evaluations per seed",
        dhm_like(), 10_000,
        (("plan", "--method", "local-search"), ("plan", "--method", "gsca")),
        pool=16, trace_seeds=1),
}


def seed_order(workload: Workload, seed: int) -> list:
    """The CLI seeds a run with this workload seed visits, in order."""
    order = list(range(1, workload.pool + 1))
    random.Random(f"{workload.name}:{seed}").shuffle(order)
    return order


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's input files; return their paths and seed order."""
    directory.mkdir(parents=True, exist_ok=True)
    region = directory / "region.json"
    region.write_text(json.dumps(workload.grid.to_geojson(), indent=2) + "\n")
    demo = directory / "demographics.json"
    demo.write_text(json.dumps(demographics(workload.residents),
                               indent=2, sort_keys=True) + "\n")
    order = seed_order(workload, seed)
    (directory / "seeds.json").write_text(json.dumps(order) + "\n")
    return {"region": region, "demographics": demo, "seeds": order}
