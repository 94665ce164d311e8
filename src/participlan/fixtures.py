"""Bundled synthetic fixtures.

Two renovation-district regions on square grids (one 63-area, one
70-area, 42 vacant each) with four communities apiece, a small 16-cell
region for golden-file metric tests, and a 1000-agent demographic
specification. All values are synthetic stand-ins with plausible
magnitudes; none are measured data.
"""
from __future__ import annotations

from importlib import resources
from pathlib import Path
from typing import Callable, Iterable, Mapping, Union

from .population import DemographicSpec, MarginalizedQuota
from .geometry import Point
from .region import Area, LandUse, Region

Cell = tuple[int, int]  # (row, col), row 0 at the south edge


def make_grid_region(name: str, n_rows: int, n_cols: int, cell_m: float,
                     residential: Iterable[Cell], green: Iterable[Cell],
                     requirements: Mapping[LandUse, int],
                     community_of: Callable[[int, int], int],
                     community_names: Mapping[int, str]) -> Region:
    """Square-cell region; area ids run row-major from the south-west corner."""
    residential = set(residential)
    green = set(green)
    overlap = residential & green
    if overlap:
        raise ValueError(f"cells marked both residential and green: {sorted(overlap)}")
    areas = []
    for row in range(n_rows):
        for col in range(n_cols):
            x0, y0 = col * cell_m, row * cell_m
            boundary = (Point(x0, y0), Point(x0 + cell_m, y0),
                        Point(x0 + cell_m, y0 + cell_m), Point(x0, y0 + cell_m))
            fixed = None
            if (row, col) in residential:
                fixed = LandUse.RESIDENTIAL
            elif (row, col) in green:
                fixed = LandUse.GREEN_FIXED
            areas.append(Area(
                id=row * n_cols + col + 1,
                boundary=boundary,
                community_id=community_of(row, col),
                fixed_use=fixed,
            ))
    region = Region(
        name=name,
        areas=tuple(areas),
        requirements=dict(requirements),
        communities=tuple(sorted(community_names.items())),
        crs_note="synthetic local grid, meters",
    )
    region.validate()
    return region


def _quadrants(row_split: int, col_split: int) -> Callable[[int, int], int]:
    def community_of(row: int, col: int) -> int:
        if row >= row_split:
            return 1 if col < col_split else 2
        return 3 if col < col_split else 4
    return community_of


_QUADRANT_NAMES = {1: "North-West", 2: "North-East",
                   3: "South-West", 4: "South-East"}


def hlg_like_region() -> Region:
    """63 areas (7x9 cells of 250 m), 42 vacant, 4 communities."""
    residential = [
        (0, 0), (0, 2), (1, 1), (2, 0), (2, 3), (3, 2),       # south-west
        (0, 6), (1, 5), (1, 7), (2, 8), (3, 6),               # south-east
        (4, 1), (5, 3), (6, 0),                                # north-west
        (4, 6), (5, 8), (6, 6),                                # north-east
    ]
    green = [(1, 3), (0, 8), (5, 0), (6, 8)]
    requirements = {
        LandUse.SCHOOL: 6, LandUse.HOSPITAL: 2, LandUse.CLINIC: 4,
        LandUse.BUSINESS: 4, LandUse.OFFICE: 6, LandUse.RECREATION: 6,
        LandUse.PARK: 2, LandUse.OPEN_SPACE: 4,
    }
    return make_grid_region("hlg_like", 7, 9, 250.0, residential, green,
                            requirements, _quadrants(4, 5), _QUADRANT_NAMES)


def dhm_like_region() -> Region:
    """70 areas (7x10 cells of 250 m), 42 vacant, 4 communities."""
    residential = [
        (0, 1), (0, 3), (1, 0), (1, 2), (2, 4), (3, 1), (3, 3),   # south-west
        (0, 6), (0, 8), (1, 5), (1, 9), (2, 6), (2, 8), (3, 7),   # south-east
        (4, 0), (4, 3), (5, 1), (5, 4), (6, 2),                    # north-west
        (4, 8), (5, 6), (5, 9), (6, 5), (6, 7),                    # north-east
    ]
    green = [(2, 2), (1, 7), (6, 0), (4, 6)]
    requirements = {
        LandUse.SCHOOL: 7, LandUse.HOSPITAL: 1, LandUse.CLINIC: 4,
        LandUse.BUSINESS: 4, LandUse.OFFICE: 2, LandUse.RECREATION: 6,
        LandUse.PARK: 2, LandUse.OPEN_SPACE: 6,
    }
    return make_grid_region("dhm_like", 7, 10, 250.0, residential, green,
                            requirements, _quadrants(4, 5), _QUADRANT_NAMES)


def grid16_region() -> Region:
    """16 areas (4x4 cells of 250 m), 12 vacant, single community."""
    residential = [(0, 0), (1, 2), (3, 1), (3, 3)]
    requirements = {u: 1 for u in (
        LandUse.SCHOOL, LandUse.HOSPITAL, LandUse.CLINIC, LandUse.BUSINESS,
        LandUse.OFFICE, LandUse.RECREATION, LandUse.PARK, LandUse.OPEN_SPACE)}
    return make_grid_region("grid16", 4, 4, 250.0, residential, (),
                            requirements, lambda row, col: 1, {1: "Central"})


def hlg_like_demographics(n_agents: int = 1000) -> DemographicSpec:
    """Synthetic categorical marginals plus the six marginalized quotas."""
    spec = DemographicSpec(
        n_agents=n_agents,
        gender={"female": 0.51, "male": 0.49},
        age_band={"18-29": 0.22, "30-44": 0.34, "45-64": 0.28, "65+": 0.16},
        education={"secondary": 0.35, "vocational": 0.20,
                   "bachelor": 0.33, "postgraduate": 0.12},
        family_size={"1": 0.18, "2": 0.24, "3": 0.32, "4": 0.16, "5+": 0.10},
        quotas=(
            MarginalizedQuota("elderly living alone", 10,
                              {"age_band": ("65+",), "family_size": ("1",)}),
            MarginalizedQuota("family with a sick member", 10, {}),
            MarginalizedQuota("parenting family", 50,
                              {"age_band": ("30-44",),
                               "family_size": ("3", "4", "5+")}),
            MarginalizedQuota("family with school children", 50,
                              {"family_size": ("3", "4", "5+")}),
            MarginalizedQuota("drifter", 50,
                              {"age_band": ("18-29", "30-44")}),
            MarginalizedQuota("office worker", 50,
                              {"age_band": ("18-29", "30-44", "45-64")}),
        ),
    )
    spec.validate()
    return spec


def data_path(filename: str) -> Path:
    """Path of a bundled data file inside the installed package."""
    return Path(resources.files("participlan").joinpath("data", filename))


def write_bundled_data(directory: Union[str, Path]) -> list[Path]:
    """Regenerate the committed data files from the fixture builders."""
    from .population import save_demographics
    from .region import save_region
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for region in (hlg_like_region(), dhm_like_region()):
        path = directory / f"{region.name}.region.json"
        save_region(region, path)
        out.append(path)
    path = directory / "hlg_like.demographics.json"
    save_demographics(hlg_like_demographics(), path)
    out.append(path)
    return out
