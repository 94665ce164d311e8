"""Region model: areas, land-use vocabulary, plans, and spatial queries.

A region is a fixed partition of an urban district into polygonal areas.
Areas either carry a fixed use (residential stock or pre-existing green
land) or are vacant and await an assignment from the 8 assignable types.
A plan is a total assignment over the vacant areas. Region and Plan are
immutable; all queries here are pure functions.
"""
from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import geometry
from .errors import InvariantError, ParseError
from .geometry import Point


class LandUse(str, enum.Enum):
    RESIDENTIAL = "residential"
    GREEN_FIXED = "green_fixed"
    SCHOOL = "school"
    HOSPITAL = "hospital"
    CLINIC = "clinic"
    BUSINESS = "business"
    OFFICE = "office"
    RECREATION = "recreation"
    PARK = "park"
    OPEN_SPACE = "open_space"

    @classmethod
    def parse(cls, text: str) -> "LandUse":
        try:
            return _USE_EXACT[text]
        except (KeyError, TypeError):
            pass
        key = str(text).strip().lower().replace("-", " ").replace("_", " ")
        key = " ".join(key.split())
        try:
            return _USE_LOOKUP[key]
        except KeyError:
            raise ValueError(f"unknown land use {text!r}") from None


_USE_LOOKUP = {u.value.replace("_", " "): u for u in LandUse}
_USE_LOOKUP.update({
    "open": LandUse.OPEN_SPACE,
    "green": LandUse.GREEN_FIXED,
    "green land": LandUse.GREEN_FIXED,
    "business area": LandUse.BUSINESS,
    "office area": LandUse.OFFICE,
    "recreation area": LandUse.RECREATION,
})
#: What LandUse.parse resolves without normalising: each normalised name
#: and value, and so each member, which hashes and compares as its value.
_USE_EXACT = {**_USE_LOOKUP, **{u.value: u for u in LandUse}}

#: The 8 types a planner may assign to a vacant area, in canonical order.
ASSIGNABLE_USES = (
    LandUse.SCHOOL,
    LandUse.HOSPITAL,
    LandUse.CLINIC,
    LandUse.BUSINESS,
    LandUse.OFFICE,
    LandUse.RECREATION,
    LandUse.PARK,
    LandUse.OPEN_SPACE,
)

#: Position of each assignable use in the canonical order, for tie-breaks.
CANON_INDEX = {u: i for i, u in enumerate(ASSIGNABLE_USES)}

FIXED_USES = (LandUse.RESIDENTIAL, LandUse.GREEN_FIXED)

#: Green uses whose surroundings count toward the ecology service range.
GREEN_USES = (LandUse.PARK, LandUse.OPEN_SPACE, LandUse.GREEN_FIXED)

#: int8 code of every land use (its position in LandUse); -1 is unassigned.
USE_CODES = {u: k for k, u in enumerate(LandUse)}
#: LandUse by USE_CODES code.
_USE_OF_CODE = tuple(LandUse)

#: The loader rejects a coordinate whose magnitude exceeds this, in
#: meters: no map projection of the Earth comes near it, and it bounds the
#: rounding error of every distance formula (metrics.MARGIN).
COORDINATE_BOUND_M = 1e8

@dataclass(frozen=True)
class Area:
    id: int
    boundary: tuple[Point, ...]
    community_id: int
    fixed_use: Optional[LandUse] = None

    @cached_property
    def centroid(self) -> Point:
        return geometry.polygon_centroid(self.boundary)

    @cached_property
    def area_m2(self) -> float:
        return geometry.polygon_area(self.boundary)

    @cached_property
    def fills_its_box(self) -> bool:
        """True for an axis-aligned rectangle: the ring is its bounding box,
        so point_in_polygon holds at every point p with lo <= p < hi of
        the box, and the box distance is the distance to the area."""
        ring = tuple(self.boundary)
        return (len(set(ring)) == 4
                and all(a[0] == b[0] or a[1] == b[1]
                        for a, b in zip(ring, ring[1:] + ring[:1])))

    @property
    def is_vacant(self) -> bool:
        return self.fixed_use is None


@dataclass(frozen=True)
class Region:
    name: str
    areas: tuple[Area, ...]
    requirements: Mapping[LandUse, int]
    communities: tuple[tuple[int, str], ...]
    crs_note: str = "local planar meters"

    @cached_property
    def areas_by_id(self) -> dict[int, Area]:
        return {a.id: a for a in self.areas}

    @cached_property
    def center(self) -> Point:
        """The mean of the area centroids."""
        return Point(sum(a.centroid[0] for a in self.areas) / len(self.areas),
                     sum(a.centroid[1] for a in self.areas) / len(self.areas))

    @cached_property
    def vacant_ids(self) -> tuple[int, ...]:
        return tuple(a.id for a in self.areas if a.is_vacant)

    @cached_property
    def residential_areas(self) -> tuple[Area, ...]:
        return tuple(a for a in self.areas if a.fixed_use is LandUse.RESIDENTIAL)

    @cached_property
    def community_ids(self) -> tuple[int, ...]:
        return tuple(cid for cid, _ in self.communities)

    @cached_property
    def fixed_codes(self) -> np.ndarray:
        """int8 use code per area: the fixed use's code, -1 where vacant."""
        return np.array([USE_CODES[a.fixed_use] if a.fixed_use is not None
                         else -1 for a in self.areas], dtype=np.int8)

    @cached_property
    def vacant_columns(self) -> np.ndarray:
        """Positions in `areas` of the vacant areas, in vacant_ids order."""
        return np.flatnonzero(self.fixed_codes == -1)

    @cached_property
    def area_boxes(self) -> np.ndarray:
        """(x0, y0, x1, y1) bounding box of every area, in `areas` order,
        read-only."""
        boxes = np.empty((len(self.areas), 4))
        for row, a in zip(boxes, self.areas):
            xs, ys = zip(*a.boundary)
            row[:] = min(xs), min(ys), max(xs), max(ys)
        boxes.flags.writeable = False
        return boxes

    def community_areas(self, community_id: int) -> tuple[Area, ...]:
        return tuple(a for a in self.areas if a.community_id == community_id)

    def validate(self) -> None:
        repeated = sorted({c for c in self.community_ids
                           if self.community_ids.count(c) > 1})
        if repeated:
            raise InvariantError(f"community ids repeated: {repeated}")
        ids = [a.id for a in self.areas]
        if sorted(ids) != list(range(1, len(ids) + 1)):
            raise InvariantError(
                f"area ids must be dense 1..{len(ids)}, got {sorted(ids)[:8]}...")
        for a in self.areas:
            if len(a.boundary) < 3:
                raise InvariantError(f"area {a.id}: polygon needs >=3 vertices")
            if a.area_m2 <= 0.0:
                raise InvariantError(f"area {a.id}: degenerate polygon (zero area)")
            if not geometry.is_simple_polygon(a.boundary):
                raise InvariantError(f"area {a.id}: polygon is self-intersecting")
            if a.fixed_use is not None and a.fixed_use not in FIXED_USES:
                raise InvariantError(
                    f"area {a.id}: fixed_use {a.fixed_use.value} is not residential/green_fixed")
            if a.community_id not in self.community_ids:
                raise InvariantError(
                    f"area {a.id}: unknown community {a.community_id}")
        missing = [u.value for u in ASSIGNABLE_USES if u not in self.requirements]
        if missing:
            raise InvariantError(f"requirements missing entries for: {missing}")
        for use, count in self.requirements.items():
            if use not in ASSIGNABLE_USES:
                raise InvariantError(f"requirements entry for non-assignable use {use.value}")
            if count < 0:
                raise InvariantError(f"negative requirement for {use.value}")
        total = sum(self.requirements.values())
        if total > len(self.vacant_ids):
            raise InvariantError(
                f"requirements sum {total} exceeds {len(self.vacant_ids)} vacant areas")
        if not self.residential_areas:
            raise InvariantError("region has no residential area")


@dataclass(frozen=True)
class Plan:
    """The use of each vacant area by id; from_codes inverts use_codes."""

    assignment: Mapping[int, LandUse]

    def use_of(self, area: Area) -> Optional[LandUse]:
        """Effective use of an area under this plan (fixed use wins)."""
        if area.fixed_use is not None:
            return area.fixed_use
        return self.assignment.get(area.id)

    def use_codes(self, region: Region) -> np.ndarray:
        """int8 USE_CODES of use_of(area) for every area of the region,
        in region order; -1 where a vacant area is unassigned."""
        codes = region.fixed_codes.copy()
        get = self.assignment.get
        codes[region.vacant_columns] = [USE_CODES.get(get(a), -1)
                                        for a in region.vacant_ids]
        return codes

    @classmethod
    def from_codes(cls, region: Region, codes: np.ndarray) -> "Plan":
        """The uses of the vacant areas' codes, in vacant_ids order,
        leaving out code -1; fixed areas' codes are not read."""
        return cls({a: _USE_OF_CODE[c] for a, c in
                    zip(region.vacant_ids, codes[region.vacant_columns].tolist())
                    if c >= 0})


def quota_order(requirements: Mapping[LandUse, int]) -> list[LandUse]:
    """The assignable uses, largest quota first, ties in canonical order."""
    return sorted(ASSIGNABLE_USES,
                  key=lambda u: (-requirements.get(u, 0), CANON_INDEX[u]))


def plan_to_json_dict(plan: Plan, provenance: Optional[dict] = None) -> dict:
    doc = {"assignments": {str(k): plan.assignment[k].value
                           for k in sorted(plan.assignment)}}
    if provenance is not None:
        doc["provenance"] = provenance
    return doc


def plan_digest(plan: Plan) -> str:
    blob = json.dumps(plan_to_json_dict(plan), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def save_plan(plan: Plan, path: Union[str, Path], provenance: Optional[dict] = None) -> None:
    Path(path).write_text(
        json.dumps(plan_to_json_dict(plan, provenance), indent=2, sort_keys=True) + "\n")


def load_plan(path: Union[str, Path]) -> Plan:
    try:
        doc = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("assignments"), dict):
        raise ParseError(f"{path}: missing 'assignments' object")
    assignment = {}
    for key, value in doc["assignments"].items():
        try:
            assignment[int(key)] = LandUse.parse(value)
        except ValueError as exc:
            raise ParseError(f"{path}: area {key!r}: {exc}") from None
    return Plan(assignment)


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    counts: dict[LandUse, int]
    required: dict[LandUse, int]
    deficits: dict[LandUse, int]
    missing_areas: tuple[int, ...]
    unexpected_areas: tuple[int, ...]
    bad_assignments: tuple[int, ...]

    def summary(self) -> str:
        if self.ok:
            return "plan valid: all quotas met and every vacant area assigned"
        parts = []
        if self.deficits:
            parts.append("deficits " + ", ".join(
                f"{u.value}:{d}" for u, d in sorted(self.deficits.items(), key=lambda kv: kv[0].value)))
        if self.missing_areas:
            parts.append(f"unassigned vacant areas {list(self.missing_areas)}")
        if self.unexpected_areas:
            parts.append(f"assignments to non-vacant/unknown areas {list(self.unexpected_areas)}")
        if self.bad_assignments:
            parts.append(f"non-assignable uses on areas {list(self.bad_assignments)}")
        return "plan invalid: " + "; ".join(parts)


def validate_plan(region: Region, plan: Plan) -> ValidationReport:
    """Check quota satisfaction and exact coverage of the vacant areas."""
    vacant = set(region.vacant_ids)
    assigned = set(plan.assignment)
    missing = tuple(sorted(vacant - assigned))
    unexpected = tuple(sorted(assigned - vacant))
    bad = tuple(sorted(a for a, u in plan.assignment.items() if u not in ASSIGNABLE_USES))

    counts = {u: 0 for u in ASSIGNABLE_USES}
    for area_id, use in plan.assignment.items():
        if area_id in vacant and use in counts:
            counts[use] += 1
    required = dict(region.requirements)
    deficits = {u: required[u] - counts[u]
                for u in ASSIGNABLE_USES if counts[u] < required[u]}
    ok = not (missing or unexpected or bad or deficits)
    return ValidationReport(ok, counts, required, deficits, missing, unexpected, bad)


def quota_spare(region: Region, codes: np.ndarray, code: int) -> bool:
    """True unless one area fewer with use code `code` in `codes` would
    break that use's quota; code -1, unassigned, has none to break."""
    return code < 0 or bool(np.count_nonzero(codes == code)
                            > region.requirements.get(_USE_OF_CODE[code], 0))


# ---------------------------------------------------------------------------
# Geo-data ingestion


def _ring_from_coordinates(coords, feature_label: str) -> tuple[Point, ...]:
    if not isinstance(coords, list) or not coords:
        raise ParseError(f"{feature_label}: polygon has no coordinate ring")
    ring = coords[0]
    pts = []
    for pair in ring:
        if not isinstance(pair, (list, tuple)) or len(pair) < 2:
            raise ParseError(f"{feature_label}: malformed coordinate {pair!r}")
        x, y = float(pair[0]), float(pair[1])
        # one test for the usual coordinate; NaN fails it too
        if not (abs(x) <= COORDINATE_BOUND_M and abs(y) <= COORDINATE_BOUND_M):
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ParseError(f"{feature_label}: non-finite coordinate {pair!r}")
            raise InvariantError(
                f"{feature_label}: coordinate {pair!r} exceeds "
                f"{COORDINATE_BOUND_M:g} m in magnitude")
        pts.append(Point(x, y))
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    return tuple(pts)


def _looks_like_degrees(areas: Sequence[Area]) -> bool:
    for a in areas:
        for x, y in a.boundary:
            if abs(x) > 180.0 or abs(y) > 90.0:
                return False
    return True


def load_region(path: Union[str, Path]) -> Region:
    """Load a region from a GeoJSON-style feature collection.

    Each feature carries properties id, community_id, and optional
    fixed_use; top-level members requirements, name, crs_note, and
    communities travel alongside the features.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise ParseError(f"{path}: expected a FeatureCollection document")
    features = doc.get("features")
    if not isinstance(features, list) or not features:
        raise ParseError(f"{path}: no features")

    # a value of the wrong type or form anywhere below is a ParseError
    try:
        areas = []
        for i, feat in enumerate(features):
            label = f"feature {i}"
            props = feat.get("properties") or {}
            if "id" not in props:
                raise ParseError(f"{label}: missing id")
            area_id = int(props["id"])
            label = f"feature id={area_id}"
            geom = feat.get("geometry") or {}
            if geom.get("type") != "Polygon":
                raise ParseError(f"{label}: geometry must be a Polygon")
            ring = _ring_from_coordinates(geom.get("coordinates"), label)
            fixed_use = None
            if props.get("fixed_use") is not None:
                try:
                    fixed_use = LandUse.parse(props["fixed_use"])
                except ValueError as exc:
                    raise ParseError(f"{label}: {exc}") from None
            if "community_id" not in props:
                raise ParseError(f"{label}: missing community_id")
            areas.append(Area(id=area_id, boundary=ring,
                              community_id=int(props["community_id"]),
                              fixed_use=fixed_use))

        req_doc = doc.get("requirements")
        if not isinstance(req_doc, dict):
            raise ParseError(f"{path}: missing top-level requirements map")
        requirements = {}
        for key, value in req_doc.items():
            try:
                requirements[LandUse.parse(key)] = int(value)
            except ValueError as exc:
                raise ParseError(f"requirements: {exc}") from None
        comm_doc = doc.get("communities")
        if comm_doc:
            communities = tuple(
                (int(c["id"]), str(c.get("name", f"Community {c['id']}")))
                for c in comm_doc)
        else:
            communities = tuple((cid, f"Community {cid}")
                                for cid in sorted({a.community_id for a in areas}))
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ParseError(f"{path}: {exc!r}") from exc

    ids = [a.id for a in areas]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise InvariantError(f"duplicate area ids {dupes}")
    if _looks_like_degrees(areas):
        raise InvariantError(
            "all coordinates fit inside the lon/lat degree box; this loader "
            "requires a local projected coordinate system in meters")

    region = Region(
        name=str(doc.get("name", path.stem)),
        areas=tuple(sorted(areas, key=lambda a: a.id)),
        requirements=requirements,
        communities=communities,
        crs_note=str(doc.get("crs_note", "local planar meters")),
    )
    region.validate()
    return region


def region_to_json_dict(region: Region) -> dict:
    features = []
    for a in region.areas:
        ring = [[x, y] for x, y in a.boundary]
        ring.append(ring[0])
        props = {"id": a.id, "community_id": a.community_id}
        if a.fixed_use is not None:
            props["fixed_use"] = a.fixed_use.value
        features.append({
            "type": "Feature",
            "properties": props,
            "geometry": {"type": "Polygon", "coordinates": [ring]},
        })
    return {
        "type": "FeatureCollection",
        "name": region.name,
        "crs_note": region.crs_note,
        "requirements": {u.value: n for u, n in sorted(
            region.requirements.items(), key=lambda kv: kv[0].value)},
        "communities": [{"id": cid, "name": name} for cid, name in region.communities],
        "features": features,
    }


def save_region(region: Region, path: Union[str, Path]) -> None:
    Path(path).write_text(json.dumps(region_to_json_dict(region), indent=2) + "\n")
