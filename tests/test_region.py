import json

import numpy as np
import pytest

from participlan.discussion import view_payload
from participlan.errors import InvariantError, ParseError
from participlan.fixtures import make_grid_region
from participlan.geometry import Point
from participlan.metrics import ProximityIndex
from participlan.population import Profile, Resident
from participlan.region import (
    ASSIGNABLE_USES,
    FIXED_USES,
    USE_CODES,
    LandUse,
    Plan,
    load_plan,
    load_region,
    plan_digest,
    quota_spare,
    save_plan,
    save_region,
    validate_plan,
)


def test_land_use_parse_aliases():
    assert LandUse.parse("school") is LandUse.SCHOOL
    assert LandUse.parse("School") is LandUse.SCHOOL
    assert LandUse.parse("open space") is LandUse.OPEN_SPACE
    assert LandUse.parse("open") is LandUse.OPEN_SPACE
    assert LandUse.parse("green land") is LandUse.GREEN_FIXED
    assert LandUse.parse("business area") is LandUse.BUSINESS
    with pytest.raises(ValueError):
        LandUse.parse("factory")


def test_land_use_parse_of_a_member_is_the_member():
    # str() of a (str, Enum) member is "LandUse.PARK", not its value
    for use in LandUse:
        assert LandUse.parse(use) is use


def test_use_partition():
    assert len(ASSIGNABLE_USES) == 8
    assert LandUse.RESIDENTIAL in FIXED_USES
    assert LandUse.GREEN_FIXED in FIXED_USES
    assert not set(ASSIGNABLE_USES) & set(FIXED_USES)


def test_region_basic_queries(grid16):
    assert len(grid16.areas) == 16
    assert len(grid16.vacant_ids) == 12
    assert grid16.areas_by_id[1].fixed_use is LandUse.RESIDENTIAL
    assert grid16.areas_by_id[2].is_vacant
    assert grid16.community_ids == (1,)


def test_validate_plan_reports_everything(grid16, hand_plan):
    ok = validate_plan(grid16, hand_plan)
    assert ok.ok
    assert not ok.missing_areas and not ok.deficits

    # remove one area, add a bogus one, break a quota
    assignment = dict(hand_plan.assignment)
    del assignment[15]
    assignment[1] = LandUse.PARK          # area 1 is fixed residential
    assignment[99] = LandUse.SCHOOL       # unknown id
    assignment[3] = LandUse.PARK          # hospital quota now unmet
    bad = validate_plan(grid16, Plan(assignment))
    assert not bad.ok
    assert 15 in bad.missing_areas
    assert set(bad.unexpected_areas) >= {1, 99}
    assert bad.deficits.get(LandUse.HOSPITAL) == 1
    text = bad.summary()
    assert "15" in text and "hospital" in text


def test_from_codes_inverts_use_codes(grid16, hand_plan):
    assert Plan.from_codes(grid16, hand_plan.use_codes(grid16)) == hand_plan
    partial = Plan({a: u for a, u in hand_plan.assignment.items() if a != 9})
    codes = partial.use_codes(grid16)
    assert codes.tolist().count(-1) == 1
    # fixed areas' codes are not read
    codes[grid16.fixed_codes >= 0] = USE_CODES[LandUse.SCHOOL]
    assert Plan.from_codes(grid16, codes) == partial


def test_quota_spare_counts_the_codes(grid16, hand_plan):
    # every quota is 1: hand_plan has two parks and one clinic
    codes = hand_plan.use_codes(grid16)
    assert quota_spare(grid16, codes, USE_CODES[LandUse.PARK])
    assert not quota_spare(grid16, codes, USE_CODES[LandUse.CLINIC])
    assert quota_spare(grid16, codes, -1)


def test_plan_digest_is_order_independent(hand_plan):
    reordered = Plan(dict(reversed(list(hand_plan.assignment.items()))))
    assert plan_digest(hand_plan) == plan_digest(reordered)
    assert len(plan_digest(hand_plan)) == 12
    changed = Plan({**hand_plan.assignment, 2: LandUse.PARK})
    assert plan_digest(changed) != plan_digest(hand_plan)


def test_plan_save_load_round_trip(tmp_path, hand_plan):
    path = tmp_path / "plan.json"
    save_plan(hand_plan, path, provenance={"method": "hand"})
    again = load_plan(path)
    assert again.assignment == hand_plan.assignment


def test_region_save_load_round_trip(tmp_path, grid16):
    path = tmp_path / "region.json"
    save_region(grid16, path)
    again = load_region(path)
    assert again.name == grid16.name
    assert again.requirements == grid16.requirements
    assert len(again.areas) == len(grid16.areas)
    for a, b in zip(again.areas, grid16.areas):
        assert a.id == b.id
        assert a.community_id == b.community_id
        assert a.fixed_use == b.fixed_use
        assert a.boundary == b.boundary


def test_load_region_rejects_degrees(tmp_path, grid16):
    path = tmp_path / "region.json"
    save_region(grid16, path)
    doc = json.loads(path.read_text())
    for feat in doc["features"]:
        ring = feat["geometry"]["coordinates"][0]
        feat["geometry"]["coordinates"][0] = [
            [x / 100.0, y / 100.0] for x, y in ring]
    path.write_text(json.dumps(doc))
    with pytest.raises(InvariantError, match="degrees|meter"):
        load_region(path)


def test_load_region_rejects_duplicate_ids(tmp_path, grid16):
    path = tmp_path / "region.json"
    save_region(grid16, path)
    doc = json.loads(path.read_text())
    doc["features"][1]["properties"]["id"] = doc["features"][0]["properties"]["id"]
    path.write_text(json.dumps(doc))
    with pytest.raises((ParseError, InvariantError)):
        load_region(path)


def test_load_region_rejects_repeated_community_ids(tmp_path, grid16):
    path = tmp_path / "region.json"
    save_region(grid16, path)
    doc = json.loads(path.read_text())
    doc["communities"].append({"id": doc["communities"][0]["id"],
                               "name": "again"})
    path.write_text(json.dumps(doc))
    with pytest.raises(InvariantError, match=r"community ids repeated: \[1\]"):
        load_region(path)


def test_region_requires_all_quota_keys():
    with pytest.raises(InvariantError, match="school"):
        make_grid_region(
            name="broken", n_rows=2, n_cols=2, cell_m=100.0,
            residential=[(0, 0)], green=[],
            requirements={u: 0 for u in ASSIGNABLE_USES if u is not LandUse.SCHOOL},
            community_of=lambda r, c: 1,
            community_names={1: "only"},
        )


def _probe(home):
    return Resident(
        id=0, profile=Profile("female", "30-44", "bachelor", "2"),
        background=None, description="probe", home=home, home_area_id=1,
        needs=())


def _view(region, plan, home, radius):
    """The neighbourhood view of one resident at `home`, from a
    one-resident proximity index built out to `radius`."""
    index = ProximityIndex(region, np.array([home]), radius)
    return view_payload(_probe(home), region, plan, radius, index, 0)


def _first_of(view, use):
    return next((e for e in view if e["land_use"] == use.value), None)


def test_view_lists_the_nearest_of_a_type_first(grid16, hand_plan):
    # two schools (areas 2 and 11); area 2 borders the probe's home cell
    home = Point(125.0, 125.0)
    view = _view(grid16, hand_plan, home, 1500.0)
    school = _first_of(view, LandUse.SCHOOL)
    assert school["area_id"] == 2
    assert school["distance_m"] == pytest.approx(125.0)
    assert _first_of(_view(grid16, Plan({}), home, 1500.0),
                     LandUse.HOSPITAL) is None


def test_view_tie_breaks_by_id(grid16, hand_plan):
    # parks sit in areas 9 and 13, both spanning x in [0, 250]; the probe
    # point y=750 touches both cells' y-ranges, so both are exactly 125 m
    home = Point(375.0, 750.0)
    view = _view(grid16, hand_plan, home, 500.0)
    parks = [e for e in view if e["land_use"] == LandUse.PARK.value]
    assert [e["area_id"] for e in parks] == [9, 13]
    assert parks[0]["distance_m"] == pytest.approx(125.0)
    assert parks[1]["distance_m"] == parks[0]["distance_m"]


def test_view_sorted_and_thresholded(grid16, hand_plan):
    home = Point(125.0, 125.0)
    view = _view(grid16, hand_plan, home, 400.0)
    ids = [e["area_id"] for e in view]
    dists = [e["distance_m"] for e in view]
    assert dists == sorted(dists)
    assert all(d <= 400.0 for d in dists)
    assert 1 in ids          # home cell, distance 0
    assert 4 not in ids      # 625 m away
    entry = next(e for e in view if e["area_id"] == 2)
    assert entry["land_use"] == LandUse.SCHOOL.value
    assert entry["direction"] == "E"
    # the view cannot see past the index it reads
    index = ProximityIndex(grid16, np.array([home]), 400.0)
    with pytest.raises(InvariantError):
        view_payload(_probe(home), grid16, hand_plan, 500.0, index, 0)


def test_view_unassigned_vacant_shows_none(grid16):
    view = _view(grid16, Plan({}), Point(125.0, 125.0), 200.0)
    entry = next(e for e in view if e["area_id"] == 2)
    assert entry["land_use"] is None
    assert entry["changeable"] is True
