import collections
import dataclasses
import json
import xml.etree.ElementTree as ET

from participlan import fixtures
from participlan.region import LandUse
from participlan.svgmap import render_svg


def test_hlg_like_shape(hlg):
    assert len(hlg.areas) == 63
    assert len(hlg.vacant_ids) == 42
    assert len(hlg.community_ids) == 4
    quotas = hlg.requirements
    assert quotas[LandUse.SCHOOL] == 6
    assert quotas[LandUse.HOSPITAL] == 2
    assert quotas[LandUse.CLINIC] == 4
    assert quotas[LandUse.BUSINESS] == 4
    assert quotas[LandUse.OFFICE] == 6
    assert quotas[LandUse.RECREATION] == 6
    assert quotas[LandUse.PARK] == 2
    assert quotas[LandUse.OPEN_SPACE] == 4
    assert sum(quotas.values()) == 34


def test_dhm_like_shape(dhm):
    assert len(dhm.areas) == 70
    assert len(dhm.vacant_ids) == 42
    quotas = dhm.requirements
    assert quotas[LandUse.SCHOOL] == 7
    assert quotas[LandUse.HOSPITAL] == 1
    assert quotas[LandUse.OFFICE] == 2
    assert quotas[LandUse.OPEN_SPACE] == 6
    assert sum(quotas.values()) == 32


def test_each_community_has_residential_and_green(hlg, dhm):
    for region in (hlg, dhm):
        per_community = collections.defaultdict(collections.Counter)
        for area in region.areas:
            if area.fixed_use is not None:
                per_community[area.community_id][area.fixed_use] += 1
        for cid in region.community_ids:
            assert per_community[cid][LandUse.RESIDENTIAL] >= 1
            assert per_community[cid][LandUse.GREEN_FIXED] >= 1


def test_demographics_match_paper_population(demo_spec):
    assert demo_spec.n_agents == 1000
    counts = {q.label: q.count for q in demo_spec.quotas}
    assert counts == {
        "elderly living alone": 10,
        "family with a sick member": 10,
        "parenting family": 50,
        "family with school children": 50,
        "drifter": 50,
        "office worker": 50,
    }
    for dist in (demo_spec.gender, demo_spec.age_band,
                 demo_spec.education, demo_spec.family_size):
        assert abs(sum(dist.values()) - 1.0) < 1e-9


def test_bundled_files_match_builders(tmp_path):
    fresh = fixtures.write_bundled_data(tmp_path)
    for path in fresh:
        bundled = fixtures.data_path(path.name)
        assert json.loads(path.read_text()) == json.loads(bundled.read_text())


def test_svg_contains_all_areas_and_legend(hlg, hand_plan, grid16):
    svg = render_svg(grid16, hand_plan)
    assert svg.startswith("<?xml")
    assert svg.count("<polygon") == len(grid16.areas)
    for use in LandUse:
        assert use.value.replace("_", " ") in svg or use.value in svg
    assert 'class="legend"' in svg
    # unassigned areas get the fallback hatch color
    svg_empty = render_svg(grid16, None)
    assert svg_empty.count("<polygon") == len(grid16.areas)


def test_svg_escapes_the_region_name(grid16):
    region = dataclasses.replace(grid16, name="Smith & Sons <north>")
    root = ET.fromstring(render_svg(region, None))
    title = root.find("{http://www.w3.org/2000/svg}title")
    assert title.text == "Smith & Sons <north>"


def test_svg_marks_community_boundaries(hlg):
    svg = render_svg(hlg, None)
    assert "<line" in svg
