import collections
import hashlib
import itertools

import numpy as np
import pytest

import oracles
from participlan import fixtures
from participlan.discussion import invite
from participlan.errors import (GeometryError, NeedsMissing, PlanningError,
                                SpecError)
from participlan.geometry import Point
from participlan.population import (
    DemographicSpec,
    MarginalizedQuota,
    Population,
    Profile,
    Resident,
    _sample_homes,
    load_demographics,
    save_demographics,
    synthesize,
)
from participlan.region import (ASSIGNABLE_USES, CANON_INDEX, Area, LandUse,
                                Region)
from participlan.rules import (
    GENERIC_NEEDS,
    needs_from_rules,
)


def test_synthesis_counts_and_quotas(grid16, demo_spec_small):
    pop = synthesize(demo_spec_small, grid16, seed=4)
    assert len(pop.residents) == 300
    assert [r.id for r in pop.residents] == list(range(300))
    by_bg = collections.Counter(
        r.background for r in pop.residents if r.background)
    for quota in demo_spec_small.quotas:
        assert by_bg[quota.label] == quota.count
    assert sum(by_bg.values()) == 220


def test_synthesis_is_deterministic(grid16, demo_spec_small):
    a = synthesize(demo_spec_small, grid16, seed=9)
    b = synthesize(demo_spec_small, grid16, seed=9)
    assert [r.home for r in a.residents] == [r.home for r in b.residents]
    assert [r.needs for r in a.residents] == [r.needs for r in b.residents]
    c = synthesize(demo_spec_small, grid16, seed=10)
    assert [r.home for r in a.residents] != [r.home for r in c.residents]


def test_homes_lie_in_residential_areas(grid16, pop_grid16):
    residential_ids = {a.id for a in grid16.residential_areas}
    for r in pop_grid16.residents:
        assert r.home_area_id in residential_ids
        area = grid16.areas_by_id[r.home_area_id]
        xs = [p.x for p in area.boundary]
        ys = [p.y for p in area.boundary]
        assert min(xs) <= r.home.x <= max(xs)
        assert min(ys) <= r.home.y <= max(ys)


def test_forced_fields_hold(grid16, demo_spec_small):
    pop = synthesize(demo_spec_small, grid16, seed=12)
    for r in pop.residents:
        if r.background == "elderly living alone":
            assert r.profile.age_band == "65+"
            assert r.profile.family_size == "1"
        if r.background == "parenting family":
            assert r.profile.age_band == "30-44"
            assert r.profile.family_size in ("3", "4", "5+")
        if r.background == "office worker":
            assert r.profile.age_band in ("18-29", "30-44", "45-64")


def test_needs_are_valid(pop_grid16):
    for r in pop_grid16.residents:
        assert 3 <= len(r.needs) <= 5
        assert len(set(r.needs)) == len(r.needs)
        assert all(u in set(LandUse) for u in r.needs)


def test_descriptions_mention_profile(pop_grid16):
    r = pop_grid16.residents[0]
    assert r.profile.gender in r.description
    assert str(r.profile.age_band) in r.description
    marg = pop_grid16.marginalized()[0]
    assert marg.background in marg.description


def test_marginalized_mask_marks_the_marginalized(pop_grid16):
    mask = pop_grid16.marginalized_mask
    assert mask.tolist() == [r.is_marginalized for r in pop_grid16.residents]
    assert mask.sum() == len(pop_grid16.marginalized()) > 0
    assert not mask.flags.writeable


def _loop_homes_and_needs(pop):
    """Population.homes and needs_mask as one loop over the residents."""
    homes = np.array([r.home for r in pop.residents], dtype=float)
    mask = np.zeros((len(pop), len(ASSIGNABLE_USES)), dtype=bool)
    counts = np.empty(len(pop), dtype=float)
    for i, r in enumerate(pop.residents):
        counts[i] = len(r.needs)
        for need in r.needs:
            if need in CANON_INDEX:
                mask[i, CANON_INDEX[need]] = True
    return homes, mask, counts


def _hand_built(needs_lists):
    return Population(residents=tuple(
        Resident(i, Profile("female", "30-44", "bachelor", 2), None,
                 "hand-built", Point(10.0 * i + 0.1, -3.5 * i), 1, tuple(needs))
        for i, needs in enumerate(needs_lists)), seed=0)


def test_homes_and_needs_mask_equal_the_loop(pop_hlg):
    # equal needs in separate tuples, a need outside ASSIGNABLE_USES, and
    # one in two places
    hand = _hand_built([
        [LandUse.SCHOOL, LandUse.PARK], [LandUse.SCHOOL, LandUse.PARK],
        [LandUse.GREEN_FIXED, LandUse.CLINIC], [LandUse.OFFICE],
        [LandUse.PARK, LandUse.SCHOOL], [LandUse.OFFICE, LandUse.OFFICE]])
    for pop in (pop_hlg, hand):
        homes, mask, counts = _loop_homes_and_needs(pop)
        assert pop.homes.tobytes() == homes.tobytes()
        assert pop.homes.shape == homes.shape
        got_mask, got_counts = pop.needs_mask
        assert np.array_equal(got_mask, mask) and got_mask.dtype == bool
        assert got_counts.tobytes() == counts.tobytes()
        for array in (pop.homes, got_mask, got_counts):
            assert not array.flags.writeable


def test_needs_mask_names_the_first_resident_without_needs():
    pop = _hand_built([[LandUse.SCHOOL], [LandUse.PARK], [], [LandUse.PARK], []])
    with pytest.raises(NeedsMissing, match="resident 2 "):
        pop.needs_mask


def test_needs_rules_exact_profiles():
    # elderly living alone: hospital 5+4(age)=9, park 4+3=7, clinic 3+2=5
    facts = {"age_band": "65+", "family_size": 1, "education": "secondary",
             "gender": "female", "background": "elderly living alone"}
    needs = needs_from_rules(facts)
    assert needs[0] is LandUse.HOSPITAL
    assert needs[1] is LandUse.PARK
    assert LandUse.CLINIC in needs

    # no matching rules at all falls back to the generic top-3
    bland = {"age_band": "unknown", "family_size": 2,
             "education": "none", "gender": "male", "background": None}
    assert needs_from_rules(bland) == GENERIC_NEEDS


#: Every label of the bundled demographics and quotas, one label no rule
#: names, None, and _ABSENT (the key left out of the facts).
_ABSENT = object()
_FACT_VALUES = {
    "gender": ("female", "male", "other"),
    "age_band": ("18-29", "30-44", "45-64", "65+", "other"),
    "education": ("bachelor", "postgraduate", "secondary", "vocational",
                  "other"),
    "family_size": ("1", "2", "3", "4", "5+", "other"),
    "background": ("elderly living alone", "family with a sick member",
                   "parenting family", "family with school children",
                   "drifter", "office worker", "other"),
}

#: SHA-256 of the needs of all 17,640 fact combinations, recorded before
#: the rules became a (fact, value) table.
NEEDS_DIGEST = (
    "a814f04571bf3801e080f6b4e9ac1a76bad5f2a373cc32f6a52c2e9ebae22569")


def test_needs_rules_digest_over_every_fact_combination():
    lines = []
    for combo in itertools.product(*(values + (None, _ABSENT)
                                      for values in _FACT_VALUES.values())):
        facts = {key: value for key, value in zip(_FACT_VALUES, combo)
                 if value is not _ABSENT}
        needs = needs_from_rules(facts)
        lines.append(f"{sorted(facts.items())!r} {[u.value for u in needs]}")
    assert len(lines) == 17_640
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == NEEDS_DIGEST


def test_needs_rules_cap_at_five():
    facts = {"age_band": "30-44", "family_size": "5+",
             "education": "postgraduate", "gender": "female",
             "background": "parenting family"}
    needs = needs_from_rules(facts)
    assert len(needs) == 5
    assert len(set(needs)) == 5


def test_spec_validation_rejects_bad_distributions():
    with pytest.raises(SpecError, match="gender"):
        DemographicSpec(
            n_agents=10,
            gender={"female": 0.7, "male": 0.7},
            age_band={"18-29": 1.0},
            education={"secondary": 1.0},
            family_size={1: 1.0},
            quotas=(),
        ).validate()
    with pytest.raises(SpecError, match="n_agents"):
        DemographicSpec(
            n_agents=5,
            gender={"female": 1.0},
            age_band={"18-29": 1.0},
            education={"secondary": 1.0},
            family_size={1: 1.0},
            quotas=(MarginalizedQuota("drifter", 9, {}),),
        ).validate()
    # an empty allowed list leaves nothing to draw a forced field from
    with pytest.raises(SpecError, match="no allowed age_band"):
        DemographicSpec(
            n_agents=10,
            gender={"female": 1.0},
            age_band={"18-29": 1.0},
            education={"secondary": 1.0},
            family_size={1: 1.0},
            quotas=(MarginalizedQuota("drifter", 1, {"age_band": ()}),),
        ).validate()
    # NaN compares false with everything, so no bound check may pass it
    with pytest.raises(SpecError, match="age_band"):
        DemographicSpec(
            n_agents=10,
            gender={"female": 1.0},
            age_band={"18-29": float("nan")},
            education={"secondary": 1.0},
            family_size={1: 1.0},
            quotas=(),
        ).validate()


def test_demographics_round_trip(tmp_path, demo_spec):
    path = tmp_path / "spec.json"
    save_demographics(demo_spec, path)
    again = load_demographics(path)
    assert again.n_agents == demo_spec.n_agents
    assert again.gender == demo_spec.gender
    assert [q.label for q in again.quotas] == [q.label for q in demo_spec.quotas]
    assert [q.force for q in again.quotas] == [q.force for q in demo_spec.quotas]


def _odd_shapes_region(lot: bool) -> Region:
    """Residential areas whose homes need rejection sampling: a triangle,
    a U, an L and a thin diagonal sliver, plus one rectangle; with `lot`,
    also a large square, so that far fewer first draws miss their area."""
    def area(aid, *xy):
        return Area(aid, tuple(Point(float(x), float(y)) for x, y in xy),
                    community_id=1, fixed_use=LandUse.RESIDENTIAL)
    areas = (
        area(1, (0, 0), (300, 0), (0, 200)),
        area(2, (400, 0), (700, 0), (700, 300), (620, 300), (620, 80),
             (480, 80), (480, 300), (400, 300)),
        area(3, (800, 0), (1000, 0), (1000, 60), (860, 60), (860, 250),
             (800, 250)),
        area(4, (0, 400), (1000, 1200), (995, 1200)),
        area(5, (1100, 0), (1300, 0), (1300, 100), (1100, 100)),
    )
    if lot:
        areas += (area(6, (0, 1300), (700, 1300), (700, 2000), (0, 2000)),)
    return Region(name="odd_shapes", areas=areas, requirements={},
                  communities=((1, "odd"),))


#: SHA-256 per (lot, seed) over every resident's home (as float.hex), home
#: area, description and needs on _odd_shapes_region, recorded with the
#: scalar one-resident-at-a-time sampler.
ODD_SHAPES_DIGESTS = {
    (False, 1): "2c6abd8f92b973503930efb0b66aacc199f7a40014ddafad14c73f8911c9457c",
    (False, 2): "aaf5e7cecf1bcacd4e050de5d13a7c1fcc5fa194029033fc62876a69bbfd249e",
    (False, 3): "4fe4f54b0008d3b650065ebff26bca2e8a0ed0b1e3d0c886207aa4fc6621255d",
    (True, 1): "485b4599766b8a3850ca0abfbc65b5803a2da555b704c81495585eaa4729aa5e",
    (True, 2): "a1360893406f8905311fc08804b87cac27fc245321c9bccaaf8c2b9f8589760c",
    (True, 3): "cbbbe5bfa0573624827096fe6a61dd2cfb7e2de34a8182de63fda30b0f33fc41",
}


@pytest.mark.parametrize("lot, seed", sorted(ODD_SHAPES_DIGESTS))
def test_synthesis_on_odd_shapes_is_pinned(lot, seed):
    region = _odd_shapes_region(lot)
    spec = fixtures.hlg_like_demographics(1000 if lot else 300)
    pop = synthesize(spec, region, seed=seed)
    lines = [
        f"{r.home.x.hex()} {r.home.y.hex()} {r.home_area_id} "
        f"{r.description} {[u.value for u in r.needs]}"
        for r in pop.residents]
    assert {r.home_area_id for r in pop.residents} == {a.id for a in region.areas}
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == ODD_SHAPES_DIGESTS[lot, seed]


@pytest.mark.parametrize("seed, offset, triangles", [
    *(pytest.param(seed, offset, False, id=f"{seed}-{offset}")
      for seed in (1, 2, 3) for offset in (0.0, 4.0e6)),
    *(pytest.param(seed, 0.0, True, id=f"triangles-{seed}")
      for seed in (1, 2, 3))])
def test_batched_homes_equal_the_scalar_draws(seed, offset, triangles):
    # Quads a little off their bounding boxes, rectangles, a triangle and a
    # sliver: rectangle points pass untested and the others are tested.
    # Or six right triangles that each fill half their box: 12,000 homes
    # miss about as many times in all, but only a few times each.
    def ring(*xy):
        return tuple(Point(offset + x, offset + y) for x, y in xy)
    if triangles:
        areas = [Area(k + 1, ring((300.0 * k, 0), (300.0 * k + 200, 0),
                                  (300.0 * k, 200)), 1) for k in range(6)]
    else:
        areas = []
        for k in range(12):
            x = 300.0 * k
            areas.append(Area(len(areas) + 1, ring(
                (x, 0), (x + 200, 4), (x + 198, 204), (x - 3, 200)), 1))
            areas.append(Area(len(areas) + 1, ring(
                (x, 300), (x + 250, 300), (x + 250, 450), (x, 450)), 1))
        areas.append(Area(len(areas) + 1, ring((0, 600), (300, 600), (0, 800)), 1))
        areas.append(Area(len(areas) + 1, ring((0, 900), (1000, 1700), (995, 1700)), 1))
    weights = np.array([a.area_m2 for a in areas])
    home_idx = np.random.default_rng(seed).choice(
        len(areas), size=12_000 if triangles else 2000, p=weights / weights.sum())

    scalar, batched = np.random.default_rng(seed), np.random.default_rng(seed)
    want = [list(oracles.sample_point_in_polygon(scalar, areas[i].boundary))
            for i in home_idx]
    boxes = Region(name="quads", areas=tuple(areas), requirements={},
                   communities=((1, "quads"),)).area_boxes
    assert _sample_homes(batched, areas, boxes, home_idx).tolist() == want
    assert batched.random() == scalar.random()


#: A parallelogram that fills 1e-6 of its bounding box: rejection
#: sampling expects a million draws per home.
SLIVER = tuple(Point(x, y) for x, y in
               ((0.0, 0.0), (0.001, 0.0), (1000.0, 1000.0), (999.999, 1000.0)))


def _boxes(areas):
    return Region(name="boxes", areas=tuple(areas), requirements={},
                  communities=((1, "boxes"),)).area_boxes


def test_home_sampler_gives_up_on_a_sliver():
    areas = [Area(1, SLIVER, 1)]
    with pytest.raises(GeometryError, match="rejection sampling failed "
                       "after 10000 tries"):
        _sample_homes(np.random.default_rng(0), areas, _boxes(areas),
                      np.array([0]))


def test_home_sampler_names_the_area_it_gives_up_on():
    # the rectangle's resident is placed in the batch where the sliver's
    # resident first misses
    areas = [Area(3, tuple(Point(x, y) for x, y in
                           ((0.0, 0.0), (10.0, 0.0), (10.0, 10.0), (0.0, 10.0))), 1),
             Area(7, SLIVER, 1)]
    with pytest.raises(GeometryError, match="^area 7: rejection sampling "
                       "failed after 10000 tries"):
        _sample_homes(np.random.default_rng(0), areas, _boxes(areas),
                      np.array([0, 1]))


def test_synthesis_on_a_sliver_is_a_planning_error():
    region = Region(name="sliver",
                    areas=(Area(1, SLIVER, community_id=1,
                                fixed_use=LandUse.RESIDENTIAL),),
                    requirements={u: 0 for u in ASSIGNABLE_USES},
                    communities=((1, "sliver"),))
    region.validate()
    with pytest.raises(PlanningError, match="rejection sampling failed"):
        synthesize(fixtures.hlg_like_demographics(300), region, seed=1)


def _population_digest(pop):
    """SHA-256 over every field of every resident, homes as float.hex."""
    lines = [
        f"{r.id}|{r.profile.gender}|{r.profile.age_band}|{r.profile.education}"
        f"|{r.profile.family_size}|{r.background}|{r.description}"
        f"|{[u.value for u in r.needs]}|{r.home.x.hex()}|{r.home.y.hex()}"
        f"|{r.home_area_id}"
        for r in pop.residents]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


#: _population_digest per (region, residents, seed), recorded with one
#: Resident object built per resident during synthesis.
POPULATION_DIGESTS = {
    ("hlg_like", 1000, 1):
        "e9fdcf86afefdd08eae7a6bb1f1bc8f03095d5ab84e12b1a16224804691874e7",
    ("hlg_like", 1000, 2):
        "68530170111a2088e502ed827e2c5cc4e0546068bcd39c3b2f38f91fb7d295a8",
    ("dhm_like", 10_000, 1):
        "9b1083acddd07aa323a496cd55d80d9039f31a627381fb48a3436c0c0b43fc7d",
    ("dhm_like", 10_000, 2):
        "35418aa39519a6a90a205cd4565ec8a73c178f5ddf7539f23795e1fa4fbdf18b",
}


@pytest.mark.parametrize("name, n, seed", sorted(POPULATION_DIGESTS))
def test_synthesized_population_is_pinned(name, n, seed):
    region = getattr(fixtures, f"{name}_region")()
    pop = synthesize(fixtures.hlg_like_demographics(n), region, seed=seed)
    assert len(pop) == n
    assert _population_digest(pop) == POPULATION_DIGESTS[name, n, seed]


def _zero_probability_spec(n):
    """Quotas whose allowed labels all have zero marginal probability, so
    their forced fields are drawn uniformly from the allowed labels."""
    return DemographicSpec(
        n_agents=n,
        gender={"female": 0.5, "male": 0.5, "other": 0.0},
        age_band={"18-29": 0.4, "30-44": 0.6, "45-64": 0.0, "65+": 0.0},
        education={"secondary": 0.5, "bachelor": 0.5},
        family_size={"1": 0.0, "2": 0.7, "3": 0.3},
        quotas=(
            MarginalizedQuota("elderly living alone", 40,
                              {"age_band": ("65+", "45-64"),
                               "family_size": ("1",)}),
            MarginalizedQuota("drifter", 30, {"gender": ("other",),
                                              "age_band": ("18-29",)}),
            MarginalizedQuota("office worker", 20,
                              {"age_band": ("45-64", "30-44")}),
        ))


#: _population_digest of _zero_probability_spec(200) on grid16, per seed,
#: recorded with one Resident object built per resident during synthesis.
ZERO_PROBABILITY_DIGESTS = {
    1: "da6250d2beb1e2fe2fd685f7a715a84fc6bee45278fa87cad79d454bdabfb924",
    2: "d51857c22604b37e1498bc2cecd3253bdecf10cc30376b048d71f5830db9d46b",
}


@pytest.mark.parametrize("seed", sorted(ZERO_PROBABILITY_DIGESTS))
def test_zero_probability_quota_labels_are_drawn_uniformly(grid16, seed):
    pop = synthesize(_zero_probability_spec(200), grid16, seed=seed)
    elderly = [r for r in pop.residents if r.background == "elderly living alone"]
    drifters = [r for r in pop.residents if r.background == "drifter"]
    assert len(elderly) == 40 and len(drifters) == 30
    # both zero-probability labels are drawn, and only for the quota
    assert {r.profile.age_band for r in elderly} == {"65+", "45-64"}
    assert {r.profile.family_size for r in elderly} == {"1"}
    assert {r.profile.gender for r in drifters} == {"other"}
    for r in pop.residents:
        if r.background is None:
            assert r.profile.age_band in ("18-29", "30-44")
            assert r.profile.gender != "other" and r.profile.family_size != "1"
    assert _population_digest(pop) == ZERO_PROBABILITY_DIGESTS[seed]


def _wide_spec(n_labels):
    """n_labels equally likely labels per profile field: more label
    combinations than a numpy index holds once n_labels**4 passes 2**63."""
    def uniform(prefix):
        return {f"{prefix}{k}": 1.0 / n_labels for k in range(n_labels)}
    return DemographicSpec(
        n_agents=60, gender=uniform("g"), age_band=uniform("a"),
        education=uniform("e"), family_size=uniform("f"),
        quotas=(MarginalizedQuota("drifter", 5, {"age_band": ("a7", "a8")}),))


#: _population_digest of _wide_spec(60_000) on grid16 with seed 3,
#: recorded with one Resident object built per resident during synthesis.
WIDE_SPEC_DIGEST = (
    "d0f7e410a70fd4c1faf30f17de47fc69a3ebedf6d7b661e5db0cd908b54fb0fc")


def test_synthesis_with_more_label_combinations_than_an_index_holds(grid16):
    assert 60_000 ** 4 > np.iinfo(np.intp).max
    pop = synthesize(_wide_spec(60_000), grid16, seed=3)
    assert len({r.description for r in pop.residents}) == 60
    assert _population_digest(pop) == WIDE_SPEC_DIGEST


@pytest.mark.parametrize("order", ["subset", "reversed subset"])
def test_arrays_follow_residents_whose_ids_are_not_positions(hlg, pop_hlg,
                                                             order):
    keep = [r for r in pop_hlg.residents if r.id % 3]
    if order == "reversed subset":
        keep.reverse()
    pop = Population(residents=tuple(keep), seed=pop_hlg.seed)
    position_of, homes, (mask, counts), marginalized = \
        oracles.population_arrays(keep)
    assert pop.position_of == position_of
    assert pop.homes.tobytes() == homes.tobytes()
    assert np.array_equal(pop.needs_mask[0], mask)
    assert pop.needs_mask[1].tobytes() == counts.tobytes()
    assert pop.marginalized_mask.tolist() == marginalized.tolist()
    assert 0 < marginalized.sum() < len(keep)
    assert pop.residents == tuple(keep)
    assert pop.marginalized() == tuple(r for r in keep if r.is_marginalized)
    for cid in hlg.community_ids:
        assert invite(cid, hlg, pop) == oracles.invite(hlg, keep, cid, 500.0)
