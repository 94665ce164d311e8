import collections
import dataclasses
import itertools

import numpy as np
import pytest

from participlan import fixtures
from participlan.errors import Infeasible
from participlan.metrics import REACH_M, ProximityIndex
from participlan.planners import (
    PLANNER_NAMES,
    PlannerConfig,
    _anneal,
    centralized_plan,
    decentralized_plan,
    gsca_plan,
    gsca_trace,
    local_search_plan,
    plan_objective,
    random_plan,
)
from participlan.population import Population, synthesize
from participlan.region import (ASSIGNABLE_USES, LandUse, Plan, plan_digest,
                                validate_plan)

import oracles
from conftest import _resident, scatter_population
from test_acceptance import _random_region


def _counts(plan):
    return collections.Counter(plan.assignment.values())


def test_all_planners_meet_quotas(grid16, pop_grid16):
    config = PlannerConfig(seed=1, max_iters=40, restarts=2)
    plans = {
        "random": random_plan(grid16, config),
        "centralized": centralized_plan(grid16, config),
        "decentralized": decentralized_plan(grid16, config),
        "gsca": gsca_plan(grid16, pop_grid16, config),
        "local-search": local_search_plan(grid16, pop_grid16, config),
    }
    assert set(plans) <= set(PLANNER_NAMES)
    for name, plan in plans.items():
        check = validate_plan(grid16, plan)
        assert check.ok, f"{name}: {check.summary()}"
        counts = _counts(plan)
        for use, minimum in grid16.requirements.items():
            assert counts[use] >= minimum, name


def test_random_plan_depends_only_on_seed(grid16):
    a = random_plan(grid16, PlannerConfig(seed=5))
    b = random_plan(grid16, PlannerConfig(seed=5))
    c = random_plan(grid16, PlannerConfig(seed=6))
    assert a.assignment == b.assignment
    assert a.assignment != c.assignment


def test_infeasible_requirements_raise(grid16):
    # region validation blocks quota sums above the vacant count, so an
    # infeasible region has to be forged by replacing the requirements
    overfull = {u: 2 for u in ASSIGNABLE_USES}  # 16 > 12 vacant cells
    region = dataclasses.replace(grid16, requirements=overfull)
    with pytest.raises(Infeasible):
        random_plan(region, PlannerConfig(seed=0))


def test_centralized_prefers_near_center(hlg):
    # with quotas already met by earlier picks this is statistical; use
    # many seeds and compare mean centroid distance to the region center
    center_dists, random_dists = [], []
    areas = {a.id: a for a in hlg.areas}
    cx = np.mean([a.centroid.x for a in hlg.areas])
    cy = np.mean([a.centroid.y for a in hlg.areas])
    for seed in range(40):
        plan = centralized_plan(hlg, PlannerConfig(seed=seed))
        schools = [aid for aid, use in plan.assignment.items()
                   if use is LandUse.SCHOOL]
        center_dists.extend(
            np.hypot(areas[a].centroid.x - cx, areas[a].centroid.y - cy)
            for a in schools)
        plan = random_plan(hlg, PlannerConfig(seed=seed))
        schools = [aid for aid, use in plan.assignment.items()
                   if use is LandUse.SCHOOL]
        random_dists.extend(
            np.hypot(areas[a].centroid.x - cx, areas[a].centroid.y - cy)
            for a in schools)
    assert np.mean(center_dists) < np.mean(random_dists)


def test_decentralized_spreads_same_type(hlg):
    # mean pairwise distance between same-type facilities should beat the
    # centralized planner, which stacks everything near the center
    def mean_spread(maker):
        total, count = 0.0, 0
        areas = {a.id: a for a in hlg.areas}
        for seed in range(30):
            plan = maker(hlg, PlannerConfig(seed=seed))
            for use in (LandUse.SCHOOL, LandUse.OFFICE):
                ids = [aid for aid, u in plan.assignment.items() if u is use]
                for i, j in itertools.combinations(ids, 2):
                    a, b = areas[i].centroid, areas[j].centroid
                    total += np.hypot(a.x - b.x, a.y - b.y)
                    count += 1
        return total / count
    assert mean_spread(decentralized_plan) > mean_spread(centralized_plan)


def test_gsca_trace_and_coverage(grid16, pop_grid16):
    config = PlannerConfig(seed=2)
    trace = gsca_trace(grid16, pop_grid16, config)
    for use, picks in trace.items():
        minimum = grid16.requirements.get(use, 0)
        assert len(picks) == minimum
        gains = [g for _aid, g in picks]
        # greedy gains are non-increasing within one type
        assert all(gains[i] >= gains[i + 1] for i in range(len(gains) - 1))
    plan = gsca_plan(grid16, pop_grid16, config)
    assert validate_plan(grid16, plan).ok


def _edge_population(region):
    """Homes exactly 500 m east of vacant area 2's centroid, (375, 125),
    and one ulp inside it: offsets along one axis, so the oracle's
    math.hypot and np.hypot agree at the edge."""
    inside = float(np.nextafter(875.0, 0.0))
    homes = [875.0, 875.0, inside, inside, inside]
    return Population(residents=tuple(
        _resident(rid, x, 125.0, 4, [LandUse.SCHOOL])
        for rid, x in enumerate(homes)), seed=0)


@pytest.mark.parametrize("name, seed", [
    *itertools.product(["hlg", "dhm", "grid16", "grid16-reversed"], [1, 2]),
    pytest.param("grid16-edge", None, id="grid16-edge")])
def test_gsca_matches_the_oracle(name, seed):
    region = {"hlg": fixtures.hlg_like_region,
              "dhm": fixtures.dhm_like_region,
              "grid16": fixtures.grid16_region,
              "grid16-reversed": fixtures.grid16_region,
              "grid16-edge": fixtures.grid16_region}[name]()
    if name == "grid16-reversed":
        # areas out of id order: quota ties go to region order, the fill
        # goes in id order
        region = dataclasses.replace(region, areas=region.areas[::-1])
    if name == "grid16-edge":
        # area 2 reaches only the homes inside the strict radius
        pop = _edge_population(region)
        assert gsca_trace(region, pop)[LandUse.BUSINESS] == [(2, 3)]
    else:
        pop = synthesize(fixtures.hlg_like_demographics(1000), region, seed)
    want_plan, want_trace = oracles.oracle_gsca(region, pop)
    plan = gsca_plan(region, pop)
    trace = gsca_trace(region, pop)
    assert {a: u.value for a, u in plan.assignment.items()} == want_plan
    assert {u.value: picks for u, picks in trace.items()} == want_trace


def test_local_search_zero_iterations_returns_start(grid16, pop_grid16):
    config = PlannerConfig(seed=7, max_iters=0, restarts=1)
    got = local_search_plan(grid16, pop_grid16, config)
    want = random_plan(grid16, PlannerConfig(seed=7, max_iters=0, restarts=1))
    # restart 0 draws its start from the same stream the random planner uses
    assert got.assignment == want.assignment


def test_local_search_beats_its_start(grid16, pop_grid16):
    config = PlannerConfig(seed=8, max_iters=300, restarts=2)
    improved = local_search_plan(grid16, pop_grid16, config)
    start = random_plan(grid16, PlannerConfig(seed=8))
    assert plan_objective(grid16, pop_grid16, improved) \
        >= plan_objective(grid16, pop_grid16, start)


def test_local_search_deterministic(grid16, pop_grid16):
    config = PlannerConfig(seed=9, max_iters=120, restarts=2)
    a = local_search_plan(grid16, pop_grid16, config)
    b = local_search_plan(grid16, pop_grid16, config)
    assert a.assignment == b.assignment


@pytest.mark.parametrize("seed, digest", [
    (1, "a05731c2fc57"),
    (2, "20c27a066f83"),
    (3, "a580b0eb0ad9"),
])
def test_local_search_plans_on_dhm_are_pinned(dhm, seed, digest):
    # recorded from the from-scratch objective, so a faster search must
    # accept and reject exactly the same moves
    pop = synthesize(fixtures.hlg_like_demographics(1000), dhm, seed)
    plan = local_search_plan(dhm, pop, PlannerConfig(seed=seed))
    assert plan_digest(plan) == digest


@pytest.mark.parametrize("radius", [REACH_M, 900.0])
def test_local_search_on_a_shared_index_is_pinned(dhm, radius):
    # the plan of the first pinned seed, searched on an index the caller
    # built; coverage classes ignore the pairs at 500 m and beyond
    pop = synthesize(fixtures.hlg_like_demographics(1000), dhm, 1)
    plan = local_search_plan(dhm, pop, PlannerConfig(seed=1),
                             cache=ProximityIndex(dhm, pop.homes, radius))
    assert plan_digest(plan) == "a05731c2fc57"


@pytest.fixture(scope="module")
def pop_dhm_10k(dhm):
    return synthesize(fixtures.hlg_like_demographics(10_000), dhm, 1)


@pytest.mark.parametrize("seed, digest", [
    (1, "44f8750d35f7"),
    (2, "08e5d215e4c6"),
])
def test_local_search_plans_on_dhm_10k_are_pinned(dhm, pop_dhm_10k, seed,
                                                  digest):
    # recorded before residents sharing their areas in range shared one
    # row of counts; 10k homes on 70 cells repeat many of those sets
    plan = local_search_plan(dhm, pop_dhm_10k, PlannerConfig(seed=seed))
    assert plan_digest(plan) == digest


def _anneal_cases():
    """(region, population, index radius, seed): random regions with at
    least one vacant area at both radii, then a region whose one vacant
    area may take any use, so every candidate is a reassignment."""
    rng = np.random.default_rng(2718)
    for radius in (500.0, 700.0):
        for _ in range(4):
            region = _random_region(rng, int(rng.integers(2, 6)),
                                    int(rng.integers(2, 6)), cell_m=250.0)
            while not region.vacant_ids:
                region = _random_region(rng, 3, 3, cell_m=250.0)
            yield (region, scatter_population(region, 80, rng), radius,
                   int(rng.integers(1000)))
    lone = fixtures.make_grid_region(
        "lone", 1, 3, 250.0, [(0, 0)], [(0, 2)],
        {u: 0 for u in ASSIGNABLE_USES}, lambda row, col: 1, {1: "lone"})
    yield lone, scatter_population(lone, 40, rng), 500.0, 5


def test_anneal_matches_the_full_gather_oracle():
    # the oracle scores each candidate from both per-resident arrays
    cases = 0
    for region, pop, radius, seed in _anneal_cases():
        index = ProximityIndex(region, pop.homes, radius)
        config = PlannerConfig(seed=seed, max_iters=300)
        for restart in range(config.restarts):
            obj, codes = _anneal(region, config, index, restart)
            want_obj, want_codes = oracles.anneal(region, config, index,
                                                  restart)
            assert obj == want_obj
            assert codes.tolist() == want_codes.tolist()
            cases += 1
    assert cases == 27


def test_planner_config_validation():
    with pytest.raises(ValueError):
        PlannerConfig(max_iters=-1).validate()
    PlannerConfig(max_iters=0).validate()  # zero is a legal no-op search
