"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:
run with `pytest tests/test_acceptance.py -v -s`. Every expected value
is either a closed-form number derived in the comments or comes from the
brute-force reference in oracles.py / an exhaustive enumeration written
inline, never from the code under test.
"""
import itertools
import math
import time

import numpy as np
import pytest

from participlan import fixtures
from participlan.cli import main
from participlan.discussion import DiscussionConfig, run_ablation, run_full_pipeline
from participlan.geometry import Point
from participlan.llm import BackendConfig, make_backend
from participlan.metrics import (
    REACH_M,
    ProximityIndex,
    ecology,
    inclusion,
    report,
    satisfaction,
    service,
)
from participlan.planners import (
    PlannerConfig,
    centralized_plan,
    decentralized_plan,
    gsca_plan,
    gsca_trace,
    local_search_plan,
    plan_objective,
    random_plan,
)
from participlan.population import Population, Profile, Resident, synthesize
from participlan.region import (
    ASSIGNABLE_USES,
    Area,
    LandUse,
    Plan,
    Region,
    validate_plan,
)

import oracles
from conftest import random_plan_for, scatter_population


def _verdict(name, ok, detail=""):
    state = "PASS" if ok else "FAIL"
    line = f"[acceptance] {name}: {state}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _random_region(rng, n_rows, n_cols, cell_m=200.0):
    """Random rectangular region with random fixed cells and quotas."""
    cells = [(r, c) for r in range(n_rows) for c in range(n_cols)]
    rng.shuffle(cells)
    n_res = max(1, len(cells) // 5)
    n_green = int(rng.integers(0, 2))
    residential = cells[:n_res]
    green = cells[n_res:n_res + n_green]
    n_vacant = len(cells) - n_res - n_green
    quotas = {u: 0 for u in ASSIGNABLE_USES}
    budget = min(n_vacant, int(rng.integers(1, n_vacant + 1)))
    for _ in range(budget):
        u = ASSIGNABLE_USES[int(rng.integers(len(ASSIGNABLE_USES)))]
        quotas[u] += 1
    return fixtures.make_grid_region(
        name="rand", n_rows=n_rows, n_cols=n_cols, cell_m=cell_m,
        residential=residential, green=green, requirements=quotas,
        community_of=lambda r, c: 1, community_names={1: "only"})


def test_01_metric_oracle_equivalence():
    """Vectorized metrics equal the scalar brute force on 100 instances."""
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n_rows = int(rng.integers(2, 6))
        n_cols = int(rng.integers(2, 6))
        region = _random_region(rng, n_rows, n_cols)
        while len(region.vacant_ids) == 0:
            region = _random_region(rng, n_rows, n_cols)
        plan = random_plan_for(region, rng)
        n_m = int(rng.integers(5, 61))
        pop = scatter_population(region, n_m, rng)
        pairs = [
            (service(region, plan, pop),
             oracles.oracle_service(region, plan, pop)),
            (ecology(region, plan, pop),
             oracles.oracle_ecology(region, plan, pop)),
            (satisfaction(region, plan, pop),
             oracles.oracle_satisfaction(region, plan, pop)),
            (inclusion(region, plan, pop),
             oracles.oracle_inclusion(region, plan, pop)),
        ]
        for got, want in pairs:
            worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - t0
    _verdict("1 metric oracle equivalence",
             worst <= 1e-12 and elapsed < 10.0,
             f"max |diff| {worst:.2e}, {elapsed:.1f} s")


def _two_resident_population(x0, y0, x1, y1, needs):
    residents = (
        Resident(0, Profile("female", "30-44", "bachelor", 2),
                 "drifter", "threshold probe", Point(x0, y0), 1, needs),
        Resident(1, Profile("male", "30-44", "bachelor", 2),
                 None, "threshold probe", Point(x1, y1), 1, needs),
    )
    return Population(residents=residents, seed=0)


def test_02_threshold_pinning(grid16, hand_plan):
    """At exactly 500.0 m not served; at 499.999 m served; ESR closed.

    Probes sit due south of the school in area 2 (x in [250, 500],
    y in [0, 250]) at (375, -500) and (375, -499.999). From there the
    school is the only relevant area anywhere near 500 m: the next
    nearest facility is the hospital at hypot(125, 500) ~ 515 m, and the
    needed park and clinic are both beyond 600 m.
    """
    needs = (LandUse.SCHOOL, LandUse.PARK, LandUse.CLINIC)
    pop = _two_resident_population(375.0, -500.0, 375.0, -499.999, needs)

    sv = service(grid16, hand_plan, pop)
    # education flips between the probes; all other categories miss both
    ok_service = abs(sv - np.mean([0.0, 1 / 5])) <= 1e-12

    sat = satisfaction(grid16, hand_plan, pop)
    ok_sat = abs(sat - np.mean([0.0, 1 / 3])) <= 1e-12

    incl = inclusion(grid16, hand_plan, pop)
    ok_incl = abs(incl - 0.0) <= 1e-12  # marginalized probe sits at 500.0

    # the ESR threshold is closed: park 9 spans y in [500, 750], so a
    # home at y=200 is exactly 300 m away and counts; 300.001 m does not
    eco_pop = _two_resident_population(125.0, 200.0, 125.0, 199.999, needs)
    eco = ecology(grid16, hand_plan, eco_pop)
    ok_eco = abs(eco - 0.5) <= 1e-12

    _verdict("2 threshold pinning",
             ok_service and ok_sat and ok_incl and ok_eco,
             f"service {sv:.6f}, satisfaction {sat:.6f}, ecology {eco:.3f}")


def test_03_constraint_satisfaction(hlg, dhm, pop_hlg, demo_spec):
    """All five planners always emit valid plans, many seeds, two regions."""
    t0 = time.perf_counter()
    pop_dhm = synthesize(demo_spec, dhm, seed=55)
    checked = 0
    all_ok = True
    for region, pop in ((hlg, pop_hlg), (dhm, pop_dhm)):
        for seed in range(100):
            config = PlannerConfig(seed=seed, max_iters=12, restarts=1)
            plans = [
                random_plan(region, config),
                centralized_plan(region, config),
                decentralized_plan(region, config),
                gsca_plan(region, pop, config),
                local_search_plan(region, pop, config),
            ]
            for plan in plans:
                checked += 1
                if not validate_plan(region, plan).ok:
                    all_ok = False
    elapsed = time.perf_counter() - t0
    _verdict("3 constraint satisfaction",
             all_ok and checked == 1000 and elapsed < 30.0,
             f"{checked} plans over 200 seeds, {elapsed:.1f} s")


def test_04_gsca_greedy_bound():
    """Greedy per-type coverage is within (1 - 1/e) of the exhaustive
    optimum; matching the optimum outright is recorded, not gated."""
    rng = np.random.default_rng(77)
    bound = 1.0 - 1.0 / math.e
    t0 = time.perf_counter()
    matches = 0
    ok_bound = True
    for _ in range(50):
        n_rows, n_cols = 3, 4  # 12 areas max
        region = _random_region(rng, n_rows, n_cols, cell_m=150.0)
        quota = int(rng.integers(1, 4))
        vacant = list(region.vacant_ids)
        if len(vacant) < quota:
            continue
        quotas = {u: 0 for u in ASSIGNABLE_USES}
        quotas[LandUse.SCHOOL] = quota
        region = _with_requirements(region, quotas)
        pop = scatter_population(region, 40, rng,
                                 needs_pool=[LandUse.SCHOOL])
        trace = gsca_trace(region, pop, PlannerConfig(seed=0))
        picks = [aid for aid, _gain in trace[LandUse.SCHOOL]]
        greedy_cov = _coverage(region, pop, picks)
        best_cov = max(
            _coverage(region, pop, combo)
            for combo in itertools.combinations(vacant, quota))
        if greedy_cov == best_cov:
            matches += 1
        if best_cov > 0 and greedy_cov < bound * best_cov - 1e-9:
            ok_bound = False
    elapsed = time.perf_counter() - t0
    rate = matches / 50
    _verdict("4 gsca greedy bound",
             ok_bound and elapsed < 60.0,
             f"optimal match rate {rate:.0%}, {elapsed:.1f} s")


def _with_requirements(region, quotas):
    import dataclasses
    return dataclasses.replace(region, requirements=quotas)


def _coverage(region, pop, area_ids):
    """Residents with a chosen area strictly within 500 m of home, by
    centroid distance (the facility-coverage convention)."""
    areas = {a.id: a for a in region.areas}
    covered = 0
    for r in pop.residents:
        for aid in area_ids:
            c = areas[aid].centroid
            if math.hypot(r.home.x - c.x, r.home.y - c.y) < 500.0:
                covered += 1
                break
    return covered


def _three_collinear_region(gaps):
    """Three 10 m cells whose centroids sit `gaps` apart on the x axis,
    plus one residential cell far north so the region validates."""
    areas = []
    x = 0.0
    positions = [0.0]
    for g in gaps:
        positions.append(positions[-1] + g)
    for i, px in enumerate(positions, start=1):
        areas.append(Area(
            id=i,
            boundary=(Point(px - 5, -5), Point(px + 5, -5),
                      Point(px + 5, 5), Point(px - 5, 5)),
            community_id=1))
    areas.append(Area(
        id=4,
        boundary=(Point(-5, 4000), Point(5, 4000),
                  Point(5, 4010), Point(-5, 4010)),
        community_id=1, fixed_use=LandUse.RESIDENTIAL))
    quotas = {u: 0 for u in ASSIGNABLE_USES}
    quotas[LandUse.SCHOOL] = 1
    region = Region(name="line", areas=tuple(areas), requirements=quotas,
                    communities=((1, "only"),))
    region.validate()
    return region


def test_05_stochastic_planner_weights():
    """Selection frequencies match the closed-form inverse-distance and
    spread weights on collinear 3-area constructions, 20000 draws."""
    n = 20000

    # centralized: first school pick has weight 1/(1 + d) to the center;
    # with centroids at x = 0, 10, 1010 the mean center sits... use an
    # explicit center so the distances are exactly 10, 100, 1000
    region = _three_collinear_region(gaps=(110.0, 900.0))
    # centroids at x = 0, 110, 1010; center at x = 10 gives distances
    # 10, 100, 1000
    center = (10.0, 0.0)
    weights = np.array([1 / (1 + 10.0), 1 / (1 + 100.0), 1 / (1 + 1000.0)])
    want = weights / weights.sum()
    counts = np.zeros(3)
    for seed in range(n):
        config = PlannerConfig(seed=seed, center=center)
        plan = centralized_plan(region, config)
        school = next(aid for aid, u in plan.assignment.items()
                      if u is LandUse.SCHOOL)
        counts[school - 1] += 1
    got = counts / n
    sigma = np.sqrt(want * (1 - want) / n)
    ok_central = bool(np.all(np.abs(got - want) <= 3 * sigma))
    central_detail = ", ".join(
        f"{g:.4f} vs {w:.4f}" for g, w in zip(got, want))

    # decentralized with a two-school quota on centroids 0, 10, 1000:
    # first pick uniform, second weighted by distance to the first.
    # Enumerating both pick orders gives the unordered-pair law:
    #   P({0,10})   = 1/3 * 10/1010 + 1/3 * 10/1000
    #   P({0,1000}) = 1/3 * 1000/1010 + 1/3 * 1000/1990
    #   P({10,1000})= 1/3 * 990/1000 + 1/3 * 990/1990
    region2 = _three_collinear_region(gaps=(10.0, 990.0))
    quotas = {u: 0 for u in ASSIGNABLE_USES}
    quotas[LandUse.SCHOOL] = 2
    region2 = _with_requirements(region2, quotas)
    want_pairs = {
        frozenset({1, 2}): (10 / 1010 + 10 / 1000) / 3,
        frozenset({1, 3}): (1000 / 1010 + 1000 / 1990) / 3,
        frozenset({2, 3}): (990 / 1000 + 990 / 1990) / 3,
    }
    pair_counts = {k: 0 for k in want_pairs}
    for seed in range(n):
        # the spread weights are raw distances; epsilon plays no part here
        config = PlannerConfig(seed=seed)
        plan = decentralized_plan(region2, config)
        schools = frozenset(aid for aid, u in plan.assignment.items()
                            if u is LandUse.SCHOOL)
        pair_counts[schools] += 1
    ok_decentral = True
    decentral_detail = []
    for key, want_p in want_pairs.items():
        got_p = pair_counts[key] / n
        sig = math.sqrt(want_p * (1 - want_p) / n)
        decentral_detail.append(f"{got_p:.4f} vs {want_p:.4f}")
        if abs(got_p - want_p) > 3 * sig:
            ok_decentral = False

    _verdict("5 stochastic planner weights",
             ok_central and ok_decentral,
             f"centralized [{central_detail}]; "
             f"decentralized [{', '.join(decentral_detail)}]")


def test_06_local_search_toy_optimality():
    """Annealing finds the exhaustive optimum on >= 18 of 20 toy
    instances. Quotas for the two types sum to the vacant count, so the
    feasible space is exactly the C(v, k) school/park splits and the
    enumeration covers every plan the search could reach."""
    rng = np.random.default_rng(4242)
    hits = 0
    for trial in range(20):
        region = _random_region(rng, 3, 3, cell_m=180.0)
        vacant = list(region.vacant_ids)
        while not 2 <= len(vacant) <= 8:
            region = _random_region(rng, 3, 3, cell_m=180.0)
            vacant = list(region.vacant_ids)
        n_school = len(vacant) // 2
        quotas = {u: 0 for u in ASSIGNABLE_USES}
        quotas[LandUse.SCHOOL] = n_school
        quotas[LandUse.PARK] = len(vacant) - n_school
        region = _with_requirements(region, quotas)
        pop = scatter_population(region, 25, rng)
        cache = ProximityIndex(region, pop.homes, REACH_M)

        best = -1.0
        for schools in itertools.combinations(vacant, n_school):
            assignment = {aid: (LandUse.SCHOOL if aid in schools
                                else LandUse.PARK)
                          for aid in vacant}
            obj = plan_objective(region, pop, Plan(assignment), cache)
            best = max(best, obj)

        config = PlannerConfig(seed=trial, max_iters=400, restarts=20)
        found_plan = local_search_plan(region, pop, config)
        found = plan_objective(region, pop, found_plan, cache)
        if found >= best - 1e-12:
            hits += 1
    _verdict("6 local search toy optimality", hits >= 18, f"{hits}/20 optimal")


def test_07_protocol_invariants(hlg, demo_spec, rule_backend):
    """Round counts, speaker caps, community confinement, quota
    preservation, and trajectory length on the 4-community fixture."""
    t0 = time.perf_counter()
    pop = synthesize(demo_spec, hlg, seed=101)
    config = DiscussionConfig(rounds=3, speakers_per_round=50, seed=101)
    initial = random_plan(hlg, PlannerConfig(seed=101))
    final, transcripts, reports = run_full_pipeline(
        hlg, pop, lambda _r: initial, rule_backend, config)
    elapsed = time.perf_counter() - t0

    ok = len(transcripts) == 4 and len(reports) == 5
    plans_by_stage = [initial]
    for t in transcripts:
        ok = ok and len(t.rounds) == 3
        for rnd in t.rounds:
            ok = ok and len(set(rnd.speaker_ids)) == len(rnd.speaker_ids)
            ok = ok and len(rnd.speaker_ids) <= 50
        # edits stay inside the community under revision
        community_ids = {a.id for a in hlg.community_areas(t.community_id)}
        ok = ok and all(aid in community_ids for aid, _u in t.final_edits.edits)
        nxt = dict(plans_by_stage[-1].assignment)
        for aid, use in t.final_edits.edits:
            nxt[aid] = use
        plans_by_stage.append(Plan(nxt))
    ok = ok and len(plans_by_stage) == 5
    for plan in plans_by_stage:
        ok = ok and validate_plan(hlg, plan).ok
    ok = ok and plans_by_stage[-1].assignment == final.assignment
    ok = ok and elapsed < 10.0
    _verdict("7 protocol invariants", ok,
             f"4 communities x 3 rounds, {elapsed:.1f} s")


def test_08_improvement_and_single_planner(hlg, demo_spec, rule_backend):
    """Final satisfaction never drops below the initial value for the
    default seeds; the single-planner ablation reproduces the initial
    metrics exactly."""
    ok = True
    details = []
    for seed in (101, 202, 303, 404, 505):
        pop = synthesize(demo_spec, hlg, seed=seed)
        config = DiscussionConfig(rounds=3, speakers_per_round=50, seed=seed)
        initial = random_plan(hlg, PlannerConfig(seed=seed))
        final, _t, reports = run_full_pipeline(
            hlg, pop, lambda _r: initial, rule_backend, config)
        first, last = reports[0].satisfaction, reports[-1].satisfaction
        details.append(f"seed {seed}: {first:.4f}->{last:.4f}")
        if last < first:
            ok = False
        _f, _t2, ablated = run_ablation(
            "single-planner", hlg, pop, lambda _r: initial, rule_backend,
            config)
        base = report(hlg, initial, pop)
        if not (ablated[0].service == base.service
                and ablated[0].ecology == base.ecology
                and ablated[0].satisfaction == base.satisfaction
                and ablated[0].inclusion == base.inclusion):
            ok = False
    _verdict("8 improvement and ablation", ok, "; ".join(details))


def test_09_reproducibility(tmp_path):
    """Two identical cmd_simulate invocations write identical bytes."""
    region = str(fixtures.data_path("hlg_like.region.json"))
    demo = str(fixtures.data_path("hlg_like.demographics.json"))
    args = ["simulate", "--region", region, "--demographics", demo,
            "--method", "random", "--rounds", "3", "--speakers", "50",
            "--seeds", "101,202"]
    a, b = tmp_path / "a", tmp_path / "b"
    code_a = main(args + ["--out", str(a)])
    code_b = main(args + ["--out", str(b)])
    same = code_a == 0 and code_b == 0
    compared = 0
    for path in sorted(a.rglob("*")):
        if path.is_dir() or path.name == "report.txt":
            continue
        other = b / path.relative_to(a)
        compared += 1
        if path.read_bytes() != other.read_bytes():
            same = False
    _verdict("9 reproducibility", same and compared >= 10,
             f"{compared} files byte-compared")


def test_10_scale_smoke(demo_spec):
    """70 areas and 10000 residents: metrics under 2 s, pipeline under
    60 s with the rule backend."""
    import dataclasses
    region = fixtures.dhm_like_region()
    spec = dataclasses.replace(demo_spec, n_agents=10000)
    pop = synthesize(spec, region, seed=1)
    plan = random_plan(region, PlannerConfig(seed=1))

    t0 = time.perf_counter()
    rep = report(region, plan, pop)
    metric_time = time.perf_counter() - t0

    backend = make_backend(BackendConfig())
    config = DiscussionConfig(rounds=3, speakers_per_round=50, seed=1)
    t0 = time.perf_counter()
    final, transcripts, reports = run_full_pipeline(
        region, pop, lambda _r: plan, backend, config)
    pipeline_time = time.perf_counter() - t0

    ok = (metric_time < 2.0 and pipeline_time < 60.0
          and len(reports) == 1 + len(region.community_ids)
          and 0.0 <= rep.satisfaction <= 1.0)
    _verdict("10 scale smoke", ok,
             f"metrics {metric_time:.2f} s, pipeline {pipeline_time:.1f} s")
