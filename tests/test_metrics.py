import csv

import numpy as np
import pytest

from participlan.errors import NeedsMissing, NoMarginalized
from participlan.metrics import (
    METRIC_COLUMNS,
    ProximityIndex,
    ecology,
    inclusion,
    needs,
    plan_coverage,
    report,
    satisfaction,
    service,
    write_metrics_csv,
)
from participlan.planners import plan_objective
from participlan.population import Population
from participlan.region import LandUse, Plan

import oracles

# Expected values for the hand-built grid16 instance, derived by hand
# from axis-aligned rectangle distances (see conftest for the layout):
#   resident 0 at (125,125): service 4/5, not in ESR, satisfaction 2/3
#   resident 1 at (625,375): service 5/5, in ESR,     satisfaction 4/4
#   resident 2 at (375,875): service 3/5, in ESR,     satisfaction 2/3
#   resident 3 at (875,875): service 4/5, not in ESR, satisfaction 0/3
HAND_SERVICE = (4 / 5 + 1.0 + 3 / 5 + 4 / 5) / 4          # 0.8
HAND_ECOLOGY = 2 / 4                                       # 0.5
HAND_SATISFACTION = (2 / 3 + 1.0 + 2 / 3 + 0.0) / 4        # 7/12
HAND_INCLUSION = (2 / 3 + 0.0) / 2                         # residents 0 and 3


class TestHandDerivedGoldens:
    def test_service(self, grid16, hand_plan, hand_population):
        assert service(grid16, hand_plan, hand_population) \
            == pytest.approx(HAND_SERVICE, abs=1e-12)

    def test_ecology(self, grid16, hand_plan, hand_population):
        assert ecology(grid16, hand_plan, hand_population) \
            == pytest.approx(HAND_ECOLOGY, abs=1e-12)

    def test_satisfaction(self, grid16, hand_plan, hand_population):
        assert satisfaction(grid16, hand_plan, hand_population) \
            == pytest.approx(HAND_SATISFACTION, abs=1e-12)

    def test_inclusion(self, grid16, hand_plan, hand_population):
        assert inclusion(grid16, hand_plan, hand_population) \
            == pytest.approx(HAND_INCLUSION, abs=1e-12)

    def test_oracle_agrees_with_hand_numbers(self, grid16, hand_plan,
                                             hand_population):
        assert oracles.oracle_service(grid16, hand_plan, hand_population) \
            == pytest.approx(HAND_SERVICE, abs=1e-12)
        assert oracles.oracle_ecology(grid16, hand_plan, hand_population) \
            == pytest.approx(HAND_ECOLOGY, abs=1e-12)
        assert oracles.oracle_satisfaction(grid16, hand_plan, hand_population) \
            == pytest.approx(HAND_SATISFACTION, abs=1e-12)
        assert oracles.oracle_inclusion(grid16, hand_plan, hand_population) \
            == pytest.approx(HAND_INCLUSION, abs=1e-12)


def test_per_resident_vectors(grid16, hand_plan, hand_population):
    cov = plan_coverage(grid16, hand_plan, hand_population,
                        needs=needs(hand_population))
    assert cov.service == pytest.approx([0.8, 1.0, 0.6, 0.8], abs=1e-12)
    assert list(cov.in_esr) == [False, True, True, False]
    assert cov.satisfaction == pytest.approx([2 / 3, 1.0, 2 / 3, 0.0], abs=1e-12)


def test_synthesized_population_matches_oracle(grid16, hand_plan, pop_grid16):
    # the second plan leaves vacant area 9 unassigned (use code -1)
    partial = Plan({a: u for a, u in hand_plan.assignment.items() if a != 9})
    for plan in (hand_plan, partial):
        assert service(grid16, plan, pop_grid16) == pytest.approx(
            oracles.oracle_service(grid16, plan, pop_grid16), abs=1e-12)
        assert ecology(grid16, plan, pop_grid16) == pytest.approx(
            oracles.oracle_ecology(grid16, plan, pop_grid16), abs=1e-12)
        assert satisfaction(grid16, plan, pop_grid16) == pytest.approx(
            oracles.oracle_satisfaction(grid16, plan, pop_grid16), abs=1e-12)
        assert inclusion(grid16, plan, pop_grid16) == pytest.approx(
            oracles.oracle_inclusion(grid16, plan, pop_grid16), abs=1e-12)


def test_inclusion_requires_marginalized(grid16, hand_plan, hand_population):
    plain = Population(
        residents=tuple(r for r in hand_population.residents
                        if not r.is_marginalized),
        seed=0)
    with pytest.raises(NoMarginalized):
        inclusion(grid16, hand_plan, plain)


def test_satisfaction_requires_needs(grid16, hand_plan, hand_population):
    import dataclasses
    broken = Population(
        residents=tuple(dataclasses.replace(r, needs=())
                        for r in hand_population.residents),
        seed=0)
    with pytest.raises(NeedsMissing):
        satisfaction(grid16, hand_plan, broken)
    # the metrics that read no needs still answer
    assert service(grid16, hand_plan, broken) \
        == service(grid16, hand_plan, hand_population)
    assert ecology(grid16, hand_plan, broken) \
        == ecology(grid16, hand_plan, hand_population)
    assert plan_objective(grid16, broken, hand_plan) \
        == plan_objective(grid16, hand_population, hand_plan)


def test_report_aggregates_equal_per_resident_means(grid16, hand_plan,
                                                    pop_grid16):
    rep = report(grid16, hand_plan, pop_grid16)
    cov = plan_coverage(grid16, hand_plan, pop_grid16,
                        needs=needs(pop_grid16))
    srv, esr, sat = cov.service, cov.in_esr, cov.satisfaction
    assert len(srv) == len(esr) == len(sat) == len(pop_grid16)
    assert rep.service == pytest.approx(np.mean(srv), abs=0)
    assert rep.ecology == pytest.approx(np.mean(esr), abs=0)
    assert rep.satisfaction == pytest.approx(np.mean(sat), abs=0)
    doc = rep.to_json_dict()
    assert set(METRIC_COLUMNS) <= set(doc)


def test_ecology_without_fixed_green(grid16, hand_population):
    # plan with no parks or open spaces at all; grid16 has no fixed green,
    # so nobody can be in the ESR
    plan = Plan({aid: LandUse.OFFICE for aid in grid16.vacant_ids})
    assert ecology(grid16, plan, hand_population) == 0.0


def test_fixed_green_counts_with_flag(hlg, pop_hlg):
    # no park or open space is assigned, so only the fixed green stock
    # can put anyone in the ecology range
    plan = Plan({aid: LandUse.OFFICE for aid in hlg.vacant_ids})
    assert ecology(hlg, plan, pop_hlg) > 0.0


def test_distance_cache_reuse(grid16, hand_plan, pop_grid16):
    cache = ProximityIndex(grid16, pop_grid16.homes, 500.0)
    a = satisfaction(grid16, hand_plan, pop_grid16, cache=cache)
    b = satisfaction(grid16, hand_plan, pop_grid16)
    assert a == b
    assert cache.indptr.shape == (len(pop_grid16.residents) + 1,)
    assert np.all(cache.distances >= 0)
    assert np.all(cache.distances <= 500.0)
    boundary = dict(zip(zip(cache.residents.tolist(), cache.columns.tolist()),
                        cache.distances.tolist()))
    cen = ProximityIndex(grid16, pop_grid16.homes, 500.0, mode="centroid")
    assert len(cen.columns) > 0
    # boundary distance never exceeds centroid, so every centroid pair is
    # also a stored boundary pair at no larger distance
    for i, j, d in zip(cen.residents.tolist(), cen.columns.tolist(),
                       cen.distances.tolist()):
        assert d + 1e-12 >= boundary[i, j]


def test_write_metrics_csv(tmp_path):
    rows = [
        {"run_id": "abc", "seed": 1, "method": "random",
         "service": 0.5, "ecology": 0.25, "satisfaction": 1 / 3,
         "inclusion": None},
        {"run_id": "abc", "seed": "mean", "method": "random",
         "service": 0.5, "ecology": 0.25, "satisfaction": 1 / 3,
         "inclusion": 0.75},
    ]
    path = tmp_path / "metrics.csv"
    write_metrics_csv(path, rows)
    with open(path) as fh:
        got = list(csv.reader(fh))
    assert got[0] == ["run_id", "seed", "method",
                      "service", "ecology", "satisfaction", "inclusion"]
    assert got[1][3] == repr(0.5)
    assert got[1][5] == repr(1 / 3)      # full precision survives the trip
    assert got[1][6] == ""               # absent inclusion stays blank
    assert float(got[1][5]) == 1 / 3
