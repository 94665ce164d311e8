"""Initial plan generators.

Five ways to produce a quota-satisfying assignment: uniform random,
center-seeking, spread-seeking, greedy coverage, and a simulated
annealing search on the service/ecology objective. All draw from
numpy Generator streams so identical configs give identical plans.
Planner-side selection weights use centroid distances throughout;
the evaluation metrics keep their own (boundary) distance semantics.

Greedy coverage and local search edit the use-code vector of one
CoverageCounts, check quotas on it with quota_spare, and turn it into
a Plan once, with Plan.from_codes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import metrics as metrics_mod
from .errors import Infeasible, check_count
from .geometry import Point
from .metrics import (CATEGORY_SLOTS, REACH_M, SERVICE_RADIUS_M,
                      CoverageCounts, ProximityIndex)
from .population import Population
from .region import (ASSIGNABLE_USES, CANON_INDEX, USE_CODES, LandUse, Plan,
                     Region, quota_order, quota_spare)

#: Added to centroid distances in the centralized planner's inverse
#: weights, so an area at the center gets a finite weight.
EPSILON_M = 1.0
#: (service, ecology) weights of the local search objective.
OBJECTIVE_WEIGHTS = (0.5, 0.5)
#: Local search's annealing temperature at the first and the last iteration.
TEMPERATURE_FIRST = 0.2
TEMPERATURE_LAST = 0.002


@dataclass(frozen=True)
class PlannerConfig:
    seed: int = 0
    max_iters: int = 800
    restarts: int = 3
    center: Optional[Point] = None

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        check_count("seed", self.seed, 0)
        # 0 is allowed so a zero-iteration search returns its start plan
        check_count("max_iters", self.max_iters, 0)
        check_count("restarts", self.restarts, 1)


def _check_feasible(region: Region) -> None:
    total = sum(region.requirements.values())
    if total > len(region.vacant_ids):
        raise Infeasible(
            f"requirements sum {total} exceeds {len(region.vacant_ids)} vacant areas")


def random_plan(region: Region, config: PlannerConfig = PlannerConfig()) -> Plan:
    """Quotas filled over a uniform shuffle; slack areas get uniform types."""
    _check_feasible(region)
    rng = np.random.default_rng(config.seed)
    vacant = list(region.vacant_ids)
    order = [vacant[i] for i in rng.permutation(len(vacant))]
    assignment: dict[int, LandUse] = {}
    i = 0
    for use in ASSIGNABLE_USES:
        for _ in range(region.requirements.get(use, 0)):
            assignment[order[i]] = use
            i += 1
    while i < len(order):
        assignment[order[i]] = ASSIGNABLE_USES[int(rng.integers(len(ASSIGNABLE_USES)))]
        i += 1
    return Plan(assignment)


def _round_robin(region: Region, config: PlannerConfig,
                 weights: Callable[[LandUse, list[int], dict], np.ndarray]
                 ) -> Plan:
    """Cycle through the uses in canonical order, skipping uses whose quota
    is met while any quota is open, until every vacant area is assigned.
    Each turn samples a free area in proportion to weights(use, free ids,
    areas placed per use), uniformly if the weights sum to zero."""
    _check_feasible(region)
    rng = np.random.default_rng(config.seed)
    ids = list(region.vacant_ids)
    assignment: dict[int, LandUse] = {}
    placed: dict[LandUse, list[int]] = {u: [] for u in ASSIGNABLE_USES}
    remaining = {u: region.requirements.get(u, 0) for u in ASSIGNABLE_USES}
    cycle = 0
    while ids:
        use = ASSIGNABLE_USES[cycle % len(ASSIGNABLE_USES)]
        cycle += 1
        if remaining[use] <= 0 and any(n > 0 for n in remaining.values()):
            continue
        w = weights(use, ids, placed)
        total = float(w.sum())
        if total <= 0.0:
            idx = int(rng.integers(len(ids)))
        else:
            idx = int(rng.choice(len(ids), p=w / total))
        area_id = ids.pop(idx)
        assignment[area_id] = use
        placed[use].append(area_id)
        if remaining[use] > 0:
            remaining[use] -= 1
    return Plan(assignment)


def centralized_plan(region: Region,
                     config: PlannerConfig = PlannerConfig()) -> Plan:
    """Sample areas with probability inversely proportional to the
    distance between area centroid and the region center."""
    cx, cy = config.center if config.center is not None else region.center
    dist = {a_id: math.hypot(region.areas_by_id[a_id].centroid[0] - cx,
                             region.areas_by_id[a_id].centroid[1] - cy)
            for a_id in region.vacant_ids}
    return _round_robin(region, config, lambda use, ids, placed: 1.0 / (
        EPSILON_M + np.array([dist[a] for a in ids])))


def decentralized_plan(region: Region,
                       config: PlannerConfig = PlannerConfig()) -> Plan:
    """Per type: first area uniform, then proportional to the minimum
    centroid distance to areas already holding the same type."""
    centroid = {a.id: a.centroid for a in region.areas}

    def weights(use: LandUse, ids: list[int], placed: dict) -> np.ndarray:
        # zero until the use holds an area, which makes its first pick uniform
        return np.array([
            min((math.hypot(centroid[a][0] - centroid[b][0],
                            centroid[a][1] - centroid[b][1])
                 for b in placed[use]), default=0.0)
            for a in ids])

    return _round_robin(region, config, weights)


# ---------------------------------------------------------------------------
# Greedy coverage


def _gsca(region: Region, population: Population
          ) -> tuple[np.ndarray, dict[LandUse, list[tuple[int, int]]]]:
    """(use codes, quota-phase trace) on one CoverageCounts over the
    centroid pairs strictly within SERVICE_RADIUS_M. An area reaches the
    residents of its coverage classes, so each gain sums class sizes;
    the free areas are those with code -1."""
    index = ProximityIndex(region, population.homes, SERVICE_RADIUS_M,
                           mode="centroid")
    counts = CoverageCounts(index, region.fixed_codes)
    _, ptr, area_classes = index.classes
    sizes = counts.sizes
    ends = ptr[0::2]
    reached = np.zeros(len(area_classes) + 1, dtype=sizes.dtype)
    trace: dict[LandUse, list[tuple[int, int]]] = {u: [] for u in ASSIGNABLE_USES}

    # Quota phase: per use, largest quota first, take the free area that
    # reaches the most residents still without that use; ties go to the
    # first free area in region order.
    for use in quota_order(region.requirements):
        slot = 1 << CANON_INDEX[use]
        for _ in range(region.requirements.get(use, 0)):
            without = np.where(counts.hits & slot, 0, sizes)
            np.cumsum(without.take(area_classes), out=reached[1:])
            gains = np.diff(reached[ends])
            best = int(np.argmax(np.where(counts.codes < 0, gains, -1)))
            trace[use].append((region.areas[best].id, int(gains[best])))
            counts.set_use(best, USE_CODES[use])

    # Fill phase: in id order, each leftover area takes the use whose
    # service category is missing for the most residents it reaches; ties
    # go to canonical order, and uses without a category gain nothing.
    categorized = CATEGORY_SLOTS > 0
    for column in sorted(np.flatnonzero(counts.codes < 0),
                         key=lambda j: region.areas[j].id):
        classes = area_classes[ptr[2 * column]:ptr[2 * column + 2]]
        missing = (counts.hits[classes, None] & CATEGORY_SLOTS) == 0
        gains = sizes[classes] @ (missing & categorized)
        counts.set_use(column, USE_CODES[ASSIGNABLE_USES[int(np.argmax(gains))]])
    return counts.codes, trace


def gsca_plan(region: Region, population: Population,
              config: PlannerConfig = PlannerConfig()) -> Plan:
    """Greedy per-type maximum coverage of residents, largest quota first;
    leftover areas are then filled by max marginal service."""
    _check_feasible(region)
    return Plan.from_codes(region, _gsca(region, population)[0])


def gsca_trace(region: Region, population: Population,
               config: PlannerConfig = PlannerConfig()
               ) -> dict[LandUse, list[tuple[int, int]]]:
    """Per-type greedy picks as (area_id, newly_covered_count) sequences."""
    _check_feasible(region)
    return _gsca(region, population)[1]


# ---------------------------------------------------------------------------
# Local search


def _weighted(service: np.ndarray, ecology: float) -> float:
    """The OBJECTIVE_WEIGHTS sum of np.mean(service) and `ecology`."""
    return (OBJECTIVE_WEIGHTS[0] * float(np.mean(service))
            + OBJECTIVE_WEIGHTS[1] * ecology)


def _objective(service: np.ndarray, in_esr: np.ndarray) -> float:
    """The objective of the per-resident arrays."""
    return _weighted(service, float(np.mean(in_esr)))


def plan_objective(region: Region, population: Population, plan: Plan,
                   cache: Optional[ProximityIndex] = None) -> float:
    """The OBJECTIVE_WEIGHTS sum of Service and Ecology from one
    evaluator; equal to the weighted metric functions."""
    cov = metrics_mod.plan_coverage(region, plan, population, cache)
    return _objective(cov.service, cov.in_esr)


def _anneal(region: Region, config: PlannerConfig, cache: ProximityIndex,
            restart: int) -> tuple[float, np.ndarray]:
    """(objective, use codes) of the best plan one restart visits."""
    seed = config.seed + restart
    rng = np.random.default_rng(seed)
    start = random_plan(region, replace(config, seed=seed))
    evaluator = CoverageCounts(cache, start.use_codes(region))
    codes = evaluator.codes
    cur_obj = _weighted(evaluator.service, evaluator.ecology_share)
    best, best_obj = codes.copy(), cur_obj
    columns = region.vacant_columns.tolist()
    n_iters = config.max_iters
    ratio = TEMPERATURE_LAST / TEMPERATURE_FIRST
    for k in range(n_iters):
        temp = TEMPERATURE_FIRST * ratio ** (k / max(1, n_iters - 1))
        if rng.random() < 0.5 or len(columns) < 2:
            a = columns[int(rng.integers(len(columns)))]
            old = int(codes[a])
            new = USE_CODES[ASSIGNABLE_USES[int(rng.integers(len(ASSIGNABLE_USES)))]]
            if new == old or not quota_spare(region, codes, old):
                continue
            moves = [(a, new, old)]
        else:
            i, j = rng.choice(len(columns), size=2, replace=False)
            a, b = columns[int(i)], columns[int(j)]
            if codes[a] == codes[b]:
                continue
            moves = [(a, codes[b], codes[a]), (b, codes[a], codes[b])]
        for column, code, _ in moves:
            evaluator.set_use(column, code)
        cand_obj = _weighted(evaluator.service, evaluator.ecology_share)
        delta = cand_obj - cur_obj
        if delta >= 0 or rng.random() < math.exp(delta / temp):
            cur_obj = cand_obj
            if cur_obj > best_obj:
                best, best_obj = codes.copy(), cur_obj
        else:
            for column, _, code in moves:
                evaluator.set_use(column, code)
    return best_obj, best


def local_search_plan(region: Region, population: Population,
                      config: PlannerConfig = PlannerConfig(),
                      cache: Optional[ProximityIndex] = None) -> Plan:
    """Simulated annealing over reassignments and swaps, best plan kept
    across restarts (ties to the lowest restart index).

    Each candidate is applied to one CoverageCounts per restart, scored
    from its service and ecology share (equal to plan_objective) and set
    back if rejected. `cache` is the boundary index of the population's
    homes, reaching at least REACH_M (the one metrics.report takes), or
    None to build one. A region with no vacant area gets the empty plan."""
    _check_feasible(region)
    if not region.vacant_ids:
        return Plan({})
    if cache is None:
        cache = ProximityIndex(region, population.homes, REACH_M)
    best_obj, best = -math.inf, region.fixed_codes
    for restart in range(config.restarts):
        obj, codes = _anneal(region, config, cache, restart)
        if obj > best_obj:
            best_obj, best = obj, codes
    return Plan.from_codes(region, best)


PLANNER_NAMES = ("random", "centralized", "decentralized", "gsca",
                 "local-search", "llm")
