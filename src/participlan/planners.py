"""Initial plan generators.

Five ways to produce a quota-satisfying assignment: uniform random,
center-seeking, spread-seeking, greedy coverage, and a simulated
annealing search on the service/ecology objective. All draw from
numpy Generator streams so identical configs give identical plans.
Planner-side selection weights use centroid distances throughout;
the evaluation metrics keep their own (boundary) distance semantics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import metrics as metrics_mod
from .errors import Infeasible
from .geometry import Point
from .metrics import MetricsConfig, ProximityIndex
from .population import Population
from .region import ASSIGNABLE_USES, LandUse, Plan, Region

_CANON_INDEX = {u: i for i, u in enumerate(ASSIGNABLE_USES)}

#: gsca's coverage radius, on centroid distance.
GSCA_RADIUS_M = 500.0
#: Local search's annealing temperature at the first and the last iteration.
TEMPERATURE_FIRST = 0.2
TEMPERATURE_LAST = 0.002


@dataclass(frozen=True)
class PlannerConfig:
    seed: int = 0
    epsilon_m: float = 1.0
    objective_weights: tuple[float, float] = (0.5, 0.5)
    max_iters: int = 800
    restarts: int = 3
    center: Optional[Point] = None

    def validate(self) -> None:
        if self.epsilon_m <= 0:
            raise ValueError("epsilon_m must be positive")
        w_s, w_e = self.objective_weights
        if w_s < 0 or w_e < 0 or (w_s == 0 and w_e == 0):
            raise ValueError("objective weights must be >= 0 and not both 0")
        # 0 is allowed so a zero-iteration search returns its start plan
        if self.max_iters < 0:
            raise ValueError("max_iters must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


def _check_feasible(region: Region) -> None:
    total = sum(region.requirements.values())
    if total > len(region.vacant_ids):
        raise Infeasible(
            f"requirements sum {total} exceeds {len(region.vacant_ids)} vacant areas")


def _quota_order_descending(region: Region) -> list[LandUse]:
    return sorted(ASSIGNABLE_USES,
                  key=lambda u: (-region.requirements.get(u, 0), _CANON_INDEX[u]))


def random_plan(region: Region, config: PlannerConfig = PlannerConfig()) -> Plan:
    """Quotas filled over a uniform shuffle; slack areas get uniform types."""
    config.validate()
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


def _weighted_pick(rng: np.random.Generator, ids: list[int],
                   weights: np.ndarray) -> int:
    total = float(weights.sum())
    if total <= 0.0:
        idx = int(rng.integers(len(ids)))
    else:
        idx = int(rng.choice(len(ids), p=weights / total))
    return idx


def centralized_plan(region: Region,
                     config: PlannerConfig = PlannerConfig()) -> Plan:
    """Sample areas with probability inversely proportional to the
    distance between area centroid and the region center."""
    config.validate()
    _check_feasible(region)
    rng = np.random.default_rng(config.seed)
    if config.center is not None:
        cx, cy = config.center
    else:
        cx = sum(a.centroid[0] for a in region.areas) / len(region.areas)
        cy = sum(a.centroid[1] for a in region.areas) / len(region.areas)

    ids = list(region.vacant_ids)
    weight_by_id = {
        a_id: 1.0 / (config.epsilon_m
                     + math.hypot(region.areas_by_id[a_id].centroid[0] - cx,
                                  region.areas_by_id[a_id].centroid[1] - cy))
        for a_id in ids}

    assignment: dict[int, LandUse] = {}
    remaining = {u: region.requirements.get(u, 0) for u in ASSIGNABLE_USES}
    cycle = 0
    while ids:
        use = ASSIGNABLE_USES[cycle % len(ASSIGNABLE_USES)]
        cycle += 1
        in_quota_phase = any(remaining[u] > 0 for u in ASSIGNABLE_USES)
        if in_quota_phase and remaining[use] <= 0:
            continue
        weights = np.array([weight_by_id[a] for a in ids])
        idx = _weighted_pick(rng, ids, weights)
        assignment[ids.pop(idx)] = use
        if remaining[use] > 0:
            remaining[use] -= 1
    return Plan(assignment)


def decentralized_plan(region: Region,
                       config: PlannerConfig = PlannerConfig()) -> Plan:
    """Per type: first area uniform, then proportional to the minimum
    centroid distance to areas already holding the same type."""
    config.validate()
    _check_feasible(region)
    rng = np.random.default_rng(config.seed)
    ids = list(region.vacant_ids)
    centroid = {a_id: region.areas_by_id[a_id].centroid for a_id in ids}

    assignment: dict[int, LandUse] = {}
    anchors: dict[LandUse, list[Point]] = {u: [] for u in ASSIGNABLE_USES}
    remaining = {u: region.requirements.get(u, 0) for u in ASSIGNABLE_USES}
    cycle = 0
    while ids:
        use = ASSIGNABLE_USES[cycle % len(ASSIGNABLE_USES)]
        cycle += 1
        in_quota_phase = any(remaining[u] > 0 for u in ASSIGNABLE_USES)
        if in_quota_phase and remaining[use] <= 0:
            continue
        if anchors[use]:
            weights = np.array([
                min(math.hypot(centroid[a][0] - p[0], centroid[a][1] - p[1])
                    for p in anchors[use])
                for a in ids])
            idx = _weighted_pick(rng, ids, weights)
        else:
            idx = int(rng.integers(len(ids)))
        picked = ids.pop(idx)
        assignment[picked] = use
        anchors[use].append(centroid[picked])
        if remaining[use] > 0:
            remaining[use] -= 1
    return Plan(assignment)


# ---------------------------------------------------------------------------
# Greedy coverage


def _coverage_masks(region: Region, population: Population,
                    radius: float) -> tuple[list[int], np.ndarray]:
    """(vacant ids, bool matrix[resident, vacant]) for centroid coverage."""
    index = ProximityIndex(region, population.homes, radius, mode="centroid")
    hit = index.distances < radius
    near = np.zeros((len(population), len(region.areas)), dtype=bool)
    near[index.residents[hit], index.columns[hit]] = True
    return list(region.vacant_ids), near[:, region.vacant_columns]


def _gsca_core(region: Region, population: Population):
    """Quota-phase greedy; returns (assignment, trace, leftovers, near, col_of)."""
    ids, near = _coverage_masks(region, population, GSCA_RADIUS_M)
    col_of = {a_id: j for j, a_id in enumerate(ids)}
    unassigned = list(ids)
    assignment: dict[int, LandUse] = {}
    trace: dict[LandUse, list[tuple[int, int]]] = {u: [] for u in ASSIGNABLE_USES}

    for use in _quota_order_descending(region):
        covered = np.zeros(len(population), dtype=bool)
        for _ in range(region.requirements.get(use, 0)):
            cols = np.array([col_of[a] for a in unassigned])
            gains = (near[:, cols] & ~covered[:, None]).sum(axis=0)
            # candidates are in ascending id order, so argmax takes the lowest id
            best = int(np.argmax(gains))
            picked = unassigned.pop(best)
            assignment[picked] = use
            covered |= near[:, col_of[picked]]
            trace[use].append((picked, int(gains[best])))
    return assignment, trace, unassigned, near, col_of


def _fill_max_marginal_service(assignment: dict[int, LandUse],
                               unassigned: list[int], near: np.ndarray,
                               col_of: dict[int, int]) -> None:
    """Give each leftover area the type with the largest marginal gain in
    newly served (resident, category) pairs; ties go to canonical order."""
    categories = metrics_mod.DEFAULT_SERVICE_CATEGORIES
    cat_of_use = {u: label for label, uses in categories for u in uses}
    served = {label: np.zeros(len(near), dtype=bool)
              for label, _ in categories}
    for a_id, use in assignment.items():
        label = cat_of_use.get(use)
        if label is not None:
            served[label] |= near[:, col_of[a_id]]

    for a_id in sorted(unassigned):
        reach = near[:, col_of[a_id]]
        best_use, best_gain = ASSIGNABLE_USES[0], -1
        for use in ASSIGNABLE_USES:
            label = cat_of_use.get(use)
            gain = int((reach & ~served[label]).sum()) if label is not None else 0
            if gain > best_gain:
                best_use, best_gain = use, gain
        assignment[a_id] = best_use
        label = cat_of_use.get(best_use)
        if label is not None:
            served[label] |= reach


def gsca_plan(region: Region, population: Population,
              config: PlannerConfig = PlannerConfig()) -> Plan:
    """Greedy per-type maximum coverage of residents, largest quota first;
    leftover areas are then filled by max marginal service."""
    config.validate()
    _check_feasible(region)
    assignment, _, unassigned, near, col_of = _gsca_core(region, population)
    _fill_max_marginal_service(assignment, unassigned, near, col_of)
    return Plan(assignment)


def gsca_trace(region: Region, population: Population,
               config: PlannerConfig = PlannerConfig()
               ) -> dict[LandUse, list[tuple[int, int]]]:
    """Per-type greedy picks as (area_id, newly_covered_count) sequences."""
    config.validate()
    _check_feasible(region)
    _, trace, _, _, _ = _gsca_core(region, population)
    return trace


# ---------------------------------------------------------------------------
# Local search


def plan_objective(region: Region, population: Population, plan: Plan,
                   weights: tuple[float, float] = (0.5, 0.5),
                   metrics_config: MetricsConfig = MetricsConfig(),
                   cache: Optional[ProximityIndex] = None) -> float:
    """w_service * Service + w_ecology * Ecology from one coverage pass;
    equal to the weighted metric functions."""
    cov = metrics_mod.coverage(region, population, metrics_config, cache)
    bits = cov.bits(plan)
    s = float(np.mean(cov.service(bits)))
    e = float(np.mean(cov.in_esr(bits)))
    return weights[0] * s + weights[1] * e


def _anneal(region: Region, population: Population, config: PlannerConfig,
            metrics_config: MetricsConfig, cache: ProximityIndex,
            restart: int) -> tuple[float, dict[int, LandUse]]:
    seed = config.seed + restart
    rng = np.random.default_rng(seed)
    start = random_plan(region, replace(config, seed=seed))
    current = dict(start.assignment)
    req = region.requirements
    counts = {u: 0 for u in ASSIGNABLE_USES}
    for u in current.values():
        counts[u] += 1

    def objective(a: dict[int, LandUse]) -> float:
        return plan_objective(region, population, Plan(a),
                              config.objective_weights, metrics_config, cache)

    cur_obj = objective(current)
    best, best_obj = dict(current), cur_obj
    ids = list(region.vacant_ids)
    n_iters = config.max_iters
    if n_iters <= 0:
        return best_obj, best
    ratio = TEMPERATURE_LAST / TEMPERATURE_FIRST
    for k in range(n_iters):
        temp = TEMPERATURE_FIRST * ratio ** (k / max(1, n_iters - 1))
        cand = dict(current)
        if rng.random() < 0.5 or len(ids) < 2:
            a = ids[int(rng.integers(len(ids)))]
            old = current[a]
            new = ASSIGNABLE_USES[int(rng.integers(len(ASSIGNABLE_USES)))]
            if new is old:
                continue
            if counts[old] - 1 < req.get(old, 0):
                continue
            cand[a] = new
            delta_counts = (old, new)
        else:
            i, j = rng.choice(len(ids), size=2, replace=False)
            a, b = ids[int(i)], ids[int(j)]
            if current[a] is current[b]:
                continue
            cand[a], cand[b] = current[b], current[a]
            delta_counts = None
        cand_obj = objective(cand)
        delta = cand_obj - cur_obj
        if delta >= 0 or rng.random() < math.exp(delta / temp):
            current, cur_obj = cand, cand_obj
            if delta_counts is not None:
                counts[delta_counts[0]] -= 1
                counts[delta_counts[1]] += 1
            if cur_obj > best_obj:
                best, best_obj = dict(current), cur_obj
    return best_obj, best


def local_search_plan(region: Region, population: Population,
                      config: PlannerConfig = PlannerConfig(),
                      metrics_config: MetricsConfig = MetricsConfig()) -> Plan:
    """Simulated annealing over reassignments and swaps, best plan kept
    across restarts (ties to the lowest restart index)."""
    config.validate()
    _check_feasible(region)
    cache = ProximityIndex(region, population.homes, metrics_config.reach_m)
    best_obj = -math.inf
    best: dict[int, LandUse] = {}
    for restart in range(config.restarts):
        obj, assignment = _anneal(region, population, config,
                                  metrics_config, cache, restart)
        if obj > best_obj:
            best_obj, best = obj, assignment
    return Plan(best)


PLANNER_NAMES = ("random", "centralized", "decentralized", "gsca",
                 "local-search", "llm")
