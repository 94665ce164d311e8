"""Independent brute-force references for the spatial metrics.

Everything here is deliberately scalar pure Python with its own geometry,
so agreement with the vectorized package code is meaningful. Keep these
functions dumb: nested loops over residents and areas, no numpy, no
imports from the package beyond reading plain attributes.

Five sections are the exception: the package's scalar and dense
distance forms that only tests use, built on its geometry module, the
rule backend's former regex read of its payload, local search's former
annealing loop, which gathered both per-resident arrays, the
population's arrays read by a walk over resident objects, and
synthesis's former home sampler, one resident at a time.
"""
from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np

from participlan import geometry, planners
from participlan.metrics import CoverageCounts
from participlan.region import ASSIGNABLE_USES, USE_CODES, quota_spare

SERVICE_CATEGORIES = {
    "education": ("school",),
    "medical": ("hospital", "clinic"),
    "working": ("office",),
    "shopping": ("business",),
    "entertainment": ("recreation",),
}

GREENS = ("park", "open_space", "green_fixed")


def seg_dist(px, py, ax, ay, bx, by):
    """Distance from (px, py) to segment (a, b), scalar math only."""
    vx, vy = bx - ax, by - ay
    wx, wy = px - ax, py - ay
    vv = vx * vx + vy * vy
    if vv == 0.0:
        return math.hypot(wx, wy)
    t = (wx * vx + wy * vy) / vv
    if t < 0.0:
        t = 0.0
    elif t > 1.0:
        t = 1.0
    return math.hypot(px - (ax + t * vx), py - (ay + t * vy))


def inside(px, py, ring):
    """Even-odd rule point-in-polygon on a list of (x, y) tuples."""
    n = len(ring)
    hit = False
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            xint = x1 + (py - y1) / (y2 - y1) * (x2 - x1)
            if px < xint:
                hit = not hit
    return hit


def poly_dist(px, py, ring):
    """Zero inside the polygon, else distance to the nearest edge."""
    n = len(ring)
    best = min(
        seg_dist(px, py, ring[i][0], ring[i][1],
                 ring[(i + 1) % n][0], ring[(i + 1) % n][1])
        for i in range(n)
    )
    if best <= 1e-9:
        return 0.0
    if inside(px, py, ring):
        return 0.0
    return best


def _ring_of(area):
    return [(p.x, p.y) for p in area.boundary]


def _use_of(area, plan):
    if area.fixed_use is not None:
        return str(area.fixed_use.value)
    assigned = plan.assignment.get(area.id)
    return None if assigned is None else str(assigned.value)


def _home_of(resident):
    return float(resident.home.x), float(resident.home.y)


def resident_area_distances(region, resident):
    px, py = _home_of(resident)
    return {area.id: poly_dist(px, py, _ring_of(area)) for area in region.areas}


def oracle_service(region, plan, population, radius=500.0):
    """Mean per-resident share of the five categories strictly < radius."""
    uses = {a.id: _use_of(a, plan) for a in region.areas}
    total = 0.0
    for resident in population.residents:
        dists = resident_area_distances(region, resident)
        got = 0
        for members in SERVICE_CATEGORIES.values():
            if any(uses[a.id] in members and dists[a.id] < radius
                   for a in region.areas):
                got += 1
        total += got / len(SERVICE_CATEGORIES)
    return total / len(population.residents)


def oracle_ecology(region, plan, population, radius=300.0):
    """Share of residents within the closed radius of any green area."""
    greens = [area for area in region.areas if _use_of(area, plan) in GREENS]
    count = 0
    for resident in population.residents:
        px, py = _home_of(resident)
        if any(poly_dist(px, py, _ring_of(g)) <= radius for g in greens):
            count += 1
    return count / len(population.residents)


def _one_satisfaction(region, plan, resident, radius):
    uses = {a.id: _use_of(a, plan) for a in region.areas}
    dists = resident_area_distances(region, resident)
    needs = [str(u.value) for u in resident.needs]
    met = 0
    for need in needs:
        if any(uses[a.id] == need and dists[a.id] < radius
               for a in region.areas):
            met += 1
    return met / len(needs)


def oracle_satisfaction(region, plan, population, radius=500.0):
    total = sum(_one_satisfaction(region, plan, r, radius)
                for r in population.residents)
    return total / len(population.residents)


def oracle_inclusion(region, plan, population, radius=500.0):
    marg = [r for r in population.residents if r.is_marginalized]
    if not marg:
        raise ValueError("no marginalized residents")
    total = sum(_one_satisfaction(region, plan, r, radius) for r in marg)
    return total / len(marg)


ASSIGNABLE = ("school", "hospital", "clinic", "business", "office",
              "recreation", "park", "open_space")


def centroid(ring):
    """Area-weighted centroid of a simple ring (shoelace sums)."""
    twice_area = cx = cy = 0.0
    for i in range(len(ring)):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % len(ring)]
        cross = x1 * y2 - x2 * y1
        twice_area += cross
        cx += (x1 + x2) * cross
        cy += (y1 + y2) * cross
    return cx / (3.0 * twice_area), cy / (3.0 * twice_area)


def oracle_gsca(region, population, radius=500.0):
    """gsca by brute force: ({area id: use}, {use: [(area id, gain)]}).

    A vacant area reaches the residents whose home is strictly within
    `radius` of its centroid. Per use, largest quota first, each pick is
    the free area reaching the most residents not yet reached by that
    use, the first in region order on a tie. Leftover areas, in id order,
    take the use whose service category the most of their residents
    still lack, the first in canonical order on a tie.
    """
    vacant = [a.id for a in region.areas if a.fixed_use is None]
    reach = {}
    for area in region.areas:
        cx, cy = centroid(_ring_of(area))
        reach[area.id] = {
            r.id for r in population.residents
            if math.hypot(_home_of(r)[0] - cx, _home_of(r)[1] - cy) < radius}
    quotas = {u.value: n for u, n in region.requirements.items()}
    order = sorted(ASSIGNABLE,
                   key=lambda u: (-quotas.get(u, 0), ASSIGNABLE.index(u)))
    assignment, trace = {}, {u: [] for u in ASSIGNABLE}
    for use in order:
        covered = set()
        for _ in range(quotas.get(use, 0)):
            best, best_gain = None, -1
            for area_id in vacant:
                gain = len(reach[area_id] - covered)
                if area_id not in assignment and gain > best_gain:
                    best, best_gain = area_id, gain
            assignment[best] = use
            covered |= reach[best]
            trace[use].append((best, best_gain))

    category_of = {u: c for c, members in SERVICE_CATEGORIES.items()
                   for u in members}
    served = {c: set() for c in SERVICE_CATEGORIES}
    for area_id, use in assignment.items():
        if use in category_of:
            served[category_of[use]] |= reach[area_id]
    for area_id in sorted(set(vacant) - set(assignment)):
        gains = [len(reach[area_id] - served[category_of[u]])
                 if u in category_of else 0 for u in ASSIGNABLE]
        use = ASSIGNABLE[gains.index(max(gains))]
        assignment[area_id] = use
        if use in category_of:
            served[category_of[use]] |= reach[area_id]
    return assignment, trace


# ---------------------------------------------------------------------------
# The package's distance forms


def distance_to_polygon(p, vertices):
    """Distance from p to the ring from the package's segment distance and
    even-odd test; 0 if inside or on the boundary."""
    n = len(vertices)
    best = min(geometry.point_segment_distance(p, vertices[i],
                                               vertices[(i + 1) % n])
               for i in range(n))
    if best <= geometry.BOUNDARY_EPS or geometry._even_odd_inside(p, vertices):
        return 0.0
    return best


def min_distance_many(points, area, mode="boundary"):
    """Each point's distance to the area: the dense kernel on its ring, or
    the distance to its centroid."""
    pts = np.asarray(points, dtype=float)
    if mode == "centroid":
        cx, cy = area.centroid
        return np.hypot(pts[:, 0] - cx, pts[:, 1] - cy)
    return geometry.distance_to_polygon_many(pts, area.boundary)


def kernel_distances(homes, region):
    """(homes, areas) array of the dense kernel's distance from each home
    to each area's ring alone: the values every index decision must
    reproduce."""
    return np.column_stack([min_distance_many(homes, area)
                            for area in region.areas])


# ---------------------------------------------------------------------------
# The rule backend's former payload read


#: The fenced-block pattern that rules.fenced_blocks replaces.
FENCE_RE = re.compile(r"```json\s*(.*?)```", re.DOTALL)


def fenced_payload(texts):
    """What the rule backend read from its user messages' texts: every
    fenced block decoded, and the last that parses, or {} if none does."""
    docs = []
    for text in texts:
        for block in FENCE_RE.findall(text):
            try:
                docs.append(json.loads(block))
            except json.JSONDecodeError:
                pass
    return docs[-1] if docs else {}


# ---------------------------------------------------------------------------
# Local search's former annealing loop


def anneal(region, config, cache, restart):
    """planners._anneal as it was before the ecology share: (objective,
    use codes) of the best plan one restart visits, each candidate scored
    by planners._objective from the evaluator's service and in_esr
    arrays."""
    seed = config.seed + restart
    rng = np.random.default_rng(seed)
    start = planners.random_plan(region, dataclasses.replace(config, seed=seed))
    evaluator = CoverageCounts(cache, start.use_codes(region))
    codes = evaluator.codes
    cur_obj = planners._objective(evaluator.service, evaluator.in_esr)
    best, best_obj = codes.copy(), cur_obj
    columns = region.vacant_columns.tolist()
    n_iters = config.max_iters
    ratio = planners.TEMPERATURE_LAST / planners.TEMPERATURE_FIRST
    for k in range(n_iters):
        temp = planners.TEMPERATURE_FIRST * ratio ** (k / max(1, n_iters - 1))
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
        cand_obj = planners._objective(evaluator.service, evaluator.in_esr)
        delta = cand_obj - cur_obj
        if delta >= 0 or rng.random() < math.exp(delta / temp):
            cur_obj = cand_obj
            if cur_obj > best_obj:
                best, best_obj = codes.copy(), cur_obj
        else:
            for column, _, code in moves:
                evaluator.set_use(column, code)
    return best_obj, best


# ---------------------------------------------------------------------------
# A population's arrays, one resident at a time


def population_arrays(residents):
    """(position by id, homes, (needs mask, needs count), marginalized
    mask) of a sequence of Resident objects, by a walk over them."""
    position_of = {}
    homes = np.zeros((len(residents), 2))
    mask = np.zeros((len(residents), len(ASSIGNABLE_USES)), dtype=bool)
    counts = np.zeros(len(residents))
    marginalized = np.zeros(len(residents), dtype=bool)
    for i, r in enumerate(residents):
        position_of[r.id] = i
        homes[i] = _home_of(r)
        for need in r.needs:
            if need in ASSIGNABLE_USES:
                mask[i, ASSIGNABLE_USES.index(need)] = True
        counts[i] = len(r.needs)
        marginalized[i] = r.background is not None
    return position_of, homes, (mask, counts), marginalized


def invite(region, residents, community_id, buffer):
    """Ids of the residents within `buffer` of an area of the community,
    in the order given."""
    rings = [_ring_of(a) for a in region.areas if a.community_id == community_id]
    return tuple(r.id for r in residents
                 if min(poly_dist(*_home_of(r), ring) for ring in rings) <= buffer)


# ---------------------------------------------------------------------------
# Synthesis's former home sampler, one resident at a time


def sample_point_in_polygon(rng, boundary):
    """A point drawn uniformly in the bounding box of `boundary`, x then
    y, until one lies in the polygon; geometry.point_in_polygon decides."""
    xs = [p[0] for p in boundary]
    ys = [p[1] for p in boundary]
    lo_x, hi_x = min(xs), max(xs)
    lo_y, hi_y = min(ys), max(ys)
    for _ in range(10_000):
        p = geometry.Point(float(rng.uniform(lo_x, hi_x)),
                           float(rng.uniform(lo_y, hi_y)))
        if geometry.point_in_polygon(p, tuple(boundary)):
            return p
    raise AssertionError("no point in the polygon after 10000 tries")
