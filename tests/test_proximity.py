"""The radius-bounded proximity index and the coverage evaluator on it.

The index must hold exactly the (resident, area) pairs that the dense
kernel puts within its radius, and must refuse any query beyond that
radius rather than answer it from missing pairs. Box distances decide
the thresholds of rectangular areas, so every threshold test (within,
classes, invite) must still equal the kernel's comparison, and the exact
distances (distances, rows, the neighbourhood view) are the kernel's, bit
for bit. The
evaluator (CoverageCounts) must give, after any series of use changes,
what a plain OR over each resident's stored pairs gives.
"""
import numpy as np
import pytest

from participlan import fixtures, geometry, metrics
from participlan.cli import main
from participlan.discussion import invite, view_payload
from participlan.errors import InvariantError
from participlan.metrics import (
    CoverageCounts,
    ProximityIndex,
    report,
    satisfaction,
)
from participlan.planners import _objective, plan_objective
from participlan.geometry import Point
from participlan.population import Population, Profile, Resident
from participlan.region import (ASSIGNABLE_USES, COORDINATE_BOUND_M,
                                GREEN_USES, USE_CODES, Area, LandUse, Plan,
                                Region)

import oracles
from oracles import min_distance_many
from conftest import random_plan_for, scatter_population
from test_acceptance import _random_region


def _pairs(index):
    return {(int(i), int(j)): float(d) for i, j, d in
            zip(index.residents, index.columns, index.distances)}


def _homes_around(region, n, rng, margin):
    pts = np.array([p for a in region.areas for p in a.boundary])
    lo, hi = pts.min(axis=0) - margin, pts.max(axis=0) + margin
    return rng.uniform(lo, hi, size=(n, 2))


def _check_against_oracle(region, homes, radius):
    index = ProximityIndex(region, homes, radius)
    got = _pairs(index)
    want = set()
    for j, area in enumerate(region.areas):
        ring = [(p.x, p.y) for p in area.boundary]
        dense = min_distance_many(homes, area)
        for i, (x, y) in enumerate(homes):
            if oracles.poly_dist(x, y, ring) <= radius:
                want.add((i, j))
            if (i, j) in got:
                # bit-identical to the dense kernel, not merely close
                assert got[i, j] == dense[i]
    assert set(got) == want
    # rows are sorted by resident, then by area
    order = list(zip(index.residents.tolist(), index.columns.tolist()))
    assert order == sorted(order)
    assert index.indptr[-1] == len(index.columns)
    return index


@pytest.mark.parametrize("radius", [0.0, 150.0, 300.0, 500.0])
def test_index_matches_the_oracle_on_random_regions(radius):
    rng = np.random.default_rng(31337)
    for _ in range(12):
        region = _random_region(rng, int(rng.integers(2, 6)),
                                int(rng.integers(2, 6)))
        homes = _homes_around(region, 40, rng, margin=700.0)
        _check_against_oracle(region, homes, radius)


def test_index_matches_the_oracle_on_grid16(grid16, pop_grid16):
    _check_against_oracle(grid16, pop_grid16.homes, 500.0)
    rng = np.random.default_rng(5)
    _check_against_oracle(grid16, _homes_around(grid16, 200, rng, 800.0),
                          500.0)


def test_centroid_index_matches_hypot(grid16):
    rng = np.random.default_rng(8)
    homes = _homes_around(grid16, 300, rng, 600.0)
    index = ProximityIndex(grid16, homes, 400.0, mode="centroid")
    got = _pairs(index)
    want = {}
    for j, area in enumerate(grid16.areas):
        dense = min_distance_many(homes, area, "centroid")
        want.update({(i, j): float(d) for i, d in enumerate(dense)
                     if d <= 400.0})
    assert got == want


def test_radius_is_inclusive_to_the_last_micrometre(grid16):
    # area 4 is the cell [750, 1000] x [0, 250]; its east edge is x = 1000
    homes = np.array([[1500.0, 125.0], [1500.0 + 1e-6, 125.0]])
    index = ProximityIndex(grid16, homes, 500.0)
    east = [a.id for a in grid16.areas].index(4)
    assert _pairs(index) == {(0, east): 500.0}


def test_query_beyond_the_radius_raises(grid16, hand_plan, pop_grid16):
    index = ProximityIndex(grid16, pop_grid16.homes, 400.0)
    index.require(400.0)
    with pytest.raises(InvariantError):
        index.require(400.0 + 1e-9)
    with pytest.raises(InvariantError):
        index.require(float("nan"))
    # the metrics need 500 m
    with pytest.raises(InvariantError):
        satisfaction(grid16, hand_plan, pop_grid16, cache=index)
    with pytest.raises(InvariantError):
        report(grid16, hand_plan, pop_grid16, cache=index)
    with pytest.raises(InvariantError):
        plan_objective(grid16, pop_grid16, hand_plan, index)
    with pytest.raises(InvariantError):
        invite(1, grid16, pop_grid16, invite_buffer_m=450.0, cache=index)
    with pytest.raises(InvariantError):
        view_payload(pop_grid16.residents[0], grid16, hand_plan, 450.0,
                     index, 0)


def test_wider_index_gives_the_same_metrics(hlg, pop_hlg):
    rng = np.random.default_rng(12)
    plan = random_plan_for(hlg, rng)
    narrow = report(hlg, plan, pop_hlg)
    wide = report(hlg, plan, pop_hlg,
                  cache=ProximityIndex(hlg, pop_hlg.homes, 900.0))
    assert narrow == wide


def _reference(index, assignment, needs=None, rows=None):
    """(service, in_esr, satisfaction) per resident from a plain OR over
    each row's stored pairs: the uses strictly within SERVICE_RADIUS_M,
    green within ESR_RADIUS_M inclusive. Need bit k is
    ASSIGNABLE_USES[k]. Only `rows` (every resident by default), in that
    order; satisfaction is None without `needs`."""
    region = index.region
    plan = Plan(dict(assignment))
    uses = [plan.use_of(area) for area in region.areas]
    rows = range(len(index.homes)) if rows is None else rows
    near, green = [], []
    for i in rows:
        pairs = list(zip(*(a.tolist() for a in index.row(i))))
        near.append({uses[j] for j, d in pairs if d < metrics.SERVICE_RADIUS_M})
        green.append(any(uses[j] in GREEN_USES for j, d in pairs
                         if d <= metrics.ESR_RADIUS_M))
    categories = [set(members) for _, members in metrics.SERVICE_CATEGORIES]
    service = np.array([sum(1 for c in categories if c & got)
                        / float(len(categories)) for got in near])
    in_esr = np.array([1.0 if g else 0.0 for g in green])
    satisfaction = None if needs is None else np.array(
        [sum(1 for k, use in enumerate(ASSIGNABLE_USES)
             if int(needs[0][i]) >> k & 1 and use in got) / needs[1][i]
         for got, i in zip(near, rows)])
    return service, in_esr, satisfaction


def _check_against_reference(counts, index, assignment, needs=None,
                             rows=None):
    service, in_esr, sat = _reference(index, assignment, needs, rows)
    rows = slice(None) if rows is None else rows
    assert np.array_equal(counts.service[rows], service)
    assert np.array_equal(counts.in_esr[rows], in_esr)
    if needs is not None:
        assert np.array_equal(counts.satisfaction[rows], sat)
    return service, in_esr


def test_restricted_rows_match_the_full_evaluator():
    # greedy repair reads only the invited rows of the full evaluator
    rng = np.random.default_rng(77)
    region = _random_region(rng, 5, 5)
    pop = scatter_population(region, 60, rng)
    assignment = dict(random_plan_for(region, rng).assignment)
    index = ProximityIndex(region, pop.homes, 600.0)
    rows = np.array(sorted(rng.choice(len(pop), size=25, replace=False)))
    needs = metrics.needs(pop)
    counts = CoverageCounts(index, Plan(assignment).use_codes(region), needs)
    _check_against_reference(counts, index, assignment, needs, rows)
    column = dict(zip(region.vacant_ids, region.vacant_columns.tolist()))
    moves = [(a, ASSIGNABLE_USES[int(rng.integers(len(ASSIGNABLE_USES)))])
             for a in rng.choice(region.vacant_ids, size=4).tolist()]
    undo = []
    for area_id, use in moves:
        undo.append((area_id, assignment[area_id]))
        assignment[area_id] = use
        counts.set_use(column[area_id], USE_CODES[use])
        _check_against_reference(counts, index, assignment, needs, rows)
    for area_id, use in reversed(undo):
        assignment[area_id] = use
        counts.set_use(column[area_id], USE_CODES[use])
        _check_against_reference(counts, index, assignment, needs, rows)


def _check_counts(counts, region, pop, assignment, index):
    service, in_esr = _check_against_reference(counts, index, assignment,
                                               metrics.needs(pop))
    assert _objective(service, in_esr) \
        == plan_objective(region, pop, Plan(dict(assignment)), index)


@pytest.mark.parametrize("radius", [500.0, 700.0])
def test_counts_follow_moves_swaps_and_reverts(radius):
    rng = np.random.default_rng(4242)
    for _ in range(8):
        region = _random_region(rng, int(rng.integers(2, 6)),
                                int(rng.integers(2, 6)), cell_m=250.0)
        while len(region.vacant_ids) < 2:
            region = _random_region(rng, 3, 3, cell_m=250.0)
        pop = scatter_population(region, 80, rng)
        index = ProximityIndex(region, pop.homes, radius)
        assignment = dict(random_plan_for(region, rng).assignment)
        counts = CoverageCounts(index, Plan(assignment).use_codes(region),
                                metrics.needs(pop))
        column = dict(zip(region.vacant_ids, region.vacant_columns.tolist()))
        ids = list(region.vacant_ids)
        undo = []
        _check_counts(counts, region, pop, assignment, index)
        for _ in range(30):
            kind = rng.integers(3)
            if kind == 2 and undo:
                changes = undo.pop()
            elif kind == 1:
                a, b = (ids[int(i)] for i in
                        rng.choice(len(ids), size=2, replace=False))
                changes = [(a, assignment[b]), (b, assignment[a])]
                undo.append([(a, assignment[a]), (b, assignment[b])])
            else:
                a = ids[int(rng.integers(len(ids)))]
                use = ASSIGNABLE_USES[int(rng.integers(len(ASSIGNABLE_USES)))]
                changes = [(a, use)]
                undo.append([(a, assignment[a])])
            for area_id, use in changes:
                assignment[area_id] = use
                counts.set_use(column[area_id], USE_CODES[use])
            _check_counts(counts, region, pop, assignment, index)
            fresh = CoverageCounts(index, counts.codes, metrics.needs(pop))
            assert np.array_equal(counts.counts, fresh.counts)
            assert np.array_equal(counts.hits, fresh.hits)


def test_counts_keep_the_strict_and_inclusive_radii(grid16, hand_plan):
    # homes exactly 300 m and 500 m east of the cells at x in [750, 1000]
    homes = np.array([[x, y] for x in (1300.0, 1500.0)
                      for y in (125.0, 375.0, 625.0, 875.0)])
    index = ProximityIndex(grid16, homes, 500.0)
    counts = CoverageCounts(index, hand_plan.use_codes(grid16))
    assignment = dict(hand_plan.assignment)
    for area_id in (4, 8, 12):
        for use in ASSIGNABLE_USES:
            assignment[area_id] = use
            counts.set_use([a.id for a in grid16.areas].index(area_id),
                           USE_CODES[use])
            _check_against_reference(counts, index, assignment)


def test_classes_split_residents_at_the_radius_edges(grid16, hand_plan):
    # area 4 is the cell [750, 1000] x [0, 250]: homes at 500 m and 300 m
    # from it, each with neighbours one ulp away, and every neighbour sees
    # the same other areas
    xs = [1500.0, np.nextafter(1500.0, 0.0),
          1300.0, np.nextafter(1300.0, np.inf), np.nextafter(1300.0, 0.0)]
    homes = np.array([[x, 125.0] for x in xs])
    index = ProximityIndex(grid16, homes, 500.0)
    east = [a.id for a in grid16.areas].index(4)
    at = [dict(zip(*index.row(i)))[east] for i in range(len(xs))]
    assert at[0] == 500.0 and at[1] < 500.0
    assert at[3] > 300.0 and at[2] == 300.0 and at[4] < 300.0
    # strict at 500 m, inclusive at 300 m
    class_of = index.classes[0].tolist()
    assert len(set(class_of[:4])) == 4 and class_of[4] == class_of[2]
    needs = (np.full(len(xs), (1 << len(ASSIGNABLE_USES)) - 1),
             np.full(len(xs), len(ASSIGNABLE_USES)))
    counts = CoverageCounts(index, hand_plan.use_codes(grid16), needs)
    assignment = dict(hand_plan.assignment)
    for use in ASSIGNABLE_USES:
        assignment[4] = use
        counts.set_use(east, USE_CODES[use])
        _check_against_reference(counts, index, assignment, needs)


def test_classes_group_exactly_the_same_areas_in_range():
    rng = np.random.default_rng(606)
    for _ in range(6):
        region = _random_region(rng, int(rng.integers(2, 6)),
                                int(rng.integers(2, 6)), cell_m=150.0)
        homes = _homes_around(region, 300, rng, margin=400.0)
        index = ProximityIndex(region, homes, 600.0)
        silent = [a.fixed_use is LandUse.RESIDENTIAL for a in region.areas]
        signatures = []
        for i in range(len(homes)):
            signatures.append(frozenset(
                (int(j), bool(d <= metrics.ESR_RADIUS_M))
                for j, d in zip(*index.row(i))
                if d < metrics.SERVICE_RADIUS_M and not silent[j]))
        class_of, ptr, area_classes = index.classes
        # same class exactly when the same areas are in range
        pairs = set(zip(signatures, class_of.tolist()))
        assert len(pairs) == len(set(signatures)) == len(set(class_of.tolist()))
        # area j's classes, those within the ecology radius first
        for j in range(len(region.areas)):
            near = {c for sig, c in pairs if (j, True) in sig}
            far = {c for sig, c in pairs if (j, False) in sig}
            assert sorted(area_classes[ptr[2 * j]:ptr[2 * j + 1]]) == sorted(near)
            assert sorted(area_classes[ptr[2 * j + 1]:ptr[2 * j + 2]]) == sorted(far)


def _check_degenerate(region, homes, plan):
    index = ProximityIndex(region, homes, 500.0)
    needs = (np.full(len(homes), (1 << len(ASSIGNABLE_USES)) - 1,
                     dtype=np.uint16),
             np.full(len(homes), len(ASSIGNABLE_USES)))
    counts = CoverageCounts(index, plan.use_codes(region), needs)
    assignment = dict(plan.assignment)
    column = dict(zip(region.vacant_ids, region.vacant_columns.tolist()))
    _check_against_reference(counts, index, assignment, needs)
    for area_id in region.vacant_ids:
        assignment[area_id] = LandUse.PARK
        counts.set_use(column[area_id], USE_CODES[LandUse.PARK])
        _check_against_reference(counts, index, assignment, needs)
    return index, counts


def test_counts_on_an_empty_population(grid16, hand_plan):
    _, counts = _check_degenerate(grid16, np.zeros((0, 2)), hand_plan)
    assert counts.counts.shape == (len(ASSIGNABLE_USES) + 1, 0)


def test_counts_with_no_pairs_in_range(grid16, hand_plan):
    homes = np.array([[5000.0, 5000.0], [-900.0, 300.0]])
    _, counts = _check_degenerate(grid16, homes, hand_plan)
    assert counts.service.tolist() == [0.0, 0.0]


def test_counts_see_only_a_residential_area():
    # cells of 1 km: homes near the west residential cell are more than
    # 500 m from both vacant cells
    region = fixtures.make_grid_region(
        "lone", 1, 3, 1000.0, [(0, 0)], [], {u: 0 for u in ASSIGNABLE_USES},
        lambda row, col: 1, {1: "lone"})
    homes = np.array([[100.0, 500.0], [300.0, 200.0], [-200.0, 900.0]])
    plan = Plan({2: LandUse.SCHOOL, 3: LandUse.OFFICE})
    index, counts = _check_degenerate(region, homes, plan)
    assert index.columns.tolist() == [0, 0, 0]
    assert len(set(index.classes[0].tolist())) == 1
    # a fixed area keeps its use
    with pytest.raises(InvariantError):
        counts.set_use(0, USE_CODES[LandUse.PARK])


def _check_share(counts, index):
    """The ecology share is np.mean(in_esr) bit for bit, and counts and
    hits equal a fresh build of the same codes."""
    assert counts.ecology_share == np.mean(counts.in_esr)
    fresh = CoverageCounts(index, counts.codes)
    assert np.array_equal(counts.counts, fresh.counts)
    assert np.array_equal(counts.hits, fresh.hits)


@pytest.mark.parametrize("radius", [500.0, 700.0])
def test_ecology_share_follows_a_random_walk(radius):
    # each step sets an assignable use, -1 (unassigned) or the area's own
    # code
    rng = np.random.default_rng(1618)
    for _ in range(6):
        region = _random_region(rng, int(rng.integers(2, 6)),
                                int(rng.integers(2, 6)), cell_m=250.0)
        while not region.vacant_ids:
            region = _random_region(rng, 3, 3, cell_m=250.0)
        pop = scatter_population(region, 80, rng)
        index = ProximityIndex(region, pop.homes, radius)
        counts = CoverageCounts(
            index, random_plan_for(region, rng).use_codes(region))
        columns = region.vacant_columns.tolist()
        _check_share(counts, index)
        for _ in range(40):
            j = columns[int(rng.integers(len(columns)))]
            codes = [USE_CODES[u] for u in ASSIGNABLE_USES]
            codes += [-1, int(counts.codes[j])]
            counts.set_use(j, codes[int(rng.integers(len(codes)))])
            _check_share(counts, index)


def test_set_use_edge_moves_match_a_fresh_build(grid16, hand_plan,
                                                pop_grid16):
    # the same code, to and from -1, and park <-> open space, which
    # leaves every green count as it was
    index = ProximityIndex(grid16, pop_grid16.homes, 500.0)
    counts = CoverageCounts(index, hand_plan.use_codes(grid16))
    park, open_space = USE_CODES[LandUse.PARK], USE_CODES[LandUse.OPEN_SPACE]
    green = counts.counts[len(ASSIGNABLE_USES)]
    for j in grid16.vacant_columns.tolist():
        for code in (int(counts.codes[j]), -1, -1, park, open_space, park):
            was, before = int(counts.codes[j]), green.copy()
            counts.set_use(j, code)
            _check_share(counts, index)
            if {was, code} == {park, open_space}:
                assert np.array_equal(green, before)


def test_ecology_share_on_an_empty_population(grid16, hand_plan):
    counts = CoverageCounts(ProximityIndex(grid16, np.zeros((0, 2)), 500.0),
                            hand_plan.use_codes(grid16))
    with pytest.warns(RuntimeWarning):
        assert np.isnan(np.mean(counts.in_esr))
    assert np.isnan(counts.ecology_share)


def test_empty_population_builds_an_empty_index():
    region = fixtures.grid16_region()
    index = ProximityIndex(region, np.zeros((0, 2)), 500.0)
    assert index.indptr.tolist() == [0]
    assert len(index.columns) == len(index.distances) == 0


def _odd_shapes_region():
    """Triangles, L, U, pentagon and sliver areas (3 to 8 vertices) around a
    3 km L-shaped lot, so that the build makes one kernel call per vertex
    count."""
    shapes = (
        [(0, 0), (300, 0), (0, 200)],
        [(0, 0), (200, 0), (200, 60), (60, 60), (60, 250), (0, 250)],
        [(0, 0), (300, 0), (300, 300), (220, 300), (220, 80), (80, 80),
         (80, 300), (0, 300)],
        [(0, 0), (200, 0), (260, 120), (100, 220), (-60, 120)],
        [(0, 0), (900, 700), (895, 700)],
    )
    rings = [[(3200.0 + 700.0 * (k // 4) + x, 700.0 * (k % 4) + y)
              for x, y in shapes[k % len(shapes)]] for k in range(15)]
    rings.append([(0.0, 0.0), (3000.0, 0.0), (3000.0, 1000.0),
                  (1000.0, 1000.0), (1000.0, 3000.0), (0.0, 3000.0)])
    areas = tuple(
        Area(k + 1, tuple(Point(x, y) for x, y in ring), community_id=1,
             fixed_use=LandUse.RESIDENTIAL if k % 4 == 0 else None)
        for k, ring in enumerate(rings))
    region = Region(name="odd_shapes", areas=areas, requirements={},
                    communities=((1, "odd"),))
    return region, rings


@pytest.mark.parametrize("tiny", [False, True])
def test_index_matches_the_oracle_on_odd_shapes(monkeypatch, tiny):
    region, rings = _odd_shapes_region()
    rng = np.random.default_rng(2718)
    homes = _homes_around(region, 1500, rng, margin=600.0)
    # every vertex, every edge midpoint, and the lot's deep inside
    ends = [(ring[i], ring[(i + 1) % len(ring)])
            for ring in rings for i in range(len(ring))]
    homes = np.vstack([homes, [a for a, _ in ends],
                       [((a[0] + b[0]) / 2, (a[1] + b[1]) / 2) for a, b in ends],
                       [(550.0, 550.0), (2500.0, 400.0)]])
    if tiny:
        monkeypatch.setattr(metrics, "_BLOCK_PAIRS", 100)
        monkeypatch.setattr(geometry, "KERNEL_CHUNK", 200)
        # several blocks of areas, and kernel calls of several passes each
        blocks = list(metrics._candidate_blocks(homes, region.area_boxes, 501.0))
        assert len(blocks) >= 5
        assert max(len(r) for r, _ in blocks) > 200
    for radius in (0.0, 300.0, 500.0):
        index = _check_against_oracle(region, homes, radius)
        # the lot's deep inside is more than the radius from its edges
        areas, dists = index.row(len(homes) - 2)
        assert areas.tolist() == [len(rings) - 1] and dists.tolist() == [0.0]


# Box distances decide thresholds; the kernel decides near them.

#: Every distance the threshold tests place homes at: the kernel's snap
#: to 0, the two metric radii, an invite buffer the index does not know
#: (450 m) and the index radius.
_PLACED = (0.0, geometry.BOUNDARY_EPS, metrics.ESR_RADIUS_M, 450.0,
           metrics.SERVICE_RADIUS_M, 700.0)


def _translated(region, dx, dy):
    areas = tuple(Area(a.id, tuple(Point(x + dx, y + dy) for x, y in a.boundary),
                       a.community_id, a.fixed_use) for a in region.areas)
    return Region(region.name, areas, region.requirements, region.communities)


def _ulps(v):
    """v and its neighbours one and two ulps away on each side."""
    down = np.nextafter(v, -np.inf)
    up = np.nextafter(v, np.inf)
    return [np.nextafter(down, -np.inf), down, v, up, np.nextafter(up, np.inf)]


def _threshold_homes(x0, y0):
    """Homes on grid16 moved by (x0, y0), at each _PLACED distance and
    +-1, +-2 ulps of it: east of the east edge, north of the north edge
    and diagonally off the north-east corner."""
    homes = []
    for d in _PLACED:
        homes += [(x, y0 + 125.0) for x in _ulps(x0 + 1000.0 + d)]
        homes += [(x0 + 125.0, y) for y in _ulps(y0 + 1000.0 + d)]
        homes += [(x, x - x0 + y0) for x in _ulps(x0 + 1000.0 + d / np.sqrt(2))]
    return np.array(homes)


def _resident_at(i, home):
    return Resident(id=i, profile=Profile("female", "30-44", "bachelor", "2"),
                    background=None, description="probe", home=Point(*home),
                    home_area_id=1, needs=(LandUse.SCHOOL,))


@pytest.mark.parametrize("shift", [0.0, 1e6, COORDINATE_BOUND_M - 2000.0],
                         ids=["origin", "1e6", "bound"])
def test_thresholds_are_decided_as_the_kernel_decides(grid16, hand_plan,
                                                      shift, monkeypatch):
    region = _translated(grid16, shift, shift)
    homes = _threshold_homes(shift, shift)
    assert np.abs(homes).max() <= COORDINATE_BOUND_M
    kernel = oracles.kernel_distances(homes, region)
    calls = _count_kernel_pairs(monkeypatch)
    index = ProximityIndex(region, homes, 700.0)
    # the build sends the candidate pairs near a threshold it decides,
    # except homes inside the half-open box, where both give 0
    decided = (geometry.BOUNDARY_EPS, metrics.ESR_RADIUS_M,
               metrics.SERVICE_RADIUS_M, 700.0)
    boxes = region.area_boxes
    sent = 0
    for r, c in metrics._candidate_blocks(homes, boxes, 701.0):
        p, b = homes[r], boxes[c]
        inside = ((b[:, :2] <= p) & (p < b[:, 2:])).all(axis=1)
        sent += int((_near_a_threshold(kernel[r, c], decided)
                     & ~inside).sum())
    assert sum(n for n, _ in calls) == sent > 0
    # membership, and every stored distance bit for bit
    assert set(zip(index.residents.tolist(), index.columns.tolist())) \
        == set(zip(*(a.tolist() for a in np.nonzero(kernel <= 700.0))))
    exact = kernel[index.residents, index.columns]
    assert np.array_equal(index.distances, exact)
    del calls[:]
    for t in _PLACED:
        assert np.array_equal(index.within(t), exact <= t)
        assert np.array_equal(index.within(t, strict=True), exact < t)
    # only a threshold the build did not decide calls the kernel, for the
    # pairs within MARGIN of it
    assert sum(n for n, _ in calls) == 2 * sum(
        int((np.abs(exact - t) <= metrics.MARGIN).sum())
        for t in _PLACED if t not in decided)
    del calls[:]
    # classes: same class exactly when the same areas are in range
    silent = [a.fixed_use is LandUse.RESIDENTIAL for a in region.areas]
    signatures = [frozenset((j, bool(d <= metrics.ESR_RADIUS_M))
                            for j, d in enumerate(row)
                            if d < metrics.SERVICE_RADIUS_M and not silent[j])
                  for row in kernel]
    class_of = index.classes[0].tolist()
    assert len(set(zip(signatures, class_of))) == len(set(signatures)) \
        == len(set(class_of))
    # invite, at the index radius and at a buffer the index does not know
    population = Population(tuple(_resident_at(i, h)
                                  for i, h in enumerate(homes.tolist())), 0)
    for buffer in (450.0, 700.0):
        assert invite(1, region, population, buffer, cache=index) \
            == tuple(np.flatnonzero((kernel <= buffer).any(axis=1)).tolist())
    # each view row, read alone or from one call for every row
    rows = index.rows(range(len(homes)))
    for i, resident in enumerate(population.residents):
        view = view_payload(resident, region, hand_plan,
                            metrics.SERVICE_RADIUS_M, index, i)
        assert [(e["distance_m"], e["area_id"]) for e in view] == sorted(
            (float(d), region.areas[j].id) for j, d in enumerate(kernel[i])
            if d <= metrics.SERVICE_RADIUS_M)
        assert view_payload(resident, region, hand_plan,
                            metrics.SERVICE_RADIUS_M, index, i, rows[i]) == view


def _count_kernel_pairs(monkeypatch):
    """[(points, ring vertex count)] of every kernel call from now on."""
    calls = []
    kernel = geometry.distance_to_polygon_many

    def counted(points, vertices):
        calls.append((len(points), len(vertices)))
        return kernel(points, vertices)

    monkeypatch.setattr(geometry, "distance_to_polygon_many", counted)
    return calls


def _near_a_threshold(kernel, thresholds):
    return (np.abs(kernel[..., None] - np.array(thresholds))
            <= metrics.MARGIN).any(axis=-1)


def test_rectangles_away_from_thresholds_need_no_kernel(hlg, pop_hlg,
                                                        monkeypatch):
    kernel = oracles.kernel_distances(pop_hlg.homes, hlg)
    # every home is inside its own cell, and no other pair is near a
    # threshold the build decides
    assert not (_near_a_threshold(kernel, (geometry.BOUNDARY_EPS,
                                           metrics.ESR_RADIUS_M,
                                           metrics.REACH_M))
                & (kernel > 0.0)).any()
    calls = _count_kernel_pairs(monkeypatch)
    index = ProximityIndex(hlg, pop_hlg.homes, metrics.REACH_M)
    index.classes
    assert calls == []
    # exact values come from the kernel on demand
    assert np.array_equal(index.distances,
                          kernel[index.residents, index.columns])
    assert calls == [(len(index.columns), 4)]


def test_odd_shapes_send_every_candidate_pair_to_the_kernel(monkeypatch):
    odd, _ = _odd_shapes_region()
    boxes = [[(5000.0 + 400.0 * k, 0.0), (5300.0 + 400.0 * k, 0.0),
              (5300.0 + 400.0 * k, 200.0), (5000.0 + 400.0 * k, 200.0)]
             for k in range(3)]
    areas = odd.areas + tuple(
        Area(len(odd.areas) + k + 1, tuple(Point(*p) for p in ring), 1)
        for k, ring in enumerate(boxes))
    region = Region("odd_and_boxes", areas, {}, odd.communities)
    rng = np.random.default_rng(99)
    homes = _homes_around(region, 1500, rng, margin=600.0)
    kernel = oracles.kernel_distances(homes, region)
    rectangle = np.array([a.fills_its_box for a in areas])
    assert rectangle.sum() == 3
    assert not (_near_a_threshold(kernel, (geometry.BOUNDARY_EPS,
                                           metrics.ESR_RADIUS_M,
                                           metrics.SERVICE_RADIUS_M))
                & (kernel > 0.0))[:, rectangle].any()
    candidates = sum(int((~rectangle[c]).sum()) for _, c in
                     metrics._candidate_blocks(homes, region.area_boxes,
                                               metrics.SERVICE_RADIUS_M + 1.0))
    calls = _count_kernel_pairs(monkeypatch)
    index = ProximityIndex(region, homes, metrics.SERVICE_RADIUS_M)
    assert sum(n for n, _ in calls) == candidates
    assert 4 not in {m for _, m in calls}
    assert np.array_equal(index.distances,
                          kernel[index.residents, index.columns])


def test_runs_read_exact_distances_once_per_round(tmp_path, monkeypatch):
    calls = _count_kernel_pairs(monkeypatch)
    building = []
    init = ProximityIndex.__init__

    def build(self, *args, **kwargs):
        building.append(len(calls))
        init(self, *args, **kwargs)
        building.append(len(calls))

    monkeypatch.setattr(ProximityIndex, "__init__", build)
    # nothing in a run reads every stored pair's exact distance
    monkeypatch.setattr(ProximityIndex, "distances", property(
        lambda self: pytest.fail("a run read ProximityIndex.distances")))
    inputs = ["--region", str(fixtures.data_path("hlg_like.region.json")),
              "--demographics",
              str(fixtures.data_path("hlg_like.demographics.json")),
              "--seeds", "101"]

    def outside_builds():
        return len(calls) - sum(b - a for a, b in
                                zip(building[::2], building[1::2]))

    # plan asks only which side of a radius each pair lies on
    for method in ("local-search", "gsca"):
        assert main(["plan", "--method", method, *inputs,
                     "--out", str(tmp_path / method)]) == 0
    assert outside_builds() == 0
    assert main(["simulate", "--method", "random", "--rounds", "2",
                 "--speakers", "5", *inputs,
                 "--out", str(tmp_path / "simulate")]) == 0
    # four communities, two rounds each: one call per round's speakers
    assert outside_builds() == 4 * 2
