"""Plan evaluation metrics.

Four population-level scores on a (region, plan, population) triple:

- service: mean over residents of the share of service categories with
  at least one facility strictly within SERVICE_RADIUS_M of home.
- ecology: share of residents whose home lies within ESR_RADIUS_M of
  some green area (closed threshold).
- satisfaction: mean over residents of the share of their personal needs
  met strictly within SERVICE_RADIUS_M.
- inclusion: satisfaction restricted to marginalized residents.

Both radii are fixed by the paper. Strict-vs-closed thresholds are
deliberate and pinned by tests: a facility exactly at the service radius
does not count, a home exactly at the ecology radius does.

Every metric asks only whether some area lies within a radius, so
home-to-area distances are kept only up to REACH_M (ProximityIndex); a
query beyond an index's radius raises InvariantError instead of
answering from a truncated index. The index decides each radius as the
distance kernel does, from box distances on rectangular areas away from
the radius; exact distances come from the kernel on demand.

One evaluator, CoverageCounts, gives every metric, the local search
objective, gsca's gains and greedy repair's satisfaction. Residents with
the same areas in range share a coverage class (ProximityIndex.classes),
and it keeps per-class counts of the areas in range per use and of green
areas, so changing one area's use touches only that area's classes. Each
resident's service and satisfaction are gathered from its class's hits
through tables of the exact per-resident floats, so a plan scored after
a series of changes equals the same plan scored from scratch bit for
bit. The ecology share is counted from the sizes of the classes with
green in range, with no gather: it is an exact count over n. A pipeline
run builds one, which each revision edits and each stage's report reads.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from . import geometry
from .errors import InvariantError, NoMarginalized
from .population import Population
from .region import (ASSIGNABLE_USES, COORDINATE_BOUND_M, GREEN_USES,
                     USE_CODES, LandUse, Plan, Region)

#: Services count strictly within this distance of home.
SERVICE_RADIUS_M = 500.0
#: Green counts within this distance of home, inclusive.
ESR_RADIUS_M = 300.0
#: The largest radius the metrics ask about.
REACH_M = max(SERVICE_RADIUS_M, ESR_RADIUS_M)

#: Service categories and the uses that satisfy each.
SERVICE_CATEGORIES: tuple[tuple[str, tuple[LandUse, ...]], ...] = (
    ("education", (LandUse.SCHOOL,)),
    ("medical", (LandUse.HOSPITAL, LandUse.CLINIC)),
    ("working", (LandUse.OFFICE,)),
    ("shopping", (LandUse.BUSINESS,)),
    ("entertainment", (LandUse.RECREATION,)),
)

DISTANCE_MODES = ("boundary", "centroid")

#: How far from every threshold a box distance must lie to decide it, in
#: meters; ProximityIndex argues it from COORDINATE_BOUND_M.
MARGIN = 1e-5

# CoverageCounts counts one slot per assignable use, in ASSIGNABLE_USES
# order, then one for green; bit k of a class's hits is slot k.
_N_SLOTS = len(ASSIGNABLE_USES) + 1


def _slot_tables() -> tuple:
    # plain ints: the first numpy ops on these dtypes cost the process
    # about 0.3 MB of peak memory at import
    slots = [[0] * _N_SLOTS for _ in range(len(USE_CODES) + 1)]
    for k, use in enumerate(ASSIGNABLE_USES):
        slots[USE_CODES[use]][k] = 1
    for use in GREEN_USES:
        slots[USE_CODES[use]][_N_SLOTS - 1] = 1
    deltas = [[tuple((k, b - a) for k, (a, b) in enumerate(zip(old, new))
                     if a != b) for new in slots] for old in slots]
    categories = [sum(1 << ASSIGNABLE_USES.index(use) for use in uses)
                  for _, uses in SERVICE_CATEGORIES]
    category_slots = [sum(c for c in categories if c >> k & 1)
                      for k in range(len(ASSIGNABLE_USES))]
    service = [sum(1 for c in categories if hits & c) / float(len(categories))
               for hits in range(1 << _N_SLOTS)]
    in_esr = [float(hits >> (_N_SLOTS - 1)) for hits in range(1 << _N_SLOTS)]
    return (np.array(slots, dtype=np.int32),
            np.array(category_slots, dtype=np.uint16),
            np.array(service), np.array(in_esr), deltas)


#: The 0/1 slots an area gives, indexed by its use code (code -1,
#: unassigned, reads the trailing row of zeros); the slots of each
#: assignable use's service category, in ASSIGNABLE_USES order, 0 for a
#: use without one; then, indexed by the hits of a class, its share of
#: service categories in range (a category is in range when one of its
#: uses is) and 1.0 where it has green in range, else 0.0; and, as
#: _DELTAS[old][new] by use code, the (slot, +1 or -1) pairs that change
#: when an area's use goes from old to new.
_SLOTS, CATEGORY_SLOTS, _HIT_SERVICE, _HIT_IN_ESR, _DELTAS = _slot_tables()


#: Candidate pairs per block of a ProximityIndex build. Only one block's
#: pairs and ring stack are alive at a time: with 16k-pair blocks, the
#: peak RSS of a 1k-resident simulate run rose by 2.4 MB.
_BLOCK_PAIRS = 4096


def _candidate_blocks(homes: np.ndarray, boxes: np.ndarray, pad: float):
    """(home rows, int32 area positions) of every home within `pad` of an
    area's (x0, y0, x1, y1) box, area by area, in blocks of about
    _BLOCK_PAIRS pairs. The pad must exceed the radius by enough that
    rounding in the box test never drops a pair the exact distance keeps."""
    x, y = homes[:, 0], homes[:, 1]
    by_x = np.argsort(x, kind="stable")
    sorted_x, sorted_y = x[by_x], y[by_x]
    los = np.searchsorted(sorted_x, boxes[:, 0] - pad, side="left").tolist()
    his = np.searchsorted(sorted_x, boxes[:, 2] + pad, side="right").tolist()
    y_lo, y_hi = boxes[:, 1] - pad, boxes[:, 3] + pad
    block, start, pending = [], 0, 0
    for j, (lo, hi) in enumerate(zip(los, his)):
        ys = sorted_y[lo:hi]
        block.append(by_x[lo:hi][(ys >= y_lo[j]) & (ys <= y_hi[j])])
        pending += len(block[-1])
        if pending >= _BLOCK_PAIRS or j == len(los) - 1:
            yield (np.concatenate(block),
                   np.repeat(np.arange(start, j + 1, dtype=np.int32),
                             [len(b) for b in block]))
            block, start, pending = [], j + 1, 0


class ProximityIndex:
    """Home-to-area distances up to `radius`, in CSR rows per resident.

    A pair is stored when its distance is <= radius: the boundary
    distance geometry.distance_to_polygon_many gives (the kernel), or in
    centroid mode the distance to the area's centroid. Row i spans
    indptr[i]:indptr[i + 1] of `columns` (area positions in region.areas,
    ascending). Any query beyond `radius` raises InvariantError.

    Each pair keeps one float that decides every threshold in
    `thresholds`: the radius, ESR_RADIUS_M, SERVICE_RADIUS_M and
    geometry.BOUNDARY_EPS, below which the kernel gives 0. The metrics,
    invite and the build itself ask only which side of a threshold a pair
    lies on (within). The float is the kernel's distance, except on a
    boxed area: one that fills its box (Area.fills_its_box) inside
    COORDINATE_BOUND_M. There it is the box distance sqrt(gx² + gy²) of
    the gaps gx = max(x0 - x, 0, x - x1) and gy = max(y0 - y, 0, y - y1),
    the exact distance to the area up to rounding, unless that lies within
    MARGIN of a threshold; then it is the kernel's. A home with
    x0 <= x < x1 and y0 <= y < y1 keeps 0, which is the kernel's value
    too: the kernel's even-odd test is exact on such an area and holds
    there. Exact values (distances, rows) come from the kernel on demand.
    The pairs of a block of areas that need the kernel go to it together,
    one call per ring vertex count, each pair with its area's ring; each
    value equals, bit for bit, what the kernel gives for that area's ring
    alone.

    Why MARGIN suffices. Let u = 2**-53 and B = COORDINATE_BOUND_M. No home
    or vertex coordinate exceeds B in magnitude, so a pair's distance D is
    at most 3B. The box distance rounds one subtraction per gap (relative
    error u), and the squares, their sum and the square root add 2u: it is
    off by at most 3u·D <= 9u·B. On an axis-aligned edge one of the kernel's
    dx, dy is exactly 0, so its projection t is off by at most 5u relative,
    x1 + t·dx adds rounding of values up to 2B, and each of ex, ey is off by
    at most 17u·B + u·|e|; squaring, summing and the square root add 3u
    relative. Each edge's value, and so their minimum, is off by at most
    25u·B + 5u·D <= 40u·B. The two formulas differ by at most 49u·B, or
    5.5e-7 m, and MARGIN is eighteen times that: a box distance farther than
    MARGIN from a threshold lies on the kernel's side of it. A wider margin
    would cost only kernel calls.
    """

    def __init__(self, region: Region, homes: np.ndarray, radius: float,
                 mode: str = "boundary"):
        if mode not in DISTANCE_MODES:
            raise ValueError(f"unknown distance mode {mode!r}")
        if not 0.0 <= radius < np.inf:
            raise ValueError(f"index radius must be finite and >= 0, got {radius}")
        self.region = region
        self.homes = np.asarray(homes, dtype=float).reshape(-1, 2)
        if not np.all(np.abs(self.homes) <= COORDINATE_BOUND_M):
            raise ValueError(f"home coordinates must not exceed "
                             f"{COORDINATE_BOUND_M:g} m in magnitude")
        self.radius = float(radius)
        self.thresholds = (geometry.BOUNDARY_EPS, ESR_RADIUS_M,
                           SERVICE_RADIUS_M, self.radius)

        if mode == "centroid":
            centroids = np.array([a.centroid for a in region.areas]).reshape(-1, 2)
            boxes = np.hstack([centroids, centroids])
            self._boxed = np.zeros(len(region.areas), dtype=bool)
        else:
            boxes = region.area_boxes
            self._boxed = (np.array([a.fills_its_box for a in region.areas],
                                    dtype=bool)
                           & (np.abs(boxes) <= COORDINATE_BOUND_M).all(axis=1))
        # a zero-length head keeps concatenate valid when nothing is in range
        rows = [np.zeros(0, dtype=np.intp)]
        cols = [np.zeros(0, dtype=np.int32)]
        values = [np.zeros(0)]
        for r, c in _candidate_blocks(self.homes, boxes, self.radius + 1.0):
            if mode == "centroid":
                d = np.hypot(self.homes[r, 0] - centroids[c, 0],
                             self.homes[r, 1] - centroids[c, 1])
            else:
                d = self._decide(r, c, boxes)
            keep = d <= self.radius
            rows.append(r[keep])
            cols.append(c[keep])
            values.append(d[keep])
        rows, cols = np.concatenate(rows), np.concatenate(cols)
        counts = np.bincount(rows, minlength=len(self.homes))
        self.indptr = np.concatenate(([0], np.cumsum(counts)))
        # each (row, column) is one key, so any sort gives row-major order
        # with columns ascending
        rows *= len(region.areas)
        rows += cols
        by_row = np.argsort(rows)
        del rows
        self.columns = cols[by_row]
        self._values = np.concatenate(values)[by_row]

    @cached_property
    def _rings(self) -> tuple[np.ndarray, np.ndarray, dict]:
        """(vertex count of each area, its place in its stack, the rings
        with m vertices as one (m, areas, 2) stack by m)."""
        areas = self.region.areas
        groups: dict[int, list[int]] = {}
        for j, area in enumerate(areas):
            groups.setdefault(len(area.boundary), []).append(j)
        sizes = np.empty(len(areas), dtype=np.intp)
        slots = np.empty(len(areas), dtype=np.intp)
        stacks = {}
        for m, members in groups.items():
            sizes[members] = m
            slots[members] = np.arange(len(members))
            coords = np.fromiter((c for j in members
                                  for p in areas[j].boundary for c in p),
                                 dtype=float, count=2 * m * len(members))
            stacks[m] = coords.reshape(-1, m, 2).transpose(1, 0, 2)
        return sizes, slots, stacks

    def _kernel(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """The kernel's distance of each (row, area position) pair, one
        call per ring vertex count among them."""
        d = np.empty(len(rows))
        if not len(rows):
            return d
        sizes, slots, stacks = self._rings
        sizes = sizes[cols]
        for m, stack in stacks.items():
            sel = np.flatnonzero(sizes == m)
            if len(sel):
                d[sel] = geometry.distance_to_polygon_many(
                    np.take(self.homes, rows[sel], axis=0),
                    np.take(stack, slots[cols[sel]], axis=1))
        return d

    def _decide(self, r: np.ndarray, c: np.ndarray,
                boxes: np.ndarray) -> np.ndarray:
        """The float each candidate pair keeps: its box distance where that
        decides every threshold, else the kernel's distance."""
        boxed = self._boxed[c]
        if not boxed.any():
            return self._kernel(r, c)
        box = np.flatnonzero(boxed)
        # np.take: numpy 2 indexes the rows of a 2-d array several times
        # faster this way
        p = np.take(self.homes, r[box], axis=0)
        b = np.take(boxes, c[box], axis=0)
        x, y = p[:, 0], p[:, 1]
        x0, y0, x1, y1 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
        gx = np.maximum(np.maximum(x0 - x, x - x1), 0.0)
        gy = np.maximum(np.maximum(y0 - y, y - y1), 0.0)
        dist = np.sqrt(gx * gx + gy * gy)
        near = np.zeros(len(box), dtype=bool)
        for t in set(self.thresholds):
            near |= np.abs(dist - t) <= MARGIN
        # where x0 <= x < x1 and y0 <= y < y1 the kernel gives 0, as dist does
        k = np.flatnonzero(near)
        k = k[~((x0[k] <= x[k]) & (x[k] < x1[k])
                & (y0[k] <= y[k]) & (y[k] < y1[k]))]
        boxed[box[k]] = False
        d = np.empty(len(r))
        d[box] = dist
        slow = np.flatnonzero(~boxed)
        d[slow] = self._kernel(r[slow], c[slow])
        return d

    @property
    def residents(self) -> np.ndarray:
        """The row of every stored pair."""
        return np.repeat(np.arange(len(self.homes)), np.diff(self.indptr))

    def require(self, radius: float) -> None:
        """Raise unless a query up to `radius` is answered in full."""
        if not radius <= self.radius:
            raise InvariantError(
                f"query radius {radius} m exceeds the proximity index "
                f"radius {self.radius} m")

    def within(self, t: float, strict: bool = False) -> np.ndarray:
        """Whether each stored pair's distance is < t (strict) or <= t:
        the kernel's comparison, read from the kept floats. For a t not in
        `thresholds`, the boxed areas' pairs within MARGIN of t are
        checked again with the kernel."""
        self.require(t)
        v = self._values
        hit = v < t if strict else v <= t
        if t not in self.thresholds:
            k = np.flatnonzero(self._boxed[self.columns]
                               & (np.abs(v - t) <= MARGIN))
            if len(k):
                d = self._kernel(self.residents[k], self.columns[k])
                hit[k] = d < t if strict else d <= t
        return hit

    def _exact(self, rows: np.ndarray, pairs: np.ndarray) -> np.ndarray:
        """The distances of the stored pairs at `pairs`, whose rows are
        `rows`: the kept floats, the boxed areas' from one kernel call."""
        d = self._values[pairs]
        k = np.flatnonzero(self._boxed[self.columns[pairs]])
        if len(k):
            d[k] = self._kernel(rows[k], self.columns[pairs[k]])
        return d

    @property
    def distances(self) -> np.ndarray:
        """The distance of every stored pair, computed on each read."""
        return self._exact(self.residents, np.arange(len(self.columns)))

    def rows(self, residents: Sequence[int]
             ) -> list[tuple[np.ndarray, np.ndarray]]:
        """(area positions, distances) of each listed resident's stored
        pairs, from one kernel call."""
        residents = np.asarray(residents, dtype=np.intp)
        lo, hi = self.indptr[residents], self.indptr[residents + 1]
        lengths = hi - lo
        pairs = np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
        pairs += np.arange(len(pairs))
        d = self._exact(np.repeat(residents, lengths), pairs)
        cols = self.columns[pairs]
        return [(cols[end - n:end], d[end - n:end]) for end, n in
                zip(np.cumsum(lengths).tolist(), lengths.tolist())]

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """(area positions, distances) of resident i's stored pairs."""
        return self.rows([i])[0]

    @cached_property
    def classes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The residents grouped for CoverageCounts: (class of each row,
        ptr, area classes). A class holds the rows with the same areas
        strictly within SERVICE_RADIUS_M and the same areas within
        ESR_RADIUS_M inclusive, leaving out fixed areas that give no
        slot. Area j's intp classes are area_classes[ptr[2j]:ptr[2j + 2]],
        those within ESR_RADIUS_M first, up to ptr[2j + 1]."""
        self.require(REACH_M)
        fixed = self.region.fixed_codes
        gives = (fixed < 0) | _SLOTS[fixed].any(axis=1)
        keep = self.within(SERVICE_RADIUS_M, strict=True) & gives[self.columns]
        # each row's kept pairs as keys 2j (within ESR_RADIUS_M) or 2j + 1,
        # padded with 2 * areas to one width and grouped by exact bytes
        pad = 2 * len(fixed)
        keys = self.columns[keep].astype(np.min_scalar_type(pad))
        keys *= 2
        keys += ~self.within(ESR_RADIUS_M)[keep]
        lengths = np.diff(np.concatenate(
            ([0], np.cumsum(keep, dtype=np.int32)))[self.indptr])
        width = int(lengths.max(initial=0)) + 1
        table = np.full((len(lengths), width), pad, dtype=keys.dtype)
        table[np.arange(width) < lengths[:, None]] = keys
        found, class_of = np.unique(
            table.view(np.dtype((np.void, table.strides[0]))).ravel(),
            return_inverse=True)
        table = found.view(keys.dtype).reshape(len(found), width)
        filled = table != pad
        keys = table[filled]
        # intp, so that set_use indexes with a slice of it and no copy
        classes = np.repeat(np.arange(len(found), dtype=np.intp),
                            filled.sum(axis=1))
        ptr = np.concatenate(([0], np.cumsum(np.bincount(keys, minlength=pad))))
        return class_of, ptr, classes[np.argsort(keys, kind="stable")]


def needs(population: Population) -> tuple[np.ndarray, np.ndarray]:
    """(need bits, need counts) per resident: bit k is set where the
    resident needs ASSIGNABLE_USES[k], as in CoverageCounts' hits; raises
    if any resident lacks needs."""
    mask, lens = population.needs_mask
    weights = 1 << np.arange(len(ASSIGNABLE_USES))
    return (mask @ weights).astype(np.uint16), lens


class CoverageCounts:
    """Coverage of every resident under a use-code vector, kept current as
    areas change use one at a time.

    counts[k, c] is how many areas give the residents of class c
    (ProximityIndex.classes) slot k: one per use (areas strictly within
    SERVICE_RADIUS_M) and green (within ESR_RADIUS_M inclusive); `hits`
    marks the slots with counts > 0. The build takes every (area, slot)
    pair the codes give, gathers the class ranges of all pairs into one
    array and counts it with one bincount. set_use adds the two codes'
    slot difference on the area's classes; setting the old code back
    reverts it. service (share of service categories in range), in_esr
    (1.0 where some green area is in range) and satisfaction (share of the
    `needs` in range) gather each resident's value from its class's
    hits, in population order; a caller reads a subset of residents by
    indexing, as greedy repair reads satisfaction[rows]. ecology_share,
    the mean of in_esr, is counted from the class sizes (`sizes`,
    residents per class) with no gather.
    """

    def __init__(self, index: ProximityIndex, codes: np.ndarray,
                 needs: Optional[tuple[np.ndarray, np.ndarray]] = None):
        self._class_of, self._ptr, self._area_classes = index.classes
        self._needs = needs
        self._fixed = (index.region.fixed_codes >= 0).tolist()
        n = int(self._class_of.max(initial=-1)) + 1
        self.sizes = np.bincount(self._class_of, minlength=n)
        self.codes = np.array(codes, dtype=np.int8)
        # a pair counts its area's classes, the green slot only those
        # within ESR_RADIUS_M; each class is keyed by slot * n + class
        areas, slots = np.nonzero(_SLOTS[self.codes])
        lo = self._ptr[2 * areas]
        lengths = self._ptr[2 * areas + 2 - (slots == _N_SLOTS - 1)] - lo
        entries = np.repeat(lo - np.cumsum(lengths) + lengths, lengths)
        entries += np.arange(len(entries))
        keys = self._area_classes[entries] + np.repeat(slots * n, lengths)
        self.counts = np.bincount(keys, minlength=_N_SLOTS * n).astype(
            np.int32).reshape(_N_SLOTS, n)
        self.hits = (1 << np.arange(_N_SLOTS, dtype=np.uint16)) @ (
            self.counts > 0)

    @property
    def service(self) -> np.ndarray:
        return _HIT_SERVICE.take(self.hits).take(self._class_of)

    @property
    def in_esr(self) -> np.ndarray:
        return _HIT_IN_ESR.take(self.hits).take(self._class_of)

    @property
    def ecology_share(self) -> float:
        """np.mean(in_esr) bit for bit: a mean of 0.0 and 1.0 values is
        their exact count over n, here that of the green classes' sizes
        (nan when n is 0, as np.mean gives)."""
        n = len(self._class_of)
        green = int(self.sizes.dot(self.hits >> (_N_SLOTS - 1)))
        return green / n if n else np.nan

    @property
    def satisfaction(self) -> np.ndarray:
        if self._needs is None:
            raise InvariantError("satisfaction needs the residents' needs")
        need_bits, lens = self._needs
        return np.bitwise_count(self.hits.take(self._class_of) & need_bits) / lens

    def set_use(self, j: int, code: int) -> None:
        """Give area position j the use code `code`; raise InvariantError
        if its use is fixed."""
        if self._fixed[j]:
            raise InvariantError(f"area position {j} has a fixed use")
        delta = _DELTAS[self.codes[j]][code]
        self.codes[j] = code
        lo, eco, hi = self._ptr[2 * j:2 * j + 3].tolist()
        # the ecology classes come first
        classes = self._area_classes[lo:hi]
        for k, step in delta:
            near = classes[:eco - lo] if k == _N_SLOTS - 1 else classes
            count = self.counts[k]
            count[near] = after = count[near] + step
            if step > 0:
                self.hits[near] |= 1 << k
            else:
                self.hits[near[after == 0]] ^= 1 << k


def plan_coverage(region: Region, plan: Plan, population: Population,
                  cache: Optional[ProximityIndex] = None,
                  needs: Optional[tuple[np.ndarray, np.ndarray]] = None
                  ) -> CoverageCounts:
    """The plan's evaluator on `cache`, or on an index built out to
    REACH_M; satisfaction reads `needs`."""
    if cache is None:
        cache = ProximityIndex(region, population.homes, REACH_M)
    return CoverageCounts(cache, plan.use_codes(region), needs)


def service(region: Region, plan: Plan, population: Population,
            cache: Optional[ProximityIndex] = None) -> float:
    return float(np.mean(plan_coverage(region, plan, population, cache).service))


def ecology(region: Region, plan: Plan, population: Population,
            cache: Optional[ProximityIndex] = None) -> float:
    return plan_coverage(region, plan, population, cache).ecology_share


def satisfaction(region: Region, plan: Plan, population: Population,
                 cache: Optional[ProximityIndex] = None) -> float:
    return float(np.mean(plan_coverage(region, plan, population, cache,
                                       needs(population)).satisfaction))


def inclusion(region: Region, plan: Plan, population: Population,
              cache: Optional[ProximityIndex] = None) -> float:
    mask = population.marginalized_mask
    if not mask.any():
        raise NoMarginalized("population has no marginalized residents")
    cov = plan_coverage(region, plan, population, cache, needs(population))
    return float(np.mean(cov.satisfaction[mask]))


@dataclass(frozen=True)
class MetricsReport:
    service: float
    ecology: float
    satisfaction: float
    inclusion: Optional[float]

    def to_json_dict(self) -> dict:
        return {
            "service": self.service,
            "ecology": self.ecology,
            "satisfaction": self.satisfaction,
            "inclusion": self.inclusion,
        }


def report(region: Region, plan: Plan, population: Population,
           cache: Optional[ProximityIndex] = None) -> MetricsReport:
    """All four metrics from one evaluator built for the plan."""
    return coverage_report(plan_coverage(region, plan, population, cache,
                                         needs(population)), population)


def coverage_report(cov: CoverageCounts, population: Population
                    ) -> MetricsReport:
    """All four metrics of the plan `cov` holds, as means of its
    per-resident arrays, so they equal the scalar functions exactly."""
    sat = cov.satisfaction
    mask = population.marginalized_mask
    incl = float(np.mean(sat[mask])) if mask.any() else None
    return MetricsReport(
        service=float(np.mean(cov.service)),
        ecology=cov.ecology_share,
        satisfaction=float(np.mean(sat)),
        inclusion=incl,
    )


METRIC_COLUMNS = ("service", "ecology", "satisfaction", "inclusion")


def write_metrics_csv(path: Union[str, Path],
                      rows: Sequence[Mapping[str, object]],
                      keys: Sequence[str] = ("run_id", "seed", "method")
                      ) -> None:
    """One row per evaluation: the `keys` columns, then the four metrics.

    Floats are serialized with repr so reruns are byte-identical.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(tuple(keys) + METRIC_COLUMNS)
        for row in rows:
            writer.writerow([str(row.get(key, "")) for key in keys]
                            + metric_cells(row))


def metric_cells(row: Mapping[str, object]) -> list[str]:
    """The row's METRIC_COLUMNS as CSV cells: the repr of each float, so
    reruns are byte-identical, and a blank where a value is absent."""
    return ["" if row.get(col) is None else repr(float(row[col]))
            for col in METRIC_COLUMNS]
