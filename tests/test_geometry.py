import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from participlan.geometry import (
    COMPASS_LABELS,
    KERNEL_CHUNK,
    Point,
    compass_label,
    distance_to_polygon_many,
    is_simple_polygon,
    point_in_polygon,
    point_segment_distance,
    polygon_area,
    polygon_centroid,
    polygon_signed_area,
)
from oracles import distance_to_polygon, poly_dist, seg_dist

UNIT_SQUARE = (Point(0, 0), Point(10, 0), Point(10, 10), Point(0, 10))


def test_signed_area_orientation():
    assert polygon_signed_area(UNIT_SQUARE) == pytest.approx(100.0)
    clockwise = tuple(reversed(UNIT_SQUARE))
    assert polygon_signed_area(clockwise) == pytest.approx(-100.0)
    assert polygon_area(clockwise) == pytest.approx(100.0)


def test_centroid_of_square():
    cx, cy = polygon_centroid(UNIT_SQUARE)
    assert (cx, cy) == pytest.approx((5.0, 5.0))


def test_point_in_polygon_basics():
    assert point_in_polygon(Point(5, 5), UNIT_SQUARE)
    assert not point_in_polygon(Point(15, 5), UNIT_SQUARE)
    # boundary counts as inside
    assert point_in_polygon(Point(10, 5), UNIT_SQUARE)
    assert point_in_polygon(Point(0, 0), UNIT_SQUARE)


def test_distance_zero_inside_positive_outside():
    assert distance_to_polygon(Point(5, 5), UNIT_SQUARE) == 0.0
    assert distance_to_polygon(Point(13, 5), UNIT_SQUARE) == pytest.approx(3.0)
    assert distance_to_polygon(Point(13, 14), UNIT_SQUARE) == pytest.approx(5.0)


def test_segment_distance_endpoints_and_projection():
    assert point_segment_distance(Point(0, 5), Point(1, 0), Point(3, 0)) \
        == pytest.approx(math.hypot(1, 5))
    assert point_segment_distance(Point(2, 5), Point(1, 0), Point(3, 0)) \
        == pytest.approx(5.0)
    # degenerate segment
    assert point_segment_distance(Point(2, 2), Point(1, 1), Point(1, 1)) \
        == pytest.approx(math.sqrt(2))


coords = st.floats(min_value=-50.0, max_value=50.0,
                   allow_nan=False, allow_infinity=False)


@given(px=coords, py=coords, ax=coords, ay=coords, bx=coords, by=coords)
@settings(max_examples=200)
def test_segment_distance_matches_oracle(px, py, ax, ay, bx, by):
    got = point_segment_distance(Point(px, py), Point(ax, ay), Point(bx, by))
    want = seg_dist(px, py, ax, ay, bx, by)
    assert got == pytest.approx(want, abs=1e-9)


@given(px=coords, py=coords)
@settings(max_examples=300)
def test_polygon_distance_matches_oracle(px, py):
    ring = [(p.x, p.y) for p in UNIT_SQUARE]
    got = distance_to_polygon(Point(px, py), UNIT_SQUARE)
    want = poly_dist(px, py, ring)
    assert got == pytest.approx(want, abs=1e-9)


def test_vectorized_distance_matches_scalar():
    rng = np.random.default_rng(5)
    pts = rng.uniform(-30, 40, size=(100, 2))
    many = distance_to_polygon_many(pts, UNIT_SQUARE)
    for k in range(len(pts)):
        single = distance_to_polygon(Point(*pts[k]), UNIT_SQUARE)
        assert many[k] == pytest.approx(single, abs=1e-12)


def _reference_distance_many(pts, ring):
    """distance_to_polygon_many for one ring as (points, edges, 2) arrays,
    with sqrt before the edge-wise min."""
    a = np.asarray(ring, dtype=float)
    b = np.roll(a, -1, axis=0)
    ab = b - a
    ab2 = (ab * ab).sum(axis=1)
    ap = pts[:, None, :] - a[None, :, :]
    t = (ap * ab[None, :, :]).sum(axis=2) / np.where(ab2 > 0.0, ab2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    diff = pts[:, None, :] - (a[None, :, :] + t[:, :, None] * ab[None, :, :])
    d = np.sqrt((diff * diff).sum(axis=2)).min(axis=1)
    x, y = pts[:, 0][:, None], pts[:, 1][:, None]
    x1, y1 = a[:, 0][None, :], a[:, 1][None, :]
    x2, y2 = b[:, 0][None, :], b[:, 1][None, :]
    crosses = (y1 > y) != (y2 > y)
    denom = np.where(y2 - y1 == 0.0, 1.0, y2 - y1)
    xint = x1 + (y - y1) * (x2 - x1) / denom
    inside = ((crosses & (x < xint)).sum(axis=1) % 2) == 1
    return np.where(inside | (d <= 1e-9), 0.0, d)


def test_ring_stack_equals_the_per_ring_calls():
    # five-vertex rings: one with a zero-length edge, one with a horizontal
    # edge, and random ones; more points than one kernel pass takes. Each
    # value must also equal the (points, edges, 2) formula bit for bit.
    rng = np.random.default_rng(19)
    rings = [
        [(0, 0), (0, 0), (40, 5), (30, 40), (-10, 25)],
        [(0, 0), (50, 0), (50, 30), (20, 30), (0, 45)],
        *(rng.uniform(-60, 60, size=(5, 2)).round(1) for _ in range(4)),
    ]
    rings = np.array(rings, dtype=float)
    pts = rng.uniform(-80, 80, size=(9000, 2))
    which = rng.integers(len(rings), size=len(pts))
    # some points on a vertex and on an edge of their own ring
    on = rng.integers(len(pts), size=500)
    k = rng.integers(5, size=len(on))
    a, b = rings[which[on], k], rings[which[on], (k + 1) % 5]
    pts[on[:250]] = a[:250]
    pts[on[250:]] = (a[250:] + b[250:]) / 2

    got = distance_to_polygon_many(pts, rings[which].transpose(1, 0, 2))
    assert len(pts) > 2 * KERNEL_CHUNK // 5  # several passes of the kernel
    for r, ring in enumerate(rings):
        mine = which == r
        want = distance_to_polygon_many(pts[mine], ring)
        assert got[mine].tobytes() == want.tobytes()
        assert want.tobytes() == _reference_distance_many(pts[mine], ring).tobytes()
    assert (got[on[:250]] == 0.0).all()


def test_simple_polygon_detection():
    assert is_simple_polygon(UNIT_SQUARE)
    bowtie = (Point(0, 0), Point(10, 10), Point(10, 0), Point(0, 10))
    assert not is_simple_polygon(bowtie)


@pytest.mark.parametrize("dx,dy,label", [
    (0, 1, "N"), (1, 1, "NE"), (1, 0, "E"),
    (1, -1, "SE"), (0, -1, "S"), (-1, -1, "SW"),
    (-1, 0, "W"), (-1, 1, "NW"),
])
def test_compass_labels(dx, dy, label):
    assert compass_label(dx, dy) == label
    assert label in COMPASS_LABELS
