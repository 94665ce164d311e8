"""Planar polygon primitives.

All coordinates are local projected meters. A polygon is a simple ring given
as a sequence of (x, y) vertices without a repeated closing vertex.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np


class Point(NamedTuple):
    x: float
    y: float

# Distances below this are treated as "on the boundary".
BOUNDARY_EPS = 1e-9

COMPASS_LABELS = ("N", "NE", "E", "SE", "S", "SW", "W", "NW")


def polygon_signed_area(vertices) -> float:
    total = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        total += x1 * y2 - x2 * y1
    return 0.5 * total


def polygon_area(vertices) -> float:
    return abs(polygon_signed_area(vertices))


def polygon_centroid(vertices) -> Point:
    """Area-weighted centroid; may fall outside a non-convex ring."""
    a = polygon_signed_area(vertices)
    if abs(a) < BOUNDARY_EPS:
        xs = [v[0] for v in vertices]
        ys = [v[1] for v in vertices]
        return Point(sum(xs) / len(xs), sum(ys) / len(ys))
    cx = cy = 0.0
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        cross = x1 * y2 - x2 * y1
        cx += (x1 + x2) * cross
        cy += (y1 + y2) * cross
    return Point(cx / (6.0 * a), cy / (6.0 * a))


def point_segment_distance(p: Point, a: Point, b: Point) -> float:
    px, py = p
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    seg2 = dx * dx + dy * dy
    if seg2 <= 0.0:
        return math.hypot(px - ax, py - ay)
    t = ((px - ax) * dx + (py - ay) * dy) / seg2
    t = min(1.0, max(0.0, t))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


def _even_odd_inside(p: Point, vertices) -> bool:
    px, py = p
    inside = False
    n = len(vertices)
    for i in range(n):
        x1, y1 = vertices[i]
        x2, y2 = vertices[(i + 1) % n]
        if (y1 > py) != (y2 > py):
            xint = x1 + (py - y1) * (x2 - x1) / (y2 - y1)
            if px < xint:
                inside = not inside
    return inside


def point_in_polygon(p: Point, vertices) -> bool:
    """True if p is strictly inside or on the boundary of the ring."""
    n = len(vertices)
    for i in range(n):
        if point_segment_distance(p, vertices[i], vertices[(i + 1) % n]) <= BOUNDARY_EPS:
            return True
    return _even_odd_inside(p, vertices)


#: (point, edge) values per pass of distance_to_polygon_many: its (edges,
#: points) temporaries stay in cache, and add little to peak memory.
KERNEL_CHUNK = 4096


def distance_to_polygon_many(points: np.ndarray, vertices) -> np.ndarray:
    """Euclidean distance from each of an (n, 2) array of points to a
    ring; 0 inside or on the boundary.

    `vertices` is one (m, 2) ring for every point, or an (m, n, 2) stack
    that gives point k the ring vertices[:, k]. Either way len(vertices)
    is the edge count, and each (point, edge) value comes from the same
    float operations. The points are taken KERNEL_CHUNK // m at a time.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    v = np.asarray(vertices, dtype=float)
    shared = v.ndim == 2
    if shared:
        v = v[:, None, :]
    out = np.empty(len(pts))
    step = max(1, KERNEL_CHUNK // len(v))
    for lo in range(0, len(pts), step):
        hi = lo + step
        out[lo:hi] = _ring_distance(pts[lo:hi], v if shared else v[:, lo:hi])
    return out


def _ring_distance(pts: np.ndarray, a: np.ndarray) -> np.ndarray:
    # edges run along axis 0 of a; its axis 1 is one per point or shared
    b = np.roll(a, -1, axis=0)
    x, y = pts[:, 0], pts[:, 1]
    x1, y1, x2, y2 = a[..., 0], a[..., 1], b[..., 0], b[..., 1]
    dx, dy = x2 - x1, y2 - y1
    ab2 = dx * dx + dy * dy
    t = ((x - x1) * dx + (y - y1) * dy) / np.where(ab2 > 0.0, ab2, 1.0)
    t = np.clip(t, 0.0, 1.0)
    ex, ey = x - (x1 + t * dx), y - (y1 + t * dy)
    # sqrt is monotone and correctly rounded, so it commutes with the min
    d = np.sqrt((ex * ex + ey * ey).min(axis=0))

    crosses = (y1 > y) != (y2 > y)
    xint = x1 + (y - y1) * dx / np.where(dy == 0.0, 1.0, dy)
    inside = ((crosses & (x < xint)).sum(axis=0) % 2) == 1

    return np.where(inside | (d <= BOUNDARY_EPS), 0.0, d)


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_cross(p1, p2, q1, q2) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True

    def on_seg(a, b, c):
        return (min(a[0], b[0]) - BOUNDARY_EPS <= c[0] <= max(a[0], b[0]) + BOUNDARY_EPS
                and min(a[1], b[1]) - BOUNDARY_EPS <= c[1] <= max(a[1], b[1]) + BOUNDARY_EPS)

    if abs(d1) <= BOUNDARY_EPS and on_seg(q1, q2, p1):
        return True
    if abs(d2) <= BOUNDARY_EPS and on_seg(q1, q2, p2):
        return True
    if abs(d3) <= BOUNDARY_EPS and on_seg(p1, p2, q1):
        return True
    if abs(d4) <= BOUNDARY_EPS and on_seg(p1, p2, q2):
        return True
    return False


def is_simple_polygon(vertices) -> bool:
    """True if no two non-adjacent edges touch or cross."""
    n = len(vertices)
    if n < 3:
        return False
    edges = [(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if j == i + 1 or (i == 0 and j == n - 1):
                continue
            if _segments_cross(*edges[i], *edges[j]):
                return False
    return True


def compass_label(dx: float, dy: float) -> str:
    """8-way compass label for the displacement (dx east, dy north)."""
    bearing = math.degrees(math.atan2(dx, dy)) % 360.0
    octant = int(((bearing + 22.5) % 360.0) // 45.0)
    return COMPASS_LABELS[octant]
