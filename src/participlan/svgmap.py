"""SVG rendering of a region and plan.

Pure text generation: fixed 10-color legend keyed to land use, area
polygons with id labels, heavy strokes on community boundaries. Output
is byte-deterministic for fixed inputs (all floats go through %.2f).
"""
from __future__ import annotations

from pathlib import Path
from typing import Optional, Union
from xml.sax.saxutils import escape

from .region import LandUse, Plan, Region

PALETTE = {
    LandUse.RESIDENTIAL: "#d9d9d9",
    LandUse.GREEN_FIXED: "#a1d99b",
    LandUse.SCHOOL: "#fdb462",
    LandUse.HOSPITAL: "#fb8072",
    LandUse.CLINIC: "#fccde5",
    LandUse.BUSINESS: "#80b1d3",
    LandUse.OFFICE: "#8dd3c7",
    LandUse.RECREATION: "#ffed6f",
    LandUse.PARK: "#33a02c",
    LandUse.OPEN_SPACE: "#b3de69",
}

UNASSIGNED_FILL = "#ffffff"

_MARGIN = 24.0
_LEGEND_W = 190.0
_MAP_W = 720.0


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _edge_key(p: tuple[float, float], q: tuple[float, float]):
    a = (round(p[0], 3), round(p[1], 3))
    b = (round(q[0], 3), round(q[1], 3))
    return (a, b) if a <= b else (b, a)


def _community_boundary_edges(region: Region) -> list[tuple]:
    """Edges used exactly once within their community (outer rims)."""
    edges = []
    for cid in region.community_ids:
        count: dict = {}
        for area in region.community_areas(cid):
            ring = area.boundary
            for i in range(len(ring)):
                key = _edge_key(ring[i], ring[(i + 1) % len(ring)])
                count[key] = count.get(key, 0) + 1
        for key, n in sorted(count.items()):
            if n == 1:
                edges.append(key)
    return edges


def render_svg(region: Region, plan: Optional[Plan] = None) -> str:
    plan = plan if plan is not None else Plan({})
    xs = [x for a in region.areas for x, _ in a.boundary]
    ys = [y for a in region.areas for _, y in a.boundary]
    lo_x, hi_x, lo_y, hi_y = min(xs), max(xs), min(ys), max(ys)
    span_x = max(hi_x - lo_x, 1e-9)
    span_y = max(hi_y - lo_y, 1e-9)
    scale = _MAP_W / span_x
    map_h = span_y * scale

    def tx(x: float) -> float:
        return _MARGIN + (x - lo_x) * scale

    def ty(y: float) -> float:
        # svg y grows downward; flip so north stays up
        return _MARGIN + (hi_y - y) * scale

    width = _MARGIN * 2 + _MAP_W + _LEGEND_W
    height = _MARGIN * 2 + max(map_h, 20.0 * len(PALETTE) + 30.0)

    out = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(f'<svg xmlns="http://www.w3.org/2000/svg" '
               f'width="{_fmt(width)}" height="{_fmt(height)}" '
               f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">')
    out.append(f'<title>{escape(region.name)}</title>')
    out.append(f'<rect x="0" y="0" width="{_fmt(width)}" height="{_fmt(height)}" '
               'fill="#ffffff"/>')

    for area in region.areas:
        use = plan.use_of(area)
        fill = PALETTE[use] if use is not None else UNASSIGNED_FILL
        points = " ".join(f"{_fmt(tx(x))},{_fmt(ty(y))}" for x, y in area.boundary)
        out.append(f'<polygon points="{points}" fill="{fill}" '
                   'stroke="#666666" stroke-width="1"/>')
    for area in region.areas:
        cx, cy = area.centroid
        out.append(f'<text x="{_fmt(tx(cx))}" y="{_fmt(ty(cy))}" '
                   'font-family="sans-serif" font-size="11" fill="#222222" '
                   f'text-anchor="middle" dominant-baseline="middle">{area.id}</text>')
    for (p, q) in _community_boundary_edges(region):
        out.append(f'<line x1="{_fmt(tx(p[0]))}" y1="{_fmt(ty(p[1]))}" '
                   f'x2="{_fmt(tx(q[0]))}" y2="{_fmt(ty(q[1]))}" '
                   'stroke="#000000" stroke-width="3"/>')

    lx = _MARGIN + _MAP_W + 20.0
    ly = _MARGIN
    out.append(f'<text x="{_fmt(lx)}" y="{_fmt(ly + 4.0)}" '
               'font-family="sans-serif" font-size="13" '
               f'fill="#000000">{escape(region.name)}</text>')
    for i, use in enumerate(LandUse):
        y = ly + 24.0 + i * 20.0
        out.append(f'<rect x="{_fmt(lx)}" y="{_fmt(y)}" width="14" height="14" '
                   f'fill="{PALETTE[use]}" stroke="#666666" class="legend"/>')
        out.append(f'<text x="{_fmt(lx + 20.0)}" y="{_fmt(y + 11.0)}" '
                   'font-family="sans-serif" font-size="12" '
                   f'fill="#222222">{use.value}</text>')
    out.append("</svg>")
    return "\n".join(out) + "\n"


def write_svg(region: Region, plan: Optional[Plan],
              path: Union[str, Path]) -> None:
    Path(path).write_text(render_svg(region, plan))
