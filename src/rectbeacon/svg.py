"""Minimal SVG emitter for polygons, kernels, beacons and paths.

Rendering converts rationals to floats for display only; nothing here ever
feeds back into a computation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from .geometry import Point
from .polygon import RectPolygon

_STYLE = {
    "polygon": 'fill="#f5f2e8" stroke="#222222" stroke-width="{w}"',
    "kernel": 'fill="#7fb2d9" fill-opacity="0.55" stroke="none"',
    "path": 'fill="none" stroke="#c23b22" stroke-width="{w}"',
}

# Width and height of the drawing, in pixels.
_SIZE = 640


def _pts(points: Sequence[Point]) -> str:
    return " ".join(f"{float(p.x):.6g},{float(p.y):.6g}" for p in points)


def render_svg(poly: RectPolygon,
               beacons: Sequence[Point] = (),
               paths: Sequence[Sequence[Point]] = (),
               kernel: Optional[RectPolygon] = None) -> str:
    xmin, ymin, xmax, ymax = (float(v) for v in poly.bbox())
    span = max(xmax - xmin, ymax - ymin, 1e-9)
    pad = 0.05 * span
    stroke = span / 300.0
    parts: List[str] = []
    parts.append(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="{xmin - pad:.6g} {-(ymax + pad):.6g} {span + 2 * pad:.6g} {span + 2 * pad:.6g}">\n'
        # Flip y so the mathematical orientation matches the screen.
        f'<g transform="scale(1,-1)">\n'
    )
    parts.append(f'<polygon points="{_pts(poly.vertices)}" '
                 + _STYLE["polygon"].format(w=f"{stroke:.6g}") + "/>\n")
    if kernel is not None:
        parts.append(f'<polygon points="{_pts(kernel.vertices)}" '
                     + _STYLE["kernel"] + "/>\n")
    for path in paths:
        parts.append(f'<polyline points="{_pts(path)}" '
                     + _STYLE["path"].format(w=f"{1.5 * stroke:.6g}") + "/>\n")
    mark = 2.5 * stroke
    for b in beacons:
        x, y = float(b.x), float(b.y)
        parts.append(
            f'<path d="M {x - mark:.6g} {y - mark:.6g} L {x + mark:.6g} {y + mark:.6g} '
            f'M {x - mark:.6g} {y + mark:.6g} L {x + mark:.6g} {y - mark:.6g}" '
            f'stroke="#111111" stroke-width="{1.5 * stroke:.6g}"/>\n'
        )
    parts.append("</g>\n</svg>\n")
    return "".join(parts)
