"""Minimal SVG emitter for polygons, kernels, beacons and paths.

Rendering maps every point exactly into the polygon's bounding box, scaled
to the drawing, and only then converts it to a float for display; nothing
here ever feeds back into a computation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .errors import GeometryError
from .geometry import Point
from .polygon import RectPolygon

_STYLE = {
    "polygon": 'fill="#f5f2e8" stroke="#222222" stroke-width="{w}"',
    "kernel": 'fill="#7fb2d9" fill-opacity="0.55" stroke="none"',
    "path": 'fill="none" stroke="#c23b22" stroke-width="{w}"',
}

# Width and height of the drawing, in pixels.
_SIZE = 640


def render_svg(poly: RectPolygon,
               beacons: Sequence[Point] = (),
               paths: Sequence[Sequence[Point]] = (),
               kernel: Optional[RectPolygon] = None) -> str:
    """The SVG drawing; a beacon or path point too far outside the polygon
    to draw raises GeometryError."""
    xmin, ymin, xmax, ymax = poly.bbox()
    scale = _SIZE / max(xmax - xmin, ymax - ymin)

    def px(p: Point) -> Tuple[float, float]:
        try:
            return float((p.x - xmin) * scale), float((p.y - ymin) * scale)
        except OverflowError:
            raise GeometryError(f"cannot draw {p}: too far outside the polygon") from None

    def pts(points: Sequence[Point]) -> str:
        return " ".join("{:.6g},{:.6g}".format(*px(p)) for p in points)

    height = float((ymax - ymin) * scale)
    pad = 0.05 * _SIZE
    stroke = _SIZE / 300.0
    parts: List[str] = []
    parts.append(
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SIZE}" height="{_SIZE}" '
        f'viewBox="{-pad:.6g} {-(height + pad):.6g} {_SIZE + 2 * pad:.6g} {_SIZE + 2 * pad:.6g}">\n'
        # Flip y so the mathematical orientation matches the screen.
        f'<g transform="scale(1,-1)">\n'
    )
    parts.append(f'<polygon points="{pts(poly.vertices)}" '
                 + _STYLE["polygon"].format(w=f"{stroke:.6g}") + "/>\n")
    if kernel is not None:
        parts.append(f'<polygon points="{pts(kernel.vertices)}" '
                     + _STYLE["kernel"] + "/>\n")
    for path in paths:
        parts.append(f'<polyline points="{pts(path)}" '
                     + _STYLE["path"].format(w=f"{1.5 * stroke:.6g}") + "/>\n")
    mark = 2.5 * stroke
    for b in beacons:
        x, y = px(b)
        parts.append(
            f'<path d="M {x - mark:.6g} {y - mark:.6g} L {x + mark:.6g} {y + mark:.6g} '
            f'M {x - mark:.6g} {y + mark:.6g} L {x + mark:.6g} {y - mark:.6g}" '
            f'stroke="#111111" stroke-width="{1.5 * stroke:.6g}"/>\n'
        )
    parts.append("</g>\n</svg>\n")
    return "".join(parts)
