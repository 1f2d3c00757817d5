"""Beacon attraction, coverage and routing in simple rectilinear polygons."""

from .attraction import AttractionPath, attracts, attraction_path, is_dead_point
from .generators import (
    coverage_spiral,
    greedy_cover_spiral,
    random_rectilinear,
    random_x_monotone,
    routing_spiral,
    uniform_spiral,
)
from .geometry import Point, Scalar, scalar
from .kernel import KernelRegion, kernel, kernel_oracle, reflex_rect
from .placement import (
    BeaconSet,
    cover,
    cover_base,
    cover_monotone,
    find_safe_cut,
    route_beacons,
)
from .polygon import (
    CONVEX,
    REFLEX,
    EdgeRef,
    RectPolygon,
    count_reflex_below,
    m_cut_class,
    pocket,
    split,
    validate,
)
from .verify import (
    SamplePlan,
    VerifyReport,
    exhaust_necessity,
    verify_coverage,
    verify_routing,
)

__version__ = "0.1.0"

__all__ = [
    "Point",
    "Scalar",
    "scalar",
    "RectPolygon",
    "EdgeRef",
    "validate",
    "split",
    "pocket",
    "count_reflex_below",
    "m_cut_class",
    "CONVEX",
    "REFLEX",
    "AttractionPath",
    "attraction_path",
    "attracts",
    "is_dead_point",
    "KernelRegion",
    "kernel",
    "kernel_oracle",
    "reflex_rect",
    "BeaconSet",
    "cover",
    "cover_base",
    "cover_monotone",
    "find_safe_cut",
    "route_beacons",
    "coverage_spiral",
    "routing_spiral",
    "uniform_spiral",
    "greedy_cover_spiral",
    "random_rectilinear",
    "random_x_monotone",
    "SamplePlan",
    "VerifyReport",
    "verify_coverage",
    "verify_routing",
    "exhaust_necessity",
    "__version__",
]
