"""Controlled shrinking of convex planar sets.

Convex geometry kernel (polygons rounded by a disk radius), Minkowski
morphology, the constrained least-perimeter subproblem, the optimal-area
evolution ODE, critical-budget analysis, and a raster brute-force oracle.
"""

from .errors import (
    AreaExceedsDomainError,
    BadConfigError,
    DegenerateDomainError,
    EmptySetError,
    NonpositiveAreaError,
    NotCriticalError,
    OutOfRangeError,
    OutOfRegimeError,
    ShrinksetError,
)
from .evolution import (
    EvolutionTrace,
    check_admissible,
    compute_cost,
    reconstruct_set,
    simulate,
)
from .geometry import (
    ConvexPolygon,
    Point2,
    RoundedSet,
    boundary_length_in_disk,
    boundary_pieces,
    contains,
    hausdorff,
    random_rounded_set,
    rounded_area,
    rounded_centroid,
    rounded_perimeter,
    support,
)
from .isoperimetric import (
    IsoperimetricSolution,
    free_arc_turning,
    invert_opening_area,
    optimal_subset,
    perimeter_of_area,
)
from .morphology import (
    ErosionProfile,
    InnerBallLocus,
    dilate,
    duality_gap,
    erode,
    inner_radius,
    opening,
    polygon_erode,
)
from .raster import (
    RasterGrid,
    raster_area,
    raster_dilate,
    raster_erode,
    raster_opening,
    rasterize,
)
from .threshold import (
    EXTINCT,
    GROWS,
    Outcome,
    ball_time_at_critical,
    classify,
    critical_budget,
)

__version__ = "0.1.0"

__all__ = [
    "AreaExceedsDomainError",
    "BadConfigError",
    "ConvexPolygon",
    "DegenerateDomainError",
    "EXTINCT",
    "GROWS",
    "EmptySetError",
    "ErosionProfile",
    "EvolutionTrace",
    "InnerBallLocus",
    "IsoperimetricSolution",
    "NonpositiveAreaError",
    "NotCriticalError",
    "Outcome",
    "OutOfRangeError",
    "OutOfRegimeError",
    "Point2",
    "RasterGrid",
    "RoundedSet",
    "ShrinksetError",
    "ball_time_at_critical",
    "boundary_length_in_disk",
    "boundary_pieces",
    "check_admissible",
    "classify",
    "compute_cost",
    "contains",
    "critical_budget",
    "dilate",
    "duality_gap",
    "erode",
    "free_arc_turning",
    "hausdorff",
    "inner_radius",
    "invert_opening_area",
    "opening",
    "optimal_subset",
    "perimeter_of_area",
    "polygon_erode",
    "random_rounded_set",
    "raster_area",
    "raster_dilate",
    "raster_erode",
    "raster_opening",
    "rasterize",
    "reconstruct_set",
    "rounded_area",
    "rounded_centroid",
    "rounded_perimeter",
    "simulate",
    "support",
]
