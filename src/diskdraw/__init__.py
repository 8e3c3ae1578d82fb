"""diskdraw: a pencil/eraser unit-disk drawing model with verified obstructions.

The pencil paints open unit disks, the eraser whitens them; scripts alternate
the two tools.  The package evaluates script membership with three-valued
verdicts, builds convex sets, certifies undrawability via encirclement
descent chains and total dissections, constructs the curvature-bounded snake
region, and renders everything to PGM.
"""

from .geometry import (
    DEFAULT_TAU,
    Arc,
    Circle,
    CollinearPoints,
    EmptyObstacleSet,
    InvalidTrapezoid,
    OffsetHalfPlane,
    Point,
    Primitive,
    Segment,
    SinglePoint,
    WholePlane,
    circumcircle3,
    constrained_largest_empty_circle,
    dist_to_primitive,
    piece_distance,
    trapezoid_circumradius,
)
from .canvas import (
    BoundaryPoint,
    CenterSet,
    Containment,
    DiskModel,
    DrawingScript,
    NonConvexInput,
    NonUnitNormal,
    Shade,
    Stroke,
    Tool,
    convex_polygon_script,
    eval_script,
    halfplane_center_set,
    nbhd_contains,
    reference_eval,
    stationary_number,
)
from .obstruction import (
    CheckRecord,
    Coloring,
    DescentCertificate,
    DissectionCheckResult,
    DissectionSpec,
    FiveCircleRadii,
    InvalidN,
    InvalidParameters,
    MisclassifiedPoint,
    RadiiTooLarge,
    StageFamily,
    StageParams,
    Verdict,
    chessboard_stages,
    default_dissection_L,
    descent_verify,
    dissection_check,
    dissection_pattern_coloring,
    dissection_stages,
    dissection_wedge_checks,
    encircles,
    escape_radius,
    five_circle_radii,
    script_coloring,
    undrawability_bound,
)
from .constructions import (
    ConstructionInconsistent,
    PiecewisePath,
    SnakeGeometry,
    build_snake,
    chessboard_coloring,
    classify_against_path,
    region_coloring,
    rounded_chessboard_coloring,
    sharp_dissection_spec,
    sharp_ndissected_script,
    snake_coloring,
    snake_dissection_spec,
)
from .curvature import CurvatureReport, path_max_curvature, rolling_disk_check
from .scene import ParseError, parse_boundary, parse_script, serialize_boundary, serialize_script
from .render import RasterSpec, black_fraction, render, to_pgm, write_pgm, write_svg

__version__ = "0.1.0"
