"""curveq: nearest-neighbor search and (1,2)-center clustering for planar
polygonal curves under the discrete Fréchet distance.

Exact structures under L-infinity (fixed and translation-invariant),
(1+eps)-approximate structures under L2, exact segment-center solvers,
and deliberately naive brute-force oracles for verification.
"""

from .geometry import (
    Curve,
    Metric,
    PartitionProfile,
    Segment,
    circle_intersections,
    circumcircle,
    dfd_dp,
    dfd_segment_curve,
    min_enclosing_ball,
    min_enclosing_square_radius,
    partition_profile,
    point_dist,
)
from .nn_linf import SegmentInputIndex, SegmentQueryIndex, rect_key_table
from .nn_translation import (
    TranslationCurveIndex,
    TranslationSegmentIndex,
    translation_key_table,
)
from .nn_l2 import (
    AnnStructure,
    ExponentialGrid,
    KgonStructure,
    kgon_sides,
)
from .center import (
    CenterSolution,
    candidate_radii,
    center_l2,
    center_l2_decision,
    center_linf,
    center_linf_translation,
)
from .dataio import ResultRecord, as_segments, load_curves, save_curves

__version__ = "0.1.0"

__all__ = [
    "Curve", "Segment", "Metric", "PartitionProfile",
    "point_dist", "dfd_dp", "dfd_segment_curve", "partition_profile",
    "min_enclosing_square_radius", "min_enclosing_ball",
    "circumcircle", "circle_intersections",
    "SegmentQueryIndex", "SegmentInputIndex", "rect_key_table",
    "TranslationCurveIndex", "TranslationSegmentIndex", "translation_key_table",
    "ExponentialGrid", "AnnStructure", "kgon_sides", "KgonStructure",
    "CenterSolution", "center_linf", "center_linf_translation",
    "candidate_radii", "center_l2_decision", "center_l2",
    "load_curves", "save_curves", "as_segments", "ResultRecord",
]
