"""Rainbow edge colorings of (iterated) line graphs driven by edge-disjoint
triangle structures, with an exact verifier and an exact rc search."""

from .coloring import (
    ColoringCertificate,
    EdgeColoring,
    color_cubic_iterated,
    color_forest_packing,
    color_iterated_baseline,
    color_packing,
    project_coloring,
)
from .errors import InputError, InvariantViolation, LimitError
from .graphs import (
    BlockDecomposition,
    DegreeProfile,
    Graph,
    blocks,
    build_graph,
    degree_profile,
    diameter,
    is_connected,
)
from .linegraph import (
    LineGraphResult,
    iterated_line_graph,
    line_graph,
    star_clique_edges,
)
from .oracle import (
    canonical_colorings,
    exact_rc,
    is_rainbow_connected,
    rc_lower_bound,
)
from .triangles import (
    Triangle,
    TrianglePacking,
    TransformResult,
    TransformTrace,
    build_transformed,
    classify_structure,
    enumerate_triangles,
    make_triangle,
    pack_edge_disjoint,
)

__version__ = "0.1.0"
