"""Rainbow edge colorings of (iterated) line graphs driven by edge-disjoint
triangle structures, with an exact verifier and an exact rc search."""

from .coloring import (
    ColoringCertificate,
    ColorPart,
    EdgeColoring,
    color_cubic_iterated,
    color_forest_packing,
    color_iterated_baseline,
    color_packing,
    color_single_triangle,
    color_triangle_tree,
    combine_colorings,
    pendant_two_path_count,
    project_coloring,
)
from .errors import InputError, InvariantViolation, LimitError
from .graphs import (
    BlockDecomposition,
    DegreeProfile,
    Graph,
    InducedSubgraph,
    ShrinkResult,
    blocks,
    build_graph,
    degree_profile,
    diameter,
    induced_by_edges,
    is_connected,
    shrink,
)
from .linegraph import (
    CliqueGraphResult,
    LineGraphResult,
    clique_graph,
    iterated_line_graph,
    line_graph,
    star_clique_edges,
)
from .oracle import (
    IteratedTightnessReport,
    RcReport,
    canonical_colorings,
    check_iterated_tightness,
    exact_rc,
    is_rainbow_connected,
    rc_lower_bound,
    rc_report,
)
from .triangles import (
    Triangle,
    TrianglePacking,
    TransformResult,
    TransformTrace,
    build_transformed,
    classify_structure,
    detach_edge,
    enumerate_triangles,
    make_triangle,
    pack_edge_disjoint,
    replay_trace,
    split_vertex,
)

__version__ = "0.1.0"
