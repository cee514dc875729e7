"""Rainbow edge colorings of (iterated) line graphs driven by edge-disjoint
triangle structures, with an exact verifier and an exact rc search."""

from .coloring import ColoringCertificate, EdgeColoring, Run, color
from .errors import InputError, InvariantViolation, LimitError
from .graphs import (
    Graph,
    build_graph,
    diameter,
    is_connected,
)
from .linegraph import (
    LineGraphResult,
    iterated_line_graph,
    line_graph,
)
from .oracle import exact_rc, is_rainbow_connected, rc_lower_bound
from .triangles import (
    Triangle,
    TrianglePacking,
    classify_structure,
    enumerate_triangles,
    make_triangle,
    pack_edge_disjoint,
)

__version__ = "0.1.0"
