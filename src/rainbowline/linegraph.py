"""Line graphs and iterated line graphs.

The line graph ``L(G)`` has one vertex per edge of ``G`` (same ids) and joins
two of them whenever the edges share an endpoint. The star of a vertex ``x``,
``source.incident_edges[x]``, induces a clique in ``L(G)``; over all vertices
these cliques cover each ``L``-edge exactly once, which the coloring
constructions lean on.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, LimitError
from .graphs import Graph

# An iterate costs about 150 bytes per edge at the peak of building and
# printing it, so 200,000 edges hold one near 30 MB. Each iteration
# multiplies a d-regular graph's edges by d - 1, so one more iteration can
# land far past the cap: from K5, 22,950 edges build, and the next iterate,
# 757,350, is refused before its successor, 49,227,750, could exhaust memory.
ITERATE_EDGE_CAP = 200_000


@dataclass(frozen=True)
class LineGraphResult:
    source: Graph
    l_graph: Graph


def line_graph(g: Graph) -> LineGraphResult:
    """Build ``L(g)``, whose vertex ``i`` is edge ``i`` of ``g``, star by
    star, vertices ascending; ``coloring._landings`` reads the L-edges in
    that order. An empty star is skipped without a call."""
    l_edges: list[tuple[int, int]] = []
    for star in filter(None, g.incident_edges):
        l_edges.extend(combinations(star, 2))
    return LineGraphResult(source=g, l_graph=Graph(g.m, tuple(l_edges)))


def iterated_line_graph(g: Graph, k: int) -> list[LineGraphResult]:
    """Chain of ``k`` line-graph constructions, each on the previous result.

    Before each one it counts the iterate's edges, one per pair of edges at
    a vertex, and raises ``LimitError`` past ``ITERATE_EDGE_CAP``."""
    if k < 1:
        raise InputError(f"iteration count must be >= 1, got {k}")
    out: list[LineGraphResult] = []
    cur = g
    for step in range(k):
        if cur.m == 0:
            raise InputError(f"iteration {step + 1}: graph has no edges")
        edges = sum(d * (d - 1) // 2 for d in cur.degrees)
        if edges > ITERATE_EDGE_CAP:
            raise LimitError(f"iteration {step + 1}: line graph would have {edges} edges, cap {ITERATE_EDGE_CAP}")
        res = line_graph(cur)
        out.append(res)
        cur = res.l_graph
    return out

