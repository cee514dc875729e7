"""Line graphs and iterated line graphs.

The line graph ``L(G)`` has one vertex per edge of ``G`` (same ids) and joins
two of them whenever the edges share an endpoint. The star of a vertex ``x``,
``source.incident_edges[x]``, induces a clique in ``L(G)``; over all vertices
these cliques cover each ``L``-edge exactly once, which the coloring
constructions lean on.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError
from .graphs import Graph


@dataclass(frozen=True)
class LineGraphResult:
    source: Graph
    l_graph: Graph


def line_graph(g: Graph) -> LineGraphResult:
    """Build ``L(g)``, whose vertex ``i`` is edge ``i`` of ``g``, star by star."""
    l_edges: list[tuple[int, int]] = []
    for inc in g.incident_edges:
        l_edges.extend(combinations(inc, 2))
    return LineGraphResult(source=g, l_graph=Graph(g.m, tuple(l_edges)))


def iterated_line_graph(g: Graph, k: int) -> list[LineGraphResult]:
    """Chain of ``k`` line-graph constructions, each on the previous result."""
    if k < 1:
        raise InputError(f"iteration count must be >= 1, got {k}")
    out: list[LineGraphResult] = []
    cur = g
    for step in range(k):
        if cur.m == 0:
            raise InputError(f"iteration {step + 1}: graph has no edges")
        res = line_graph(cur)
        out.append(res)
        cur = res.l_graph
    return out

