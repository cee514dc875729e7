"""Line graphs, iterated line graphs, star cliques, and the clique graph.

The line graph ``L(G)`` has one vertex per edge of ``G`` (same ids) and joins
two of them whenever the edges share an endpoint. The star of a vertex ``v``
induces a clique in ``L(G)``; over all vertices these cliques cover each
``L``-edge exactly once, which the coloring constructions lean on.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import InputError, LimitError
from .graphs import Graph

DEFAULT_CLIQUE_CAP = 10_000


@dataclass(frozen=True)
class LineGraphResult:
    source: Graph
    l_graph: Graph
    edge_to_vertex: tuple[int, ...]
    vertex_to_edge: tuple[int, ...]
    star_of: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class CliqueGraphResult:
    maximal_cliques: tuple[tuple[int, ...], ...]
    k_graph: Graph


def line_graph(g: Graph) -> LineGraphResult:
    """Build ``L(g)`` with the edge/vertex bijection and the star-clique map."""
    l_edges: list[tuple[int, int]] = []
    for v in range(g.n):
        inc = g.incident_edges[v]
        for i in range(len(inc)):
            for j in range(i + 1, len(inc)):
                l_edges.append((inc[i], inc[j]))
    ident = tuple(range(g.m))
    return LineGraphResult(
        source=g,
        l_graph=Graph(g.m, tuple(l_edges)),
        edge_to_vertex=ident,
        vertex_to_edge=ident,
        star_of=g.incident_edges,
    )


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


def star_clique_edges(lg: LineGraphResult, v: int) -> list[int]:
    """Ids of the ``L``-edges inside the star clique of source vertex ``v``."""
    star = lg.star_of[v]
    index = lg.l_graph.edge_index
    return [index[(a, b)] for a, b in combinations(star, 2)]


def star_clique_edges_at(lg: LineGraphResult, v: int, at: int) -> list[int]:
    """Star-clique edges of ``v`` incident with the ``L``-vertex ``at``."""
    index = lg.l_graph.edge_index
    return [index[(min(at, o), max(at, o))] for o in lg.star_of[v] if o != at]


def clique_graph(g: Graph, cap: int = DEFAULT_CLIQUE_CAP) -> CliqueGraphResult:
    """All maximal cliques plus their intersection graph.

    Enumeration is exponential in the worst case; intended for small
    structure graphs, hence the hard cap.
    """
    adj = [set(g.adjacency[v]) for v in range(g.n)]
    cliques: list[tuple[int, ...]] = []

    def expand(r: set[int], p: set[int], x: set[int]) -> None:
        if not p and not x:
            if len(cliques) >= cap:
                raise LimitError(f"more than {cap} maximal cliques")
            cliques.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: len(adj[u] & p))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    if g.n:
        expand(set(), set(range(g.n)), set())
    cliques.sort()
    members = [set(c) for c in cliques]
    k_edges = tuple(
        (i, j)
        for i, j in combinations(range(len(cliques)), 2)
        if members[i] & members[j]
    )
    return CliqueGraphResult(tuple(cliques), Graph(len(cliques), k_edges))

