"""Constructive rainbow colorings of line graphs and iterated line graphs.

All four bounds use one construction on a graph H and a packing: flatten the
structure, partition L(H) into star cliques, color each forest component's
cliques with ``t_i + 1`` colors by peeling leaf triangles, give every other
inner vertex's star one fresh color, and project back. ``n2 - t`` and
``t + n2' + c`` run it on G, ``n + 1`` on L(G) with its vertex-star
triangles, and ``m - m1`` on L(G) with no triangles. Each public
construction returns its coloring with a certificate recording the bound,
the palette size, and the verifier verdict.
"""

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import InputError, InvariantViolation
from .graphs import Graph, degree_profile, edge_key, is_connected
from .linegraph import (
    LineGraphResult,
    line_graph,
    star_clique_edges,
    star_clique_edges_at,
)
from .triangles import (
    EdgeDetachStep,
    TransformTrace,
    Triangle,
    TrianglePacking,
    build_transformed,
    classify_structure,
    make_triangle,
)


@dataclass(frozen=True)
class EdgeColoring:
    """Total assignment of colors ``1..k`` to the edges of a graph."""

    graph: Graph
    colors: tuple[int, ...]
    k: int

    def __post_init__(self):
        if len(self.colors) != self.graph.m:
            raise InputError(
                f"coloring has {len(self.colors)} entries for {self.graph.m} edges"
            )
        if self.graph.m and self.k < 1:
            raise InputError("palette must contain at least one color")
        for eid, c in enumerate(self.colors):
            if not 1 <= c <= self.k:
                raise InputError(f"edge {eid} has color {c} outside 1..{self.k}")


@dataclass(frozen=True)
class ColorPart:
    """Partial coloring of one block of an edge partition, local palette 1..k."""

    edge_colors: dict[int, int]
    k: int


@dataclass(frozen=True)
class ColoringCertificate:
    bound_name: str
    bound_value: int
    colors_used: int
    verified: bool
    witness_failure: tuple[int, int] | None = None


def combine_colorings(graph: Graph, parts: Sequence[ColorPart]) -> EdgeColoring:
    """Concatenate disjoint palettes over an edge partition; ``k`` adds up."""
    slots: list[int | None] = [None] * graph.m
    offset = 0
    for part in parts:
        for eid, c in part.edge_colors.items():
            if not (0 <= eid < graph.m):
                raise InputError(f"edge id {eid} out of range")
            if not 1 <= c <= part.k:
                raise InputError(f"part color {c} outside its palette 1..{part.k}")
            if slots[eid] is not None:
                raise InputError(f"edge {eid} covered by more than one part")
            slots[eid] = offset + c
        offset += part.k
    missing = [eid for eid, c in enumerate(slots) if c is None]
    if missing:
        raise InputError(f"edges not covered by any part: {missing[:5]}")
    return EdgeColoring(graph, tuple(slots), offset)


def _triangle_graph_edges(g: Graph, tri: Triangle) -> tuple[int, int, int]:
    """Source-graph edge ids (uv, vw, uw) for sorted triangle corners u<v<w."""
    u, v, w = tri.vertices
    return g.edge_id(u, v), g.edge_id(v, w), g.edge_id(u, w)


def _single_triangle_rules(lg: LineGraphResult, tri: Triangle) -> dict[int, int]:
    """Two-color scheme on the three star cliques of a lone triangle.

    Color 1 goes to the star edges at one chosen triangle corner per star;
    everything else in those stars gets color 2. Where the two rules meet
    (the triangle's own line-graph edges) color 1 wins.
    """
    u, v, w = tri.vertices
    e1, e2, e3 = _triangle_graph_edges(lg.source, tri)
    assign: dict[int, int] = {}
    for sv, at in ((u, e1), (v, e2), (w, e3)):
        for le in star_clique_edges_at(lg, sv, at):
            assign[le] = 1
    for sv, at in ((u, e3), (v, e1), (w, e2)):
        for le in star_clique_edges_at(lg, sv, at):
            assign.setdefault(le, 2)
    for sv in (u, v, w):
        for le in star_clique_edges(lg, sv):
            assign.setdefault(le, 2)
    return assign


def color_triangle_tree(lg: LineGraphResult, tris: Sequence[Triangle]) -> ColorPart:
    """Color the star-clique family of one triangle-tree component.

    Covers exactly the line-graph edges inside the stars of the component's
    vertices, using ``t_i + 1`` colors. One pass over a leaf queue peels the
    lowest leaf triangle (exactly one corner shared with the rest) until one
    triangle is left; that one gets the two-color single-triangle rules.
    Then the peeled leaves are colored in reverse peel order: each spends one
    fresh color on its two stars toward the shared corner and reuses colors
    1 and 2 for the rest of those stars. Cost: O(t_i) heap operations plus
    the star-clique edges.
    """
    if not tris:
        raise InputError("component must contain at least one triangle")
    order = sorted(tris)
    at: dict[int, list[int]] = {}
    for i, tri in enumerate(order):
        for x in tri.vertices:
            at.setdefault(x, []).append(i)
    count = {x: len(ts) for x, ts in at.items()}
    shared = [sum(count[x] > 1 for x in tri.vertices) for tri in order]
    leaves = [i for i, s in enumerate(shared) if s == 1]  # ascending, so a heap
    alive = set(range(len(order)))
    peels: list[tuple[Triangle, int]] = []
    while len(alive) > 1:
        # no leaf left: a cycle, or a triangle cut off from the rest
        if not leaves or shared[leaves[0]] != 1:
            raise InvariantViolation("no leaf triangle; component is not a tree structure")
        i = heapq.heappop(leaves)
        leaf = order[i]
        alive.remove(i)
        u = next(x for x in leaf.vertices if count[x] > 1)
        peels.append((leaf, u))
        count[u] -= 1
        if count[u] == 1:
            (j,) = (j for j in at[u] if j in alive)
            shared[j] -= 1
            if shared[j] == 1:
                heapq.heappush(leaves, j)
    (last,) = (order[i] for i in alive)
    assign = _single_triangle_rules(lg, last)
    g = lg.source
    fresh = 2
    for leaf, u in reversed(peels):
        fresh += 1
        v, w = (x for x in leaf.vertices if x != u)
        for le in star_clique_edges_at(lg, w, g.edge_id(u, w)):
            assign[le] = fresh
        for le in star_clique_edges_at(lg, v, g.edge_id(u, v)):
            assign[le] = fresh
        for le in star_clique_edges(lg, w):
            assign.setdefault(le, 1)
        for le in star_clique_edges(lg, v):
            assign.setdefault(le, 2)
    return ColorPart(assign, fresh)


def project_coloring(trace: TransformTrace, coloring: EdgeColoring) -> EdgeColoring:
    """Pull a coloring of L(final) back to L(source) along the trace.

    An L(source) edge is a pair of source edges ``e, f`` meeting at a source
    vertex ``x``. Each of those two edge ends lands on one edge and one
    vertex of the final graph: the end keeps its edge id unless a detach
    renamed it (the ``v`` end of a detached edge takes the new id, the ``u``
    end keeps the old one), and it sits on the final vertex that descends
    from ``x`` (a split copy descends from the vertex it was split off).
    When both ends land on the same final vertex, the pair takes the color
    of the L(final) edge joining their final ids. Otherwise a split cut the
    adjacency; it gets color 1, since the split line graph spans the
    original one. Cost: O(|E(L(source))|) plus one pass over the steps.
    """
    if coloring.graph != line_graph(trace.final_graph).l_graph:
        raise InputError("coloring does not match the line graph of the trace's final graph")
    if not trace.steps:
        return coloring
    return _pull_back(trace, coloring, line_graph(trace.source))


def _pull_back(trace: TransformTrace, coloring: EdgeColoring, lg: LineGraphResult) -> EdgeColoring:
    """``project_coloring`` without its input check, onto ``lg`` = L(trace.source)."""
    origin = list(range(trace.source.n))  # final vertex -> its source vertex, -1 for none
    renamed: dict[tuple[int, int], int] = {}  # (edge, origin of its v end) -> new id
    for step in trace.steps:
        if isinstance(step, EdgeDetachStep):
            renamed[step.edge, origin[step.v]] = step.new_edge
            origin += (-1, -1)
        else:
            origin.append(origin[step.vertex])
    final = trace.final_graph.edges
    index = coloring.graph.edge_index
    out: list[int] = []
    # line_graph lists each star's pairs together, vertices ascending
    for x, star in enumerate(lg.star_of):
        ends = []
        for e in star:
            fe = renamed.get((e, x), e)
            a, b = final[fe]
            ends.append((fe, a if origin[a] == x else b))
        for (e, y), (f, z) in combinations(ends, 2):
            out.append(coloring.colors[index[edge_key(e, f)]] if y == z else 1)
    return EdgeColoring(lg.l_graph, tuple(out), coloring.k)


def _check_colorable(g: Graph) -> None:
    if not is_connected(g):
        raise InputError("graph must be connected")
    if g.m < 2:
        raise InputError("line graph is trivial; rainbow connection is undefined on it")


def _certify(g: Graph, lg: LineGraphResult, coloring: EdgeColoring, bound_name: str, bound_value: int) -> ColoringCertificate:
    """Verify ``coloring`` as a coloring of ``lg``, which must be L(g)."""
    from .oracle import is_rainbow_connected

    if lg.source != g or coloring.graph != lg.l_graph:
        raise InvariantViolation("certificate target does not match the source's line graph")
    ok, witness = is_rainbow_connected(coloring.graph, coloring)
    return ColoringCertificate(
        bound_name=bound_name,
        bound_value=bound_value,
        colors_used=coloring.k,
        verified=ok and coloring.k <= bound_value,
        witness_failure=witness,
    )


def _construct(g: Graph, packing: TrianglePacking, bound_name: str, bound_value: int) -> tuple[EdgeColoring, ColoringCertificate]:
    """The one construction behind every bound: flatten the structure, color
    the star cliques of L(final), pull the coloring back to L(g) and certify
    it. Each component of the flattened forest structure takes ``t_i + 1``
    colors, each other inner vertex's star one. Builds each line graph once:
    L(final) is L(g) when the trace is empty."""
    result = build_transformed(g, packing)
    final, flat = result.graph, result.packing
    lg = line_graph(final)
    parts = [color_triangle_tree(lg, [flat.triangles[i] for i in comp]) for comp in flat.components]
    for x in range(final.n):
        if final.degree(x) >= 2 and x not in flat.covered_vertices:
            parts.append(ColorPart({le: 1 for le in star_clique_edges(lg, x)}, 1))
    col = combine_colorings(lg.l_graph, parts)
    if result.trace.steps:
        lg = line_graph(g)
        col = _pull_back(result.trace, col, lg)
    return col, _certify(g, lg, col, bound_name, bound_value)


def color_forest_packing(g: Graph, packing: TrianglePacking) -> tuple[EdgeColoring, ColoringCertificate]:
    """Rainbow coloring of L(g) with ``n2 - t`` colors from a forest packing."""
    _check_colorable(g)
    if not packing.all_forest:
        raise InputError("packing structure must be a triangle-forest; use color_packing instead")
    return _construct(g, packing, "n2 - t", degree_profile(g).n2 - packing.t)


def color_packing(g: Graph, packing: TrianglePacking) -> tuple[EdgeColoring, ColoringCertificate]:
    """Rainbow coloring of L(g) with ``t + n2' + c`` colors from any packing.

    Equals ``n2 + op - t``: each vertex split spends one extra color over the
    forest bound.
    """
    _check_colorable(g)
    return _construct(g, packing, "t + n2' + c", packing.t + packing.n2_prime + packing.c)


def color_cubic_iterated(g: Graph) -> tuple[EdgeColoring, ColoringCertificate]:
    """Rainbow coloring of the twice-iterated line graph of a cubic graph.

    In L(g) the star of each vertex is a triangle; those n triangles are
    edge-disjoint and cover everything, so the general packing bound gives
    ``n + 1`` colors.
    """
    if not is_connected(g):
        raise InputError("graph must be connected")
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise InputError("every vertex must have degree exactly 3")
    lg1 = line_graph(g)
    tris = [make_triangle(lg1.l_graph, *lg1.star_of[v]) for v in range(g.n)]
    packing = classify_structure(lg1.l_graph, tris)
    bound = g.n + 1
    if packing.t + packing.n2_prime + packing.c != bound:
        raise InvariantViolation("cubic star packing should give t=n, n2'=0, c=1")
    return _construct(lg1.l_graph, packing, "n + 1", bound)


def pendant_two_path_count(g: Graph) -> int:
    """Number of degree-1 vertices whose unique neighbor has degree 2."""
    return sum(
        1
        for v in range(g.n)
        if g.degree(v) == 1 and g.degree(g.adjacency[v][0]) == 2
    )


def color_iterated_baseline(g: Graph) -> tuple[EdgeColoring, ColoringCertificate]:
    """Rainbow coloring of the twice-iterated line graph with ``m - m1`` colors.

    This is the ``t + n2' + c`` bound of L(g) with no triangles: every inner
    vertex of L(g) keeps its star clique to one fresh color. The count is
    ``m - m1`` because L(g) has ``m`` vertices of which ``m1`` are pendant.
    """
    if not is_connected(g):
        raise InputError("graph must be connected")
    if g.m == 0:
        raise InputError("iteration 1: graph has no edges")
    lg = line_graph(g).l_graph
    if lg.m == 0:
        raise InputError("iteration 2: graph has no edges")
    if lg.m == 1:
        raise InputError("twice-iterated line graph is trivial")
    packing = classify_structure(lg, ())
    bound = g.m - pendant_two_path_count(g)
    if packing.n2_prime != bound:
        raise InvariantViolation(f"L(G) has {packing.n2_prime} inner vertices, pendant accounting says {bound}")
    return _construct(lg, packing, "m - m1", bound)
