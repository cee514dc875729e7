"""Constructive rainbow colorings of line graphs and iterated line graphs.

The constructions all follow one recipe: partition the edges of the line
graph into star cliques grouped by triangle-structure component, color each
component's clique family with ``t_i + 1`` colors by peeling leaf triangles,
give every star clique of an uncovered inner vertex one fresh color, and
project the combined coloring back through the structure-flattening
transforms. Each public construction returns its coloring together with a
certificate recording the bound, the palette size, and the verifier verdict.
"""

from dataclasses import dataclass
from typing import Sequence

from .errors import InputError, InvariantViolation
from .graphs import Graph, degree_profile, edge_key, is_connected
from .linegraph import (
    LineGraphResult,
    iterated_line_graph,
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
    enumerate_triangles,
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


def color_single_triangle(lg: LineGraphResult) -> EdgeColoring:
    """Two-color rainbow coloring of L(G) when G is one triangle plus pendants."""
    g = lg.source
    tris = enumerate_triangles(g)
    if len(tris) != 1:
        raise InputError(f"graph must contain exactly one triangle, found {len(tris)}")
    tri = tris[0]
    corners = set(tri.vertices)
    for eid, (a, b) in enumerate(g.edges):
        if eid in tri.edge_ids:
            continue
        inside = (a in corners) + (b in corners)
        outside = b if a in corners else a
        if inside != 1 or g.degree(outside) != 1:
            raise InputError(
                f"edge ({a}, {b}) is neither the triangle nor pendant at a corner"
            )
    assign = _single_triangle_rules(lg, tri)
    if len(assign) != lg.l_graph.m:
        raise InvariantViolation("single-triangle rules left line-graph edges uncolored")
    return EdgeColoring(lg.l_graph, tuple(assign[i] for i in range(lg.l_graph.m)), 2)


def _peel_leaf(tris: Sequence[Triangle]) -> tuple[Triangle, int]:
    """Lowest triangle sharing exactly one vertex with the rest of the structure."""
    for idx, tri in enumerate(tris):
        rest = {v for j, other in enumerate(tris) if j != idx for v in other.vertices}
        shared = set(tri.vertices) & rest
        if len(shared) == 1:
            return tri, next(iter(shared))
    raise InvariantViolation("no leaf triangle; component is not a tree structure")


def _tree_assignment(lg: LineGraphResult, tris: Sequence[Triangle]) -> tuple[dict[int, int], int]:
    if len(tris) == 1:
        return _single_triangle_rules(lg, tris[0]), 2
    leaf, u = _peel_leaf(tris)
    v, w = sorted(set(leaf.vertices) - {u})
    rest = [t for t in tris if t != leaf]
    assign, used = _tree_assignment(lg, rest)
    fresh = used + 1
    g = lg.source
    e1 = g.edge_id(u, w)
    e2 = g.edge_id(u, v)
    for le in star_clique_edges_at(lg, w, e1):
        assign[le] = fresh
    for le in star_clique_edges_at(lg, v, e2):
        assign[le] = fresh
    palette = sorted(set(assign.values()) - {fresh})
    c1, c2 = palette[0], palette[1]
    for le in star_clique_edges(lg, w):
        assign.setdefault(le, c1)
    for le in star_clique_edges(lg, v):
        assign.setdefault(le, c2)
    return assign, fresh


def color_triangle_tree(lg: LineGraphResult, tris: Sequence[Triangle]) -> ColorPart:
    """Color the star-clique family of one triangle-tree component.

    Covers exactly the line-graph edges inside the stars of the component's
    vertices, using ``t_i + 1`` colors: peel a leaf triangle, color the rest
    recursively, spend one fresh color on the leaf's two stars toward the
    shared vertex, and reuse the two lowest existing colors for the rest.
    """
    if not tris:
        raise InputError("component must contain at least one triangle")
    assign, used = _tree_assignment(lg, sorted(tris))
    return ColorPart(assign, used)


def _structure_star_coloring(lg: LineGraphResult, tris: Sequence[Triangle]) -> EdgeColoring:
    """Star-partition coloring of ``lg`` = L(g_final) for an all-forest structure."""
    g_final = lg.source
    packing = classify_structure(g_final, tris)
    if not packing.all_forest:
        raise InvariantViolation("structure must be a triangle-forest at coloring time")
    parts = [
        color_triangle_tree(lg, [packing.triangles[i] for i in comp])
        for comp in packing.components
    ]
    for x in range(g_final.n):
        if g_final.degree(x) >= 2 and x not in packing.covered_vertices:
            parts.append(ColorPart({le: 1 for le in star_clique_edges(lg, x)}, 1))
    return combine_colorings(lg.l_graph, parts)


def project_coloring(trace: TransformTrace, coloring: EdgeColoring) -> EdgeColoring:
    """Pull a coloring of L(final) back to L(source) along the trace.

    One forward pass follows every L(source) edge, a pair of source edges at
    a shared vertex, to the pair it becomes in L(final). Pairs are bucketed
    by their current shared vertex, so a step touches only the pairs at its
    own vertex. A detach renames the detached edge in the pairs at its ``v``
    end (the ``u`` end keeps the id). A vertex split moves the pairs whose
    edges both move and drops the pairs with one edge on each side: those
    adjacencies only exist before the split and get color 1 (the split line
    graph spans the original one). Survivors take their color from L(final).
    Cost: O(|E(L(source))|) plus the pairs at each step's vertex.
    """
    if coloring.graph != line_graph(trace.final_graph).l_graph:
        raise InputError("coloring does not match the line graph of the trace's final graph")
    if not trace.steps:
        return coloring
    return _pull_back(trace, coloring, line_graph(trace.source))


def _pull_back(trace: TransformTrace, coloring: EdgeColoring, lg: LineGraphResult) -> EdgeColoring:
    """``project_coloring`` without its input check, onto ``lg`` = L(trace.source)."""
    pairs = [list(p) for p in lg.l_graph.edges]
    # line_graph lists the pairs of each star together, vertices ascending
    bucket: dict[int, list[int]] = {}
    pos = 0
    for y, star in enumerate(lg.star_of):
        size = len(star) * (len(star) - 1) // 2
        bucket[y] = list(range(pos, pos + size))
        pos += size
    dropped: set[int] = set()
    for step, _ in trace.steps:
        if isinstance(step, EdgeDetachStep):
            for i in bucket.get(step.v, ()):
                pair = pairs[i]
                if pair[0] == step.edge:
                    pair[0] = step.new_edge
                elif pair[1] == step.edge:
                    pair[1] = step.new_edge
        else:
            moved = set(step.moved_edges)
            stay: list[int] = []
            go: list[int] = []
            for i in bucket.get(step.vertex, ()):
                f, h = pairs[i]
                inside = (f in moved) + (h in moved)
                if inside == 0:
                    stay.append(i)
                elif inside == 2:
                    go.append(i)
                else:
                    dropped.add(i)
            bucket[step.vertex] = stay
            bucket[step.new_vertex] = go
    index = coloring.graph.edge_index
    out = tuple(
        1 if i in dropped else coloring.colors[index[edge_key(f, h)]]
        for i, (f, h) in enumerate(pairs)
    )
    return EdgeColoring(lg.l_graph, out, coloring.k)


def _check_colorable(g: Graph) -> None:
    if not is_connected(g):
        raise InputError("graph must be connected")
    if g.m < 2:
        raise InputError("line graph is trivial; rainbow connection is undefined on it")


def _certify(g: Graph, lg: LineGraphResult, coloring: EdgeColoring, bound_name: str, bound_value: int) -> ColoringCertificate:
    """Verify ``coloring`` as a coloring of ``lg``, which must be L(g)."""
    from .oracle import is_rainbow_connected

    ok, witness = is_rainbow_connected(coloring.graph, coloring)
    if lg.source != g or coloring.graph != lg.l_graph:
        raise InvariantViolation("certificate target does not match the source's line graph")
    return ColoringCertificate(
        bound_name=bound_name,
        bound_value=bound_value,
        colors_used=coloring.k,
        verified=ok and coloring.k <= bound_value,
        witness_failure=witness,
    )


def _flatten_and_color(g: Graph, packing: TrianglePacking) -> tuple[EdgeColoring, LineGraphResult]:
    """Flatten the structure, color the star cliques of L(final) and pull the
    coloring back; returns it with L(g). Builds each line graph once: L(final)
    is L(g) when the trace is empty."""
    result = build_transformed(g, packing)
    lg_final = line_graph(result.graph)
    col_final = _structure_star_coloring(lg_final, result.triangles)
    if not result.trace.steps:
        return col_final, lg_final
    lg = line_graph(g)
    return _pull_back(result.trace, col_final, lg), lg


def color_forest_packing(g: Graph, packing: TrianglePacking) -> tuple[EdgeColoring, ColoringCertificate]:
    """Rainbow coloring of L(g) with ``n2 - t`` colors from a forest packing."""
    _check_colorable(g)
    if not packing.all_forest:
        raise InputError("packing structure must be a triangle-forest; use color_packing instead")
    col, lg = _flatten_and_color(g, packing)
    bound = degree_profile(g).n2 - packing.t
    cert = _certify(g, lg, col, "n2 - t", bound)
    return col, cert


def color_packing(g: Graph, packing: TrianglePacking) -> tuple[EdgeColoring, ColoringCertificate]:
    """Rainbow coloring of L(g) with ``t + n2' + c`` colors from any packing.

    Equals ``n2 + op - t``: each vertex split spends one extra color over the
    forest bound.
    """
    _check_colorable(g)
    col, lg = _flatten_and_color(g, packing)
    bound = packing.t + packing.n2_prime + packing.c
    cert = _certify(g, lg, col, "t + n2' + c", bound)
    return col, cert


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
    col, inner = color_packing(lg1.l_graph, packing)
    bound = g.n + 1
    if inner.bound_value != bound:
        raise InvariantViolation("cubic star packing should give t=n, n2'=0, c=1")
    return col, ColoringCertificate(
        bound_name="n + 1",
        bound_value=bound,
        colors_used=col.k,
        verified=inner.verified and col.k <= bound,
        witness_failure=inner.witness_failure,
    )


def pendant_two_path_count(g: Graph) -> int:
    """Number of degree-1 vertices whose unique neighbor has degree 2."""
    return sum(
        1
        for v in range(g.n)
        if g.degree(v) == 1 and g.degree(g.adjacency[v][0]) == 2
    )


def color_iterated_baseline(g: Graph) -> tuple[EdgeColoring, ColoringCertificate]:
    """Rainbow coloring of the twice-iterated line graph with ``m - m1`` colors.

    One fresh color per star clique of each inner vertex of L(g); the count
    is exact because L(g) has ``m`` vertices of which ``m1`` are pendant.
    """
    if not is_connected(g):
        raise InputError("graph must be connected")
    chain = iterated_line_graph(g, 2)
    lg1, lg2 = chain
    if lg2.l_graph.n < 2:
        raise InputError("twice-iterated line graph is trivial")
    inner = [x for x in range(lg1.l_graph.n) if lg1.l_graph.degree(x) >= 2]
    parts = [ColorPart({le: 1 for le in star_clique_edges(lg2, x)}, 1) for x in inner]
    col = combine_colorings(lg2.l_graph, parts)
    bound = g.m - pendant_two_path_count(g)
    if col.k != bound:
        raise InvariantViolation(f"used {col.k} colors, pendant accounting says {bound}")
    return col, _certify(lg1.l_graph, lg2, col, "m - m1", bound)
