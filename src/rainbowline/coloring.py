"""Constructive rainbow colorings of line graphs and iterated line graphs.

All four bounds use one construction on a graph H and a packing: flatten the
structure, then color L(H) star clique by star clique. The star of each
inner vertex ``x`` of the flattened graph follows one rule ``(s, a, b)``:
pairs containing the special edge ``s`` get color ``a``, every other pair
gets ``b``. Each forest component's stars take ``t_i + 1`` colors by peeling
leaf triangles; every other inner vertex's star takes one fresh color, with
no special edge and ``a = b``. Components and inner vertices are read from
the input packing and graph, so the structure is classified once. Each pair
of L(H) is colored by the rule of the flattened vertex it lands on, so the
construction builds exactly one line graph, L(H), and certifies the
coloring against Theorem 3.2's ``t + n2' + c``. The rules fix the palette,
so a palette over the verifier's cap is refused before L(H) is built. The
other three bounds are instances of it: ``n2 - t`` on G with a
triangle-forest (``op = 0``), ``n + 1`` on L(G) with its vertex-star
triangles, and ``m - m1`` on L(G) with no triangles. Their back ends
restate the construction's certificate under their own bound
(``_restate``), which checks the paper's value equals ``t + n2' + c``.
Each of the four back ends returns its coloring with a certificate
recording the bound, the number of colors used, and the verifier verdict.
``color`` is the entry point: it picks the packing for ``31`` and ``32``
(``pick_packing``, whose mode rule ``default_mode`` the bench rows share)
and dispatches to the back end.
"""

import heapq
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Iterator, Sequence

from .errors import InputError, InvariantViolation
from .graphs import Graph, edge_key, is_connected
from .linegraph import LineGraphResult, iterated_line_graph, line_graph
from .triangles import (
    TransformTrace,
    Triangle,
    TrianglePacking,
    build_transformed,
    classify_structure,
    pack_edge_disjoint,
    pack_modes,
)

THEOREMS = ("31", "32", "cubic", "iterated")
# The packing modes each packing theorem tries in order unless one is
# requested: the exact search, then the greedy scan past its triangle cap.
DEFAULT_PACK = {"31": ("forest_exact", "forest_greedy"), "32": ("exact", "greedy")}


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
    """Concatenate disjoint palettes over an edge partition; ``k`` adds up.

    No construction calls this; it stays for the benchmark's tracer, which
    looks it up here by name."""
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


def color_triangle_tree(tris: Sequence[Triangle]) -> tuple[dict[int, tuple[int, int, int]], int]:
    """Star rules ``x -> (s, a, b)`` for the vertices of one triangle-tree
    component, using ``t_i + 1`` colors. Each special edge ``s`` is a side of
    a triangle, read with ``Triangle.opposite``.

    One pass over a leaf queue peels the lowest leaf triangle (exactly one
    corner shared with the rest) until one triangle ``uvw`` is left; it gets
    ``u: (uv, 1, 2)``, ``v: (vw, 1, 2)`` and ``w: (uw, 1, 2)``. Then the
    peeled leaves are colored in reverse peel order: a leaf with shared
    corner ``u`` and other corners ``v < w`` spends one fresh color ``f`` on
    ``v: (uv, f, 2)`` and ``w: (uw, f, 1)``. Cost: O(t_i) heap operations.
    """
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
    u, v, w = last.vertices
    rules = {u: (last.opposite(w), 1, 2), v: (last.opposite(u), 1, 2), w: (last.opposite(v), 1, 2)}
    fresh = 2
    for leaf, u in reversed(peels):
        fresh += 1
        v, w = (x for x in leaf.vertices if x != u)
        rules[v] = (leaf.opposite(w), fresh, 2)
        rules[w] = (leaf.opposite(v), fresh, 1)
    return rules, fresh


def project_coloring(trace: TransformTrace, coloring: EdgeColoring) -> EdgeColoring:
    """Pull a coloring of L(final) back to L(source) along the trace.

    Each L(source) edge is two edge ends at one source vertex, and
    ``trace.moved_ends()`` says where each end lands (``_landings`` reads
    it). The edge takes the color of the L(final) edge between the two
    landed ends, or color 1 when they land on different vertices, a pair a
    split cut, since the split line graph spans the original one. Each
    L(final) edge is the landing of exactly one uncut L(source) edge, so
    ``coloring``'s graph is checked against the landings, with no final
    graph. No construction calls this; the benchmark's tracer looks it up
    here by name.
    """
    lg = line_graph(trace.source)
    landed = [(y, edge_key(e, f)) for y, e, f in _landings(trace, lg)]
    kept = {pair for y, pair in landed if y is not None}
    index = coloring.graph.edge_index
    size = (trace.source.m + len(trace.steps) - trace.split_count, len(kept))
    if (coloring.graph.n, coloring.graph.m) != size or not kept <= index.keys():
        raise InputError("coloring does not match the line graph of the trace's final graph")
    colors = tuple(1 if y is None else coloring.colors[index[pair]] for y, pair in landed)
    return EdgeColoring(lg.l_graph, colors, coloring.k)


def _landings(trace: TransformTrace, lg: LineGraphResult) -> Iterator[tuple[int | None, int, int]]:
    """Where each edge of ``lg`` = L(trace.source) lands in the flattened graph.

    An L(source) edge is a pair of source edges ``e, f`` meeting at a source
    vertex ``x``. Each of the two edge ends ``(e, x)`` and ``(f, x)`` lands
    where ``trace.moved_ends()`` sends it, or stays put. Yields, in L-edge
    id order, the flattened vertex both ends land on and their flattened
    edge ids; the vertex is ``None`` when a split cut the pair apart.
    Cost: O(|E(L(source))|) plus one pass over the steps.
    """
    moved = trace.moved_ends()
    # line_graph lists each star's pairs together, vertices ascending
    for x, star in enumerate(lg.source.incident_edges):
        ends = [moved.get((e, x), (e, x)) for e in star]
        for (e, y), (f, z) in combinations(ends, 2):
            yield (y if y == z else None), e, f


def _check_colorable(g: Graph) -> None:
    if not is_connected(g):
        raise InputError("graph must be connected")
    if g.m < 2:
        raise InputError("line graph is trivial; rainbow connection is undefined on it")


def _construct(g: Graph, packing: TrianglePacking) -> tuple[EdgeColoring, ColoringCertificate]:
    """Theorem 3.2, the one construction behind every bound: flatten the
    structure, give each inner vertex of the final graph a star rule
    ``(s, a, b)``, color L(g) pair by pair from the rule of the final vertex
    the pair lands on, and certify it against ``t + n2' + c``. Each forest
    component's rules take ``t_i + 1`` colors, each other inner vertex's
    one; a pair a split cut apart gets color 1. Components are ``packing``'s
    over the flattened triangles, and a cycle left in one fails in
    ``color_triangle_tree``. The rules fix the palette ``k``, so
    ``check_palette`` refuses one over the verifier's cap before L(g), the
    one line graph built, exists. The certificate counts the colors that
    appear, which on L(K3) is one of the palette's two. The oracle is
    imported at call time, so a wrapper set on the ``oracle`` module is the
    one that runs."""
    from .oracle import check_palette, is_rainbow_connected

    result = build_transformed(g, packing)
    rules: dict[int, tuple[int | None, int, int]] = {}
    k = 0
    for comp in packing.components:
        tree, used = color_triangle_tree([result.triangles[i] for i in comp])
        for x, (s, a, b) in tree.items():
            rules[x] = (s, k + a, k + b)
        k += used
    for x in range(g.n):
        if g.degree(x) >= 2 and x not in packing.covered_vertices:
            k += 1
            rules[x] = (None, k, k)
    check_palette(k)
    lg = line_graph(g)
    colors = []
    for y, e, f in _landings(result.trace, lg):
        if y is None:
            colors.append(1)
        else:
            s, a, b = rules[y]
            colors.append(a if s in (e, f) else b)
    col = EdgeColoring(lg.l_graph, tuple(colors), k)
    ok, witness = is_rainbow_connected(col)
    name, value = _general_bound(packing)
    used = len(set(colors))
    return col, ColoringCertificate(name, value, used, ok and used <= value, witness)


def _restate(cert: ColoringCertificate, name: str, value: int) -> ColoringCertificate:
    """``cert`` under the paper's bound ``name``, whose value on the same
    graph and packing must be the certified one; only the name changes."""
    if value != cert.bound_value:
        raise InvariantViolation(f"{name} = {value} differs from the certified {cert.bound_name} = {cert.bound_value}")
    return replace(cert, bound_name=name)


def color_forest_packing(g: Graph, packing: TrianglePacking) -> tuple[EdgeColoring, ColoringCertificate]:
    """Rainbow coloring of L(g) with ``n2 - t`` colors from a forest packing:
    ``t + n2' + c`` at ``op = 0``."""
    _check_colorable(g)
    if not packing.all_forest:
        raise InputError("packing structure must be a triangle-forest; theorem 32 takes any packing")
    col, cert = _construct(g, packing)
    return col, _restate(cert, "n2 - t", g.n2 - packing.t)


def color_packing(g: Graph, packing: TrianglePacking) -> tuple[EdgeColoring, ColoringCertificate]:
    """Rainbow coloring of L(g) with ``t + n2' + c`` colors from any packing.

    Equals ``n2 + op - t``: each vertex split spends one extra color over the
    forest bound.
    """
    _check_colorable(g)
    return _construct(g, packing)


def _general_bound(packing: TrianglePacking) -> tuple[str, int]:
    return "t + n2' + c", packing.t + packing.n2_prime + packing.c


def color_cubic_iterated(g: Graph) -> tuple[EdgeColoring, ColoringCertificate]:
    """Rainbow coloring of the twice-iterated line graph of a cubic graph.

    In L(g) the star of each vertex is a triangle; those n triangles are
    edge-disjoint and cover everything, so the general packing bound gives
    ``n + 1`` colors.
    """
    _check_colorable(g)
    if any(g.degree(v) != 3 for v in range(g.n)):
        raise InputError("every vertex must have degree exactly 3")
    lg1 = line_graph(g)
    ids = lg1.l_graph.edge_index
    # each star lists its edges ascending, as a Triangle's corners;
    # classify_structure checks every side id
    tris = [Triangle((a, b, c), (ids[a, b], ids[a, c], ids[b, c])) for a, b, c in g.incident_edges]
    col, cert = _construct(lg1.l_graph, classify_structure(lg1.l_graph, tris))
    return col, _restate(cert, "n + 1", g.n + 1)


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
    L(g) is built as ``iterated_line_graph``'s first iterate, so one past
    ``ITERATE_EDGE_CAP`` edges is refused before it is built.
    """
    if not is_connected(g):
        raise InputError("graph must be connected")
    lg = iterated_line_graph(g, 1)[0].l_graph
    if lg.m == 0:
        raise InputError("iteration 2: graph has no edges")
    if lg.m == 1:
        raise InputError("twice-iterated line graph is trivial")
    col, cert = _construct(lg, classify_structure(lg, ()))
    return col, _restate(cert, "m - m1", g.m - pendant_two_path_count(g))


@dataclass(frozen=True)
class Run:
    """One bound's construction. ``packing`` and ``mode`` are ``None`` for
    ``cubic`` and ``iterated``, which take no packing."""

    packing: TrianglePacking | None
    mode: str | None
    coloring: EdgeColoring
    certificate: ColoringCertificate


def color(g: Graph, theorem: str, pack: str | None = None) -> Run:
    """Color L(g) (``31``, ``32``) or L(L(g)) (``cubic``, ``iterated``) within
    the theorem's bound and certify it.

    ``31`` and ``32`` pack as ``pick_packing`` says, once the graph is
    known to be colorable, so a graph the edges cannot connect is refused
    before any per-vertex work. ``cubic`` and ``iterated`` take no packing,
    so a ``pack`` with them is an ``InputError``, as is an unknown theorem.
    """
    if theorem not in THEOREMS:
        raise InputError(f"unknown theorem {theorem!r}; expected one of {', '.join(THEOREMS)}")
    if theorem not in DEFAULT_PACK:
        if pack is not None:
            raise InputError(f"theorem {theorem} takes no packing; pack applies only to theorems 31 and 32")
        build = color_cubic_iterated if theorem == "cubic" else color_iterated_baseline
        return Run(None, None, *build(g))
    _check_colorable(g)
    packing, mode = pick_packing(g, theorem, pack)
    build = color_forest_packing if theorem == "31" else color_packing
    return Run(packing, mode, *build(g, packing))


def pick_packing(g: Graph, theorem: str, pack: str | None = None) -> tuple[TrianglePacking, str]:
    """The packing ``color`` uses for theorem ``31`` or ``32``, and its mode.

    ``pack`` if given, and a ``LimitError`` from that mode propagates.
    Otherwise the ``default_mode`` of the picks of ``DEFAULT_PACK[theorem]``,
    from one enumeration; only the chosen pick is classified.
    """
    if pack is not None:
        return pack_edge_disjoint(g, pack), pack
    picks = pack_modes(g, DEFAULT_PACK[theorem])
    mode = default_mode(picks, theorem)
    return classify_structure(g, picks[mode]), mode


def default_mode(picks: dict[str, tuple[Triangle, ...] | None], theorem: str) -> str:
    """The default packing mode of theorem ``31`` or ``32``, given each
    mode's pick (``None`` past the exact search's cap, as in
    ``pack_modes``): the first mode of ``DEFAULT_PACK[theorem]`` with a pick.
    """
    return next(mode for mode in DEFAULT_PACK[theorem] if picks[mode] is not None)


def general_from_forest(forest: Run, mode: str) -> Run:
    """Theorem ``32``'s run on the packing of ``forest``, a theorem ``31``
    run, without building its coloring again.

    A triangle-forest packing has ``op = 0``, so ``t + n2' + c = n2 - t``
    and the general construction on it is exactly the forest one: the same
    coloring, the same verdict. The certificate carries the general bound's
    own name and value. ``mode`` is the mode that picked the packing for
    ``32``.
    """
    packing = forest.packing
    return Run(packing, mode, forest.coloring, _restate(forest.certificate, *_general_bound(packing)))
