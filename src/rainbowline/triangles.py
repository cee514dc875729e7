"""Edge-disjoint triangle packings and the two structure-flattening transforms.

A ``TrianglePacking`` stores only its sorted triangles and its graph, and
checks on construction that the triangles are pairwise edge-disjoint
triangles of that graph with current side ids, so no packing exists that
its graph would refuse. Everything else is derived from those two: its
components (by union-find), their vertices, the covered vertices, ``t``,
``c``, ``n2' = n2 - |covered|``, ``op`` and the forest verdict, so a packing
cannot disagree with its own triangles or its graph. A packing's induced
subgraph splits into components; a component is a triangle-forest when
every block of it is a single triangle, equivalently when its
triangle-vertex incidence graph is a tree, that is when it has
``2*t_i + 1`` vertices. The whole packing is one exactly when ``op = 0``,
so no per-component verdict is kept. ``classify_structure`` sorts a set of
triangles and packs them with the graph. ``pack_edge_disjoint`` packs in
one mode and classifies the pick; ``pack_modes`` picks in several modes
from one enumeration and classifies nothing, so a caller classifies only
the pick it builds on.

``build_transformed`` first detaches every non-triangle edge between covered
vertices (an ``EdgeDetachStep``: two pendant edges replace it), then
flattens in one ascending sweep over the covered vertices: at each vertex
``v`` it moves to a fresh vertex (a ``VertexSplitStep``) every triangle
whose incidence with ``v`` still lies on a cycle of the incidence graph.
No cycle is searched for: one union-find pass over the vertices, from the
highest down, records which of ``v``'s triangles meet above ``v``, and that
decides every split. Every step is planned on the packing's incidence
structure alone and records only the edge ends it moves; new ids follow from
the order of the steps. ``TransformTrace.moved_ends`` decodes them into one
map, and the flattened graph is never built. The number of splits is the
number of incidences outside a spanning forest of that graph, the structure
defect ``op = 2t + c - |covered|``: with ``3t`` incidences, ``|covered| + t``
nodes and ``c`` components, that is the graph's cycle rank, so at ``op = 0``
nothing can split and the sweep is skipped. The flattened structure is not
classified again: it keeps the packing's components, in the same order, and
its uncovered inner vertices.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputError, InvariantViolation, LimitError
from .graphs import Graph

DEFAULT_EXACT_CAP = 24

PACK_MODES = ("greedy", "exact", "forest_greedy", "forest_exact")


@dataclass(frozen=True, order=True)
class Triangle:
    """Corners ``a < b < c`` and the ids of the sides ``(ab, ac, bc)``."""

    vertices: tuple[int, int, int]
    edge_ids: tuple[int, int, int]

    def opposite(self, x: int) -> int:
        """The id of the side not at corner ``x``."""
        return self.edge_ids[2 - self.vertices.index(x)]


@dataclass(frozen=True)
class TrianglePacking:
    """A set of pairwise edge-disjoint triangles of ``graph``, sorted;
    every statistic is read off these two. Construction checks the
    triangles in order and raises ``InputError`` on the first whose side ids
    are not its sides in ``graph`` (``make_triangle`` names corners that are
    not a triangle) or that shares an edge with one before it.
    ``op = 2t + c - |covered|`` sums each component's incidence-graph cycle
    rank ``2*t_i + 1 - |V_i| >= 0``: a triangle-forest exactly when ``op = 0``.
    ``components``, ``component_vertices`` and ``covered_vertices`` are
    computed on first use and cached, like ``Graph``'s derived values."""

    triangles: tuple[Triangle, ...]
    graph: Graph

    def __post_init__(self):
        ids = self.graph.edge_index
        used: set[int] = set()
        for tri in self.triangles:
            a, b, c = tri.vertices
            if (ids.get((a, b)), ids.get((a, c)), ids.get((b, c))) != tri.edge_ids:
                make_triangle(self.graph, a, b, c)
                raise InputError(f"triangle {tri.vertices} has stale edge ids for this graph")
            if used.intersection(tri.edge_ids):
                raise InputError(f"triangle {tri.vertices} shares an edge with another")
            used.update(tri.edge_ids)

    @cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """Each component's triangle indices, ascending; the components in
        order of their lowest vertex."""
        dsu = _DSU()
        for tri in self.triangles:
            dsu.add_triangle(tri)
        # the union keeps the lower root, so a root is its component's lowest vertex
        groups: dict[int, list[int]] = {}
        for idx, tri in enumerate(self.triangles):
            groups.setdefault(dsu.find(tri.vertices[0]), []).append(idx)
        return tuple(tuple(groups[r]) for r in sorted(groups))

    @cached_property
    def component_vertices(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(v for i in ix for v in self.triangles[i].vertices) for ix in self.components)

    @cached_property
    def covered_vertices(self) -> frozenset[int]:
        return frozenset(v for tri in self.triangles for v in tri.vertices)

    @property
    def t(self) -> int:
        return len(self.triangles)

    @property
    def c(self) -> int:
        return len(self.components)

    @property
    def n2_prime(self) -> int:
        return self.graph.n2 - len(self.covered_vertices)

    @property
    def op(self) -> int:
        return 2 * self.t + self.c - len(self.covered_vertices)

    @property
    def all_forest(self) -> bool:
        return self.op == 0


@dataclass(frozen=True)
class EdgeDetachStep:
    """Edge ``u-v`` cut into two pendant edges: the ``u`` end keeps ``edge``
    and the ``v`` end moves to ``new_edge``. Each end gets a new leaf, the
    next two vertex ids in the order of the steps."""

    edge: int
    v: int
    new_edge: int


@dataclass(frozen=True)
class VertexSplitStep:
    """``vertex`` split in two: the two sides at ``vertex`` of one triangle,
    ``moved_edges``, move to ``new_vertex``, the next vertex id in the order
    of the steps. Every edge keeps its id."""

    vertex: int
    new_vertex: int
    moved_edges: tuple[int, ...]


TraceStep = EdgeDetachStep | VertexSplitStep


@dataclass(frozen=True)
class TransformTrace:
    """The steps that flatten ``source``, in order; no flattened graph is
    kept. ``moved_ends`` says where they take each edge end."""

    source: Graph
    steps: tuple[TraceStep, ...]

    @property
    def split_count(self) -> int:
        return sum(1 for step in self.steps if isinstance(step, VertexSplitStep))

    def moved_ends(self) -> dict[tuple[int, int], tuple[int, int]]:
        """Each edge end a step moves, ``(edge, vertex)`` in ``source``, mapped
        to where it lands in the flattened graph, ``(edge, vertex)``; every
        other end stays put. A detach sends its edge's ``v`` end to
        ``(new_edge, v)`` (the ``u`` end keeps the old id), and a split sends
        each moved side's end at its vertex to ``(side, new_vertex)``.

        One map serves both kinds of step because detaches touch only chords
        and splits move only triangle sides, each side at most once per
        corner, so no end is moved twice. Reading it straight off the steps
        is exact for the traces ``build_transformed`` makes: the detaches
        come first and every step acts on a vertex of ``source``, so each key
        names an end of ``source``.
        """
        moved = {}
        for step in self.steps:
            if isinstance(step, EdgeDetachStep):
                moved[step.edge, step.v] = (step.new_edge, step.v)
            else:
                moved.update(((e, step.vertex), (e, step.new_vertex)) for e in step.moved_edges)
        return moved


@dataclass(frozen=True)
class TransformResult:
    trace: TransformTrace
    triangles: tuple[Triangle, ...]  # index-aligned with the packing's triangles


def make_triangle(g: Graph, a: int, b: int, c: int) -> Triangle:
    vs = tuple(sorted((a, b, c)))
    if len(set(vs)) != 3:
        raise InputError(f"triangle vertices must be distinct: {vs}")
    try:
        eids = (g.edge_id(vs[0], vs[1]), g.edge_id(vs[0], vs[2]), g.edge_id(vs[1], vs[2]))
    except KeyError as exc:
        raise InputError(f"{vs} is not a triangle of the graph") from exc
    return Triangle(vs, eids)


def enumerate_triangles(g: Graph) -> list[Triangle]:
    """Every 3-clique exactly once, in canonical vertex order."""
    adj = [set(g.adjacency[v]) for v in range(g.n)]
    corners = sorted(
        (u, v, w) for u, v in (sorted(e) for e in g.edges) for w in adj[u] & adj[v] if w > v
    )
    ids = g.edge_index
    # corners come sorted and distinct and every side is an edge: no make_triangle checks
    return [Triangle((a, b, c), (ids[a, b], ids[a, c], ids[b, c])) for a, b, c in corners]


def _edge_mask(tri: Triangle) -> int:
    return (1 << tri.edge_ids[0]) | (1 << tri.edge_ids[1]) | (1 << tri.edge_ids[2])


class _DSU:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def copy(self) -> "_DSU":
        out = _DSU()
        out.parent = dict(self.parent)
        return out

    def find(self, v: int) -> int:
        p = self.parent.setdefault(v, v)
        while p != self.parent[p]:
            self.parent[p] = self.parent[self.parent[p]]
            p = self.parent[p]
        self.parent[v] = p
        return p

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def add_triangle(self, tri: Triangle) -> None:
        a, b, c = tri.vertices
        self.union(a, b)
        self.union(a, c)

    def keeps_forest(self, tri: Triangle) -> bool:
        """Adding ``tri`` keeps a triangle-forest iff its corners lie in three
        distinct components of the current structure."""
        return len({self.find(v) for v in tri.vertices}) == 3


def _pack_greedy(tris: Sequence[Triangle], forest: bool) -> list[Triangle]:
    chosen: list[Triangle] = []
    used = 0
    dsu = _DSU()
    for tri in tris:
        mask = _edge_mask(tri)
        if used & mask:
            continue
        if forest and not dsu.keeps_forest(tri):
            continue
        chosen.append(tri)
        used |= mask
        if forest:
            dsu.add_triangle(tri)
    return chosen


def _pack_exact(tris: Sequence[Triangle], forest: bool) -> list[Triangle]:
    if len(tris) > DEFAULT_EXACT_CAP:
        raise LimitError(f"exact packing capped at {DEFAULT_EXACT_CAP} triangles, instance has {len(tris)}")
    masks = [_edge_mask(t) for t in tris]
    # no greedy seed: taking first, the first leaf is the greedy pick, and only a larger one replaces it
    best: list[int] = []
    n_t = len(tris)
    chosen: list[int] = []

    def dfs(i: int, used: int, dsu: _DSU) -> None:
        nonlocal best
        if len(chosen) + (n_t - i) <= len(best):
            return
        if i == n_t:
            best = chosen.copy()
            return
        tri = tris[i]
        if not (masks[i] & used) and (not forest or dsu.keeps_forest(tri)):
            taken = dsu
            if forest:
                taken = dsu.copy()
                taken.add_triangle(tri)
            chosen.append(i)
            dfs(i + 1, used | masks[i], taken)
            chosen.pop()
        dfs(i + 1, used, dsu)

    dfs(0, 0, _DSU())
    return [tris[i] for i in best]


def _select(tris: Sequence[Triangle], mode: str) -> list[Triangle]:
    if mode not in PACK_MODES:
        raise InputError(f"unknown packing mode {mode!r}")
    forest = mode.startswith("forest")
    return _pack_greedy(tris, forest) if mode.endswith("greedy") else _pack_exact(tris, forest)


def pack_edge_disjoint(g: Graph, mode: str = "greedy") -> TrianglePacking:
    """Pick pairwise edge-disjoint triangles and classify the structure.

    Every mode reads the triangles in canonical order. A greedy mode takes
    each triangle that fits beside the ones it took before. An exact mode
    returns the first largest packing in canonical order: its search takes
    a triangle before it skips it and keeps only a strictly larger pick. It
    raises ``LimitError`` above ``DEFAULT_EXACT_CAP`` triangles. The forest
    modes admit a triangle only when its corners lie in three components of
    the triangles before it, so the structure stays a triangle-forest.
    """
    return classify_structure(g, _select(enumerate_triangles(g), mode))


def pack_modes(g: Graph, modes: Sequence[str] = PACK_MODES) -> dict[str, tuple[Triangle, ...] | None]:
    """Each mode's pick, ``pack_edge_disjoint(g, mode).triangles``, from one
    enumeration of the triangles, with ``None`` for an exact mode past
    ``DEFAULT_EXACT_CAP``. Nothing is classified."""
    tris = enumerate_triangles(g)
    out: dict[str, tuple[Triangle, ...] | None] = {}
    for mode in modes:
        try:
            out[mode] = tuple(_select(tris, mode))
        except LimitError:
            out[mode] = None
    return out


def classify_structure(g: Graph, triangles: Iterable[Triangle]) -> TrianglePacking:
    """Pack ``triangles``, sorted, with ``g``; the packing checks that they
    are pairwise edge-disjoint triangles of ``g`` with current side ids."""
    return TrianglePacking(tuple(sorted(triangles)), g)


def _moved_triangle(tri: Triangle, v: int, new_vertex: int) -> Triangle:
    """``tri`` after a split moved its corner ``v`` to ``new_vertex``, the
    highest vertex id. A split keeps every edge id."""
    p, q = (x for x in tri.vertices if x != v)
    return Triangle((p, q, new_vertex), (tri.opposite(v), tri.opposite(q), tri.opposite(p)))


def build_transformed(g: Graph, packing: TrianglePacking) -> TransformResult:
    """Detach chords inside each covered set, then flatten every component
    into a triangle-forest in one sweep.

    The sweep visits the covered vertices in ascending order and, at each
    vertex ``v``, its triangles in ascending order; a triangle whose incidence
    with ``v`` still lies on a cycle of the incidence graph moves to a fresh
    leaf vertex. That is reverse-delete: a kept incidence was a bridge when
    visited, so no later cycle uses it, and by the cycle property ``(v, i)``
    is split exactly when triangle ``i`` reaches ``v`` through incidences
    later in the sweep. ``v`` has only its own incidences, so that is when a
    later triangle at ``v`` shares ``i``'s component in the incidence graph
    on the vertices above ``v``, whatever their order. One union-find pass,
    descending, records that root for each triangle at each corner, and at
    ``v`` every triangle but the last of each root moves. The order at ``v``
    is that of the current triangles, not the packing's: a triangle moved at
    a lower corner has a new, highest corner and sorts again. The split
    count must equal ``packing.op``. That count is the cycle rank of the
    incidence graph, so at ``op = 0`` the graph is a forest, nothing can
    split and the sweep is skipped.

    New vertices and edges take the next free ids in the order of the steps;
    a detach keeps the edge's id on its ``u`` side, and a split keeps every
    edge id. The result's triangles are the packing's, index for index, with
    moved corners renamed. A split never moves a component's lowest vertex
    and a new vertex is covered or a leaf, so ``packing`` still gives the
    components and uncovered inner vertices. ``g`` is not checked for
    connectivity: every back end has checked it. A packing of another graph
    raises ``InputError``, even where its triangles are current in ``g``
    too; ``classify_structure(g, packing.triangles)`` re-targets it."""
    if packing.graph != g:
        raise InputError("packing is of another graph")
    comp_of = {v: i for i, vs in enumerate(packing.component_vertices) for v in vs}
    tri_edges = {eid for tri in packing.triangles for eid in tri.edge_ids}
    # component by component, ascending edge id within each
    chords = sorted(
        (comp_of[a], eid)
        for eid, (a, b) in enumerate(g.edges)
        if a in comp_of and comp_of[a] == comp_of.get(b) and eid not in tri_edges
    )
    # a chord's ends are covered and triangle edges stay, so no end drops below degree 2
    steps: list[TraceStep] = [
        EdgeDetachStep(eid, g.edges[eid][1], new_edge) for new_edge, (_, eid) in enumerate(chords, g.m)
    ]
    n = g.n + 2 * len(chords)
    tris = list(packing.triangles)
    # op is the cycle rank of the incidence graph: at 0 it is a forest and nothing splits
    if packing.op:
        at: dict[int, list[int]] = {}
        for i, tri in enumerate(tris):
            for x in tri.vertices:
                at.setdefault(x, []).append(i)
        # union-find nodes: vertex v and triangle ~i
        dsu = _DSU()
        root: dict[int, dict[int, int]] = {}
        for v in sorted(at, reverse=True):
            root[v] = {i: dsu.find(~i) for i in at[v]}
            for i in at[v]:
                dsu.union(v, ~i)
        for v in sorted(at):
            order = sorted(at[v], key=tris.__getitem__)
            last = {root[v][i]: i for i in order}  # the last triangle of each root stays
            for i in order:
                if last[root[v][i]] == i:
                    continue
                moved_edges = tuple(sorted(eid for eid in tris[i].edge_ids if eid != tris[i].opposite(v)))
                steps.append(VertexSplitStep(v, n, moved_edges))
                tris[i] = _moved_triangle(tris[i], v, n)
                n += 1
    splits = len(steps) - len(chords)
    if splits != packing.op:
        raise InvariantViolation(f"applied {splits} vertex splits, structure defect says {packing.op}")
    return TransformResult(TransformTrace(source=g, steps=tuple(steps)), tuple(tris))
