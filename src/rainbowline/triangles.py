"""Edge-disjoint triangle packings and the two structure-flattening transforms.

A packing's induced subgraph splits into components; a component is a
triangle-forest when every block of it is a single triangle, equivalently
when its triangle-vertex incidence graph is a tree, that is when it has
``2*t_i + 1`` vertices. ``classify_structure`` tests the vertex count.

``build_transformed`` first detaches every non-triangle edge between covered
vertices (``detach_edge``), then flattens in one ascending sweep over the
covered vertices: at each vertex ``v`` it moves to a fresh vertex
(``split_vertex``) every triangle whose incidence with ``v`` lies on a cycle
of the incidence graph. The number of splits is the number of incidences
outside a spanning forest of that graph, the structure defect
``op = 2t + c - |covered|``.
"""

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import InputError, InvariantViolation, LimitError
from .graphs import Graph, degree_profile, edge_key, is_connected

DEFAULT_EXACT_CAP = 24

PACK_MODES = ("greedy", "exact", "forest_greedy", "forest_exact")


@dataclass(frozen=True, order=True)
class Triangle:
    vertices: tuple[int, int, int]
    edge_ids: tuple[int, int, int]


@dataclass(frozen=True)
class TrianglePacking:
    """A set of pairwise edge-disjoint triangles with structure statistics."""

    triangles: tuple[Triangle, ...]
    components: tuple[tuple[int, ...], ...]
    component_vertices: tuple[frozenset[int], ...]
    t: int
    t_i: tuple[int, ...]
    c: int
    covered_vertices: frozenset[int]
    n2_prime: int
    is_forest: tuple[bool, ...]
    op: int

    @property
    def all_forest(self) -> bool:
        return all(self.is_forest)


@dataclass(frozen=True)
class EdgeDetachStep:
    """Edge ``u-v`` replaced by two pendant edges ``u-u_new`` and ``v-v_new``."""

    edge: int
    u: int
    v: int
    u_new: int
    v_new: int
    new_edge: int


@dataclass(frozen=True)
class VertexSplitStep:
    """Vertex split into two nonadjacent copies partitioning its triangles."""

    vertex: int
    new_vertex: int
    moved_edges: tuple[int, ...]
    kept_triangles: tuple[Triangle, ...]
    moved_triangles: tuple[Triangle, ...]


TraceStep = EdgeDetachStep | VertexSplitStep


@dataclass(frozen=True)
class TransformTrace:
    source: Graph
    steps: tuple[tuple[TraceStep, Graph], ...]

    @property
    def final_graph(self) -> Graph:
        return self.steps[-1][1] if self.steps else self.source

    @property
    def split_count(self) -> int:
        return sum(1 for step, _ in self.steps if isinstance(step, VertexSplitStep))


@dataclass(frozen=True)
class TransformResult:
    graph: Graph
    trace: TransformTrace
    triangles: tuple[Triangle, ...]


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
    out = []
    for u, v in (sorted(e) for e in g.edges):
        for w in sorted(adj[u] & adj[v]):
            if w > v:
                out.append(make_triangle(g, u, v, w))
    out.sort()
    return out


def _edge_mask(tri: Triangle) -> int:
    return (1 << tri.edge_ids[0]) | (1 << tri.edge_ids[1]) | (1 << tri.edge_ids[2])


def _is_current(g: Graph, tri: Triangle) -> bool:
    """Are ``tri``'s edge ids the ids of its sides in ``g``? The fast path of
    ``make_triangle(g, *tri.vertices) == tri`` for a simple graph."""
    return all(
        0 <= eid < g.m and edge_key(*g.edges[eid]) == side
        for eid, side in zip(tri.edge_ids, combinations(tri.vertices, 2))
    )


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


def _pack_exact(tris: Sequence[Triangle], forest: bool, cap: int) -> list[Triangle]:
    if len(tris) > cap:
        raise LimitError(f"exact packing capped at {cap} triangles, instance has {len(tris)}")
    masks = [_edge_mask(t) for t in tris]
    best = [tris.index(t) for t in _pack_greedy(tris, forest)]
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


def pack_edge_disjoint(g: Graph, mode: str = "greedy", max_triangles: int = DEFAULT_EXACT_CAP) -> TrianglePacking:
    """Pick pairwise edge-disjoint triangles and classify the structure.

    Greedy modes scan triangles in canonical order; exact modes search all
    subsets (capped). Forest modes additionally keep the structure a
    triangle-forest.
    """
    if mode not in PACK_MODES:
        raise InputError(f"unknown packing mode {mode!r}")
    tris = enumerate_triangles(g)
    forest = mode.startswith("forest")
    if mode.endswith("greedy"):
        chosen = _pack_greedy(tris, forest)
    else:
        chosen = _pack_exact(tris, forest, max_triangles)
    return classify_structure(g, chosen)


def classify_structure(g: Graph, triangles: Iterable[Triangle]) -> TrianglePacking:
    """Complete the structure statistics for a set of edge-disjoint triangles."""
    tris = tuple(sorted(triangles))
    used = 0
    for tri in tris:
        if not _is_current(g, tri) and make_triangle(g, *tri.vertices) != tri:
            raise InputError(f"triangle {tri.vertices} has stale edge ids for this graph")
        mask = _edge_mask(tri)
        if used & mask:
            raise InputError(f"triangle {tri.vertices} shares an edge with another")
        used |= mask
    dsu = _DSU()
    for tri in tris:
        dsu.add_triangle(tri)
    covered = frozenset(v for tri in tris for v in tri.vertices)
    root_of = {v: dsu.find(v) for v in covered}
    roots = sorted(set(root_of.values()))
    root_index = {r: i for i, r in enumerate(roots)}
    comp_tri: list[list[int]] = [[] for _ in roots]
    for idx, tri in enumerate(tris):
        comp_tri[root_index[root_of[tri.vertices[0]]]].append(idx)
    buckets: list[list[int]] = [[] for _ in roots]
    for v, r in root_of.items():
        buckets[root_index[r]].append(v)
    comp_verts = [frozenset(b) for b in buckets]
    t = len(tris)
    c = len(roots)
    op = 2 * t + c - len(covered)
    if op < 0:
        raise InvariantViolation(f"negative structure defect op={op}")
    prof = degree_profile(g)
    return TrianglePacking(
        triangles=tris,
        components=tuple(tuple(ix) for ix in comp_tri),
        component_vertices=tuple(comp_verts),
        t=t,
        t_i=tuple(len(ix) for ix in comp_tri),
        c=c,
        covered_vertices=covered,
        n2_prime=prof.n2 - len(covered),
        is_forest=tuple(len(vs) == 2 * len(ix) + 1 for vs, ix in zip(comp_verts, comp_tri)),
        op=op,
    )


def detach_edge(g: Graph, eid: int) -> tuple[Graph, EdgeDetachStep]:
    """Replace edge ``u-v`` by pendant edges ``u-u_new`` and ``v-v_new``.

    Surviving edges keep their ids; the ``u`` side reuses the detached id and
    the ``v`` side gets a fresh one.
    """
    if not (0 <= eid < g.m):
        raise InputError(f"edge id {eid} out of range")
    u, v = g.edges[eid]
    if g.degree(u) < 2 or g.degree(v) < 2:
        raise InputError(f"both endpoints of edge {eid} must have degree >= 2")
    u_new, v_new = g.n, g.n + 1
    edges = list(g.edges)
    edges[eid] = (u, u_new)
    edges.append((v, v_new))
    step = EdgeDetachStep(edge=eid, u=u, v=v, u_new=u_new, v_new=v_new, new_edge=g.m)
    return Graph(g.n + 2, tuple(edges)), step


def split_vertex(
    g: Graph,
    v: int,
    keep: Sequence[Triangle],
    move: Sequence[Triangle],
) -> tuple[Graph, VertexSplitStep]:
    """Split ``v`` into two nonadjacent copies partitioning its triangles.

    The triangles in ``move`` (and only their edges at ``v``) are rerouted to
    a new vertex; everything else at ``v``, including edges outside the
    structure, stays put. Edge count and ids are unchanged.
    """
    if not keep or not move:
        raise InputError("both sides of the split must contain a triangle")
    if len(keep) + len(move) < 2:
        raise InputError(f"vertex {v} must lie in at least two packing triangles")
    used = 0
    for tri in list(keep) + list(move):
        if v not in tri.vertices:
            raise InputError(f"triangle {tri.vertices} does not contain vertex {v}")
        if not _is_current(g, tri) and make_triangle(g, *tri.vertices) != tri:
            raise InputError(f"triangle {tri.vertices} is stale for this graph")
        mask = _edge_mask(tri)
        if used & mask:
            raise InputError("split sides must be edge-disjoint triangles")
        used |= mask
    new_vertex = g.n
    moved_edges = sorted(
        eid for tri in move for eid in tri.edge_ids if v in g.edges[eid]
    )
    edges = list(g.edges)
    for eid in moved_edges:
        a, b = edges[eid]
        edges[eid] = (new_vertex, b) if a == v else (a, new_vertex)
    step = VertexSplitStep(
        vertex=v,
        new_vertex=new_vertex,
        moved_edges=tuple(moved_edges),
        kept_triangles=tuple(keep),
        moved_triangles=tuple(move),
    )
    return Graph(g.n + 1, tuple(edges)), step


def replay_trace(trace: TransformTrace) -> Graph:
    """Re-apply every step from the source; errors if any recorded graph differs."""
    cur = trace.source
    for step, g_after in trace.steps:
        if isinstance(step, EdgeDetachStep):
            cur, _ = detach_edge(cur, step.edge)
        else:
            cur, _ = split_vertex(cur, step.vertex, step.kept_triangles, step.moved_triangles)
        if cur != g_after:
            raise InvariantViolation("trace replay diverged from the recorded graph")
    return cur


def _moved_triangle(tri: Triangle, v: int, new_vertex: int) -> Triangle:
    """``tri`` after a split moved its corner ``v`` to ``new_vertex``, the
    highest vertex id. A split keeps every edge id."""
    side = dict(zip(combinations(tri.vertices, 2), tri.edge_ids))
    p, q = (x for x in tri.vertices if x != v)
    return Triangle((p, q, new_vertex), (side[(p, q)], side[edge_key(p, v)], side[edge_key(q, v)]))


def _on_cycle(tris: Sequence[Triangle], at: dict[int, list[int]], i: int, v: int) -> bool:
    """Is the incidence of triangle ``i`` with its corner ``v`` on a cycle of
    the triangle-vertex incidence graph, that is, does ``i`` still reach ``v``
    through its other corners?"""
    seen_tris = {i}
    stack = [x for x in tris[i].vertices if x != v]
    seen = set(stack)
    while stack:
        for j in at[stack.pop()]:
            if j in seen_tris:
                continue
            seen_tris.add(j)
            for y in tris[j].vertices:
                if y == v:
                    return True
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return False


def build_transformed(g: Graph, packing: TrianglePacking) -> TransformResult:
    """Detach chords inside each covered set, then flatten every component
    into a triangle-forest in one sweep.

    The sweep visits the covered vertices in ascending order and, at each
    vertex ``v``, its triangles in ascending order; a triangle whose
    incidence with ``v`` lies on a cycle of the incidence graph moves to a
    fresh vertex. A move only cuts cycles and leaves the new vertex a leaf,
    so no vertex needs a second visit. The split count must equal
    ``packing.op``."""
    if not is_connected(g):
        raise InputError("graph must be connected")
    steps: list[tuple[TraceStep, Graph]] = []
    cur = g
    for comp_idx, indices in enumerate(packing.components):
        verts = packing.component_vertices[comp_idx]
        tri_edges = {eid for i in indices for eid in packing.triangles[i].edge_ids}
        chords = [
            eid
            for eid, (a, b) in enumerate(g.edges)
            if a in verts and b in verts and eid not in tri_edges
        ]
        for eid in sorted(chords):
            cur, step = detach_edge(cur, eid)
            steps.append((step, cur))
    tris = list(packing.triangles)
    at: dict[int, list[int]] = {}
    for i, tri in enumerate(tris):
        for x in tri.vertices:
            at.setdefault(x, []).append(i)
    splits = 0
    for v in sorted(at):
        for i in sorted(at[v], key=tris.__getitem__):
            if len(at[v]) < 2:  # a corner of one triangle is a leaf
                break
            if not _on_cycle(tris, at, i, v):
                continue
            keep = sorted(tris[j] for j in at[v] if j != i)
            cur, step = split_vertex(cur, v, keep, [tris[i]])
            steps.append((step, cur))
            splits += 1
            at[v].remove(i)
            at[step.new_vertex] = [i]
            tris[i] = _moved_triangle(tris[i], v, step.new_vertex)
    final = classify_structure(cur, tris)
    if not final.all_forest:
        raise InvariantViolation("vertex splits left a structure that is not a triangle-forest")
    if splits != packing.op:
        raise InvariantViolation(f"applied {splits} vertex splits, structure defect says {packing.op}")
    if final.c != packing.c:
        raise InvariantViolation("vertex splits changed the component count")
    trace = TransformTrace(source=g, steps=tuple(steps))
    return TransformResult(graph=cur, trace=trace, triangles=tuple(tris))
