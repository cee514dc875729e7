"""Simple undirected graphs with dense integer ids.

Vertices are ``0..n-1``; every edge carries a stable id equal to its position
in the edge list. All values are immutable and every operation is a pure
function, so results can be shared freely.
"""

import math
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

from .errors import InputError


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: no loops, no parallel edges."""

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Ids of the edges at each vertex, ascending."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            inc[u].append(eid)
            inc[v].append(eid)
        return tuple(tuple(i) for i in inc)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        count = Counter(chain.from_iterable(self.edges))
        return tuple(count[v] for v in range(self.n))

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {edge_key(u, v): eid for eid, (u, v) in enumerate(self.edges)}

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edge_index

    def edge_id(self, u: int, v: int) -> int:
        return self.edge_index[edge_key(u, v)]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DegreeProfile:
    degrees: tuple[int, ...]
    n1: int
    n2: int
    inner_vertices: frozenset[int]


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components as edge-id sets; bridges are single-edge blocks."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]


@dataclass(frozen=True)
class InducedSubgraph:
    """Edge-induced subgraph plus maps from new ids back to the parent's."""

    graph: Graph
    vertex_to_parent: tuple[int, ...]
    edge_to_parent: tuple[int, ...]

    @cached_property
    def parent_vertex(self) -> dict[int, int]:
        return {old: new for new, old in enumerate(self.vertex_to_parent)}


@dataclass(frozen=True)
class ShrinkResult:
    """Quotient graph after shrinking a vertex set into one vertex.

    ``vertex_map[v]`` is the image of old vertex ``v``; ``edge_map[e]`` is the
    image of old edge ``e``, ``None`` when the edge ran inside the shrunk set.
    Parallel edges created by the identification are merged, so several old
    edges may map to the same new id.
    """

    graph: Graph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int | None, ...]

    @property
    def merged_vertex(self) -> int:
        return self.graph.n - 1


def build_graph(
    n: int, pairs: Iterable[Sequence[int]], lines: Sequence[int] | None = None
) -> Graph:
    """Validate and build a graph; edge ids follow input order. When given,
    ``lines[i]`` is the input line of pair ``i`` and prefixes its errors."""
    if n < 0:
        raise InputError(f"vertex count must be non-negative, got {n}")
    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for pair in pairs:
        u, v = pair
        key = edge_key(u, v)
        if not (0 <= u < n and 0 <= v < n):
            problem = "vertex out of range in edge"
        elif u == v:
            problem = "loop edge"
        elif key in seen:
            problem = "duplicate edge"
        else:
            seen.add(key)
            edges.append((u, v))
            continue
        where = "" if lines is None else f"line {lines[len(edges)]}: "
        raise InputError(f"{where}{problem} ({u}, {v})")
    return Graph(n, tuple(edges))


def bfs_distances(g: Graph, source: int) -> list[float]:
    """Unweighted shortest-path distances; ``math.inf`` if unreachable."""
    dist: list[float] = [math.inf] * g.n
    dist[source] = 0
    queue = deque([source])
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        for w in g.adjacency[v]:
            if math.isinf(dist[w]):
                dist[w] = d
                queue.append(w)
    return dist


def components(g: Graph) -> list[list[int]]:
    seen = [False] * g.n
    out: list[list[int]] = []
    for s in range(g.n):
        if seen[s]:
            continue
        comp = [s]
        seen[s] = True
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for w in g.adjacency[v]:
                if not seen[w]:
                    seen[w] = True
                    comp.append(w)
                    queue.append(w)
        out.append(sorted(comp))
    return out


def is_connected(g: Graph) -> bool:
    return g.n <= 1 or len(components(g)) == 1


def diameter(g: Graph) -> int | float:
    """Max shortest-path length over vertex pairs; ``math.inf`` if disconnected."""
    if g.n <= 1:
        return 0
    best = 0
    for s in range(g.n):
        dist = bfs_distances(g, s)
        worst = max(dist)
        if math.isinf(worst):
            return math.inf
        best = max(best, int(worst))
    return best


def blocks(g: Graph) -> BlockDecomposition:
    """Classical block decomposition (iterative Hopcroft-Tarjan)."""
    n = g.n
    disc = [-1] * n
    low = [0] * n
    parent_edge = [-1] * n
    edge_stack: list[int] = []
    out: list[frozenset[int]] = []
    cuts: set[int] = set()
    timer = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack: list[tuple[int, Iterable[int]]] = [(root, iter(g.incident_edges[root]))]
        while stack:
            v, it = stack[-1]
            advanced = False
            for eid in it:
                if eid == parent_edge[v]:
                    continue
                a, b = g.edges[eid]
                to = b if a == v else a
                if disc[to] == -1:
                    edge_stack.append(eid)
                    parent_edge[to] = eid
                    disc[to] = low[to] = timer
                    timer += 1
                    if v == root:
                        root_children += 1
                    stack.append((to, iter(g.incident_edges[to])))
                    advanced = True
                    break
                if disc[to] < disc[v]:
                    edge_stack.append(eid)
                    if disc[to] < low[v]:
                        low[v] = disc[to]
            if advanced:
                continue
            stack.pop()
            if not stack:
                continue
            p, _ = stack[-1]
            if low[v] < low[p]:
                low[p] = low[v]
            if low[v] >= disc[p]:
                blk = []
                pe = parent_edge[v]
                while True:
                    e = edge_stack.pop()
                    blk.append(e)
                    if e == pe:
                        break
                out.append(frozenset(blk))
                if p != root:
                    cuts.add(p)
        if root_children >= 2:
            cuts.add(root)
    return BlockDecomposition(tuple(out), frozenset(cuts))


def induced_by_edges(g: Graph, edge_ids: Iterable[int]) -> InducedSubgraph:
    """Subgraph on exactly the endpoints of the chosen edges."""
    ids = sorted(set(edge_ids))
    for eid in ids:
        if not (0 <= eid < g.m):
            raise InputError(f"edge id {eid} out of range")
    verts = sorted({v for eid in ids for v in g.edges[eid]})
    to_new = {old: new for new, old in enumerate(verts)}
    edges = tuple(edge_key(to_new[g.edges[eid][0]], to_new[g.edges[eid][1]]) for eid in ids)
    return InducedSubgraph(Graph(len(verts), edges), tuple(verts), tuple(ids))


def shrink(g: Graph, x: Iterable[int]) -> ShrinkResult:
    """Delete the edges inside ``x`` and identify ``x`` into one new vertex.

    The quotient stays simple: parallel edges arising from the identification
    are merged, which the edge map records.
    """
    xs = set(x)
    if not xs or len(xs) >= g.n:
        raise InputError("shrink set must be a proper nonempty subset of the vertices")
    for v in xs:
        if not (0 <= v < g.n):
            raise InputError(f"vertex {v} out of range")
    survivors = [v for v in range(g.n) if v not in xs]
    w = len(survivors)
    vmap = [w] * g.n
    for new, old in enumerate(survivors):
        vmap[old] = new
    new_edges: list[tuple[int, int]] = []
    seen: dict[tuple[int, int], int] = {}
    emap: list[int | None] = []
    for u, v in g.edges:
        nu, nv = vmap[u], vmap[v]
        if nu == nv:
            emap.append(None)
            continue
        key = edge_key(nu, nv)
        if key in seen:
            emap.append(seen[key])
            continue
        seen[key] = len(new_edges)
        emap.append(len(new_edges))
        new_edges.append(key)
    return ShrinkResult(Graph(w + 1, tuple(new_edges)), tuple(vmap), tuple(emap))


def degree_profile(g: Graph) -> DegreeProfile:
    degrees = g.degrees
    inner = frozenset(v for v, d in enumerate(degrees) if d >= 2)
    n1 = sum(1 for d in degrees if d == 1)
    return DegreeProfile(degrees, n1, len(inner), inner)
