"""Simple undirected graphs with dense integer ids.

Vertices are ``0..n-1``; every edge carries a stable id equal to its position
in the edge list. All values are immutable and every operation is a pure
function, so results can be shared freely.
"""

import math
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InputError


def edge_key(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u <= v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph: no loops, no parallel edges.

    Derived values are computed on first use and cached on the instance:
    ``incident_edges``, ``adjacency``, ``degrees``, ``n2``, ``edge_index``,
    ``is_connected`` and ``diameter``. ``incident_edges``, each vertex's
    star, is the one per-vertex table: ``degrees`` are the stars' sizes and
    ``adjacency`` their other ends, so an isolated vertex costs one shared
    empty tuple in each. ``is_connected`` reads the module's
    one breadth-first search, ``distances``; ``diameter`` reads
    ``is_connected``, then grows every vertex's ball at once as an int
    bitset.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's star, the ids of its edges, ascending: the one
        per-vertex table, built in one pass over the edges. A vertex with
        no edge holds the shared empty tuple and no list of its own."""
        stars: defaultdict[int, list[int]] = defaultdict(list)
        for eid, (u, v) in enumerate(self.edges):
            stars[u].append(eid)
            stars[v].append(eid)
        return tuple(tuple(stars.get(x, ())) for x in range(self.n))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Each vertex's neighbours, ascending: the other ends of its star,
        each its edge's end sum less the vertex."""
        end_sums = [u + v for u, v in self.edges]
        stars = enumerate(self.incident_edges)
        return tuple(tuple(sorted([end_sums[e] - x for e in star])) if star else () for x, star in stars)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        """The sizes of the stars."""
        return tuple(map(len, self.incident_edges))

    @cached_property
    def n2(self) -> int:
        """The number of inner vertices, those of degree at least 2."""
        return sum(1 for d in self.degrees if d >= 2)

    @cached_property
    def edge_index(self) -> dict[tuple[int, int], int]:
        return {edge_key(u, v): eid for eid, (u, v) in enumerate(self.edges)}

    @cached_property
    def is_connected(self) -> bool:
        """Whether a search from vertex 0 reaches every vertex; true for at
        most one vertex. Fewer than ``n - 1`` edges connect no graph, so
        that answer needs no search and no per-vertex list."""
        return self.n <= 1 or (self.m >= self.n - 1 and -1 not in distances(self, 0))

    @cached_property
    def diameter(self) -> int | float:
        """Max shortest-path length over vertex pairs; ``math.inf`` if
        disconnected, 0 for at most one vertex.

        A disconnected graph is answered by ``is_connected`` before any ball
        grows. Bit ``w`` of ``balls[v]`` is set when ``w`` is within the
        current radius of ``v``. Each round ORs every ball with its
        neighbours' balls of the round before, so the radius grows by one; a
        round in which no ball grows ends it, and the rounds that grew are
        the largest eccentricity."""
        if not self.is_connected:
            return math.inf
        adj = self.adjacency
        balls = [1 << v for v in range(self.n)]
        rounds = 0
        while True:
            grown = []
            for ball, near in zip(balls, adj):
                for w in near:
                    ball |= balls[w]
                grown.append(ball)
            if grown == balls:
                break
            balls = grown
            rounds += 1
        return rounds

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def edge_id(self, u: int, v: int) -> int:
        return self.edge_index[edge_key(u, v)]

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class BlockDecomposition:
    """Biconnected components as edge-id sets; bridges are single-edge blocks."""

    blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]


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


def distances(g: Graph, s: int) -> list[int]:
    """Shortest-path lengths from ``s`` by breadth-first search, a level at
    a time; -1 for a vertex it does not reach."""
    adj = g.adjacency
    dist = [-1] * g.n
    dist[s] = 0
    frontier = [s]
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def is_connected(g: Graph) -> bool:
    """Computed once per graph and cached (``Graph.is_connected``)."""
    return g.is_connected


def diameter(g: Graph) -> int | float:
    """Max shortest-path length over vertex pairs; ``math.inf`` if
    disconnected. Computed once per graph and cached (``Graph.diameter``)."""
    return g.diameter


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
