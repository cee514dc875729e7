"""The instance sets the tests share, each named and built here once.

A set read by more than one test is a cached function: it is built on first
use and shared by every test module after that. The sets: the exhaustive
small connected graphs, the benchmark's ``ensemble`` line graphs, the layer
tests' gnp sample, the packing tests' gnp graphs, the cubic vertex-star packings, the certified colorings,
and the named inputs of the exact search, the flattening sweep, the
construction and the verifier's look-ahead. Also the generators that make
them: the isomorphism-free graph growth, a hypothesis strategy for small
graphs, random edge partitions and recolorings, and packing as ``color``
does.
"""

import random
from functools import cache
from itertools import combinations, groupby, permutations, product
from typing import Iterable

from hypothesis import strategies as st

from rainbowline.coloring import (
    ColoringCertificate,
    EdgeColoring,
    color_cubic_iterated,
    color_packing,
    pick_packing,
)
from rainbowline.errors import LimitError
from rainbowline.families import (
    bridged_triangle_chain,
    complete_graph,
    connected_gnp,
    cycle_graph,
    friendship_graph,
    gen_family,
    random_cubic,
    shared_vertex_triangle_chain,
    triangle_ring,
)
from rainbowline.graphs import Graph, build_graph, edge_key
from rainbowline.linegraph import line_graph
from rainbowline.triangles import PACK_MODES, TrianglePacking, classify_structure, make_triangle, pack_edge_disjoint


def canonical_form(g: Graph) -> tuple:
    """Isomorphism-invariant form: positions blocked by degree class, minimum
    edge tuple over within-class relabelings."""
    degs = [g.degree(v) for v in range(g.n)]
    order = sorted(range(g.n), key=lambda v: degs[v])
    classes = [list(grp) for _, grp in groupby(order, key=lambda v: degs[v])]
    best = None
    for parts in product(*[permutations(cls) for cls in classes]):
        mapping = {}
        pos = 0
        for part in parts:
            for v in part:
                mapping[v] = pos
                pos += 1
        form = tuple(sorted(edge_key(mapping[u], mapping[v]) for u, v in g.edges))
        if best is None or form < best:
            best = form
    return (g.n, best)


@cache
def connected_graphs_up_to(max_edges: int) -> tuple[Graph, ...]:
    """Every connected graph with 1..max_edges edges, one per isomorphism
    class, grown by adding chords and pendant vertices."""
    start = build_graph(2, [(0, 1)])
    seen = {canonical_form(start)}
    out = [start]
    frontier = [start]
    while frontier:
        nxt = []
        for g in frontier:
            if g.m >= max_edges:
                continue
            candidates = [
                build_graph(g.n, list(g.edges) + [(u, v)])
                for u, v in combinations(range(g.n), 2)
                if not g.has_edge(u, v)
            ]
            candidates += [
                build_graph(g.n + 1, list(g.edges) + [(u, g.n)]) for u in range(g.n)
            ]
            for h in candidates:
                cf = canonical_form(h)
                if cf not in seen:
                    seen.add(cf)
                    out.append(h)
                    nxt.append(h)
        frontier = nxt
    return tuple(out)


@st.composite
def small_graphs(draw, min_n=1, max_n=8):
    """A graph on ``min_n..max_n`` vertices with any set of edges."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return build_graph(n, [])
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    return build_graph(n, sorted(chosen))


def small_trees(max_vertices: int) -> list[Graph]:
    return [
        g
        for g in connected_graphs_up_to(max_vertices - 1)
        if g.m == g.n - 1 and g.n <= max_vertices
    ]


@cache
def ensemble_line_graphs() -> tuple[Graph, ...]:
    """L(G) of the benchmark's 80 ``ensemble`` rows, the first row of
    ``bench --seed s`` for s = 1..40: gnp(7, 0.35) first, then
    random_cubic(8)."""
    seeds = [s * 1_000_003 for s in range(1, 41)]
    return tuple(
        [line_graph(connected_gnp(7, 0.35, s)).l_graph for s in seeds]
        + [line_graph(random_cubic(8, s)).l_graph for s in seeds]
    )


@cache
def sample_gnp(seed: int) -> Graph:
    """The gnp sample the layer tests share, n = 8..12 as the seed goes."""
    return connected_gnp(8 + seed % 5, 0.45, seed=7000 + seed)


@cache
def packing_gnp() -> tuple[Graph, ...]:
    """The packing tests' 60 gnp graphs, n = 5..10 at p = 0.5."""
    return tuple(connected_gnp(5 + seed % 6, 0.5, seed=5000 + seed) for seed in range(60))


@cache
def dense_gnp(seed: int) -> Graph:
    """Dense gnp graphs, whose traces split vertices a detach touched."""
    return connected_gnp(7 + seed % 5, 0.7, seed=9000 + seed)


@cache
def acceptance_gnp() -> tuple[Graph, ...]:
    """The 100 seeded gnp instances of the acceptance pipelines."""
    return tuple(connected_gnp(5 + i % 5, 0.3 if i % 2 == 0 else 0.5, seed=1000 + i) for i in range(100))


def pack_as_color(g: Graph, mode: str) -> TrianglePacking:
    """``g``'s packing in ``mode`` as ``color`` picks it: an exact mode falls
    back to its greedy mode past the exact search's triangle cap."""
    theorem = "31" if mode.startswith("forest") else "32"
    return pick_packing(g, theorem, None if mode.endswith("exact") else mode)[0]


@cache
def cubic_star_packing(n: int, seed: int) -> tuple[Graph, TrianglePacking]:
    """L(random_cubic(n, seed)) and its packing by the ``n`` vertex-star
    triangles, the structure ``color_cubic_iterated`` flattens."""
    lg = line_graph(random_cubic(n, seed))
    stars = [make_triangle(lg.l_graph, *star) for star in lg.star_of]
    return lg.l_graph, classify_structure(lg.l_graph, stars)


@cache
def exact_search_sets() -> dict[str, tuple[tuple[Graph, ...], int]]:
    """The graphs the exact searches are compared on, each with how many of
    them fit the default edge cap."""
    small = connected_graphs_up_to(7)
    return {
        "small": (small, 131),
        "small_line": (tuple(line_graph(g).l_graph for g in small if g.m >= 2), 112),
        "ensemble": (ensemble_line_graphs(), 14),
        "cycles": (tuple(cycle_graph(n) for n in range(3, 13)), 10),
    }


@cache
def sweep_instances() -> dict[str, tuple[Graph, TrianglePacking]]:
    """Named (graph, packing) pairs the flattening sweep is compared on."""
    out = {}
    for seed in range(16):
        g = sample_gnp(seed)
        for mode in PACK_MODES:
            out[f"gnp-{seed}-{mode}"] = g, pack_as_color(g, mode)
    for n in (8, 10, 20):
        out[f"cubic-{n}"] = cubic_star_packing(n, n)
    for name, g in (
        ("example31", bridged_triangle_chain(6)),
        ("example32", shared_vertex_triangle_chain(6)),
        ("triangle_ring-3", triangle_ring(3)),
        ("triangle_ring-8", triangle_ring(8)),
    ):
        out[name] = g, pack_edge_disjoint(g, "exact")
    return out


def construct_instances() -> Iterable[tuple[Graph, TrianglePacking]]:
    """(graph, packing) pairs: small graphs, gnp samples and the paper's
    families in every packing mode under the exact-search cap, then cubic
    star packings."""
    graphs = [
        *(g for g in connected_graphs_up_to(7) if g.m >= 2),
        *(
            connected_gnp(n, p, s)
            for n, p in ((8, 0.4), (10, 0.4), (15, 0.3), (25, 0.2), (40, 0.2), (60, 0.14))
            for s in range(1, 16)
        ),
        *(sample_gnp(s) for s in range(12)),
        *(triangle_ring(r) for r in range(3, 64)),
        *(friendship_graph(f) for f in range(1, 7)),
        *(gen_family("example31", t=t) for t in (2, 8)),
        *(gen_family("example32", k=k) for k in (2, 3, 5, 6, 12)),
        complete_graph(6),
        complete_graph(7),
    ]
    for g in graphs:
        for mode in PACK_MODES:
            try:
                yield g, pack_edge_disjoint(g, mode)
            except LimitError:
                pass
    for n, seed in sorted({(8 + 2 * s, s) for s in range(4)} | {(n, s) for n in (8, 12, 20, 40) for s in (1, 2, 3)}):
        yield cubic_star_packing(n, seed)


@cache
def certified_colorings() -> dict[str, tuple[tuple[EdgeColoring, ColoringCertificate], ...]]:
    """Colorings the constructions certify: ``packing``, greedy packings of
    gnp(9, 0.45) for seeds 0..7; ``cubic``, the ``n + 1`` colorings of K4,
    random_cubic(6, 1) and random_cubic(8, 2)."""
    packing = [connected_gnp(9, 0.45, seed) for seed in range(8)]
    return {
        "packing": tuple(color_packing(g, pack_edge_disjoint(g, "greedy")) for g in packing),
        "cubic": tuple(color_cubic_iterated(g) for g in (complete_graph(4), random_cubic(6, 1), random_cubic(8, 2))),
    }


def color_bits(colors: Iterable[int]) -> list[int]:
    """One bit per color id: color ``c`` is ``1 << (c - 1)``."""
    return [1 << (c - 1) for c in colors]


def recolorings(col: EdgeColoring, rng: random.Random, count: int) -> list[list[int]]:
    """``count`` copies of ``col``, each with one random edge recolored to a
    color already used at one of its ends, as bit lists."""
    g = col.graph
    at = [set() for _ in range(g.n)]
    for (u, v), c in zip(g.edges, col.colors):
        at[u].add(c)
        at[v].add(c)
    out = []
    for eid in rng.sample(range(g.m), min(count, g.m)):
        u, v = g.edges[eid]
        other = sorted((at[u] | at[v]) - {col.colors[eid]})
        if other:
            colors = list(col.colors)
            colors[eid] = rng.choice(other)
            out.append(color_bits(colors))
    return out


@cache
def look_ahead_inputs() -> dict[str, list[tuple[Graph, list[int]]]]:
    """Named sets of (graph, bits): the certified packing colorings of
    gnp(40, 0.2), where the look-ahead fires; the same with one edge
    recolored, so some fail; the same with a tail of two edges of one new
    color hung at the last vertex, whose end no other vertex reaches; random
    palettes on small gnp line graphs."""
    sets = {"certified": [], "recolored": [], "tail": [], "small": []}
    rng = random.Random(0)
    for seed in (1, 2):
        g = connected_gnp(40, 0.2, seed)
        col, cert = color_packing(g, pack_edge_disjoint(g, "greedy"))
        assert cert.verified
        lg, col_bits = col.graph, color_bits(col.colors)
        sets["certified"].append((lg, col_bits))
        sets["recolored"] += [(lg, recolored) for recolored in recolorings(col, rng, 4)]
        tail = ((lg.n - 1, lg.n), (lg.n, lg.n + 1))
        new = 1 << max(col.colors)
        sets["tail"].append((build_graph(lg.n + 2, lg.edges + tail), col_bits + [new, new]))
    for seed in range(120):
        rng = random.Random(seed)
        lg = line_graph(connected_gnp(rng.randint(8, 12), rng.uniform(0.2, 0.6), seed)).l_graph
        k = rng.randint(2, 12)
        sets["small"].append((lg, color_bits(rng.randint(1, k) for _ in range(lg.m))))
    return sets


def random_edge_partition(g: Graph, rng: random.Random) -> list[list[int]]:
    """Split the edge ids into connected groups: grow one part along shared
    endpoints, then take the connected pieces of what is left."""
    start = rng.randrange(g.m)
    size = rng.randint(1, g.m)
    part = {start}
    frontier = [start]
    while frontier and len(part) < size:
        for w in g.edges[frontier.pop()]:
            for other in g.incident_edges[w]:
                if other not in part and len(part) < size:
                    part.add(other)
                    frontier.append(other)
    groups = [sorted(part)]
    unassigned = set(range(g.m)) - part
    while unassigned:
        grp = {min(unassigned)}
        stack = list(grp)
        while stack:
            for w in g.edges[stack.pop()]:
                for other in g.incident_edges[w]:
                    if other in unassigned and other not in grp:
                        grp.add(other)
                        stack.append(other)
        unassigned -= grp
        groups.append(sorted(grp))
    return groups
