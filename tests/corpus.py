"""The instance sets the tests share, each named and built here once.

A set read by more than one test is a cached function: it is built on first
use and shared by every test module after that. The sets: the exhaustive
small connected graphs, the graphs the graph layer is compared with
networkx on, the wide graphs its distances are compared on, the
benchmark's ``ensemble`` line graphs, the layer tests' gnp sample, the
packing tests' gnp graphs, the cubic vertex-star packings, the certified
colorings, the ring coloring, and the named inputs of the exact search,
the flattening sweep, the construction, the verifier and its look-ahead.
Also the generators that make them: the isomorphism-free graph growth
(networkx decides each isomorphism), a hypothesis strategy for small
graphs, random edge partitions and recolorings, and packing as ``color``
does.
"""

import random
from functools import cache
from itertools import combinations
from typing import Callable, Iterable

import networkx as nx
from hypothesis import strategies as st

from helpers import nx_graph
from rainbowline.coloring import (
    EdgeColoring,
    color,
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
    path_graph,
    random_cubic,
    shared_vertex_triangle_chain,
    triangle_ring,
)
from rainbowline.graphs import Graph, build_graph, edge_key
from rainbowline.linegraph import line_graph
from rainbowline.oracle import DEFAULT_EDGE_CAP
from rainbowline.triangles import PACK_MODES, TrianglePacking, classify_structure, make_triangle, pack_edge_disjoint


def _is_new(h: Graph, seen: dict[tuple[int, ...], list]) -> bool:
    """Record ``h`` unless it is isomorphic to a graph already in ``seen``.
    The degree sequence picks the bucket; ``nx.is_isomorphic`` decides."""
    bucket = seen.setdefault(tuple(sorted(h.degrees)), [])
    hx = nx_graph(h)
    if any(nx.is_isomorphic(hx, other) for other in bucket):
        return False
    bucket.append(hx)
    return True


@cache
def connected_graphs_up_to(max_edges: int) -> tuple[Graph, ...]:
    """Every connected graph with 1..max_edges edges, one per isomorphism
    class, grown by adding chords and pendant vertices; the first graph
    grown in each class represents it."""
    start = build_graph(2, [(0, 1)])
    seen: dict[tuple[int, ...], list] = {}
    _is_new(start, seen)
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
                if edge_key(u, v) not in g.edge_index
            ]
            candidates += [
                build_graph(g.n + 1, list(g.edges) + [(u, g.n)]) for u in range(g.n)
            ]
            for h in candidates:
                if _is_new(h, seen):
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
def graph_layer_graphs() -> tuple[Graph, ...]:
    """The graphs ``line_graph``, ``enumerate_triangles``, the breadth-first
    search and ``blocks`` are compared with networkx on: connected_gnp with
    n = 4..40 at p = 0.15, 0.3 and 0.5, random_cubic(n, 1) for n = 8, 20 and
    40, the disjoint union of six pairs of them, the empty graph, one vertex,
    and four graphs with isolated vertices: one edge beside one, a path and
    an edge beside one, two paths around two, and four vertices with no
    edge."""
    connected = [connected_gnp(n, p, seed=n) for n in range(4, 41) for p in (0.15, 0.3, 0.5)]
    connected += [random_cubic(n, 1) for n in (8, 20, 40)]
    unions = [disjoint_union(g, h) for g, h in zip(connected[::20], connected[1::20])]
    isolated = (
        build_graph(3, [(0, 1)]),
        build_graph(6, [(0, 1), (1, 2), (3, 4)]),
        build_graph(7, [(0, 2), (2, 3), (6, 5), (3, 6)]),
        build_graph(4, []),
    )
    return (build_graph(0, []), build_graph(1, []), *isolated, *connected, *unions)


def _wide_builders() -> dict[str, Callable[[], Graph]]:
    """A builder per wide graph, by name; nothing is built until one is
    called."""
    out: dict[str, Callable[[], Graph]] = {
        f"L_gnp_{n}_{p}": lambda n=n, p=p: line_graph(connected_gnp(n, p, seed=n)).l_graph
        for n, p in ((38, 0.15), (40, 0.15), (40, 0.3))
    }
    out["path_200"] = lambda: path_graph(200)
    out["union"] = lambda: disjoint_union(out["L_gnp_38_0.15"](), path_graph(200))
    return out


def wide_graph_names() -> list[str]:
    """The names of ``wide_graphs()``, sorted, read without building a
    graph, so that a test can parametrize over them at collection."""
    return sorted(_wide_builders())


@cache
def wide_graphs() -> dict[str, Graph]:
    """Graphs past one machine word of vertices, or with a long diameter,
    that ``diameter`` and ``distances`` are compared with networkx on: the
    line graphs of three ``graph_layer_graphs()`` members, connected_gnp(n, p,
    seed=n) with (n, p) = (38, 0.15), (40, 0.15) and (40, 0.3), with 100, 135
    and 240 vertices; ``path_graph(200)``; and the disjoint union of the
    first line graph and the path."""
    return {name: build() for name, build in _wide_builders().items()}


def disjoint_union(g: Graph, h: Graph) -> Graph:
    """``g`` beside ``h``, whose vertices are renumbered from ``g.n`` up."""
    return build_graph(g.n + h.n, g.edges + tuple((u + g.n, v + g.n) for u, v in h.edges))


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


def star_packing(g: Graph) -> tuple[Graph, TrianglePacking]:
    """L(g) of a cubic ``g`` and its packing by the ``n`` vertex-star
    triangles, the structure ``color_cubic_iterated`` flattens."""
    lg = line_graph(g)
    stars = [make_triangle(lg.l_graph, *star) for star in lg.source.incident_edges]
    return lg.l_graph, classify_structure(lg.l_graph, stars)


@cache
def cubic_star_packing(n: int, seed: int) -> tuple[Graph, TrianglePacking]:
    """``star_packing`` of random_cubic(n, seed)."""
    return star_packing(random_cubic(n, seed))


@cache
def exact_search_sets() -> dict[str, tuple[Graph, ...]]:
    """The graphs the exact searches are compared on: the small connected
    graphs, their line graphs and the ``ensemble`` line graphs."""
    small = connected_graphs_up_to(7)
    return {
        "small": small,
        "small_line": tuple(line_graph(g).l_graph for g in small if g.m >= 2),
        "ensemble": ensemble_line_graphs(),
    }


def random_connected_graphs() -> tuple[Graph, ...]:
    """80 seeded graphs, each a random spanning tree on 4..8 vertices plus
    random chords, at most 10 edges."""
    out = []
    for seed in range(80):
        rng = random.Random(seed)
        n = rng.randint(4, 8)
        pairs = {(rng.randrange(v), v) for v in range(1, n)}
        chords = [p for p in combinations(range(n), 2) if p not in pairs]
        rng.shuffle(chords)
        out.append(build_graph(n, sorted(pairs) + chords[: rng.randint(0, 11 - n)]))
    return tuple(out)


@cache
def sharp_line_graphs() -> dict[str, dict[Graph, int]]:
    """L(G) of the paper's sharpness examples, each past the default edge
    cap, with the bound ``color`` certifies on it: example31 for t = 3, 4,
    6, 8 and 12 under theorem 31, and example32 for k = 3, 4, 6 and 8 under
    theorem 32."""
    runs = {
        "example31": [color(bridged_triangle_chain(t), "31") for t in (3, 4, 6, 8, 12)],
        "example32": [color(shared_vertex_triangle_chain(k), "32") for k in (3, 4, 6, 8)],
    }
    out = {name: {run.coloring.graph: run.certificate.bound_value for run in rs} for name, rs in runs.items()}
    assert all(g.m > DEFAULT_EDGE_CAP for bounds in out.values() for g in bounds)
    return out


def _exact_pair(g: Graph) -> tuple[Graph, TrianglePacking]:
    """``g`` with its exact packing."""
    return g, pack_edge_disjoint(g, "exact")


def _sweep_builders() -> dict[str, Callable[[], tuple[Graph, TrianglePacking]]]:
    """A builder per flattening-sweep instance, by name; nothing is built
    or packed until one is called."""
    out: dict[str, Callable[[], tuple[Graph, TrianglePacking]]] = {
        f"gnp-{seed}-{mode}": lambda seed=seed, mode=mode: (
            sample_gnp(seed),
            pack_as_color(sample_gnp(seed), mode),
        )
        for seed in range(16)
        for mode in PACK_MODES
    }
    for n in (8, 10, 20):
        out[f"cubic-{n}"] = lambda n=n: cubic_star_packing(n, n)
    for name, family, size in (
        ("example31", bridged_triangle_chain, 6),
        ("example32", shared_vertex_triangle_chain, 6),
        ("triangle_ring-3", triangle_ring, 3),
        ("triangle_ring-8", triangle_ring, 8),
    ):
        out[name] = lambda family=family, size=size: _exact_pair(family(size))
    return out


def sweep_names() -> list[str]:
    """The names of ``sweep_instances()``, sorted, read without building or
    packing a graph, so that a test can parametrize over them at collection
    and a fault in the package fails that test, not the collection."""
    return sorted(_sweep_builders())


@cache
def sweep_instances() -> dict[str, tuple[Graph, TrianglePacking]]:
    """Named (graph, packing) pairs the flattening sweep is compared on."""
    return {name: build() for name, build in _sweep_builders().items()}


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


@cache
def ring_inputs() -> list[tuple[Graph, list[int]]]:
    """The theorem-32 coloring of L(triangle_ring(12)), a rung of the
    ``sharp`` benchmark: a long sparse line graph on 36 vertices, as
    (graph, bits)."""
    ring = color(triangle_ring(12), "32").coloring
    return [(ring.graph, color_bits(ring.colors))]


def random_small_colorings() -> list[tuple[Graph, list[int]]]:
    """40 random graphs on 2..6 vertices with 1..8 edges, some of them
    disconnected, each with a random palette of 1..3 colors."""
    out = []
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        g = build_graph(n, sorted(pairs[: rng.randint(1, min(8, len(pairs)))]))
        k = rng.randint(1, 3)
        out.append((g, color_bits(rng.randint(1, k) for _ in range(g.m))))
    return out


def edge_case_colorings() -> list[tuple[Graph, list[int]]]:
    """Graphs of one and two vertices, two disconnected graphs, K4 and P3 in
    one color, C4 in two alternating colors, and a star whose leaves all
    share a color, then one whose last two leaves alone share a color."""
    star = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    return [
        (Graph(1, ()), []),
        (path_graph(2), [1]),
        (Graph(2, ()), []),
        (build_graph(5, [(0, 1), (1, 2), (3, 4)]), color_bits((1, 2, 1))),
        (build_graph(4, [(0, 1), (2, 3)]), color_bits((1, 2))),
        (complete_graph(4), color_bits((1,) * 6)),
        (path_graph(3), color_bits((1, 1))),
        (cycle_graph(4), color_bits((1, 2, 1, 2))),
        (star, color_bits((1, 1, 1, 1))),
        (star, color_bits((1, 2, 3, 3))),
    ]


def gnp_line_palettes() -> list[tuple[Graph, list[int]]]:
    """Four random palettes of 2..80 colors on each of 60 small gnp line
    graphs."""
    out = []
    for seed in range(60):
        rng = random.Random(seed)
        lg = line_graph(connected_gnp(rng.randint(4, 9), rng.uniform(0.3, 0.7), seed)).l_graph
        for _ in range(4):
            k = rng.randint(2, 80)
            out.append((lg, color_bits(rng.randint(1, k) for _ in range(lg.m))))
    return out


def certified_bits(kind: str, recolor_seed: int | None = None) -> list[tuple[Graph, list[int]]]:
    """Colorings the constructions certify, as (graph, bits): ``packing``,
    from greedy packings of gnp(9, 0.45) for seeds 0..7; ``cubic``, the
    ``n + 1`` colorings of K4, random_cubic(6, 1) and random_cubic(8, 2).
    Given ``recolor_seed``, 12 ``recolorings`` of each in its place."""
    if kind == "packing":
        graphs = [connected_gnp(9, 0.45, seed) for seed in range(8)]
        runs = [color_packing(g, pack_edge_disjoint(g, "greedy")) for g in graphs]
    else:
        runs = [color_cubic_iterated(g) for g in (complete_graph(4), random_cubic(6, 1), random_cubic(8, 2))]
    rng = random.Random(recolor_seed)
    return [
        (col.graph, bits)
        for col, _ in runs
        for bits in ([color_bits(col.colors)] if recolor_seed is None else recolorings(col, rng, 12))
    ]


def random_edge_partition(g: Graph, rng: random.Random) -> list[list[int]]:
    """Split the edge ids into connected groups: grow one part along shared
    endpoints, then take the connected pieces of what is left (networkx's
    components), each in order of its lowest edge id."""
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
    rest = [eid for eid in range(g.m) if eid not in part]
    piece_of = {
        v: i
        for i, piece in enumerate(nx.connected_components(nx.Graph(g.edges[eid] for eid in rest)))
        for v in piece
    }
    pieces: dict[int, list[int]] = {}
    for eid in rest:
        pieces.setdefault(piece_of[g.edges[eid][0]], []).append(eid)
    return [sorted(part), *pieces.values()]
