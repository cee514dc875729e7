"""Independent references, one per layer, each compared with the package
directly. The instance sets they run on are in ``tests/corpus.py``.

Layer -> reference -> the test that compares it with the package. The
graph layer's references are networkx's, compared on
``corpus.graph_layer_graphs()`` by ``test_graphs.py``
``TestMatchesNetworkx``:

- stars (``Graph.incident_edges``, and ``Graph.adjacency`` and
  ``Graph.degrees`` read off it): networkx's edges at each node, its
  neighbours and its degree -> ``test_stars``.
- line graph (``linegraph.line_graph``): ``nx.line_graph``, its nodes read
  as edge ids -> ``test_line_graph``.
- triangles (``triangles.enumerate_triangles``): the 3-cliques of
  ``nx.enumerate_all_cliques`` -> ``test_triangles``.
- distances (``graphs.distances``, ``Graph.diameter``,
  ``Graph.is_connected``): ``nx.all_pairs_shortest_path_length`` ->
  ``test_distances``, and ``test_distances_on_wide_graphs`` on
  ``corpus.wide_graphs()``; on hypothesis small graphs also ``TestDiameter``
  ``test_matches_networkx`` and, with ``nx.number_connected_components``,
  ``test_connected_iff_one_component``.
- blocks (``graphs.blocks``): ``nx.biconnected_component_edges``, and
  ``nx.articulation_points`` for the cut vertices -> ``test_blocks``; on
  hypothesis small graphs, a cut vertex is one whose deletion raises
  ``nx.number_connected_components`` -> ``TestBlocks``
  ``test_cut_vertices_disconnect``.

The other layers:

- verifier (``oracle._check_all_pairs``): ``queue_check_all_pairs``, the
  same state search with a FIFO queue, on every set, and
  ``naive_failing_pair``, which enumerates every simple path, on the small
  ones, verdicts and witnesses, with ``oracle._LOOK_AHEAD_FACTOR`` at its
  default, before every level and before none -> ``test_oracle.py``
  ``test_check_all_pairs_matches_references``, a case per set and factor;
  also ``test_acceptance.py`` ``test_9_double_implementation_agreement``.
- look-ahead (``oracle._reaches_within_two``): ``free_walks``, the rule the
  oracle's docstring states, a walk of one edge, or of two edges of
  distinct colors, from an admitted mask free of those colors ->
  ``TestReachesWithinTwo`` ``test_matches_the_rule``, at every look-ahead
  check the verifier makes. The order of the checks (``_first_unreached``):
  the scan the docstring states, smallest target left first, each check the
  next target left, stopping at the first rejected one, asserted at every
  check -> ``TestLookAheadScan``.
- exact rc (``oracle.exact_rc``): ``enumerate_exact_rc``, which checks
  every canonical coloring in full, rc(C_n) = ceil(n / 2), n - 1 on trees,
  1 on complete graphs, and the bound the sharpness examples' constructions
  certify, values within the edge cap and the ``LimitError`` bracket past
  it -> ``test_exact_rc_matches_references``, a row per set or per graph.
- packing (``triangles.pack_edge_disjoint``): ``is_packing``, the rule a
  pick must meet, edge-disjoint triangles whose sides ``ab, ac`` also form a
  forest in the forest modes. The greedy modes take each triangle that fits
  beside the ones taken before it -> ``test_triangles.py`` ``TestPacking``
  ``test_greedy_takes_each_triangle_that_fits``; the exact modes return
  ``brute_force_packing``, the first largest packing in canonical order, by
  trying every subset -> ``test_exact_matches_brute_force``.
- structure (``TrianglePacking.components`` and
  ``TrianglePacking.all_forest``, which is ``op == 0``): ``blocks_is_forest``,
  on networkx's blocks, against each component's ``2*t_i + 1`` vertex count
  and ``op`` -> ``test_triangles.py`` ``TestClassify``
  ``test_vertex_count_matches_blocks`` and ``test_forest_iff_vertex_count``.
- flattening (``triangles.build_transformed``):
  ``reclassify_build_transformed``, built from ``detach_edge`` and
  ``split_vertex`` on networkx's blocks and connectivity ->
  ``TestSweepMatchesReclassify``.
- projection (``coloring.project_coloring``): ``pull_back``, which replays
  each vertex's origin and reads the flattened graph's edges ->
  ``test_coloring.py`` ``TestProjectionMatchesPullBack``.
- construction (``coloring._construct``, the star rules of
  ``color_triangle_tree`` included): ``part_by_part_construction``, by
  ``recursive_tree_assignment`` per forest component and ``pull_back`` ->
  ``TestConstructMatchesReference``; the star rules alone, one case per
  instance -> ``TestTreeColoringMatchesRecursion``.
- ``m - m1`` (``coloring.color_iterated_baseline``):
  ``hand_built_iterated_baseline`` -> ``TestIterated``.
- cubic sampler (``families.random_cubic``): ``shuffle_random_cubic``, the
  pairing model on ``random.Random.shuffle`` with ``build_graph`` rejecting
  a pairing that is not simple -> ``test_cli.py`` ``TestGenAndFamilies``
  ``test_cubic_sampler_matches_shuffle_reference`` (graphs) and
  ``test_cubic_sampler_rejects_as_the_reference_does`` (tries).

Everything here avoids the package's search machinery so the two sides of
each check stay independent; the graph searches the tests need (blocks,
bridges, connectivity, isomorphism, distances) are networkx's, run on
``nx_graph(g)``. The references of the two searches, exact rc and the
packing, only enumerate: every canonical coloring, every subset of the
triangles.
Also the tools only tests use: edge-induced subgraphs, vertex-set
shrinking, star-clique edge ids, the two-color coloring of a lone triangle
with pendants, the networkx copy of a graph, the peak a call allocates
under ``tracemalloc``, trace replay, the tightness check of the ``m - m1`` bound, a recorder
of the triangle enumerations and classifications a call makes, and the
partition-combination and detach-projection checks that
``test_observations.py`` and ``test_acceptance.py`` run on their own
instances.
"""

import random
import tracemalloc
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

import networkx as nx

from rainbowline import coloring, families, oracle, triangles
from rainbowline.coloring import (
    ColorPart,
    EdgeColoring,
    color_iterated_baseline,
    combine_colorings,
    pendant_two_path_count,
)
from rainbowline.errors import InputError, InvariantViolation, LimitError
from rainbowline.graphs import Graph, build_graph, diameter, edge_key, is_connected
from rainbowline.linegraph import LineGraphResult, iterated_line_graph, line_graph
from rainbowline.oracle import DEFAULT_EDGE_CAP, canonical_colorings, exact_rc
from rainbowline.triangles import (
    EdgeDetachStep,
    TransformResult,
    TransformTrace,
    Triangle,
    TrianglePacking,
    VertexSplitStep,
    _edge_mask,
    build_transformed,
    classify_structure,
    enumerate_triangles,
    make_triangle,
)


@dataclass(frozen=True)
class InducedSubgraph:
    """Edge-induced subgraph plus maps from new ids back to the parent's."""

    graph: Graph
    vertex_to_parent: tuple[int, ...]
    edge_to_parent: tuple[int, ...]


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


def naive_failing_pair(g: Graph, colors: Sequence[int]) -> tuple[int, int] | None:
    """Lexicographically smallest pair with no rainbow simple path, found by
    enumerating every simple path per pair; ``None`` when every pair has one."""
    n = g.n
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(g.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))

    def pair_ok(s: int, t: int) -> bool:
        stack = [(s, frozenset([s]), ())]
        while stack:
            v, visited, eids = stack.pop()
            if v == t:
                cs = [colors[e] for e in eids]
                if len(set(cs)) == len(cs):
                    return True
                continue
            for w, e in adj[v]:
                if w not in visited:
                    stack.append((w, visited | {w}, eids + (e,)))
        return False

    for s in range(n):
        for t in range(s + 1, n):
            if not pair_ok(s, t):
                return s, t
    return None


def queue_check_all_pairs(g: Graph, bits: Sequence[int]) -> tuple[bool, tuple[int, int] | None]:
    """Reference for ``oracle._check_all_pairs``: the same search over
    (vertex, color mask) states with one FIFO queue per source and a set of
    the targets left, run until the queue or the set is empty."""
    n = g.n
    if n <= 1:
        return True, None
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(g.edges):
        adj[u].append((v, bits[eid]))
        adj[v].append((u, bits[eid]))
    for s in range(n - 1):
        remaining = set(range(s + 1, n))
        visited: list[list[int]] = [[] for _ in range(n)]
        visited[s].append(0)
        queue = deque([(s, 0)])
        while queue and remaining:
            v, mask = queue.popleft()
            for w, b in adj[v]:
                if b & mask:
                    continue
                nm = mask | b
                admitted = visited[w]
                if any(x & nm == x for x in admitted):
                    continue
                admitted.append(nm)
                remaining.discard(w)
                queue.append((w, nm))
        if remaining:
            return False, (s, min(remaining))
    return True, None


def enumerate_exact_rc(g: Graph) -> int:
    """Reference for ``oracle.exact_rc`` on a connected graph with at least
    two vertices: palette sizes upward from the diameter, each checking every
    canonical coloring in full with ``queue_check_all_pairs``."""
    for k in range(max(int(diameter(g)), 1), g.m + 1):
        for colors in canonical_colorings(g.m, k):
            if queue_check_all_pairs(g, [1 << (c - 1) for c in colors])[0]:
                return k
    raise InvariantViolation("an all-distinct coloring must be rainbow")


def admitted_masks(first: list[int], more: list[list[int] | None], v: int) -> list[int]:
    """The masks admitted at ``v``, read off the verifier's ``first`` and
    ``more``."""
    return [first[v], *(more[v] or ())] if first[v] >= 0 else []


def free_walks(
    adj: list[list[tuple[int, list[int]]]], t: int, first: list[int], more: list[list[int] | None]
) -> set[int]:
    """The look-ahead's rule for a target ``t``, as ``oracle``'s module
    docstring states it: which lengths, 1 or 2, some walk into ``t`` has
    whose colors are free in an admitted mask at its start, one edge
    ``w - t``, or two edges ``u - w - t`` of distinct colors. ``adj`` is
    ``oracle._adjacency``'s color groups."""
    one = any(not x & b for b, ws in adj[t] for w in ws for x in admitted_masks(first, more, w))
    two = any(
        not x & (c1 | c2)
        for c1, ws in adj[t]
        for w in ws
        for c2, us in adj[w]
        if c2 != c1
        for u in us
        for x in admitted_masks(first, more, u)
    )
    return {length for length, found in ((1, one), (2, two)) if found}


def is_packing(tris: Sequence[Triangle], forest: bool = False) -> bool:
    """Are ``tris`` pairwise edge-disjoint? With ``forest``, do the sides
    ``ab, ac`` of every triangle also form a forest, that is does each
    triangle join three components of the ones before it?"""
    sides = [eid for tri in tris for eid in tri.edge_ids]
    if len(set(sides)) < len(sides):
        return False
    if not forest or not tris:
        return True
    return nx.is_forest(nx.Graph((t.vertices[0], x) for t in tris for x in t.vertices[1:]))


def brute_force_packing(g: Graph, forest: bool = False) -> tuple[Triangle, ...]:
    """The first largest packing in canonical order: subsets of
    ``enumerate_triangles(g)`` from size ``g.m // 3`` down, each size in
    ``combinations`` order, the first that ``is_packing`` accepts."""
    tris = enumerate_triangles(g)
    for size in range(g.m // 3, -1, -1):
        for subset in combinations(tris, size):
            if is_packing(subset, forest):
                return subset
    raise InvariantViolation("the empty set is a packing")


def _structure(g: Graph, tris: Iterable[Triangle]) -> nx.Graph:
    """The triangles' sides as a networkx graph."""
    return nx.Graph(g.edges[eid] for tri in tris for eid in tri.edge_ids)


def blocks_is_forest(g: Graph, packing: TrianglePacking) -> tuple[bool, ...]:
    """Per component: is every block of the structure a single triangle?
    The blocks are networkx's ``biconnected_component_edges``."""
    return tuple(
        all(
            len({v for e in blk for v in e}) == 3
            for blk in nx.biconnected_component_edges(
                _structure(g, (packing.triangles[i] for i in indices))
            )
        )
        for indices in packing.components
    )


def _pick_split(g: Graph, packing: TrianglePacking, forest: Sequence[bool]):
    """Lowest vertex in >= 2 triangles of a block with more than three
    vertices, then the lowest triangle through it whose move keeps the
    component's structure connected. Blocks and connectivity are
    networkx's."""
    tris = packing.triangles
    candidates: set[int] = set()
    for comp_idx, indices in enumerate(packing.components):
        if forest[comp_idx]:
            continue
        comp_tris = [tris[i] for i in indices]
        block_of: dict[tuple[int, int], tuple[int, int]] = {}  # side -> (block, its vertex count)
        for b, blk in enumerate(nx.biconnected_component_edges(_structure(g, comp_tris))):
            size = len({v for e in blk for v in e})
            block_of.update((edge_key(*e), (b, size)) for e in blk)
        tri_counts: dict[tuple[int, int], int] = {}
        for tri in comp_tris:
            b, size = block_of[tri.vertices[:2]]
            if size == 3:
                continue
            for v in tri.vertices:
                tri_counts[(b, v)] = tri_counts.get((b, v), 0) + 1
        candidates.update(v for (_, v), cnt in tri_counts.items() if cnt >= 2)
    if not candidates:
        raise InvariantViolation("non-forest structure without a splittable vertex")
    v = min(candidates)
    comp_idx = next(i for i, verts in enumerate(packing.component_vertices) if v in verts)
    comp_tris = [tris[i] for i in packing.components[comp_idx]]
    at_v = sorted(t for t in comp_tris if v in t.vertices)
    for tri in at_v:
        corners = [
            tuple(g.n if x == v else x for x in t.vertices) if t == tri else t.vertices
            for t in comp_tris
        ]
        if nx.is_connected(nx.Graph(e for vs in corners for e in combinations(vs, 2))):
            return v, tri, [t for t in at_v if t != tri]
    raise InvariantViolation(f"no split at vertex {v} preserves structure connectivity")


def reclassify_build_transformed(
    g: Graph, packing: TrianglePacking
) -> tuple[TransformResult, tuple[Graph, ...]]:
    """Reference for ``build_transformed``: detach the chords, then repeat
    "classify the whole structure by its blocks, split the greedy choice"
    until every component is a triangle-forest. Also returns the source and
    the graph after each step, built one step at a time."""
    if not is_connected(g):
        raise InputError("graph must be connected")
    steps = []
    graphs = [g]
    for comp_idx, indices in enumerate(packing.components):
        verts = packing.component_vertices[comp_idx]
        tri_edges = {eid for i in indices for eid in packing.triangles[i].edge_ids}
        for eid, (a, b) in enumerate(g.edges):
            if a in verts and b in verts and eid not in tri_edges:
                cur, step = detach_edge(graphs[-1], eid)
                steps.append(step)
                graphs.append(cur)
    tris = list(packing.triangles)
    while True:
        cur = graphs[-1]
        current = classify_structure(cur, tris)
        forest = blocks_is_forest(cur, current)
        if all(forest):
            break
        v, moved, keep = _pick_split(cur, current, forest)
        cur, step = split_vertex(cur, v, keep, [moved])
        steps.append(step)
        graphs.append(cur)
        new_vs = tuple(step.new_vertex if x == v else x for x in moved.vertices)
        tris[tris.index(moved)] = make_triangle(cur, *new_vs)
    trace = TransformTrace(source=g, steps=tuple(steps))
    return TransformResult(trace, tuple(tris)), tuple(graphs)


def star_clique_edges(lg: LineGraphResult, v: int) -> list[int]:
    """Ids of the ``L``-edges inside the star clique of source vertex ``v``."""
    star = lg.source.incident_edges[v]
    index = lg.l_graph.edge_index
    return [index[(a, b)] for a, b in combinations(star, 2)]


def star_clique_edges_at(lg: LineGraphResult, v: int, at: int) -> list[int]:
    """Star-clique edges of ``v`` incident with the ``L``-vertex ``at``."""
    index = lg.l_graph.edge_index
    return [index[(min(at, o), max(at, o))] for o in lg.source.incident_edges[v] if o != at]


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


def _peel_leaf(tris: Sequence[Triangle]) -> tuple[Triangle, int]:
    """Lowest triangle sharing exactly one vertex with the rest of the structure."""
    for idx, tri in enumerate(tris):
        rest = {v for j, other in enumerate(tris) if j != idx for v in other.vertices}
        shared = set(tri.vertices) & rest
        if len(shared) == 1:
            return tri, next(iter(shared))
    raise InvariantViolation("no leaf triangle; component is not a tree structure")


def recursive_tree_assignment(
    lg: LineGraphResult, tris: Sequence[Triangle]
) -> tuple[ColorPart, list[Triangle]]:
    """Reference for ``color_triangle_tree``: peel the lowest leaf by
    rescanning every triangle's corners, color the rest recursively, then
    spend one fresh color on the leaf and reuse the two lowest colors of the
    rest. Returns the part and the triangles in peel order."""
    g = lg.source
    peeled: list[Triangle] = []

    def assign_tree(rest: list[Triangle]) -> tuple[dict[int, int], int]:
        if len(rest) == 1:
            return _single_triangle_rules(lg, rest[0]), 2
        leaf, u = _peel_leaf(rest)
        peeled.append(leaf)
        v, w = sorted(set(leaf.vertices) - {u})
        assign, used = assign_tree([t for t in rest if t != leaf])
        fresh = used + 1
        for le in star_clique_edges_at(lg, w, g.edge_id(u, w)):
            assign[le] = fresh
        for le in star_clique_edges_at(lg, v, g.edge_id(u, v)):
            assign[le] = fresh
        palette = sorted(set(assign.values()) - {fresh})
        c1, c2 = palette[0], palette[1]
        for le in star_clique_edges(lg, w):
            assign.setdefault(le, c1)
        for le in star_clique_edges(lg, v):
            assign.setdefault(le, c2)
        return assign, fresh

    assign, used = assign_tree(sorted(tris))
    return ColorPart(assign, used), peeled


def pull_back(trace: TransformTrace, coloring: EdgeColoring, lg: LineGraphResult) -> EdgeColoring:
    """Pull a coloring of L(final) back to ``lg`` = L(trace.source) by
    looking up the L(final) edge each pair's two ends land on; color 1 where
    a split cut the pair apart. Finds each landing by replaying the steps:
    which source vertex each flattened vertex descends from, and the
    flattened graph's edges."""
    origin = list(range(trace.source.n))  # final vertex -> its source vertex, -1 for none
    renamed: dict[tuple[int, int], int] = {}  # (edge, origin of its v end) -> new id
    for step in trace.steps:
        if isinstance(step, EdgeDetachStep):
            renamed[step.edge, origin[step.v]] = step.new_edge
            origin += (-1, -1)
        else:
            origin.append(origin[step.vertex])
    final = replay_trace(trace).edges
    index = coloring.graph.edge_index
    out: list[int] = []
    for x, star in enumerate(lg.source.incident_edges):
        ends = []
        for e in star:
            fe = renamed.get((e, x), e)
            a, b = final[fe]
            ends.append((fe, a if origin[a] == x else b))
        for (e, y), (f, z) in combinations(ends, 2):
            out.append(coloring.colors[index[edge_key(e, f)]] if y == z else 1)
    return EdgeColoring(lg.l_graph, tuple(out), coloring.k)


def part_by_part_construction(g: Graph, packing: TrianglePacking) -> EdgeColoring:
    """Reference for ``coloring._construct``'s coloring: flatten, color
    L(final) with one ``ColorPart`` per forest component (by
    ``recursive_tree_assignment``) and one single-color part per other inner
    vertex's star clique, concatenate the palettes with
    ``combine_colorings``, and pull the result back to L(g) when the trace
    has steps. Uncertified."""
    result = build_transformed(g, packing)
    final = replay_trace(result.trace)
    flat = classify_structure(final, result.triangles)
    assert flat.all_forest and flat.c == packing.c
    lg = line_graph(final)
    parts = [recursive_tree_assignment(lg, [flat.triangles[i] for i in comp])[0] for comp in flat.components]
    for x in range(final.n):
        if final.degree(x) >= 2 and x not in flat.covered_vertices:
            parts.append(ColorPart({le: 1 for le in star_clique_edges(lg, x)}, 1))
    col = combine_colorings(lg.l_graph, parts)
    if result.trace.steps:
        col = pull_back(result.trace, col, line_graph(g))
    return col


def hand_built_iterated_baseline(g: Graph) -> tuple[EdgeColoring, LineGraphResult, int]:
    """Reference for ``color_iterated_baseline``: one fresh color for the
    star clique of each inner vertex of L(g), in vertex order, combined over
    L(L(g)) from the twice-iterated chain. Returns the coloring, L(L(g)) and
    the ``m - m1`` bound, uncertified."""
    lg1, lg2 = iterated_line_graph(g, 2)
    if lg2.l_graph.n < 2:
        raise InputError("twice-iterated line graph is trivial")
    inner = [x for x in range(lg1.l_graph.n) if lg1.l_graph.degree(x) >= 2]
    parts = [ColorPart({le: 1 for le in star_clique_edges(lg2, x)}, 1) for x in inner]
    col = combine_colorings(lg2.l_graph, parts)
    bound = g.m - pendant_two_path_count(g)
    if col.k != bound:
        raise InvariantViolation(f"used {col.k} colors, pendant accounting says {bound}")
    return col, lg2, bound


def shuffle_random_cubic(n: int, seed: int) -> Graph:
    """``families.random_cubic`` written on ``rng.shuffle``: each try
    shuffles the stubs and lets ``build_graph`` reject a loop or a repeated
    pair. Reads ``families.CUBIC_MAX_TRIES`` at call time, so a test that
    patches the cap patches both samplers."""
    if n < 4 or n % 2:
        raise InputError(f"cubic graphs need even n >= 4, got {n}")
    rng = random.Random(seed)
    for _ in range(families.CUBIC_MAX_TRIES):
        stubs = [v for v in range(n) for _ in range(3)]
        rng.shuffle(stubs)
        try:
            g = build_graph(n, zip(stubs[::2], stubs[1::2]))
        except InputError:  # a loop or a repeated edge: not simple
            continue
        if is_connected(g):
            return g
    raise LimitError(f"no simple connected cubic sample on {n} vertices in {families.CUBIC_MAX_TRIES} tries")


def nx_graph(g: Graph) -> nx.Graph:
    """``g`` as a networkx graph on the nodes ``0..n-1``."""
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


def traced_peak(call: Callable[[], object]) -> tuple[object, int]:
    """``call()`` and the peak bytes ``tracemalloc`` saw while it ran."""
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def count_packing_work(monkeypatch):
    """Record the graph of each triangle enumeration and the graph and
    sorted triangles of each structure classification from here on, for
    the tests that pin how often the package packs."""
    enumerated, classified = [], []
    real_enumerate, real_classify = triangles.enumerate_triangles, triangles.classify_structure

    def counted_enumerate(g):
        enumerated.append(g)
        return real_enumerate(g)

    def counted_classify(g, tris):
        tris = tuple(sorted(tris))
        classified.append((g, tris))
        return real_classify(g, tris)

    monkeypatch.setattr(triangles, "enumerate_triangles", counted_enumerate)
    for module in (triangles, coloring):
        monkeypatch.setattr(module, "classify_structure", counted_classify)
    return enumerated, classified


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


def detach_edge(g: Graph, eid: int) -> tuple[Graph, EdgeDetachStep]:
    """Replace edge ``u-v`` by pendant edges to two new leaves, ``u-n`` and
    ``v-(n+1)`` with ``n = g.n``.

    Surviving edges keep their ids; the ``u`` side reuses the detached id and
    the ``v`` side gets a fresh one, ``g.m``.
    """
    if not (0 <= eid < g.m):
        raise InputError(f"edge id {eid} out of range")
    u, v = g.edges[eid]
    if g.degree(u) < 2 or g.degree(v) < 2:
        raise InputError(f"both endpoints of edge {eid} must have degree >= 2")
    edges = list(g.edges)
    edges[eid] = (u, g.n)
    edges.append((v, g.n + 1))
    return Graph(g.n + 2, tuple(edges)), EdgeDetachStep(edge=eid, v=v, new_edge=g.m)


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
        if make_triangle(g, *tri.vertices) != tri:
            raise InputError(f"triangle {tri.vertices} is stale for this graph")
        mask = _edge_mask(tri)
        if used & mask:
            raise InputError("split sides must be edge-disjoint triangles")
        used |= mask
    moved_edges = tuple(sorted(eid for tri in move for eid in tri.edge_ids if v in g.edges[eid]))
    step = VertexSplitStep(vertex=v, new_vertex=g.n, moved_edges=moved_edges)
    return _move_ends(g, v, moved_edges), step


def _move_ends(g: Graph, v: int, eids: Iterable[int]) -> Graph:
    """``g`` with the end ``v`` of each edge in ``eids`` moved to a new
    vertex, ``g.n``. Edge count and ids are unchanged."""
    edges = list(g.edges)
    for eid in eids:
        a, b = edges[eid]
        edges[eid] = (g.n, b) if a == v else (a, g.n)
    return Graph(g.n + 1, tuple(edges))


def _is_triangle_at(g: Graph, v: int, eids: tuple[int, ...]) -> bool:
    """Are ``eids`` the two sides at ``v`` of one triangle of ``g``?"""
    if len(eids) != 2 or not all(0 <= eid < g.m and v in g.edges[eid] for eid in eids):
        return False
    p, q = (a + b - v for a, b in (g.edges[eid] for eid in eids))
    return p != q and edge_key(p, q) in g.edge_index


def replay_graphs(trace: TransformTrace) -> tuple[Graph, ...]:
    """The source and the graph after each step, re-applied one step at a
    time. A detach is re-applied with ``detach_edge`` and must match it: ``v``
    the edge's second end and ``new_edge`` the graph's next edge id. A split
    moves its ``moved_edges``' ends at ``vertex``, which must be the two sides
    there of one triangle of the graph it acts on, to ``new_vertex``, which
    must be that graph's next vertex id. ``InvariantViolation`` otherwise."""
    graphs = [trace.source]
    for step in trace.steps:
        g = graphs[-1]
        if isinstance(step, EdgeDetachStep):
            cur, again = detach_edge(g, step.edge)
            if again != step:
                raise InvariantViolation(f"trace replay diverged from the recorded detach {step}")
        elif step.new_vertex == g.n and _is_triangle_at(g, step.vertex, step.moved_edges):
            cur = _move_ends(g, step.vertex, step.moved_edges)
        else:
            raise InvariantViolation(
                f"recorded split {step} does not move one triangle's two sides to the next vertex"
            )
        graphs.append(cur)
    return tuple(graphs)


def replay_trace(trace: TransformTrace) -> Graph:
    """The flattened graph: every step re-applied from the source. A trace
    keeps no flattened graph, so the tests build it here."""
    return replay_graphs(trace)[-1]


def check_partition_combination(g: Graph, groups: Sequence[Sequence[int]]) -> None:
    """A partition of ``g``'s edges into connected groups, one distinct
    palette per group, combines to a rainbow coloring with ``g.m`` colors."""
    parts = [ColorPart({eid: i + 1 for i, eid in enumerate(group)}, len(group)) for group in groups]
    combined = combine_colorings(g, parts)
    assert combined.k == g.m
    ok, witness = oracle.is_rainbow_connected(combined)
    assert ok, (g, groups, witness)


def check_detach_projection(g: Graph) -> bool:
    """Detach ``g``'s first non-bridge edge with both ends of degree >= 2: the
    result stays connected, and the distinct coloring of its line graph is
    rainbow and projects to a rainbow coloring of L(g). False when ``g`` has
    no such edge, so nothing was checked. The bridges are networkx's."""
    bridges = {edge_key(*e) for e in nx.bridges(nx_graph(g))}
    eligible = [
        eid
        for eid, (u, v) in enumerate(g.edges)
        if g.degree(u) >= 2 and g.degree(v) >= 2 and edge_key(u, v) not in bridges
    ]
    if not eligible:
        return False
    g2, step = detach_edge(g, eligible[0])
    assert is_connected(g2)
    lg2 = line_graph(g2).l_graph
    distinct = EdgeColoring(lg2, tuple(range(1, lg2.m + 1)), max(lg2.m, 1))
    assert oracle._check_all_pairs(lg2, [1 << (c - 1) for c in distinct.colors])[0]
    projected = coloring.project_coloring(TransformTrace(source=g, steps=(step,)), distinct)
    assert oracle._check_all_pairs(projected.graph, [1 << (c - 1) for c in projected.colors])[0]
    return True


@dataclass(frozen=True)
class IteratedTightnessReport:
    """Whether the ``m - m1`` construction on the twice-iterated line graph
    is tight, checked against the exact oracle."""

    verdict: str  # "equality" | "strict" | "undecided"
    is_long_path: bool
    bound: int
    colors_used: int
    exact: int | None


def _is_path_of_length_ge3(g: Graph) -> bool:
    if g.n < 4 or g.m != g.n - 1 or not is_connected(g):
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    return degs[0] == 1 and degs[1] == 1 and all(d == 2 for d in degs[2:])


def check_iterated_tightness(g: Graph, max_edges: int = DEFAULT_EDGE_CAP) -> IteratedTightnessReport:
    """Compare the ``m - m1`` construction against the exact oracle on the
    twice-iterated line graph; equality should hold exactly for paths of
    length at least 3."""
    col, cert = color_iterated_baseline(g)
    long_path = _is_path_of_length_ge3(g)
    try:
        exact = exact_rc(col.graph, max_edges=max_edges)
    except LimitError:
        return IteratedTightnessReport("undecided", long_path, cert.bound_value, col.k, None)
    if exact > cert.bound_value:
        raise InvariantViolation("exact value above a verified construction")
    verdict = "equality" if exact == cert.bound_value else "strict"
    return IteratedTightnessReport(verdict, long_path, cert.bound_value, col.k, exact)
