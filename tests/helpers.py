"""Independent references, one per layer, each compared with the package
directly. The instance sets they run on are in ``tests/corpus.py``.

Layer -> reference -> the test that compares it with the package. The
graph layer's references are networkx's, compared on
``corpus.graph_layer_graphs()`` by ``test_graphs.py``
``TestMatchesNetworkx``:

- line graph (``linegraph.line_graph``): ``nx.line_graph``, its nodes read
  as edge ids -> ``test_line_graph``.
- triangles (``triangles.enumerate_triangles``): the 3-cliques of
  ``nx.enumerate_all_cliques`` -> ``test_triangles``.
- breadth-first search (``graphs.distances``, ``Graph.diameter``,
  ``Graph.is_connected``): ``nx.all_pairs_shortest_path_length`` ->
  ``test_distances``; on hypothesis small graphs also ``TestDiameter``
  ``test_matches_networkx`` and, with ``nx.number_connected_components``,
  ``test_connected_iff_one_component``.
- blocks (``graphs.blocks``): ``nx.biconnected_component_edges``, and
  ``nx.articulation_points`` for the cut vertices -> ``test_blocks``; on
  hypothesis small graphs, a cut vertex is one whose deletion raises
  ``nx.number_connected_components`` -> ``TestBlocks``
  ``test_cut_vertices_disconnect``.

The other layers:

- verifier (``oracle._check_all_pairs``): ``naive_failing_pair``, which
  enumerates every simple path, on small graphs -> ``test_oracle.py``
  ``TestNaiveAgreement`` and ``test_acceptance.py``
  ``test_9_double_implementation_agreement`` (verdicts and witnesses);
  ``queue_check_all_pairs``, the same state search with a FIFO queue, on
  large ones -> ``TestLevelSearchMatchesQueue``, ``TestGroupedSearch`` and
  ``TestLookAheadMatchesQueue``; ``circular_first_unreached``, the earlier
  look-ahead order, check by check -> ``TestLookAheadOrder``, and with a
  look-ahead before every level or none, verdicts and witnesses ->
  ``TestLookAheadTrigger``.
- look-ahead (``oracle._reaches_within_two``): ``reaches_at_level``, a free
  edge from a state of the frontier's level, or else ``reaches_in_two``, a
  two-edge walk of distinct free colors from any admitted state ->
  ``TestReachesWithinTwo.test_matches_the_references``, at every look-ahead
  the verifier makes.
- exact rc (``oracle.exact_rc``): ``enumerate_exact_rc``, every canonical
  coloring in full -> ``TestPrunedSearchMatchesEnumeration``;
  ``relabel_exact_rc``, its own recursion in edge-id order with a private
  color per uncolored edge, values -> ``TestCountedMatchesRelabel``.
- packing (``triangles.pack_edge_disjoint``): ``comp_map_pack``, the chosen
  triangles in every mode -> ``test_triangles.py`` ``TestPacking``
  ``test_matches_comp_map_search``; ``brute_force_max_packing``, the exact
  modes' optimum -> ``test_exact_matches_brute_force``.
- structure (``TrianglePacking.is_forest``): ``blocks_is_forest``, on
  networkx's blocks -> ``test_triangles.py``
  ``TestClassify.test_vertex_count_matches_blocks``.
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

Everything here avoids the package's search machinery so the two sides of
each check stay independent; the graph searches the tests need (blocks,
bridges, connectivity, isomorphism, distances) are networkx's, run on
``nx_graph(g)``. ``relabel_exact_rc`` runs a search of its own and takes
from the oracle only the verifier (``_adjacency`` and ``_check_adjacency``,
which a test patches to record its prefix checks) and the edge-cap check.
Also the tools only tests use: edge-induced subgraphs, vertex-set
shrinking, star-clique edge ids, the two-color coloring of a lone triangle
with pendants, the networkx copy of a graph, trace replay, the tightness check of the ``m - m1`` bound, a recorder
of the triangle enumerations and classifications a call makes, and the
partition-combination and detach-projection checks that
``test_observations.py`` and ``test_acceptance.py`` run on their own
instances.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterable, Sequence

import networkx as nx

from rainbowline import coloring, oracle, triangles
from rainbowline.coloring import (
    ColorPart,
    EdgeColoring,
    color_iterated_baseline,
    combine_colorings,
    pendant_two_path_count,
)
from rainbowline.errors import InputError, InvariantViolation, LimitError
from rainbowline.graphs import Graph, diameter, edge_key, is_connected
from rainbowline.linegraph import LineGraphResult, iterated_line_graph, line_graph
from rainbowline.oracle import _LOOK_AHEAD_FACTOR, DEFAULT_EDGE_CAP, canonical_colorings, exact_rc
from rainbowline.triangles import (
    EdgeDetachStep,
    TransformResult,
    TransformTrace,
    Triangle,
    TrianglePacking,
    VertexSplitStep,
    _edge_mask,
    _is_current,
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


def naive_rainbow_connected(g: Graph, colors: Sequence[int]) -> bool:
    """Enumerate every simple path per pair; accept iff one has distinct colors."""
    return naive_failing_pair(g, colors) is None


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


def relabel_exact_rc(g: Graph, max_edges: int = DEFAULT_EDGE_CAP) -> int:
    """Reference for ``oracle.exact_rc``: a pruned search in edge-id order
    whose prefix check gives every uncolored edge ``i`` a private color
    ``1 << (m + i)`` that clashes with nothing, and allows walks of any
    length. It checks each prefix through ``oracle._check_adjacency``, so a
    test can record the verdicts.

    Its own recursion: palette sizes upward from the diameter, the edges
    colored depth first in the order of ``canonical_colorings``, every
    prefix that fails the check cut, no check on the empty prefix or on a
    child that takes a fresh color, and a fresh color for every edge once
    as many colors are left to use as edges. Raises ``LimitError`` carrying
    the proven bracket when the instance exceeds ``max_edges``.
    """
    oracle.check_edge_cap(max_edges)
    diam = diameter(g)
    if g.n < 2 or math.isinf(diam):
        raise InputError("exact search needs a connected graph on >= 2 vertices")
    lo = max(int(diam), 1)
    hi = min(g.m, g.n - 1)
    m = g.m
    if m > max_edges:
        raise LimitError(
            f"{m} edges exceed the exact-search cap {max_edges}", lower=lo, upper=hi
        )
    bits = [1 << (m + i) for i in range(m)]

    def extends(j: int, top: int, k: int) -> bool:
        if j == m:
            return True
        for c in range(top + 1 if k - top == m - j else 1, min(top + 1, k) + 1):
            bits[j] = 1 << (c - 1)
            if c <= top and not oracle._check_adjacency(oracle._adjacency(g, bits))[0]:
                continue
            if extends(j + 1, max(top, c), k):
                return True
        bits[j] = 1 << (m + j)
        return False

    for k in range(lo, m + 1):
        if extends(0, 0, k):
            return k
    raise InvariantViolation("an all-distinct coloring must be rainbow")


def _next_target(unreached: bytearray, t: int) -> int:
    """The first unreached target after ``t``, wrapping around."""
    nxt = unreached.find(1, t + 1)
    return nxt if nxt >= 0 else unreached.find(1)


def look_ahead_trigger(states: int, left: int) -> bool:
    """The package's rule for a look-ahead: the frontier holds more than
    ``oracle._LOOK_AHEAD_FACTOR`` states per target left."""
    return states > _LOOK_AHEAD_FACTOR * left


def admitted_masks(first: list[int], more: list[list[int] | None], v: int) -> list[int]:
    """The masks admitted at ``v``, read off the verifier's ``first`` and
    ``more``."""
    return [first[v], *(more[v] or ())] if first[v] >= 0 else []


def reaches_at_level(
    row: list[tuple[int, list[int]]], first: list[int], more: list[list[int] | None], level: int
) -> bool:
    """The look-ahead's one-edge check with the level: whether a state of
    ``level`` colors at a neighbour of the vertex whose color groups are
    ``row`` has a free edge into that vertex."""
    return any(
        x.bit_count() == level and not x & b
        for b, ws in row
        for w in ws
        for x in admitted_masks(first, more, w)
    )


def reaches_in_two(
    adj: list[list[tuple[int, list[int]]]], t: int, first: list[int], more: list[list[int] | None]
) -> bool:
    """The look-ahead's two-edge check: whether an admitted state at some
    vertex ``u`` reaches ``t`` by two edges ``u - w - t`` of distinct colors
    that its mask avoids."""
    return any(
        not x & (c1 | c2)
        for c1, ws in adj[t]
        for w in ws
        for c2, us in adj[w]
        if c2 != c1
        for u in us
        for x in admitted_masks(first, more, u)
    )


def circular_first_unreached(
    adj: list[list[tuple[int, list[int]]]],
    s: int,
    trigger: Callable[[int, int], bool] = look_ahead_trigger,
) -> int | None:
    """Reference for ``oracle._first_unreached``: the same level search, but
    each look-ahead checks a target with ``reaches_at_level`` at the
    frontier's level and then, if that rejects it, with ``reaches_in_two``.
    Each look-ahead starts at the first target that ``reaches_at_level``
    rejected in the last one, goes round the others in circular order, and
    stops at the first target both checks reject. It calls both checks
    through this module, so a test can record them. It keeps each vertex's
    admitted masks in one list, in admission order, and hands the checks
    the verifier's layout read off it: each vertex's first mask (``-1`` if
    none) and its later masks (``None`` if none). A look-ahead runs before a level when
    ``trigger(frontier states, targets left)`` holds; the default is the
    package's rule, and a test may pass another one."""
    n = len(adj)
    unreached = bytearray(s + 1) + b"\x01" * (n - s - 1)
    left = n - s - 1
    stuck = s + 1
    visited: list[list[int]] = [[] for _ in range(n)]
    visited[s].append(0)
    frontier = [(s, 0)]
    while frontier:
        if trigger(len(frontier), left):
            level = frontier[0][1].bit_count()
            first = [xs[0] if xs else -1 for xs in visited]
            more = [xs[1:] or None for xs in visited]
            t = stuck if unreached[stuck] else _next_target(unreached, stuck)
            rejected = []
            for _ in range(left):
                if not reaches_at_level(adj[t], first, more, level):
                    rejected.append(t)
                    if not reaches_in_two(adj, t, first, more):
                        stuck = rejected[0]
                        break
                t = _next_target(unreached, t)
            else:
                return None
        nxt: list[tuple[int, int]] = []
        for v, mask in frontier:
            for b, ws in adj[v]:
                if b & mask:
                    continue
                nm = mask | b
                for w in ws:
                    admitted = visited[w]
                    for x in admitted:
                        if x & nm == x:
                            break
                    else:
                        admitted.append(nm)
                        nxt.append((w, nm))
                        if unreached[w]:
                            left -= 1
                            if not left:
                                return None
                            unreached[w] = 0
        frontier = nxt
    return unreached.index(1)


def brute_force_max_packing(g: Graph, triangles) -> int:
    """Largest edge-disjoint subset by trying every subset."""
    masks = [
        (1 << t.edge_ids[0]) | (1 << t.edge_ids[1]) | (1 << t.edge_ids[2])
        for t in triangles
    ]
    best = 0
    for size in range(len(triangles), 0, -1):
        if size <= best:
            break
        for subset in combinations(range(len(triangles)), size):
            used = 0
            ok = True
            for i in subset:
                if used & masks[i]:
                    ok = False
                    break
                used |= masks[i]
            if ok:
                best = size
                break
    return best


def _triangle_mask(tri: Triangle) -> int:
    return (1 << tri.edge_ids[0]) | (1 << tri.edge_ids[1]) | (1 << tri.edge_ids[2])


def _comp_roots(tri: Triangle, comp: dict[int, int]) -> list[int]:
    roots = []
    for v in tri.vertices:
        r = v
        while r in comp:
            r = comp[r]
        roots.append(r)
    return roots


def _comp_forest_ok(tri: Triangle, comp: dict[int, int]) -> bool:
    return len(set(_comp_roots(tri, comp))) == 3


def _comp_forest_add(tri: Triangle, comp: dict[int, int]) -> None:
    roots = _comp_roots(tri, comp)
    root = min(roots)
    for r in roots:
        if r != root:
            comp[r] = root


def comp_map_pack(g: Graph, mode: str) -> tuple[Triangle, ...]:
    """Reference for ``pack_edge_disjoint``'s choice: the same greedy scan and
    exact search, with the forest test on a plain child-to-parent map that is
    copied per branch. Returns the chosen triangles, sorted."""
    tris = enumerate_triangles(g)
    forest = mode.startswith("forest")

    def greedy() -> list[Triangle]:
        chosen, used, comp = [], 0, {}
        for tri in tris:
            mask = _triangle_mask(tri)
            if used & mask or (forest and not _comp_forest_ok(tri, comp)):
                continue
            chosen.append(tri)
            used |= mask
            if forest:
                _comp_forest_add(tri, comp)
        return chosen

    if mode.endswith("greedy"):
        return tuple(sorted(greedy()))
    masks = [_triangle_mask(t) for t in tris]
    best = [tris.index(t) for t in greedy()]
    chosen: list[int] = []

    def dfs(i: int, used: int, comp: dict[int, int]) -> None:
        nonlocal best
        if len(chosen) + (len(tris) - i) <= len(best):
            return
        if i == len(tris):
            best = chosen.copy()
            return
        if not (masks[i] & used) and (not forest or _comp_forest_ok(tris[i], comp)):
            comp2 = comp
            if forest:
                comp2 = dict(comp)
                _comp_forest_add(tris[i], comp2)
            chosen.append(i)
            dfs(i + 1, used | masks[i], comp2)
            chosen.pop()
        dfs(i + 1, used, comp)

    dfs(0, 0, {})
    return tuple(sorted(tris[i] for i in best))


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
    star = lg.star_of[v]
    index = lg.l_graph.edge_index
    return [index[(a, b)] for a, b in combinations(star, 2)]


def star_clique_edges_at(lg: LineGraphResult, v: int, at: int) -> list[int]:
    """Star-clique edges of ``v`` incident with the ``L``-vertex ``at``."""
    index = lg.l_graph.edge_index
    return [index[(min(at, o), max(at, o))] for o in lg.star_of[v] if o != at]


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
    for x, star in enumerate(lg.star_of):
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


def nx_graph(g: Graph) -> nx.Graph:
    """``g`` as a networkx graph on the nodes ``0..n-1``."""
    out = nx.Graph()
    out.add_nodes_from(range(g.n))
    out.add_edges_from(g.edges)
    return out


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


def replay_graphs(trace: TransformTrace) -> tuple[Graph, ...]:
    """The source and the graph after each step, re-applied one step at a
    time with ``detach_edge``/``split_vertex``; errors if a re-applied step
    differs from the recorded one."""
    graphs = [trace.source]
    for step in trace.steps:
        if isinstance(step, EdgeDetachStep):
            cur, again = detach_edge(graphs[-1], step.edge)
        else:
            cur, again = split_vertex(graphs[-1], step.vertex, step.kept_triangles, step.moved_triangles)
        if again != step:
            raise InvariantViolation("trace replay diverged from the recorded step")
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
