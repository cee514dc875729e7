"""Independent references, one per layer, each compared with the package
directly. The instance sets they run on are in ``tests/corpus.py``.

Layer -> reference -> the test that compares it with the package:

- verifier (``oracle._check_all_pairs``): ``naive_failing_pair``, which
  enumerates every simple path, on small graphs -> ``test_oracle.py``
  ``TestNaiveAgreement`` and ``test_acceptance.py``
  ``test_9_double_implementation_agreement`` (verdicts and witnesses);
  ``queue_check_all_pairs``, the same state search with a FIFO queue, on
  large ones -> ``TestLevelSearchMatchesQueue``, ``TestGroupedSearch`` and
  ``TestLookAheadMatchesQueue``; ``circular_first_unreached``, the earlier
  look-ahead order, check by check -> ``TestLookAheadOrder``.
- exact rc (``oracle.exact_rc``): ``enumerate_exact_rc``, every canonical
  coloring in full -> ``TestPrunedSearchMatchesEnumeration``;
  ``relabel_exact_rc``, the search with a private color per uncolored edge,
  value and prefix-check totals -> ``TestCountedMatchesRelabel``.
- packing (``triangles.pack_edge_disjoint``): ``comp_map_pack``, the chosen
  triangles in every mode -> ``test_triangles.py`` ``TestPacking``
  ``test_matches_comp_map_search``; ``brute_force_max_packing``, the exact
  modes' optimum -> ``test_exact_matches_brute_force``.
- structure (``TrianglePacking.is_forest``): ``blocks_is_forest`` ->
  ``TestClassify.test_vertex_count_matches_blocks``.
- flattening (``triangles.build_transformed``):
  ``reclassify_build_transformed``, built from ``detach_edge`` and
  ``split_vertex`` -> ``TestSweepMatchesReclassify``.
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
- connectivity (``graphs.is_connected``): ``components`` ->
  ``test_graphs.py`` ``test_connected_iff_one_component``.

Everything here avoids the package's search machinery so the two sides of
each check stay independent. The exceptions are ``relabel_exact_rc``, which
checks each prefix through ``oracle._check_adjacency`` so that a test can
count the checks, and ``circular_first_unreached``, which shares
``oracle._reaches`` so that a test can record the look-ahead checks of both
orders. Also the tools only tests use: edge-induced subgraphs, vertex-set
shrinking, star-clique edge ids, the two-color coloring of a lone triangle
with pendants, trace replay, the tightness check of the ``m - m1``
bound, and a recorder of the triangle enumerations and classifications a
call makes.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from rainbowline import coloring, oracle, triangles
from rainbowline.coloring import (
    ColorPart,
    EdgeColoring,
    color_iterated_baseline,
    combine_colorings,
    pendant_two_path_count,
)
from rainbowline.errors import InputError, InvariantViolation, LimitError
from rainbowline.graphs import (
    Graph,
    blocks,
    diameter,
    edge_key,
    is_connected,
)
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
    """Reference for ``oracle.exact_rc``: the same pruned search, but each
    prefix check gives every uncolored edge ``i`` a private color
    ``1 << (m + i)`` that clashes with nothing, and allows walks of any
    length. It checks each prefix through ``oracle._check_adjacency``, so a
    test can record the verdicts.

    Tries palette sizes upward from the diameter. For each size ``k`` it
    colors the edges in id order, depth first, in the order of
    ``canonical_colorings``, and cuts every prefix that fails the relaxed
    check. The adjacency is built once; coloring an edge relabels the bit of
    its group at each end. Raises ``LimitError`` carrying the proven bracket
    when the instance exceeds ``max_edges``.
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
    adj = oracle._adjacency(g, [1 << (m + i) for i in range(m)])
    ends: list[list[list]] = [[] for _ in range(m)]
    for row in adj:
        for group in row:
            ends[group[0].bit_length() - 1 - m].append(group)

    def extends(i: int, top: int, k: int) -> bool:
        """Whether the prefix of edges ``0..i-1``, colored in ``adj`` with
        colors ``1..top``, extends to a rainbow coloring with exactly ``k``
        colors."""
        if not oracle._check_adjacency(adj)[0]:
            return False
        if i == m:
            return True
        at_u, at_v = ends[i]
        private = at_u[0]
        for c in range(1, min(top + 1, k) + 1):
            t = max(top, c)
            if k - t > m - i - 1:
                continue
            at_u[0] = at_v[0] = 1 << (c - 1)
            found = extends(i + 1, t, k)
            at_u[0] = at_v[0] = private
            if found:
                return True
        return False

    for k in range(lo, m + 1):
        if extends(0, 0, k):
            return k
    raise InvariantViolation("an all-distinct coloring must be rainbow")


def _next_target(unreached: bytearray, t: int) -> int:
    """The first unreached target after ``t``, wrapping around."""
    nxt = unreached.find(1, t + 1)
    return nxt if nxt >= 0 else unreached.find(1)


def circular_first_unreached(adj: list[list[list]], s: int) -> int | None:
    """Reference for ``oracle._first_unreached``: the same level search, but
    each look-ahead checks first the target that failed the last one, then
    the others in circular order, and stops at the first failure. It calls
    ``oracle._reaches`` through the module, so a test can record the checks
    of both look-aheads."""
    n = len(adj)
    unreached = bytearray(s + 1) + b"\x01" * (n - s - 1)
    left = n - s - 1
    stuck = s + 1
    visited: list[list[int]] = [[] for _ in range(n)]
    visited[s].append(0)
    frontier = [(s, 0)]
    while frontier:
        if len(frontier) > n:
            level = frontier[0][1].bit_count()
            t = stuck if unreached[stuck] else _next_target(unreached, stuck)
            for _ in range(left):
                if not oracle._reaches(adj[t], visited, level):
                    stuck = t
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


def blocks_is_forest(g: Graph, packing: TrianglePacking) -> tuple[bool, ...]:
    """Per component: is every block of the structure a single triangle?"""
    flags = []
    for indices in packing.components:
        edge_ids = {eid for i in indices for eid in packing.triangles[i].edge_ids}
        sub = induced_by_edges(g, edge_ids)
        flags.append(
            all(
                len({v for e in blk for v in sub.graph.edges[e]}) == 3
                for blk in blocks(sub.graph).blocks
            )
        )
    return tuple(flags)


def _connected_after_move(
    comp_tris: Sequence[Triangle], v: int, moved: Triangle, new_vertex: int
) -> bool:
    adj: dict[int, set[int]] = {}
    for tri in comp_tris:
        vs = tri.vertices
        if tri == moved:
            vs = tuple(new_vertex if x == v else x for x in vs)
        for a, b in combinations(vs, 2):
            adj.setdefault(a, set()).add(b)
            adj.setdefault(b, set()).add(a)
    start = next(iter(adj))
    seen = {start}
    queue = deque([start])
    while queue:
        for b in adj[queue.popleft()]:
            if b not in seen:
                seen.add(b)
                queue.append(b)
    return len(seen) == len(adj)


def _pick_split(g: Graph, packing: TrianglePacking, forest: Sequence[bool]):
    """Lowest vertex in >= 2 triangles of a block with more than three
    vertices, then the lowest triangle through it whose move keeps the
    component's structure connected."""
    tris = packing.triangles
    candidates: set[int] = set()
    for comp_idx, indices in enumerate(packing.components):
        if forest[comp_idx]:
            continue
        edge_ids = {eid for i in indices for eid in tris[i].edge_ids}
        sub = induced_by_edges(g, edge_ids)
        bd = blocks(sub.graph)
        eid_to_block = {sub.edge_to_parent[e]: b for b, blk in enumerate(bd.blocks) for e in blk}
        block_sizes = [len({v for e in blk for v in sub.graph.edges[e]}) for blk in bd.blocks]
        tri_counts: dict[tuple[int, int], int] = {}
        for i in indices:
            b_idx = eid_to_block[tris[i].edge_ids[0]]
            if block_sizes[b_idx] == 3:
                continue
            for v in tris[i].vertices:
                tri_counts[(b_idx, v)] = tri_counts.get((b_idx, v), 0) + 1
        candidates.update(v for (_, v), cnt in tri_counts.items() if cnt >= 2)
    if not candidates:
        raise InvariantViolation("non-forest structure without a splittable vertex")
    v = min(candidates)
    comp_idx = next(i for i, verts in enumerate(packing.component_vertices) if v in verts)
    comp_tris = [tris[i] for i in packing.components[comp_idx]]
    at_v = sorted(t for t in comp_tris if v in t.vertices)
    for tri in at_v:
        if _connected_after_move(comp_tris, v, tri, g.n):
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


def components(g: Graph) -> list[list[int]]:
    """The vertex sets of g's components, each sorted, by breadth-first search."""
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


def remove_vertex_components(g: Graph, v: int) -> int:
    """Component count of g - v, for cut-vertex checks."""
    seen = {v}
    count = 0
    for s in range(g.n):
        if s in seen:
            continue
        count += 1
        stack = [s]
        seen.add(s)
        while stack:
            a = stack.pop()
            for b in g.adjacency[a]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
    return count


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
