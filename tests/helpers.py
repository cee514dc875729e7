"""Independent test oracles: naive path enumeration, the queue-based
verifier, exact rc by checking every canonical coloring, brute-force
packing, the parent-map packing search, blocks-based forest classification,
reclassify-until-forest flattening, step-by-step coloring projection, and
exhaustive small-graph generation up to isomorphism.

Everything here deliberately avoids the package's search machinery so the
two sides of each check stay independent.
"""

from collections import deque
from functools import lru_cache
from itertools import combinations, groupby, permutations, product
from typing import Sequence

from rainbowline.coloring import EdgeColoring
from rainbowline.errors import InputError, InvariantViolation
from rainbowline.graphs import (
    Graph,
    blocks,
    build_graph,
    diameter,
    edge_key,
    induced_by_edges,
    is_connected,
)
from rainbowline.linegraph import line_graph
from rainbowline.oracle import canonical_colorings
from rainbowline.triangles import (
    EdgeDetachStep,
    TransformResult,
    TransformTrace,
    Triangle,
    TrianglePacking,
    classify_structure,
    detach_edge,
    enumerate_triangles,
    make_triangle,
    split_vertex,
)


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


def reclassify_build_transformed(g: Graph, packing: TrianglePacking) -> TransformResult:
    """Reference for ``build_transformed``: detach the chords, then repeat
    "classify the whole structure by its blocks, split the greedy choice"
    until every component is a triangle-forest."""
    if not is_connected(g):
        raise InputError("graph must be connected")
    steps = []
    cur = g
    for comp_idx, indices in enumerate(packing.components):
        verts = packing.component_vertices[comp_idx]
        tri_edges = {eid for i in indices for eid in packing.triangles[i].edge_ids}
        for eid, (a, b) in enumerate(g.edges):
            if a in verts and b in verts and eid not in tri_edges:
                cur, step = detach_edge(cur, eid)
                steps.append((step, cur))
    tris = list(packing.triangles)
    while True:
        current = classify_structure(cur, tris)
        forest = blocks_is_forest(cur, current)
        if all(forest):
            break
        v, moved, keep = _pick_split(cur, current, forest)
        cur, step = split_vertex(cur, v, keep, [moved])
        steps.append((step, cur))
        new_vs = tuple(step.new_vertex if x == v else x for x in moved.vertices)
        tris[tris.index(moved)] = make_triangle(cur, *new_vs)
    return TransformResult(graph=cur, trace=TransformTrace(source=g, steps=tuple(steps)), triangles=tuple(tris))


def stepwise_project_coloring(trace: TransformTrace, coloring: EdgeColoring) -> EdgeColoring:
    """Pull a coloring of L(final) back to L(source) one step at a time,
    rebuilding the line graphs on both sides of every step."""
    graphs = [trace.source] + [g for _, g in trace.steps]
    assert coloring.graph == line_graph(graphs[-1]).l_graph
    col = coloring
    for i in reversed(range(len(trace.steps))):
        step, g_after = trace.steps[i]
        g_before = graphs[i]
        lg_before = line_graph(g_before).l_graph
        after_index = line_graph(g_after).l_graph.edge_index
        out: list[int] = []
        for f, h in lg_before.edges:
            if isinstance(step, EdgeDetachStep):
                (y,) = set(g_before.edges[f]) & set(g_before.edges[h])
                renamed = [
                    step.new_edge if e == step.edge and y == step.v else e for e in (f, h)
                ]
                out.append(col.colors[after_index[edge_key(*renamed)]])
            else:
                le = after_index.get(edge_key(f, h))
                out.append(col.colors[le] if le is not None else 1)
        col = EdgeColoring(lg_before, tuple(out), col.k)
    return col


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


@lru_cache(maxsize=None)
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


def small_trees(max_vertices: int) -> list[Graph]:
    return [
        g
        for g in connected_graphs_up_to(max_vertices - 1)
        if g.m == g.n - 1 and g.n <= max_vertices
    ]


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
