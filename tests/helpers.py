"""Independent test oracles: naive path enumeration, the queue-based
verifier, brute-force packing, step-by-step coloring projection, and
exhaustive small-graph generation up to isomorphism.

Everything here deliberately avoids the package's search machinery so the
two sides of each check stay independent.
"""

from collections import deque
from functools import lru_cache
from itertools import combinations, groupby, permutations, product
from typing import Sequence

from rainbowline.coloring import EdgeColoring
from rainbowline.graphs import Graph, build_graph, edge_key
from rainbowline.linegraph import line_graph
from rainbowline.triangles import EdgeDetachStep, TransformTrace


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
