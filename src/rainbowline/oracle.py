"""Ground truth: exact rainbow-connectivity checking and the exact rc search.

The checker searches (vertex, used-color-set) states from each source vertex
``s``, one level at a time: level ``L`` holds the states reached by walks of
``L`` edges with pairwise-distinct colors, and the next level extends each of
them by one edge of an unused color. Walks are allowed: a walk with
pairwise-distinct edge colors has distinct edges and contains a rainbow path
between its endpoints, so reachability is unaffected. A new state is dropped
when an already-admitted state at the same vertex uses a subset of its
colors. Every level adds exactly one color, so the admitted masks at each
vertex form an antichain without ever needing removals.

The adjacency (``_adjacency``) groups each vertex's neighbours by the color
of the edge to them: one ``[bit, neighbours]`` group per color, in order of
first appearance. A state tests a color against its mask once per group and
skips the whole group on a clash, so a color shared by a large star clique,
which the constructions produce, costs one test instead of one per edge.
The subset test and the target count still run per neighbour. The order of
groups and neighbours cannot change a verdict or a witness: within one
level every new mask has the same size, so an admitted mask at the same
level is a subset of a new one only if it is equal to it. The states
admitted at each level are therefore the same in any order, and so are the
early exit and the targets left unreached.

Only the targets ``s+1..n-1`` matter for ``s`` (pairs are symmetric). They
are counted down as they are first admitted, and the search from ``s`` stops
the moment the last one is reached. When a source exhausts its states with
targets left, the smallest of them is the witness: the pairs are tried in
lexicographic order, so the first failing pair found is the smallest one.

Before expanding level ``L`` the search may look one level ahead: if every
target left has a neighbour ``w`` holding a level-``L`` state whose mask
avoids the color of the edge from ``w`` (``_reaches``), level ``L + 1``
admits all of them and the source is done without building it. This is
exact. An unreached target holds no state, so nothing can dominate a new
one there: it is admitted at level ``L + 1`` exactly when some level-``L``
state has a free edge into it. An older state never qualifies, since it was
expanded already and would have admitted the target then; so the scan of a
vertex's masks, newest first, stops at the first mask below ``L`` colors.
The look-ahead runs only when the frontier holds more states than the graph
has vertices, so the level it may save expands more states than there are
targets to check. ``L`` is then the popcount of any frontier mask
(``int.bit_count`` needs Python 3.10, the oldest ``requires-python`` allows).
It checks the targets left in ascending order and stops at the first
failure. A target that passes is admitted at the next level, so the
smallest target left is where the last look-ahead stopped.

``exact_rc`` searches the canonical colorings for each palette size ``k``
depth first, coloring the edges in id order, and cuts every prefix that
fails a relaxed check (``_counted_reaches``). A coloring with ``k`` colors
has no rainbow path of more than ``k`` edges, and a path that is rainbow
under some completion of a prefix uses distinct colors on its colored edges.
So the relaxation asks, for every pair, for a walk of at most ``k`` edges
whose colored edges have distinct colors; its uncolored edges are only
counted. A prefix that fails it has no rainbow completion, and its whole
subtree is cut. A full coloring has no uncolored edges and no rainbow walk
longer than ``k``, so its check is exact and the first ``k`` with a
surviving leaf is rc.
A state of this search carries the real colors of its walk in bits
``0..k-1`` and the count of its uncolored edges as thermometer bits from
bit ``k`` up: crossing an uncolored edge adds bit ``k + count``. Every level
still adds one bit, so the level is the popcount, the search stops after
level ``k``, and the subset test ``x & nm == x`` still drops a state whose
colors and count are both no smaller than an admitted one's. The adjacency
holds one ``[bit, neighbour]`` pair per edge end, built once per call with
``bit = 0`` (uncolored); coloring edge ``i`` sets the bit at its two ends and
backtracking clears it. The search is a loop of its own and shares no code
with the verifier's: with the uncolored branch and the level cap in one
shared loop, the verifier took 10-17% longer on the ``sharp`` benchmark's
inputs (repeated timings, 2-vCPU Xeon, Python 3.11.7).
"""

import math
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import InputError, InvariantViolation, LimitError
from .graphs import Graph, diameter

if TYPE_CHECKING:
    from .coloring import EdgeColoring

DEFAULT_COLOR_CAP = 64
DEFAULT_EDGE_CAP = 12


def _adjacency(g: Graph, bits: Sequence[int]) -> list[list[list]]:
    """Per vertex, its neighbours grouped by edge color: ``[bit, neighbours]``
    groups in first-appearance order, neighbours in edge-id order."""
    adj: list[list[list]] = [[] for _ in range(g.n)]
    groups: list[dict[int, list]] = [{} for _ in range(g.n)]
    for (u, v), b in zip(g.edges, bits):
        for x, y in ((u, v), (v, u)):
            group = groups[x].get(b)
            if group is None:
                group = groups[x][b] = [b, []]
                adj[x].append(group)
            group[1].append(y)
    return adj


def _reaches(row: list[list], visited: list[list[int]], level: int) -> bool:
    """Whether a state of ``level`` colors at a neighbour of the vertex whose
    color groups are ``row`` has a free edge into that vertex."""
    for b, ws in row:
        for w in ws:
            for x in reversed(visited[w]):
                if x.bit_count() < level:
                    break
                if not x & b:
                    return True
    return False


def _first_unreached(adj: list[list[list]], s: int) -> int | None:
    """Smallest target ``t > s`` with no rainbow path from ``s``, or ``None``
    as soon as the last target is admitted or sure to be at the next level."""
    n = len(adj)
    unreached = bytearray(s + 1) + b"\x01" * (n - s - 1)
    left = n - s - 1
    visited: list[list[int]] = [[] for _ in range(n)]
    visited[s].append(0)
    frontier = [(s, 0)]
    while frontier:
        if len(frontier) > n:
            level = frontier[0][1].bit_count()
            t = unreached.find(1)
            while t >= 0 and _reaches(adj[t], visited, level):
                t = unreached.find(1, t + 1)
            if t < 0:
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


def _check_adjacency(adj: list[list[list]]) -> tuple[bool, tuple[int, int] | None]:
    for s in range(len(adj) - 1):
        t = _first_unreached(adj, s)
        if t is not None:
            return False, (s, t)
    return True, None


def _check_all_pairs(g: Graph, bits: Sequence[int]) -> tuple[bool, tuple[int, int] | None]:
    return _check_adjacency(_adjacency(g, bits))


def is_rainbow_connected(col: "EdgeColoring") -> tuple[bool, tuple[int, int] | None]:
    """Exact check of ``col`` on its own graph; on failure returns the
    lexicographically smallest vertex pair with no rainbow path."""
    if col.k > DEFAULT_COLOR_CAP:
        raise LimitError(f"palette of {col.k} colors exceeds the search cap {DEFAULT_COLOR_CAP}")
    return _check_all_pairs(col.graph, [1 << (c - 1) for c in col.colors])


def canonical_colorings(m: int, k: int) -> Iterator[tuple[int, ...]]:
    """All colorings of ``m`` edges using exactly colors ``1..k``, one per
    color partition: the first edge of each new color takes the smallest
    unused id."""
    if k < 1 or k > m:
        return

    def rec(i: int, top: int, prefix: list[int]) -> Iterator[tuple[int, ...]]:
        if k - top > m - i:
            return
        if i == m:
            if top == k:
                yield tuple(prefix)
            return
        for c in range(1, min(top + 1, k) + 1):
            prefix.append(c)
            yield from rec(i + 1, max(top, c), prefix)
            prefix.pop()

    yield from rec(0, 0, [])


def check_edge_cap(max_edges: int) -> None:
    """Reject a negative ``exact_rc`` edge cap."""
    if max_edges < 0:
        raise InputError(f"edge cap must be non-negative, got {max_edges}")


def _counted_reaches(adj: list[list[list]], s: int, k: int) -> bool:
    """Whether every target ``t > s`` has a walk from ``s`` of at most ``k``
    edges whose colored edges have distinct colors. ``adj`` holds one
    ``[bit, neighbour]`` pair per edge end, with ``bit = 0`` while the edge
    is uncolored."""
    n = len(adj)
    unreached = bytearray(s + 1) + b"\x01" * (n - s - 1)
    left = n - s - 1
    visited: list[list[int]] = [[] for _ in range(n)]
    visited[s].append(0)
    frontier = [(s, 0)]
    for _ in range(k):
        nxt: list[tuple[int, int]] = []
        for v, mask in frontier:
            count = ((mask >> k) + 1) << k
            for b, w in adj[v]:
                if b & mask:
                    continue
                nm = mask | (b or count)
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
                            return True
                        unreached[w] = 0
        frontier = nxt
    return False


def exact_rc(g: Graph, max_edges: int = DEFAULT_EDGE_CAP) -> int:
    """Exact rainbow connection number by a pruned search over canonical
    colorings.

    Tries palette sizes upward from the diameter. For each size ``k`` it
    colors the edges in id order, depth first, in the order of
    ``canonical_colorings``, and cuts every prefix in which some pair has no
    walk of at most ``k`` edges with distinct colors on its colored edges
    (``_counted_reaches``). The adjacency is built once; coloring an edge
    sets the bit at its two ends. Raises ``LimitError`` carrying the proven
    bracket when the instance exceeds ``max_edges``.
    """
    check_edge_cap(max_edges)
    lo = rc_lower_bound(g)
    hi = min(g.m, g.n - 1)
    m = g.m
    if m > max_edges:
        raise LimitError(
            f"{m} edges exceed the exact-search cap {max_edges}", lower=lo, upper=hi
        )
    adj: list[list[list]] = [[] for _ in range(g.n)]
    ends = []
    for u, v in g.edges:
        at_u, at_v = [0, v], [0, u]
        adj[u].append(at_u)
        adj[v].append(at_v)
        ends.append((at_u, at_v))

    def extends(i: int, top: int, k: int) -> bool:
        """Whether the prefix of edges ``0..i-1``, colored in ``adj`` with
        colors ``1..top``, extends to a rainbow coloring with exactly ``k``
        colors."""
        if not all(_counted_reaches(adj, s, k) for s in range(g.n - 1)):
            return False
        if i == m:
            return True
        at_u, at_v = ends[i]
        for c in range(1, min(top + 1, k) + 1):
            t = max(top, c)
            if k - t > m - i - 1:
                continue
            at_u[0] = at_v[0] = 1 << (c - 1)
            found = extends(i + 1, t, k)
            at_u[0] = at_v[0] = 0
            if found:
                return True
        return False

    for k in range(lo, m + 1):
        if extends(0, 0, k):
            return k
    raise InvariantViolation("an all-distinct coloring must be rainbow")


def rc_lower_bound(g: Graph) -> int:
    """Diameter: no coloring can beat the longest shortest path. Raises
    ``InputError`` unless ``g`` is connected with at least two vertices,
    the graphs on which rc is defined."""
    diam = diameter(g)
    if g.n < 2 or math.isinf(diam):
        raise InputError("rc is defined only on connected graphs with at least 2 vertices")
    return int(diam)
