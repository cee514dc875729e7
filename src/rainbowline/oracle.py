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

Both searches, the verifier and ``exact_rc``'s relaxed check, keep three
records per source: ``first[v]``, the first mask admitted at ``v`` (``-1``
while ``v`` holds none); ``more[v]``, the later ones in admission order
(``None`` while there are none); and ``left``, the count of targets left. On
long sparse line graphs a source admits about one mask per vertex, so a
candidate state nearly always meets a vertex with no mask, where it is
admitted by one store, or with one mask, which one ``&`` tests; only a
vertex holding more runs a loop. A target is counted down on its first visit
(``w > s``); a repeat admission needs no count, since the vertex is already
reached. Masks are never negative, so the targets left are the ``t > s``
with ``first[t] == -1``: the verifier reads them, and its witness, off
``first``, whose last slot, past vertex ``n - 1``, stays ``-1`` to end each
scan. Every color bit is nonzero and ``-1`` holds every bit, so an empty
vertex fails the look-ahead's test ``not x & b`` with no test of its own.

The adjacency (``_adjacency``) groups each vertex's neighbours by the color
of the edge to them: one ``(bit, neighbours)`` group per color, in order of
first appearance. A state tests a color against its mask once per group and
skips the whole group on a clash, so a color shared by a large star clique,
which the constructions produce, costs one test instead of one per edge.
The subset test and the target count still run per neighbour. The order of
groups and neighbours cannot change a verdict or a witness: within one
level every new mask has the same size, so an admitted mask at the same
level is a subset of a new one only if it is equal to it. The states
admitted at each level are therefore the same in any order, and so are the
early exit and the targets left unreached.

Only the targets ``s+1..n-1`` matter for ``s`` (pairs are symmetric), and
the search from ``s`` stops the moment the last one is reached. When a
source exhausts its states with targets left, the smallest of them is the
witness: the pairs are tried in lexicographic order, so the first failing
pair found is the smallest one.

Before expanding a level the search may look ahead with one rule
(``_reaches_within_two``): a target is done when some admitted state, at
any level, has a walk into it of one edge, or of two edges of distinct
colors, whose colors its mask avoids. Every admitted mask is the color set
of a walk from ``s`` with distinct colors, so the extended walk has
distinct colors too and contains a rainbow path to the target. If every
target left is done, so is the source; otherwise the level is expanded as
before. The rule can only end a source whose targets are all reachable,
never declare a target unreachable, so verdicts and witnesses are
unchanged. It needs no level: a state older than the frontier was
expanded already, and a free edge from it into a target left would have
admitted the target then. So a state that reaches a target left by one
edge is a frontier state, and the target is admitted at the next level.
That state came from one a level older by an edge of another color, whose
two-edge walk passes the same target, so the one-edge walk only saves
time: it scans one neighbourhood where the two-edge walk scans two, and
without it the verifier ran 1.2x slower on the ``flatten`` benchmark's
inputs (2-vCPU Xeon, Python 3.11.7).
The look-ahead checks the targets left in ascending order and stops at the
first one it rejects; every target below that one passed by one edge or by
two, and the ones that passed by one edge are admitted at the next level.
The look-ahead runs once the frontier holds more than ``_LOOK_AHEAD_FACTOR``
states per target left. It scans about one neighbourhood per target left,
and the level it may save scans one per frontier state, so it costs a
fraction of what it can save. Both sides are read from the search; the
graph's vertex count only bounds the targets left, and a rule read from it
never fires on long sparse line graphs. A factor above 1 keeps the check
off deep, narrow searches, whose levels are cheap. The trigger only decides
when the check runs: the check reads ``first`` and ``more`` and marks
nothing, and when it fails the level is expanded as before, so verdicts
and witnesses do not depend on it.

``exact_rc`` searches the canonical colorings for each palette size ``k``
depth first, coloring the edges in a fixed order, and cuts every prefix that
fails a relaxed check (``_counted_reaches``). A coloring with ``k`` colors
has no rainbow path of more than ``k`` edges, and a path that is rainbow
under some completion of a prefix uses distinct colors on its colored edges.
So the relaxation asks, for every pair, for a walk of at most ``k`` edges
whose colored edges have distinct colors; its uncolored edges are free. A
prefix that fails it has no rainbow completion, and its whole subtree is
cut. A full coloring has no uncolored edges and no rainbow walk longer than
``k``, so its check is exact and the first ``k`` with a surviving leaf is rc.
A state of this search holds only the real colors of its walk: crossing an
uncolored edge keeps the mask. The walk length is the level, and the loop
stops after level ``k``. Levels are expanded in order, so an admitted state
whose mask is a subset of a new state's came in at an earlier or equal
level: every walk that extends the new state extends the admitted one
within the same ``k`` edges, and the subset test ``x & nm == x`` drops the
new state without a length of its own. The adjacency holds one
``[bit, neighbour]`` pair per edge end, with ``bit = 0`` while the edge is
uncolored; coloring edge ``i`` sets the bit at its two ends and
backtracking clears it.

A child that gives edge ``i`` a fresh color, one above every color of its
prefix, is not checked: it passes whenever its parent passed. A shortest
walk that passes the relaxed check is a path, since cutting out a closed
sub-walk keeps the colored edges distinct and the length within ``k``; so
it crosses edge ``i`` at most once, and a color used on no other edge
cannot clash. A full coloring reached this way still passes the exact
check, since its parent's walks do. A reused color can clash, so its child
is checked. The search tree and the value are unchanged. The empty prefix
is not checked either: with every edge uncolored, a shortest path joins each
pair in at most diam <= ``k`` edges, none of them colored, so the check
always passes.

The edge order sets the cost by orders of magnitude and no fixed order wins
everywhere, so the search picks each node's edge as it goes (``_extends``):
the uncolored edge with the most failed prefix checks so far at this ``k``,
each failure counted against the edge whose coloring failed. This is
fail-first variable choice (Haralick and Elliott, Artif. Intell. 14, 1980)
with failure counts as the weights (Boussemart, Hemery, Lecoutre and Sais,
ECAI 2004): an edge whose colorings keep failing moves up to where its
failures cut the largest subtrees. Ties go to the edge whose nearer end is
closest to vertex 0, then to the lower id, an order computed once per
``exact_rc`` call. With ties by id alone the ``ensemble`` benchmark's
``call_tail_rel`` rose from 0.48 to 0.63, past its bound (ROADMAP item
11). Canonical colors stay sound under any edge choice made at a node: the
colors its prefix has not used are interchangeable, so giving the node's
edge a used color or the first unused one, ``top + 1``, reaches every
partition of the edges into ``k`` color classes once, whichever edge the
node colors. The skips and the forced-fresh tail do not depend on the
order either, so the value does not.
The uncolored edges wait in a list sorted by weight, the best last. Only
the edge being tried gains failures, and it is out of the list until it is
backtracked, when it goes back in by bisection; so a pick is a pop, not a
scan of every edge. The search keeps one stack of ``[edge, top, color]``
frames and no recursion, so a raised edge cap cannot reach Python's
recursion limit.

The search is a loop of its own and shares no code with the verifier's,
which groups neighbours by color and has no level cap: a loop shared by
both made the verifier 10-17% slower on the ``sharp`` benchmark's inputs
(repeated timings, 2-vCPU Xeon, Python 3.11.7).
"""

import math
from bisect import insort
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import InputError, InvariantViolation, LimitError
from .graphs import Graph, diameter, distances

if TYPE_CHECKING:
    from .coloring import EdgeColoring

DEFAULT_COLOR_CAP = 64
DEFAULT_EDGE_CAP = 12
# The verifier looks ahead once the frontier holds more than this
# many states per target left (see the module docstring).
_LOOK_AHEAD_FACTOR = 4


def _adjacency(g: Graph, bits: Sequence[int]) -> list[list[tuple[int, list[int]]]]:
    """Per vertex, its neighbours grouped by edge color: ``(bit, neighbours)``
    groups in first-appearance order, neighbours in edge-id order."""
    groups: list[dict[int, list[int]]] = [{} for _ in range(g.n)]
    for (u, v), b in zip(g.edges, bits):
        groups[u].setdefault(b, []).append(v)
        groups[v].setdefault(b, []).append(u)
    return [list(d.items()) for d in groups]


def _reaches_within_two(
    adj: list[list[tuple[int, list[int]]]], t: int, first: list[int], more: list[list[int] | None]
) -> bool:
    """Whether an admitted state reaches ``t`` by one edge ``w - t`` or two
    edges ``u - w - t`` of distinct colors, every one of them free in its
    mask."""
    for b, ws in adj[t]:
        for w in ws:
            if not first[w] & b:
                return True
            xs = more[w]
            if xs is not None:
                for x in xs:
                    if not x & b:
                        return True
    for c1, ws in adj[t]:
        for w in ws:
            for c2, us in adj[w]:
                if c2 == c1:
                    continue
                b = c1 | c2
                for u in us:
                    if not first[u] & b:
                        return True
                    xs = more[u]
                    if xs is not None:
                        for x in xs:
                            if not x & b:
                                return True
    return False


def _first_unreached(adj: list[list[tuple[int, list[int]]]], s: int) -> int | None:
    """Smallest target ``t > s`` with no rainbow path from ``s``, or ``None``
    as soon as the last target is admitted or sure to be reached within two levels."""
    n = len(adj)
    left = n - s - 1
    first = [-1] * (n + 1)
    more: list[list[int] | None] = [None] * n
    first[s] = 0
    frontier = [(s, 0)]
    while frontier:
        if len(frontier) > _LOOK_AHEAD_FACTOR * left:
            t = first.index(-1, s + 1)
            while t < n and _reaches_within_two(adj, t, first, more):
                t = first.index(-1, t + 1)
            if t == n:
                return None
        nxt: list[tuple[int, int]] = []
        for v, mask in frontier:
            for b, ws in adj[v]:
                if b & mask:
                    continue
                nm = mask | b
                for w in ws:
                    x = first[w]
                    if x < 0:
                        first[w] = nm
                        nxt.append((w, nm))
                        if w > s:
                            left -= 1
                            if not left:
                                return None
                    elif x & nm != x:
                        xs = more[w]
                        if xs is None:
                            more[w] = [nm]
                            nxt.append((w, nm))
                        else:
                            for x in xs:
                                if x & nm == x:
                                    break
                            else:
                                xs.append(nm)
                                nxt.append((w, nm))
        frontier = nxt
    return first.index(-1, s + 1)


def _check_all_pairs(g: Graph, bits: Sequence[int]) -> tuple[bool, tuple[int, int] | None]:
    adj = _adjacency(g, bits)
    for s in range(g.n - 1):
        t = _first_unreached(adj, s)
        if t is not None:
            return False, (s, t)
    return True, None


def check_palette(size: int) -> None:
    """Refuse a palette of more than ``DEFAULT_COLOR_CAP`` colors, one mask
    bit each. ``is_rainbow_connected`` passes the colors it meets; a
    construction passes its palette before it builds the line graph it
    colors, since every bound fixes its palette from G and the packing."""
    if size > DEFAULT_COLOR_CAP:
        raise LimitError(f"palette of {size} colors exceeds the search cap {DEFAULT_COLOR_CAP}")


def is_rainbow_connected(col: "EdgeColoring") -> tuple[bool, tuple[int, int] | None]:
    """Exact check of ``col`` on its own graph; on failure returns the
    lexicographically smallest vertex pair with no rainbow path. Each
    distinct color gets one bit, in ascending id order, so ``check_palette``
    counts the colors used, not the largest id: gaps in the ids cost
    nothing."""
    bit = {c: 1 << i for i, c in enumerate(sorted(set(col.colors)))}
    check_palette(len(bit))
    return _check_all_pairs(col.graph, [bit[c] for c in col.colors])


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
    left = n - s - 1
    first = [-1] * n
    more: list[list[int] | None] = [None] * n
    first[s] = 0
    frontier = [(s, 0)]
    for _ in range(k):
        nxt: list[tuple[int, int]] = []
        for v, mask in frontier:
            for b, w in adj[v]:
                if b & mask:
                    continue
                nm = mask | b
                x = first[w]
                if x < 0:
                    first[w] = nm
                    nxt.append((w, nm))
                    if w > s:
                        left -= 1
                        if not left:
                            return True
                elif x & nm != x:
                    xs = more[w]
                    if xs is None:
                        more[w] = [nm]
                        nxt.append((w, nm))
                    else:
                        for x in xs:
                            if x & nm == x:
                                break
                        else:
                            xs.append(nm)
                            nxt.append((w, nm))
        frontier = nxt
    return False


def _extends(g: Graph, order: Sequence[int], k: int) -> bool:
    """Whether the edges of ``g`` have a coloring with exactly ``k`` colors,
    canonical in the order the edges are colored, all of whose prefixes
    pass ``_counted_reaches`` from every source. Depth first: each node
    colors the uncolored edge with the most failed prefix checks so far,
    ties by ``order``. One ``[bit, neighbour]`` end per edge end, with
    ``bit = 0`` while the edge is uncolored; coloring an edge sets the bit
    at both ends and backtracking clears it. The empty prefix and a child
    that gives its edge a fresh color are not checked (see the module
    docstring). Each frame ``[i, top, c]`` of the stack colors edge
    ``order[i]`` with ``c`` after a prefix using ``top`` colors."""
    ends = [([0, v], [0, u]) for u, v in g.edges]
    adj: list[list[list]] = [[] for _ in range(g.n)]
    for (u, v), (at_u, at_v) in zip(g.edges, ends):
        adj[u].append(at_u)
        adj[v].append(at_v)
    # Edges by their place in ``order``. A failed check adds ``m`` to the
    # edge's weight, so a weight orders by failures, then by ``order``.
    m, ends = len(order), [ends[i] for i in order]
    weight = [-j for j in range(m)]
    free = list(range(m - 1, -1, -1))  # uncolored, by weight: the best is last
    stack = [[free.pop(), 0, 0]]
    while stack:
        frame = stack[-1]
        frame[2] += 1
        i, top, c = frame
        at_u, at_v = ends[i]
        if c > min(top + 1, k):
            at_u[0] = at_v[0] = 0
            insort(free, i, key=weight.__getitem__)
            stack.pop()
            continue
        at_u[0] = at_v[0] = 1 << (c - 1)
        if c <= top and not all(_counted_reaches(adj, s, k) for s in range(g.n - 1)):
            weight[i] += m
            continue
        if len(stack) == m:
            return True
        t = max(top, c)
        # With as many colors left to use as edges, each takes a fresh one.
        stack.append([free.pop(), t, t if k - t == m - len(stack) else 0])
    return False


def exact_rc(g: Graph, max_edges: int = DEFAULT_EDGE_CAP) -> int:
    """Exact rainbow connection number by a pruned search over canonical
    colorings.

    Tries palette sizes upward from the diameter. For each size ``k`` it
    colors the edges depth first with canonical colors and cuts every
    prefix in which some pair has no walk of at most ``k`` edges with
    distinct colors on its colored edges (``_counted_reaches``); neither
    the empty prefix nor a child that takes a fresh color needs a check.
    Each node colors the uncolored edge with the most failed prefix checks
    so far at this ``k``, ties by the distance of its nearer end from vertex
    0, then by id (see the module docstring). Raises ``LimitError`` carrying
    the proven bracket when the instance exceeds ``max_edges``.
    """
    check_edge_cap(max_edges)
    lo = rc_lower_bound(g)
    hi = g.n - 1
    if g.m > max_edges:
        raise LimitError(
            f"{g.m} edges exceed the exact-search cap {max_edges}", lower=lo, upper=hi
        )

    dist = distances(g, 0)
    order = sorted(range(g.m), key=lambda i: min(dist[u] for u in g.edges[i]))
    for k in range(lo, g.m + 1):
        if _extends(g, order, k):
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
