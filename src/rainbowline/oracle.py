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
The look-ahead runs once the frontier holds more than ``_LOOK_AHEAD_FACTOR``
states per target left. It scans about one neighbourhood per target left,
and the level it may save scans one per frontier state, so it costs a
fraction of what it can save. Both sides are read from the search; the
graph's vertex count only bounds the targets left, and a rule read from it
never fires on long sparse line graphs. A factor above 1 keeps the check
off deep, narrow searches, whose levels are cheap. The trigger only decides
when the check runs: the check reads ``visited`` and marks nothing, and when
it fails the level is expanded as before, so verdicts and witnesses do not
depend on it. ``L`` is then the popcount of any frontier mask
(``int.bit_count`` needs Python 3.10, the oldest ``requires-python`` allows).
A target that ``_reaches`` rejects gets a second check, ``_reaches_in_two``:
whether an admitted state, at any level, sits at a vertex ``u`` with a walk
``u - w - t`` of two distinct colors that its mask avoids. Every admitted
mask is the color set of a walk from ``s`` with distinct colors, so the
extended walk has distinct colors too and contains a rainbow path to ``t``.
If every target left passes one check or the other, the source is done;
otherwise the level is expanded as before. The second check can only end a
source whose targets are all reachable, never declare a target
unreachable, so verdicts and witnesses are unchanged. The look-ahead
checks the targets left in ascending order and stops at the first one both
checks reject. A target that passes ``_reaches`` is admitted at the next
level and one that fails it is not, so no target is left below the first
one ``_reaches`` rejected in the last look-ahead.

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

The edge order sets the cost by orders of magnitude and no static order wins
everywhere, so each ``k`` is tried in two orders. Geodesic-first sorts the
edges by how many diametral vertex pairs have a shortest path through them,
most first, ties by id (``_geodesic_order``): at ``k`` equal to the diameter
a diametral pair needs a rainbow shortest path, so prefixes of those edges
fail first. The second is id order. Each order's search is a generator
(``_extends``) on an adjacency of its own, built when its first turn
starts: it yields the work of each prefix check and returns whether ``k``
extends. The orders take turns of ``_TURN`` work units (``_settles``); each
resumes where it paused, a turn that overruns starts the order's next turn
in debt, and the first order to settle ``k``, by a coloring or by a
refutation, decides it. Each order visits one coloring per partition of the
edges into ``k`` color classes, so both decide the same question and the
answer does not depend on which one settles. No work is redone, so if the
better order needs ``W`` units it settles within ``W / _TURN + 1`` turns,
over which the other order spends at most ``W`` units plus one turn plus
its last prefix check: the total is at most ``2W``, plus one turn, plus one
prefix check. The unit is work inside ``_counted_reaches``: one per
candidate state plus one per admitted mask at its vertex, the masks its
subset test may scan. A turn ends only between prefix checks, so a check is
never cut short and nothing is undone. Prefix checks cannot be the unit:
their cost spans orders of magnitude with the order. Geodesic-first alone
on L(example31, t = 12) made 259 ``_counted_reaches`` calls in 20 s, 648 M
units, without settling, while the whole id-order search takes 0.12 s
(2-vCPU Xeon, Python 3.11.7). The depth-first path is an explicit stack,
not recursion, so a yield leaves one frame, not one per colored edge.

The search is a loop of its own and shares no code with the verifier's,
which groups neighbours by color and has no level cap: a loop shared by
both made the verifier 10-17% slower on the ``sharp`` benchmark's inputs
(repeated timings, 2-vCPU Xeon, Python 3.11.7).
"""

import math
from typing import TYPE_CHECKING, Generator, Iterator, Sequence

from .errors import InputError, InvariantViolation, LimitError
from .graphs import Graph, diameter, distances

if TYPE_CHECKING:
    from .coloring import EdgeColoring

DEFAULT_COLOR_CAP = 64
DEFAULT_EDGE_CAP = 12
# The verifier looks one level ahead once the frontier holds more than this
# many states per target left (see the module docstring).
_LOOK_AHEAD_FACTOR = 4
# The work units of one exact_rc turn per edge order, in the units of
# _counted_reaches (see the module docstring).
_TURN = 65536


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


def _reaches_in_two(adj: list[list[list]], t: int, visited: list[list[int]]) -> bool:
    """Whether an admitted state at some vertex ``u`` reaches ``t`` by two
    edges ``u - w - t`` of distinct colors that its mask avoids."""
    for c1, ws in adj[t]:
        for w in ws:
            for c2, us in adj[w]:
                if c2 == c1:
                    continue
                b = c1 | c2
                for u in us:
                    for x in visited[u]:
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
        if len(frontier) > _LOOK_AHEAD_FACTOR * left:
            level = frontier[0][1].bit_count()
            t = unreached.find(1)
            while t >= 0 and (
                _reaches(adj[t], visited, level) or _reaches_in_two(adj, t, visited)
            ):
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
    lexicographically smallest vertex pair with no rainbow path. Each
    distinct color gets one bit, in ascending id order, so the cap counts
    the colors used, not the largest id: gaps in the ids cost nothing."""
    bit = {c: 1 << i for i, c in enumerate(sorted(set(col.colors)))}
    if len(bit) > DEFAULT_COLOR_CAP:
        raise LimitError(f"palette of {len(bit)} colors exceeds the search cap {DEFAULT_COLOR_CAP}")
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


def _counted_reaches(adj: list[list[list]], s: int, k: int) -> tuple[bool, int]:
    """Whether every target ``t > s`` has a walk from ``s`` of at most ``k``
    edges whose colored edges have distinct colors, and the work spent.
    ``adj`` holds one ``[bit, neighbour]`` pair per edge end, with
    ``bit = 0`` while the edge is uncolored. Each candidate state costs one
    unit of work plus one per admitted mask at its vertex."""
    n = len(adj)
    unreached = bytearray(s + 1) + b"\x01" * (n - s - 1)
    left = n - s - 1
    visited: list[list[int]] = [[] for _ in range(n)]
    visited[s].append(0)
    frontier = [(s, 0)]
    work = 0
    for _ in range(k):
        nxt: list[tuple[int, int]] = []
        for v, mask in frontier:
            for b, w in adj[v]:
                if b & mask:
                    continue
                nm = mask | b
                admitted = visited[w]
                work += 1 + len(admitted)
                for x in admitted:
                    if x & nm == x:
                        break
                else:
                    admitted.append(nm)
                    nxt.append((w, nm))
                    if unreached[w]:
                        left -= 1
                        if not left:
                            return True, work
                        unreached[w] = 0
        frontier = nxt
    return False, work


def _geodesic_order(g: Graph) -> list[int]:
    """Edge ids by how many diametral vertex pairs have a shortest path
    through the edge, most first, ties by id."""
    dist = [distances(g, s) for s in range(g.n)]
    diam = diameter(g)
    pairs = [(a, b) for a in range(g.n) for b in range(a + 1, g.n) if dist[a][b] == diam]
    through = [
        sum(
            dist[a][u] + 1 + dist[v][b] == diam or dist[a][v] + 1 + dist[u][b] == diam
            for a, b in pairs
        )
        for u, v in g.edges
    ]
    return sorted(range(g.m), key=lambda i: -through[i])


def _edge_orders(g: Graph) -> list[list[int]]:
    """The orders ``exact_rc`` tries: geodesic-first, then id order unless
    it is the same."""
    ids = list(range(g.m))
    geodesic = _geodesic_order(g)
    return [geodesic] if geodesic == ids else [geodesic, ids]


def _extends(g: Graph, order: Sequence[int], k: int) -> Generator[int, None, bool]:
    """Whether the edges of ``g``, colored in ``order`` depth first in the
    order of ``canonical_colorings``, have a coloring with exactly ``k``
    colors all of whose prefixes pass ``_counted_reaches`` from every
    source. A generator: it yields the work of each prefix check and
    returns the answer, so ``_settles`` can pause and resume it. On its
    first resume it builds its own adjacency, one ``[bit, neighbour]`` end
    per edge end with ``bit = 0`` while the edge is uncolored; coloring an
    edge sets the bit at both ends and backtracking clears it. The empty
    prefix and a child that gives its edge a fresh color are not checked
    (see the module docstring). The depth-first path is an explicit stack:
    at depth ``j``, ``tops[j]`` colors are used by the prefix ``order[:j]``
    and edge ``order[j]`` has color ``colors[j]``."""
    ends = [([0, v], [0, u]) for u, v in g.edges]
    adj: list[list[list]] = [[] for _ in range(g.n)]
    for (u, v), (at_u, at_v) in zip(g.edges, ends):
        adj[u].append(at_u)
        adj[v].append(at_v)
    m, ends = len(order), [ends[i] for i in order]
    tops, colors = [0], [0]
    while colors:
        j = len(colors) - 1
        top, c = tops[j], colors[j] + 1
        at_u, at_v = ends[j]
        if c > min(top + 1, k):
            at_u[0] = at_v[0] = 0
            del tops[j], colors[j]
            continue
        colors[j] = c
        at_u[0] = at_v[0] = 1 << (c - 1)
        if c <= top:
            work = 0
            for s in range(g.n - 1):
                passed, spent = _counted_reaches(adj, s, k)
                work += spent
                if not passed:
                    break
            yield work
            if not passed:
                continue
        if j + 1 == m:
            return True
        t = max(top, c)
        tops.append(t)
        # With as many colors left to use as edges, each takes a fresh one.
        colors.append(t if k - t == m - j - 1 else 0)
    return False


def _settles(searches: Sequence[Generator[int, None, bool]]) -> bool:
    """The answer of the first search in ``searches`` to finish. They take
    turns of ``_TURN`` work units, each resuming where it paused, and a
    search that overruns its turn starts the next one in debt."""
    credit = [0] * len(searches)
    while True:
        for i, search in enumerate(searches):
            credit[i] += _TURN
            try:
                while credit[i] > 0:
                    credit[i] -= next(search)
            except StopIteration as settled:
                return settled.value


def exact_rc(g: Graph, max_edges: int = DEFAULT_EDGE_CAP) -> int:
    """Exact rainbow connection number by a pruned search over canonical
    colorings.

    Tries palette sizes upward from the diameter. For each size ``k`` it
    colors the edges depth first, in the order of ``canonical_colorings``,
    and cuts every prefix in which some pair has no walk of at most ``k``
    edges with distinct colors on its colored edges (``_counted_reaches``);
    neither the empty prefix nor a child that takes a fresh color needs a
    check. Two edge orders, geodesic-first and id order, take turns of
    ``_TURN`` work units, each resuming where it paused, and the first to
    settle ``k`` decides it (see the module docstring). Each order's search
    (``_extends``) builds its own adjacency for each ``k``. Raises
    ``LimitError`` carrying the proven bracket when the instance exceeds
    ``max_edges``.
    """
    check_edge_cap(max_edges)
    lo = rc_lower_bound(g)
    hi = min(g.m, g.n - 1)
    if g.m > max_edges:
        raise LimitError(
            f"{g.m} edges exceed the exact-search cap {max_edges}", lower=lo, upper=hi
        )

    orders = _edge_orders(g)
    for k in range(lo, g.m + 1):
        if _settles([_extends(g, order, k) for order in orders]):
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
