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

Only the targets ``s+1..n-1`` matter for ``s`` (pairs are symmetric). They
are counted down as they are first admitted, and the search from ``s`` stops
the moment the last one is reached. When a source exhausts its states with
targets left, the smallest of them is the witness: the pairs are tried in
lexicographic order, so the first failing pair found is the smallest one.

``exact_rc`` searches the canonical colorings for each palette size ``k``
depth first, coloring the edges in id order, and checks every prefix with
the same checker. While edge ``i`` is uncolored it carries a private color
``1 << (k + i)`` that clashes with nothing. This only relaxes the prefix:
a path that is rainbow under some completion of it uses distinct colors on
its colored edges and at most one private color per uncolored edge, so it
is rainbow under the relaxed coloring too. A prefix that fails the check
therefore has no rainbow completion, and its whole subtree is cut. A full
coloring is checked exactly, so the first ``k`` with a surviving leaf is rc.
"""

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

from .errors import InputError, InvariantViolation, LimitError
from .graphs import Graph, diameter, is_connected

if TYPE_CHECKING:
    from .coloring import EdgeColoring

DEFAULT_COLOR_CAP = 64
DEFAULT_EDGE_CAP = 12


@dataclass(frozen=True)
class IteratedTightnessReport:
    """Whether the ``m - m1`` construction on the twice-iterated line graph
    is tight, checked against the exact oracle."""

    verdict: str  # "equality" | "strict" | "undecided"
    is_long_path: bool
    bound: int
    colors_used: int
    exact: int | None


def _first_unreached(adj: list[list[tuple[int, int]]], s: int) -> int | None:
    """Smallest target ``t > s`` with no rainbow path from ``s``, or ``None``
    as soon as the last target is admitted."""
    n = len(adj)
    unreached = bytearray(s + 1) + b"\x01" * (n - s - 1)
    left = n - s - 1
    visited: list[list[int]] = [[] for _ in range(n)]
    visited[s].append(0)
    frontier = [(s, 0)]
    while frontier:
        nxt: list[tuple[int, int]] = []
        for v, mask in frontier:
            for w, b in adj[v]:
                if b & mask:
                    continue
                nm = mask | b
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


def _check_all_pairs(g: Graph, bits: Sequence[int]) -> tuple[bool, tuple[int, int] | None]:
    n = g.n
    if n <= 1:
        return True, None
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for (u, v), b in zip(g.edges, bits):
        adj[u].append((v, b))
        adj[v].append((u, b))
    for s in range(n - 1):
        t = _first_unreached(adj, s)
        if t is not None:
            return False, (s, t)
    return True, None


def is_rainbow_connected(
    g: Graph, col: "EdgeColoring", max_colors: int = DEFAULT_COLOR_CAP
) -> tuple[bool, tuple[int, int] | None]:
    """Exact check; on failure returns the lexicographically smallest
    vertex pair with no rainbow path."""
    if col.graph != g:
        raise InputError("coloring belongs to a different graph")
    if col.k > max_colors:
        raise LimitError(f"palette of {col.k} colors exceeds the search cap {max_colors}")
    return _check_all_pairs(g, [1 << (c - 1) for c in col.colors])


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


def exact_rc(
    g: Graph,
    max_edges: int = DEFAULT_EDGE_CAP,
    budget: float | None = None,
) -> int:
    """Exact rainbow connection number by a pruned search over canonical
    colorings.

    Tries palette sizes upward from the diameter. For each size ``k`` it
    colors the edges in id order, depth first, in the order of
    ``canonical_colorings``, and cuts every prefix that fails the relaxed
    check (uncolored edges get private colors). Raises ``LimitError``
    carrying the proven bracket when the instance exceeds ``max_edges`` or
    the time ``budget`` (seconds).
    """
    if not is_connected(g) or g.n < 2:
        raise InputError("exact search needs a connected graph on >= 2 vertices")
    lo = max(int(diameter(g)), 1)
    hi = min(g.m, g.n - 1)
    m = g.m
    if m > max_edges:
        raise LimitError(
            f"{m} edges exceed the exact-search cap {max_edges}", lower=lo, upper=hi
        )
    start = time.monotonic()

    def extends(i: int, top: int, k: int, bits: list[int]) -> bool:
        """Whether the prefix ``bits[:i]`` using colors ``1..top`` extends to
        a rainbow coloring with exactly ``k`` colors."""
        if budget is not None and time.monotonic() - start > budget:
            raise LimitError("time budget exceeded", lower=k, upper=hi)
        if not _check_all_pairs(g, bits)[0]:
            return False
        if i == m:
            return True
        private = bits[i]
        for c in range(1, min(top + 1, k) + 1):
            t = max(top, c)
            if k - t > m - i - 1:
                continue
            bits[i] = 1 << (c - 1)
            if extends(i + 1, t, k, bits):
                return True
        bits[i] = private
        return False

    for k in range(lo, m + 1):
        if extends(0, 0, k, [1 << (k + i) for i in range(m)]):
            return k
    raise InvariantViolation("an all-distinct coloring must be rainbow")


def rc_lower_bound(g: Graph) -> int:
    """Diameter: no coloring can beat the longest shortest path."""
    if not is_connected(g):
        raise InputError("lower bound needs a connected graph")
    return int(diameter(g))


def _is_path_of_length_ge3(g: Graph) -> bool:
    if g.n < 4 or g.m != g.n - 1 or not is_connected(g):
        return False
    degs = sorted(g.degree(v) for v in range(g.n))
    return degs[0] == 1 and degs[1] == 1 and all(d == 2 for d in degs[2:])


def check_iterated_tightness(
    g: Graph, max_edges: int = DEFAULT_EDGE_CAP, budget: float | None = None
) -> IteratedTightnessReport:
    """Compare the ``m - m1`` construction against the exact oracle on the
    twice-iterated line graph; equality should hold exactly for paths of
    length at least 3."""
    from .coloring import color_iterated_baseline

    col, cert = color_iterated_baseline(g)
    long_path = _is_path_of_length_ge3(g)
    try:
        exact = exact_rc(col.graph, max_edges=max_edges, budget=budget)
    except LimitError:
        return IteratedTightnessReport("undecided", long_path, cert.bound_value, col.k, None)
    if exact > cert.bound_value:
        raise InvariantViolation("exact value above a verified construction")
    verdict = "equality" if exact == cert.bound_value else "strict"
    return IteratedTightnessReport(verdict, long_path, cert.bound_value, col.k, exact)
