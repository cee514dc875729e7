"""Deterministic graph families and seeded random models.

Vertex numbering is fixed so that reports and traces are reproducible; the
schemes are documented per generator.
"""

import random
from itertools import combinations

from .errors import InputError, LimitError
from .graphs import Graph, build_graph, is_connected

# Samples drawn before a seeded random model gives up with a LimitError.
GNP_MAX_TRIES = 1000
CUBIC_MAX_TRIES = 10_000


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InputError(f"path needs n >= 1, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InputError(f"complete graph needs n >= 1, got {n}")
    return build_graph(n, list(combinations(range(n), 2)))


def petersen_graph() -> Graph:
    """Outer cycle 0..4, inner pentagram 5..9, spokes i -- 5+i."""
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    edges += [(i, 5 + i) for i in range(5)]
    return build_graph(10, edges)


def bridged_triangle_chain(t: int) -> Graph:
    """``t`` disjoint triangles on (3i, 3i+1, 3i+2) chained by bridges
    3i+2 -- 3i+3; the t-1 bridges belong to no triangle."""
    if t < 1:
        raise InputError(f"triangle chain needs t >= 1, got {t}")
    edges: list[tuple[int, int]] = []
    for i in range(t):
        a, b, c = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (a, c), (b, c)]
        if i + 1 < t:
            edges.append((c, c + 1))
    return build_graph(3 * t, edges)


def shared_vertex_triangle_chain(k: int) -> Graph:
    """Triangles (u_i, v_i, u_{i+1}) glued at the u's, plus a pendant
    two-edge path hanging off u_k. Numbering: u_i = i-1 for i in 1..k,
    v_i = k+i-1, then the path u_k -- 2k-1 -- 2k."""
    if k < 2:
        raise InputError(f"shared-vertex chain needs k >= 2, got {k}")
    edges: list[tuple[int, int]] = []
    for i in range(1, k):
        u, u_next, v = i - 1, i, k + i - 1
        edges += [(u, u_next), (u, v), (v, u_next)]
    edges += [(k - 1, 2 * k - 1), (2 * k - 1, 2 * k)]
    return build_graph(2 * k + 1, edges)


def triangle_ring(r: int) -> Graph:
    """``r`` triangles chained cyclically through shared vertices 0..r-1;
    the private third corners are r..2r-1."""
    if r < 3:
        raise InputError(f"triangle ring needs r >= 3, got {r}")
    edges: list[tuple[int, int]] = []
    for i in range(r):
        s, s_next, w = i, (i + 1) % r, r + i
        edges += [(s, s_next), (s, w), (w, s_next)]
    return build_graph(2 * r, edges)


def friendship_graph(f: int) -> Graph:
    """``f`` triangles sharing the hub vertex 0."""
    if f < 1:
        raise InputError(f"friendship graph needs f >= 1, got {f}")
    edges: list[tuple[int, int]] = []
    for i in range(f):
        a, b = 2 * i + 1, 2 * i + 2
        edges += [(0, a), (0, b), (a, b)]
    return build_graph(2 * f + 1, edges)


# Each family's builder, with the parameter letter it takes (None: none).
FAMILY_TABLE = {
    "example31": ("t", bridged_triangle_chain),
    "example32": ("k", shared_vertex_triangle_chain),
    "path": ("n", path_graph),
    "cycle": ("n", cycle_graph),
    "complete": ("n", complete_graph),
    "petersen": (None, petersen_graph),
    "triangle_ring": ("r", triangle_ring),
    "friendship": ("f", friendship_graph),
}
FAMILIES = tuple(FAMILY_TABLE)


def gen_family(name: str, **params: int) -> Graph:
    """Dispatch on the family name; unknown names or parameters are rejected."""
    if name not in FAMILY_TABLE:
        raise InputError(f"unknown family {name!r}; available: {', '.join(FAMILIES)}")
    key, builder = FAMILY_TABLE[name]
    if key is None:
        if params:
            raise InputError(f"{name} takes no parameters")
        return builder()
    if set(params) != {key}:
        raise InputError(f"family {name!r} takes exactly the parameter {key!r}")
    return builder(params[key])


def gnp(n: int, p: float, rng: random.Random) -> Graph:
    if n < 1 or not 0.0 <= p <= 1.0:
        raise InputError(f"bad gnp parameters n={n}, p={p}")
    return build_graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])


def connected_gnp(n: int, p: float, seed: int) -> Graph:
    """Resample G(n, p) until connected; deterministic under the seed."""
    if n < 2 or p <= 0:
        raise InputError(f"no connected gnp({n}, {p}) graph exists; needs n >= 2 and p > 0")
    rng = random.Random(seed)
    for _ in range(GNP_MAX_TRIES):
        g = gnp(n, p, rng)
        if is_connected(g):
            return g
    raise LimitError(f"no connected gnp({n}, {p}) sample in {GNP_MAX_TRIES} tries")


def random_cubic(n: int, seed: int) -> Graph:
    """Connected 3-regular graph via the pairing model; needs even n >= 4.

    Each try pairs up a shuffle of the 3n vertex stubs, and the draws are
    exactly those of ``random.Random(seed).shuffle``: a Fisher-Yates loop
    that draws ``getrandbits(k)``, ``k`` the bit length of ``i + 1``, until
    the draw is at most ``i``. Only about e^-2 of the pairings are simple,
    so most tries are rejected, and ``shuffle``'s two method calls per draw
    were most of what a rejected try cost; hence the inlined loop. A pairing
    with a loop or a repeated pair is rejected before any graph is built."""
    if n < 4 or n % 2:
        raise InputError(f"cubic graphs need even n >= 4, got {n}")
    getrandbits = random.Random(seed).getrandbits
    draws = [(i, (i + 1).bit_length()) for i in range(3 * n - 1, 0, -1)]
    base = [v for v in range(n) for _ in range(3)]
    for _ in range(CUBIC_MAX_TRIES):
        stubs = base.copy()
        for i, k in draws:
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            stubs[i], stubs[j] = stubs[j], stubs[i]
        pairs = list(zip(stubs[::2], stubs[1::2]))
        if len({(u, v) if u < v else (v, u) for u, v in pairs if u != v}) < len(pairs):
            continue  # a loop or a repeated pair: not simple
        g = build_graph(n, pairs)
        if is_connected(g):
            return g
    raise LimitError(f"no simple connected cubic sample on {n} vertices in {CUBIC_MAX_TRIES} tries")
