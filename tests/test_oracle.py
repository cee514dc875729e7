import math
import pathlib
import random
from collections import Counter
from functools import cache, reduce
from operator import or_
from typing import Callable, Iterable, NamedTuple

import pytest

from corpus import (
    certified_bits,
    color_bits,
    connected_graphs_up_to,
    edge_case_colorings,
    exact_search_sets,
    gnp_line_palettes,
    look_ahead_inputs,
    random_connected_graphs,
    random_small_colorings,
    ring_inputs,
    sharp_line_graphs,
    small_trees,
)
from helpers import (
    admitted_masks,
    check_iterated_tightness,
    enumerate_exact_rc,
    free_walks,
    naive_failing_pair,
    queue_check_all_pairs,
)
from rainbowline import oracle
from rainbowline.coloring import EdgeColoring
from rainbowline.errors import InputError, LimitError
from rainbowline.families import (
    bridged_triangle_chain,
    complete_graph,
    connected_gnp,
    cycle_graph,
    path_graph,
    petersen_graph,
    shared_vertex_triangle_chain,
    triangle_ring,
)
from rainbowline.graphs import Graph, build_graph
from rainbowline.linegraph import line_graph
from rainbowline.oracle import (
    DEFAULT_EDGE_CAP,
    _adjacency,
    _check_all_pairs,
    _counted_reaches,
    _reaches_within_two,
    canonical_colorings,
    exact_rc,
    is_rainbow_connected,
    rc_lower_bound,
)

DATA = pathlib.Path(__file__).resolve().parent / "data"


class TestIsRainbowConnected:
    def test_color_cap(self):
        """The cap counts distinct colors: 64 of them pass, 70 exceed it."""
        assert is_rainbow_connected(EdgeColoring(path_graph(65), tuple(range(1, 65)), 64)) == (True, None)
        g = path_graph(71)
        with pytest.raises(LimitError, match="palette of 70 colors exceeds the search cap 64"):
            is_rainbow_connected(EdgeColoring(g, tuple(range(1, 71)), 70))


def _dense(colors):
    """``colors`` with its distinct ids renamed ``1..k`` in ascending order."""
    rank = {c: i for i, c in enumerate(sorted(set(colors)), 1)}
    return tuple(rank[c] for c in colors)


class TestGappedColorIds:
    """A coloring's verdict and witness do not depend on its color ids, only
    on which edges share a color."""

    @pytest.mark.parametrize("name", ["rainbow", "unrainbow", "sparse"])
    def test_cycle_7_files(self, name):
        text = (DATA / f"coloring_cycle_7_{name}.txt").read_text()
        colors = tuple(int(c) for c in text.split())
        g = cycle_graph(7)
        dense = _dense(colors)
        want = is_rainbow_connected(EdgeColoring(g, dense, max(dense)))
        for gapped in (colors, tuple(c * c for c in dense), tuple(100 - c for c in dense)):
            assert is_rainbow_connected(EdgeColoring(g, gapped, max(gapped))) == want
        assert want == {"rainbow": (True, None), "unrainbow": (False, (0, 3)), "sparse": (True, None)}[name]

    def test_random_gaps(self):
        rng = random.Random(41)
        for _ in range(60):
            g = connected_gnp(rng.randint(4, 8), 0.5, seed=rng.randrange(10**6))
            dense = _dense([rng.randint(1, 4) for _ in range(g.m)])
            ids = rng.sample(range(1, 500), max(dense))
            gapped = tuple(ids[c - 1] for c in dense)
            assert is_rainbow_connected(EdgeColoring(g, gapped, max(gapped))) == is_rainbow_connected(
                EdgeColoring(g, dense, max(dense))
            )


class TestCanonicalColorings:
    def test_counts_are_stirling_numbers(self):
        assert sum(1 for _ in canonical_colorings(6, 3)) == 90
        assert sum(1 for _ in canonical_colorings(5, 2)) == 15
        assert sum(1 for _ in canonical_colorings(4, 4)) == 1

    def test_each_partition_once(self):
        seen = set()
        for coloring in canonical_colorings(5, 3):
            classes = frozenset(
                frozenset(i for i, c in enumerate(coloring) if c == color)
                for color in set(coloring)
            )
            assert classes not in seen
            seen.add(classes)

    def test_first_occurrences_ascend(self):
        for coloring in canonical_colorings(6, 3):
            top = 0
            for c in coloring:
                assert c <= top + 1
                top = max(top, c)


class TestExactRc:
    def test_rejects_disconnected(self):
        with pytest.raises(InputError):
            exact_rc(build_graph(4, [(0, 1), (2, 3)]))

    def test_negative_edge_cap_is_an_input_error(self):
        exact_rc(cycle_graph(5), max_edges=5)  # a cap at m runs the search
        with pytest.raises(InputError, match="edge cap must be non-negative"):
            exact_rc(cycle_graph(5), max_edges=-1)


class ExactRow(NamedTuple):
    """``exact_rc`` on each graph of ``graphs()`` under the edge cap ``cap``
    (``None``: the graph's own edge count) returns ``expected(g)``; past the
    cap it raises ``LimitError`` with the bracket it proves, the diameter to
    ``n - 1``. ``resolving`` of the graphs are within the cap."""

    name: str
    graphs: Callable[[], Iterable[Graph]]
    expected: Callable[[Graph], int]
    resolving: int
    cap: int | None = None


EXACT_ROWS = [
    # the value of checking every canonical coloring (helpers.enumerate_exact_rc)
    *(
        ExactRow(name, lambda name=name: exact_search_sets()[name], enumerate_exact_rc, resolving, DEFAULT_EDGE_CAP)
        for name, resolving in (("small", 131), ("small_line", 112), ("ensemble", 14))
    ),
    ExactRow("random_connected", random_connected_graphs, enumerate_exact_rc, 80, DEFAULT_EDGE_CAP),
    # closed forms with the cap raised, one row per graph: rc(C_n) = ceil(n / 2)
    # for n >= 4 (Chartrand, Johns, McKeon and Zhang, Math. Bohem. 133, 2008),
    # n - 1 on a tree, 1 on K_n; C13 is also past the default cap
    *(ExactRow(f"cycles-{n}", lambda n=n: [cycle_graph(n)], lambda g: (g.n + 1) // 2, 1) for n in range(4, 17)),
    ExactRow("cycle_past_the_cap", lambda: [cycle_graph(13)], lambda g: 7, 0, DEFAULT_EDGE_CAP),
    *(ExactRow(f"trees-{i}", lambda g=g: [g], lambda g: g.n - 1, 1) for i, g in enumerate(small_trees(8))),
    *(ExactRow(f"complete-{n}", lambda n=n: [complete_graph(n)], lambda g: 1, 1) for n in range(2, 8)),
    # the bound a sharpness example's construction certifies
    *(
        ExactRow(name, lambda name=name: sharp_line_graphs()[name], lambda g, name=name: sharp_line_graphs()[name][g], size)
        for name, size in (("example31", 5), ("example32", 4))
    ),
]


@pytest.mark.parametrize("row", EXACT_ROWS, ids=lambda row: row.name)
def test_exact_rc_matches_references(row):
    resolved = 0
    for g in row.graphs():
        cap = g.m if row.cap is None else row.cap
        if g.m <= cap:
            assert exact_rc(g, max_edges=cap) == row.expected(g), g
            resolved += 1
        else:
            with pytest.raises(LimitError) as exc:
                exact_rc(g, max_edges=cap)
            assert (exc.value.lower, exc.value.upper) == (rc_lower_bound(g), g.n - 1)
    assert resolved == row.resolving


def _prefixes(g: Graph, k: int, rng: random.Random):
    """The prefixes of a random coloring of ``g`` with at most ``k``
    colors, canonical in a random edge order, as one color bit per edge
    with 0 for an uncolored edge."""
    order, first = rng.sample(range(g.m), g.m), {}
    bits = [0] * g.m
    for i in order:
        bits[i] = 1 << first.setdefault(rng.randint(1, k), len(first))
        yield list(bits)


class TestCountedCheck:
    """``exact_rc`` lets a walk cross uncolored edges freely and caps its
    length at ``k`` by the search level. A walk that passes the capped check
    contains a path that passes the check that gives each uncolored edge a
    private color and allows any length, so the capped check cuts every
    prefix the other cuts."""

    @pytest.mark.parametrize("name", ["small_line", "ensemble"])
    def test_counted_pass_implies_private_pass(self, name):
        """Wherever a prefix passes ``_counted_reaches`` from every source,
        it passes the private-color ``_check_all_pairs`` too."""
        rng = random.Random(name)
        outcomes = Counter()
        for g in exact_search_sets()[name]:
            lo = rc_lower_bound(g)
            for k in range(lo, min(lo + 1, g.m) + 1):
                for bits in _prefixes(g, k, rng):
                    ends = [[] for _ in range(g.n)]
                    for (u, v), b in zip(g.edges, bits):
                        ends[u].append([b, v])
                        ends[v].append([b, u])
                    counted = all(oracle._counted_reaches(ends, s, k) for s in range(g.n - 1))
                    private = [b or 1 << (g.m + i) for i, b in enumerate(bits)]
                    outcomes[counted, _check_all_pairs(g, private)[0]] += 1
        assert outcomes[True, False] == 0
        assert min(outcomes[True, True], outcomes[False, True], outcomes[False, False]) > 50, outcomes


class _Row(list):
    """One vertex's adjacency row that counts, in ``expanded``, how often it
    is iterated, as a search does to expand a state at the vertex."""

    def __init__(self, vertex: int, ends: list[list[int]], expanded: Counter):
        super().__init__(ends)
        self.vertex, self.expanded = vertex, expanded

    def __iter__(self):
        self.expanded[self.vertex] += 1
        return super().__iter__()


class TestCountedReaches:
    """``_counted_reaches`` on hand-built adjacencies: ``bit = 0`` marks an
    uncolored edge, which a walk crosses without using a color."""

    def test_uncolored_edge_reaches_the_next_vertex(self):
        assert _counted_reaches([[[0, 1]], [[0, 0]]], 0, 1)
        assert not _counted_reaches([[[0, 1]], [[0, 0]], []], 0, 1)

    def test_superset_of_a_later_mask_is_dropped(self):
        # vertex 3 admits 0b001 (via 1), then 0b010 (via 2); 0b110 (via 4)
        # holds 0b010 and is dropped; vertex 5 is never reached, so every
        # one of the k = 3 levels is expanded
        a, b, c = 0b001, 0b010, 0b100
        ends = [
            [[a, 1], [b, 2], [c, 4]],
            [[a, 0], [0, 3]],
            [[b, 0], [0, 3]],
            [[0, 1], [0, 2], [b, 4]],
            [[c, 0], [b, 3]],
            [],
        ]
        expanded = Counter()
        adj = [_Row(v, row, expanded) for v, row in enumerate(ends)]
        assert not _counted_reaches(adj, 0, 3)
        assert expanded[3] == 2


def _l(g: Graph) -> Graph:
    return line_graph(g).l_graph


class TestEdgeOrders:
    """``exact_rc`` colors next the uncolored edge with the most failed
    prefix checks so far at this palette size, ties by the distance of its
    nearer end from vertex 0, then by id."""

    @pytest.mark.parametrize(
        "g, rc, budget",
        [
            (_l(connected_gnp(11, 0.3, 1)), 3, 1_500),
            (_l(triangle_ring(6)), 4, 15_000),
            (_l(bridged_triangle_chain(12)), 24, 4_000),
            (_l(petersen_graph()), 3, 5_500),
            (_l(triangle_ring(7)), 4, 14_000),
            (cycle_graph(19), 10, 45_000),
            (_l(triangle_ring(4)), 3, 850),
            (_l(connected_gnp(10, 0.35, 3)), 4, 550),
            (_l(connected_gnp(11, 0.3, 2)), 3, 1_250),
            (_l(bridged_triangle_chain(6)), 12, 900),
            (_l(bridged_triangle_chain(8)), 16, 1_650),
            (_l(shared_vertex_triangle_chain(12)), 13, 3_100),
        ],
        ids=[
            "gnp11-s1",
            "triangle_ring6",
            "example31-t12",
            "petersen",
            "triangle_ring7",
            "C19",
            "triangle_ring4",
            "gnp10-s3",
            "gnp11-s2",
            "example31-t6",
            "example31-t8",
            "example32-k12",
        ],
    )
    def test_call_budget(self, monkeypatch, g, rc, budget):
        """``exact_rc`` settles within ``budget`` ``_counted_reaches`` calls:
        1,209 on L(gnp(11, 0.3, 1)), where the two fixed edge orders taken
        in turns made 440,637; 12,443 on L(triangle_ring(6)); 3,135 on
        L(example31, t = 12); 4,364 on L(petersen); 11,056 on
        L(triangle_ring(7)); and 36,117 on C19. L(petersen) and C19 are the
        rows where fail-first did more work than the fixed orders. The rest
        of the ladder: 667 on L(triangle_ring(4)), 449 on
        L(gnp(10, 0.35, 3)), 987 on L(gnp(11, 0.3, 2)), 705 on
        L(example31, t = 6), 1,323 on L(example31, t = 8) and 2,462 on
        L(example32, k = 12), each with rc equal to ``rc_lower_bound``."""
        counted_reaches, calls = oracle._counted_reaches, []

        def record(adj, s, k):
            calls.append(s)
            return counted_reaches(adj, s, k)

        monkeypatch.setattr(oracle, "_counted_reaches", record)
        assert exact_rc(g, max_edges=g.m) == rc
        assert len(calls) <= budget

    def test_failed_palette_size_leaves_edges_uncolored(self, monkeypatch):
        """After every palette size that does not extend, every edge end is
        back to bit 0: backtracking clears each edge it colored."""
        extends, counted_reaches = oracle._extends, oracle._counted_reaches
        last, failed = [None], []

        def record_adjacency(adj, s, k):
            last[0] = adj
            return counted_reaches(adj, s, k)

        def record(g, order, k):
            last[0] = None
            extended = extends(g, order, k)
            if not extended:
                failed.append(k)
                assert last[0] is not None
                assert not any(b for row in last[0] for b, _ in row), k
            return extended

        monkeypatch.setattr(oracle, "_counted_reaches", record_adjacency)
        monkeypatch.setattr(oracle, "_extends", record)
        for g in connected_graphs_up_to(7):
            exact_rc(g)
        assert len(failed) > 10

    def test_checked_prefixes_can_reach_k_colors(self, monkeypatch):
        """Once as many colors are left to use as edges, each edge takes a
        fresh color unchecked, so no checked prefix with ``top`` colors
        leaves fewer than ``k - top`` edges uncolored."""
        counted_reaches, short = oracle._counted_reaches, []

        def record(adj, s, k):
            if s == 0:  # every prefix check starts at source 0
                bits = [b for row in adj for b, _ in row]
                top = reduce(or_, bits).bit_count()
                short.append(k - top > bits.count(0) // 2)
            return counted_reaches(adj, s, k)

        monkeypatch.setattr(oracle, "_counted_reaches", record)
        for g in connected_graphs_up_to(7):
            exact_rc(g)
        assert len(short) > 1000
        assert not any(short)

    def test_empty_prefix_not_checked(self, monkeypatch):
        """With every edge uncolored a shortest path joins each pair in at
        most diam <= ``k`` edges, so the empty prefix always passes and no
        prefix check sees an all-uncolored adjacency."""
        counted_reaches, empty = oracle._counted_reaches, []

        def record(adj, s, k):
            if s == 0:  # every prefix check starts at source 0
                empty.append(not any(b for row in adj for b, _ in row))
            return counted_reaches(adj, s, k)

        monkeypatch.setattr(oracle, "_counted_reaches", record)
        lg = line_graph(bridged_triangle_chain(6)).l_graph
        assert exact_rc(lg, max_edges=lg.m) == 12
        for g in exact_search_sets()["ensemble"]:
            if g.m <= oracle.DEFAULT_EDGE_CAP:
                exact_rc(g)
        assert len(empty) > 100
        assert not any(empty)


class VerifierRow(NamedTuple):
    """A named set of (graph, bits) from ``corpus``, the verdicts its inputs
    give, whether its graphs are small enough for ``naive_failing_pair``,
    and the witness every input must give, if pinned."""

    name: str
    inputs: Callable[[], list[tuple[Graph, list[int]]]]
    verdicts: set[bool]
    naive: bool = False
    witness: Callable[[Graph], tuple[int, int]] | None = None


BOTH = {True, False}
VERIFIER_ROWS = [
    VerifierRow("random_small", random_small_colorings, BOTH, naive=True),
    VerifierRow("edge_cases", edge_case_colorings, BOTH, naive=True),
    VerifierRow("gnp_line_palettes", gnp_line_palettes, BOTH),
    VerifierRow("ring", ring_inputs, {True}),
    VerifierRow("certified_packing", lambda: certified_bits("packing"), {True}),
    VerifierRow("certified_cubic", lambda: certified_bits("cubic"), {True}),
    # one edge moved into a neighbouring color class, so that some fail
    VerifierRow("recolored_packing", lambda: certified_bits("packing", 1), BOTH),
    VerifierRow("recolored_cubic", lambda: certified_bits("cubic", 2), BOTH),
    VerifierRow("look_ahead_certified", lambda: look_ahead_inputs()["certified"], {True}),
    VerifierRow("look_ahead_recolored", lambda: look_ahead_inputs()["recolored"], BOTH),
    VerifierRow("look_ahead_small", lambda: look_ahead_inputs()["small"], BOTH),
    # the tail's end is the last vertex, and source 0 reaches every other
    VerifierRow("look_ahead_tail", lambda: look_ahead_inputs()["tail"], {False}, witness=lambda g: (0, g.n - 1)),
]


@cache
def _references(name: str) -> tuple[list[tuple[Graph, list[int]]], list[tuple[bool, tuple[int, int] | None]]]:
    """Row ``name``'s inputs and ``queue_check_all_pairs`` on each, computed
    once for the row's cases; they must give the row's verdicts and pinned
    witness and, on a small row, the witnesses of ``naive_failing_pair``."""
    row = next(row for row in VERIFIER_ROWS if row.name == name)
    inputs = row.inputs()
    expected = [queue_check_all_pairs(g, bits) for g, bits in inputs]
    assert {ok for ok, _ in expected} == row.verdicts
    for (g, bits), (_, witness) in zip(inputs, expected):
        if row.naive:
            assert naive_failing_pair(g, bits) == witness, g
        if row.witness:
            assert witness == row.witness(g)
    return inputs, expected


@pytest.mark.parametrize("factor", [oracle._LOOK_AHEAD_FACTOR, -1, math.inf], ids=["default", "always", "never"])
@pytest.mark.parametrize("row", VERIFIER_ROWS, ids=lambda row: row.name)
def test_check_all_pairs_matches_references(row, factor, monkeypatch):
    """``_check_all_pairs`` gives the verdict and witness of the row's
    references with ``_LOOK_AHEAD_FACTOR`` at its default, at -1 (a
    look-ahead before every level) and at infinity (none): a look-ahead marks
    nothing and a failed one leaves the level to be expanded as before."""
    inputs, expected = _references(row.name)
    monkeypatch.setattr(oracle, "_LOOK_AHEAD_FACTOR", factor)
    for i, (g, bits) in enumerate(inputs):
        assert _check_all_pairs(g, bits) == expected[i], i


class TestGroupedSearch:
    def test_adjacency_groups_by_color(self):
        # star 0-1, 0-2, 0-3, 0-4 plus 1-2, colors 1, 2, 1, 2, 2
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        adj = _adjacency(g, color_bits((1, 2, 1, 2, 2)))
        assert adj[0] == [(1, [1, 3]), (2, [2, 4])]
        assert adj[1] == [(1, [0]), (2, [2])]
        assert adj[2] == [(2, [0, 1])]
        assert adj[3] == [(1, [0])] and adj[4] == [(2, [0])]


class TestReachesWithinTwo:
    """``_reaches_within_two`` on hand-built paths, and at every look-ahead
    check the verifier makes. One edge: on the path t = 0, w = 1 with color
    ``0b001``, a mask at ``w`` free of that color passes, whether it is the
    first mask at ``w`` or a later one. Two edges: on the path t = 0, w = 1,
    u = 2, the walk u - w - t needs two distinct colors, both free in a mask
    at ``u``."""

    @staticmethod
    def one_edge(first, more):
        adj = _adjacency(build_graph(2, [(0, 1)]), [0b001])
        return _reaches_within_two(adj, 0, [-1, first], [None, more])

    @staticmethod
    def two_edges(c1, c2, first, more=None):
        adj = _adjacency(build_graph(3, [(0, 1), (1, 2)]), [c1, c2])
        return _reaches_within_two(adj, 0, [-1, -1, first], [None, None, more])

    def test_first_mask(self):
        assert self.one_edge(0b010, None)
        assert not self.one_edge(0b011, None)

    def test_first_mask_beside_later_ones(self):
        assert self.one_edge(0b0110, [0b1001])
        assert self.one_edge(0b1001, [0b0110])
        assert not self.one_edge(0b1001, [0b0101])

    def test_unreached_neighbour_fails(self):
        assert not self.one_edge(-1, None)

    def test_mask_avoiding_both_colors_passes(self):
        assert self.two_edges(0b001, 0b010, 0b100)
        assert self.two_edges(0b001, 0b010, 0)

    def test_mask_holding_either_color_fails(self):
        assert not self.two_edges(0b001, 0b010, 0b110)
        assert not self.two_edges(0b001, 0b010, 0b101)

    def test_one_color_twice_fails(self):
        assert not self.two_edges(0b001, 0b001, 0)
        assert not self.two_edges(0b001, 0b001, 0b100)

    def test_no_mask_two_edges_away_fails(self):
        # the mask at t's neighbour holds the color into t, so it fails the
        # one-edge walk, and it is not two edges away
        adj = _adjacency(build_graph(3, [(0, 1), (1, 2)]), [0b001, 0b010])
        assert not _reaches_within_two(adj, 0, [-1, 0b001, -1], [None] * 3)

    def test_later_mask_passes(self):
        assert self.two_edges(0b001, 0b010, 0b101, [0b110, 0b100])
        assert not self.two_edges(0b001, 0b010, 0b101, [0b110])

    def test_matches_the_rule(self, monkeypatch):
        """At every look-ahead check on ``look_ahead_inputs()`` and the ring
        coloring, a target passes exactly when ``helpers.free_walks`` finds
        a walk into it. Every admitted mask with a free edge into the target
        has the frontier's popcount, the largest of any admitted mask: an
        older state was expanded already and would have admitted the target
        then, so the one-edge walk needs no level. A target that passes by
        one edge passes by two as well, from the state one edge back."""
        within_two, seen = oracle._reaches_within_two, Counter()

        def recorded(adj, t, first, more):
            level = max(x.bit_count() for v in range(len(adj)) for x in admitted_masks(first, more, v))
            walks = free_walks(adj, t, first, more)
            passed = within_two(adj, t, first, more)
            assert passed == bool(walks)
            assert 1 not in walks or 2 in walks
            for b, ws in adj[t]:
                for w in ws:
                    for x in admitted_masks(first, more, w):
                        if not x & b:
                            assert x.bit_count() == level
                        elif x.bit_count() < level:
                            seen["older mask"] += 1
            seen[min(walks, default=None)] += 1
            return passed

        monkeypatch.setattr(oracle, "_reaches_within_two", recorded)
        for g, bits in _ring_and_look_ahead_inputs():
            _check_all_pairs(g, bits)
        assert all(seen[k] for k in (1, 2, None, "older mask")), seen


class TestTargetScan:
    """The verifier reads the targets left, and its witness, off ``first``,
    whose last slot, past vertex ``n - 1``, ends each scan. Each graph is a
    star from source 0 to the leaves 1..9 in colors 1..9, so the look-ahead
    runs before level 2, plus the edges ``(u, t, color)`` given."""

    @staticmethod
    def search(extra, expanded=None):
        edges = [(0, v, v) for v in range(1, 10)] + extra
        g = build_graph(1 + max(t for _, t, _ in extra), [(u, v) for u, v, _ in edges])
        adj = _adjacency(g, color_bits(c for _, _, c in edges))
        if expanded is not None:
            adj = [_Row(v, row, expanded) for v, row in enumerate(adj)]
        return oracle._first_unreached(adj, 0)

    def test_only_target_left_is_the_last_vertex(self):
        # 10 hangs off leaf 9 by color 9 again, so no walk reaches it
        assert self.search([(9, 10, 9)]) == 10

    def test_scan_past_every_target_left_ends_the_source(self):
        expanded = Counter()
        assert self.search([(1, 10, 10), (2, 11, 11)], expanded) is None
        # both targets pass the look-ahead, so no leaf is expanded
        assert not any(expanded[v] for v in range(1, 10))

    def test_unreachable_target_after_a_reachable_one(self):
        # 10 passes the look-ahead; 11 hangs off leaf 3 by color 3 again
        assert self.search([(1, 10, 10), (3, 11, 3)]) == 11


class _ScanRecorder:
    """Wraps ``oracle._first_unreached`` and ``_reaches_within_two`` and
    asserts, at each look-ahead check, the scan the module docstring
    states. A look-ahead starts at the smallest target left, a ``t > s``
    with ``first[t] == -1``. Each later check in it is the next target left,
    on the same admitted states. It stops at the first target it rejects,
    so the next check comes after a level admitted new states, and starts a
    new look-ahead. A source whose last check passed checked its last target
    left and returned ``None``. ``resumed`` counts the look-ahead that
    followed a failed one in the same source."""

    def __init__(self, monkeypatch):
        self.within_two, self.first_unreached = oracle._reaches_within_two, oracle._first_unreached
        self.resumed = 0
        monkeypatch.setattr(oracle, "_reaches_within_two", self.check)
        monkeypatch.setattr(oracle, "_first_unreached", self.search)

    def search(self, adj, s):
        self.source, self.last = s, None
        found = self.first_unreached(adj, s)
        if self.last:
            t, passed, _, left = self.last
            assert not passed or (found is None and t == left[-1])
        return found

    def check(self, adj, t, first, more):
        left = [x for x in range(self.source + 1, len(adj)) if first[x] < 0]
        states = sum(len(admitted_masks(first, more, v)) for v in range(len(adj)))
        if self.last and self.last[1]:  # the same look-ahead goes on
            before, _, states_before, _ = self.last
            assert states == states_before and t == left[left.index(before) + 1]
        else:  # a new look-ahead, after a level that admitted new states
            assert self.last is None or states > self.last[2]
            assert t == left[0]
            self.resumed += self.last is not None
        passed = self.within_two(adj, t, first, more)
        self.last = (t, passed, states, left)
        return passed


class TestLookAheadScan:
    def test_scans_the_targets_left_in_order(self, monkeypatch):
        """On ``look_ahead_inputs()`` and the ring coloring, every
        look-ahead scans as ``_ScanRecorder`` asserts, and some look-ahead
        follows a failed one in the same source."""
        scans = _ScanRecorder(monkeypatch)
        for g, bits in _ring_and_look_ahead_inputs():
            _check_all_pairs(g, bits)
        assert scans.resumed

    def test_look_ahead_ends_early_and_fails(self, monkeypatch):
        """Some source ends on a look-ahead whose last target passed by one
        edge, some on one whose last target passed by two edges only (the
        shortest walk ``helpers.free_walks`` finds), and some look-ahead
        fails."""
        checks: list[tuple[set[int], bool]] = []
        ended_on: list[int | None] = []
        failed: list[bool] = []
        within_two, first_unreached = oracle._reaches_within_two, oracle._first_unreached

        def counted(adj, t, first, more):
            checks.append((free_walks(adj, t, first, more), within_two(adj, t, first, more)))
            return checks[-1][1]

        def counted_search(adj, s):
            checks.clear()
            t = first_unreached(adj, s)
            # a look-ahead in which every target passed ends the search; a
            # failed one ends on a target that it rejects
            ended = t is None and checks and checks[-1][1]
            ended_on.append(min(checks[-1][0], default=None) if ended else None)
            failed.append(any(not passed for _, passed in checks))
            return t

        monkeypatch.setattr(oracle, "_reaches_within_two", counted)
        monkeypatch.setattr(oracle, "_first_unreached", counted_search)
        for inputs in look_ahead_inputs().values():
            for g, bits in inputs:
                _check_all_pairs(g, bits)
        assert {1, 2} <= set(ended_on) and any(failed)


def _ring_and_look_ahead_inputs() -> list[tuple[Graph, list[int]]]:
    """The ring coloring, then every set of ``look_ahead_inputs()``."""
    return ring_inputs() + [x for xs in look_ahead_inputs().values() for x in xs]


class TestLookAheadTrigger:
    def test_look_ahead_fires_on_a_long_sparse_line_graph(self, monkeypatch):
        calls = []
        within_two = oracle._reaches_within_two

        def counted(adj, t, first, more):
            calls.append(t)
            return within_two(adj, t, first, more)

        monkeypatch.setattr(oracle, "_reaches_within_two", counted)
        [(g, bits)] = ring_inputs()
        assert _check_all_pairs(g, bits) == (True, None)
        # a rule read off the vertex count would never fire here, and one that
        # fires before every level checks at least one target per source
        assert 0 < len(calls) < g.n - 1


class TestLowerBound:
    def test_triangle_chain_line_graph(self):
        lg = line_graph(bridged_triangle_chain(2)).l_graph
        assert rc_lower_bound(lg) == 4

    def test_shared_chain_line_graph(self):
        lg = line_graph(shared_vertex_triangle_chain(2)).l_graph
        assert rc_lower_bound(lg) == 3

    def test_complete(self):
        assert rc_lower_bound(complete_graph(5)) == 1

    def test_rejects_disconnected(self):
        with pytest.raises(InputError):
            rc_lower_bound(build_graph(3, [(0, 1)]))

    def test_rejects_single_vertex(self):
        with pytest.raises(InputError, match="connected graphs with at least 2 vertices"):
            rc_lower_bound(path_graph(1))


class TestIteratedTightness:
    def test_long_path_equality(self):
        report = check_iterated_tightness(path_graph(7))
        assert report.verdict == "equality" and report.is_long_path
        assert report.exact == report.bound == 4

    def test_cycle_strict(self):
        report = check_iterated_tightness(cycle_graph(4))
        assert report.verdict == "strict" and not report.is_long_path
        assert report.exact == 2 < report.bound == 4

    def test_spider_strict(self):
        spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        report = check_iterated_tightness(spider)
        assert report.verdict == "strict" and not report.is_long_path

    def test_undecided_when_over_cap(self):
        report = check_iterated_tightness(complete_graph(4))
        assert report.verdict == "undecided" and report.exact is None
