import pathlib
import random
from collections import Counter
from functools import partial, reduce
from itertools import combinations
from operator import or_

import pytest

from corpus import (
    certified_colorings,
    color_bits,
    connected_graphs_up_to,
    ensemble_line_graphs,
    exact_search_sets,
    look_ahead_inputs,
    recolorings,
)
import helpers
from helpers import (
    admitted_masks,
    check_iterated_tightness,
    circular_first_unreached,
    enumerate_exact_rc,
    naive_failing_pair,
    naive_rainbow_connected,
    queue_check_all_pairs,
    reaches_at_level,
    reaches_in_two,
    relabel_exact_rc,
)
from rainbowline import oracle
from rainbowline.coloring import EdgeColoring, color, color_forest_packing, color_packing
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
from rainbowline.graphs import Graph, build_graph, is_connected
from rainbowline.linegraph import line_graph
from rainbowline.triangles import pack_edge_disjoint
from rainbowline.oracle import (
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
    def test_monochromatic_complete(self):
        g = complete_graph(4)
        ok, witness = is_rainbow_connected(EdgeColoring(g, (1,) * 6, 1))
        assert ok and witness is None

    def test_path_one_color_fails_on_endpoints(self):
        g = path_graph(3)
        ok, witness = is_rainbow_connected(EdgeColoring(g, (1, 1), 1))
        assert not ok and witness == (0, 2)

    def test_alternating_cycle(self):
        g = cycle_graph(4)
        ok, _ = is_rainbow_connected(EdgeColoring(g, (1, 2, 1, 2), 2))
        assert ok

    def test_smallest_failing_pair(self):
        # star with one color: every leaf pair fails; (1, 2) is smallest
        g = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        ok, witness = is_rainbow_connected(EdgeColoring(g, (1, 1, 1), 1))
        assert not ok and witness == (1, 2)

    def test_disconnected_fails(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        ok, witness = is_rainbow_connected(EdgeColoring(g, (1, 2), 2))
        assert not ok and witness == (0, 2)

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
    def test_cycle5(self):
        assert exact_rc(cycle_graph(5)) == 3

    def test_path5_is_tree_value(self):
        assert exact_rc(path_graph(5)) == 4

    def test_complete(self):
        assert exact_rc(complete_graph(4)) == 1

    def test_rejects_disconnected(self):
        with pytest.raises(InputError):
            exact_rc(build_graph(4, [(0, 1), (2, 3)]))

    def test_edge_cap_brackets(self):
        g = cycle_graph(13)
        with pytest.raises(LimitError) as exc:
            exact_rc(g, max_edges=12)
        assert exc.value.lower == 6 and exc.value.upper == 12

    def test_negative_edge_cap_is_an_input_error(self):
        exact_rc(cycle_graph(5), max_edges=5)  # a cap at m runs the search
        with pytest.raises(InputError, match="edge cap must be non-negative"):
            exact_rc(cycle_graph(5), max_edges=-1)


class TestSharpPastTheCap:
    """With ``max_edges`` raised to the edge count, the exact search reaches
    the paper's sharpness examples and long cycles beyond the default cap,
    and rc equals the bound the construction certifies."""

    @pytest.mark.parametrize("t, rc", [(3, 6), (4, 8), (6, 12), (8, 16), (12, 24)])
    def test_example31_line_graphs(self, t, rc):
        g = bridged_triangle_chain(t)
        coloring, cert = color_forest_packing(g, pack_edge_disjoint(g, "forest_exact"))
        lg = coloring.graph
        assert lg.m > oracle.DEFAULT_EDGE_CAP
        assert exact_rc(lg, max_edges=lg.m) == cert.bound_value == rc  # n2 - t

    @pytest.mark.parametrize("k, rc", [(3, 4), (4, 5), (6, 7), (8, 9)])
    def test_example32_line_graphs(self, k, rc):
        g = shared_vertex_triangle_chain(k)
        coloring, cert = color_packing(g, pack_edge_disjoint(g, "exact"))
        lg = coloring.graph
        assert lg.m > oracle.DEFAULT_EDGE_CAP
        assert exact_rc(lg, max_edges=lg.m) == cert.bound_value == rc  # t + n2' + c

    @pytest.mark.parametrize("n", range(13, 17))
    def test_long_cycles(self, n):
        assert exact_rc(cycle_graph(n), max_edges=n) == (n + 1) // 2


def _random_connected(seed):
    """Random spanning tree on 4..8 vertices plus chords, at most 10 edges."""
    rng = random.Random(seed)
    n = rng.randint(4, 8)
    pairs = {(rng.randrange(v), v) for v in range(1, n)}
    chords = [p for p in combinations(range(n), 2) if p not in pairs]
    rng.shuffle(chords)
    return build_graph(n, sorted(pairs) + chords[: rng.randint(0, 11 - n)])


class TestPrunedSearchMatchesEnumeration:
    """The pruned search returns the value of checking every canonical
    coloring, ``helpers.enumerate_exact_rc``."""

    def test_all_small_connected_graphs(self):
        graphs = connected_graphs_up_to(6)
        assert len(graphs) == 52
        values = [exact_rc(g) for g in graphs]
        assert values == [enumerate_exact_rc(g) for g in graphs]
        assert sum(v > rc_lower_bound(g) for v, g in zip(values, graphs)) > 10

    @pytest.mark.parametrize("chunk", range(4))
    def test_random_connected_graphs(self, chunk):
        for seed in range(20 * chunk, 20 * chunk + 20):
            g = _random_connected(seed)
            assert g.m <= 10 and is_connected(g)
            assert exact_rc(g) == enumerate_exact_rc(g), seed

    def test_ensemble_line_graphs(self):
        lgs = [lg for lg in ensemble_line_graphs() if lg.m <= 12]
        assert len(lgs) == 14
        assert [exact_rc(lg) for lg in lgs] == [enumerate_exact_rc(lg) for lg in lgs]


def _value(search, g):
    """``search(g)``, or its ``LimitError`` bracket."""
    try:
        return search(g)
    except LimitError as exc:
        return exc.lower, exc.upper


def _prefixes(g: Graph, k: int, rng: random.Random):
    """The prefixes of a random coloring of ``g`` with at most ``k``
    colors, canonical in a random edge order, as one color bit per edge
    with 0 for an uncolored edge."""
    order, first = rng.sample(range(g.m), g.m), {}
    bits = [0] * g.m
    for i in order:
        bits[i] = 1 << first.setdefault(rng.randint(1, k), len(first))
        yield list(bits)


class TestCountedMatchesRelabel:
    """``exact_rc`` lets a walk cross uncolored edges freely and caps its
    length at ``k`` by the search level; ``helpers.relabel_exact_rc``, a
    search of its own in edge-id order, gives each uncolored edge a private
    color and allows any length. A walk that passes the capped check
    contains a path that passes the private-color one, so the capped check
    cuts every prefix the other cuts, and both searches return the same
    value (a ``LimitError`` by its bracket)."""

    @pytest.mark.parametrize("name", ["small", "small_line", "ensemble", "cycles"])
    def test_same_values(self, name):
        graphs, resolving = exact_search_sets()[name]
        assert len(graphs) == {"small": 131, "small_line": 130, "ensemble": 80, "cycles": 10}[name]
        values = [_value(exact_rc, g) for g in graphs]
        assert values == [_value(relabel_exact_rc, g) for g in graphs]
        assert sum(isinstance(v, int) for v in values) == resolving

    @pytest.mark.parametrize("name", ["small_line", "ensemble"])
    def test_counted_pass_implies_private_pass(self, name):
        """Wherever a prefix passes ``_counted_reaches`` from every source,
        it passes the private-color ``_check_adjacency`` too."""
        rng = random.Random(name)
        outcomes = Counter()
        for g in exact_search_sets()[name][0]:
            lo = rc_lower_bound(g)
            for k in range(lo, min(lo + 1, g.m) + 1):
                for bits in _prefixes(g, k, rng):
                    ends = [[] for _ in range(g.n)]
                    for (u, v), b in zip(g.edges, bits):
                        ends[u].append([b, v])
                        ends[v].append([b, u])
                    counted = all(oracle._counted_reaches(ends, s, k) for s in range(g.n - 1))
                    private = [b or 1 << (g.m + i) for i, b in enumerate(bits)]
                    outcomes[counted, oracle._check_adjacency(_adjacency(g, private))[0]] += 1
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
        ],
        ids=["gnp11-s1", "triangle_ring6", "example31-t12", "petersen", "triangle_ring7", "C19"],
    )
    def test_call_budget(self, monkeypatch, g, rc, budget):
        """``exact_rc`` settles within ``budget`` ``_counted_reaches`` calls:
        1,209 on L(gnp(11, 0.3, 1)), where the two fixed edge orders taken
        in turns made 440,637; 12,443 on L(triangle_ring(6)); 3,135 on
        L(example31, t = 12); 4,364 on L(petersen); 11,056 on
        L(triangle_ring(7)); and 36,117 on C19. L(petersen) and C19 are the
        rows where fail-first did more work than the fixed orders."""
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
        graphs, resolving = exact_search_sets()["ensemble"]
        resolved = [g for g in graphs if g.m <= oracle.DEFAULT_EDGE_CAP]
        assert len(resolved) == resolving
        for g in resolved:
            exact_rc(g)
        assert len(empty) > 100
        assert not any(empty)


class TestNaiveAgreement:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_small_instances(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        m = rng.randint(1, min(8, len(pairs)))
        g = build_graph(n, sorted(pairs[:m]))
        k = rng.randint(1, 3)
        colors = tuple(rng.randint(1, k) for _ in range(g.m))
        fast, _ = is_rainbow_connected(EdgeColoring(g, colors, k))
        assert fast == naive_rainbow_connected(g, colors)


class TestLevelSearchMatchesQueue:
    """The level-by-level search returns the verdict and witness of the
    queue-based search in ``helpers.queue_check_all_pairs``."""

    def test_random_palettes_on_gnp_line_graphs(self):
        verdicts = set()
        for seed in range(60):
            rng = random.Random(seed)
            lg = line_graph(connected_gnp(rng.randint(4, 9), rng.uniform(0.3, 0.7), seed)).l_graph
            for _ in range(4):
                k = rng.randint(2, 80)
                bits = color_bits(rng.randint(1, k) for _ in range(lg.m))
                got = _check_all_pairs(lg, bits)
                assert got == queue_check_all_pairs(lg, bits), (seed, k)
                verdicts.add(got[0])
        assert verdicts == {True, False}

    @pytest.mark.parametrize("kind, i", [("packing", i) for i in range(8)] + [("cubic", i) for i in range(3)])
    def test_certified_colorings(self, kind, i):
        col, cert = certified_colorings()[kind][i]
        assert cert.verified
        bits = color_bits(col.colors)
        assert _check_all_pairs(col.graph, bits) == queue_check_all_pairs(col.graph, bits)

    def test_single_vertex(self):
        assert _check_all_pairs(Graph(1, ()), []) == (True, None)

    def test_two_vertices(self):
        g = path_graph(2)
        assert _check_all_pairs(g, [1]) == (True, None)
        assert _check_all_pairs(Graph(2, ()), []) == (False, (0, 1))

    def test_disconnected(self):
        g = build_graph(5, [(0, 1), (1, 2), (3, 4)])
        bits = color_bits((1, 2, 1))
        assert _check_all_pairs(g, bits) == (False, (0, 3))
        assert queue_check_all_pairs(g, bits) == (False, (0, 3))

    def test_only_last_pair_fails(self):
        # star whose last two leaves share a color: only (3, 4) has no rainbow path
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        colors = (1, 2, 3, 3)
        assert naive_failing_pair(g, colors) == (3, 4)
        assert _check_all_pairs(g, color_bits(colors)) == (False, (3, 4))
        assert queue_check_all_pairs(g, color_bits(colors)) == (False, (3, 4))


class TestGroupedSearch:
    """The search over color-grouped neighbours returns the verdict and
    witness of the per-edge queue search on the star-clique colorings the
    constructions produce, with one edge moved into a neighbouring color
    class so that some of them fail."""

    @pytest.mark.parametrize("kind, seed", [("packing", 1), ("cubic", 2)])
    def test_recolored_colorings(self, kind, seed):
        rng = random.Random(seed)
        verdicts = set()
        for col, cert in certified_colorings()[kind]:
            assert cert.verified
            for bits in recolorings(col, rng, 12):
                got = _check_all_pairs(col.graph, bits)
                assert got == queue_check_all_pairs(col.graph, bits)
                verdicts.add(got[0])
        assert verdicts == {True, False}

    def test_adjacency_groups_by_color(self):
        # star 0-1, 0-2, 0-3, 0-4 plus 1-2, colors 1, 2, 1, 2, 2
        g = build_graph(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
        adj = _adjacency(g, color_bits((1, 2, 1, 2, 2)))
        assert adj[0] == [(1, [1, 3]), (2, [2, 4])]
        assert adj[1] == [(1, [0]), (2, [2])]
        assert adj[2] == [(2, [0, 1])]
        assert adj[3] == [(1, [0])] and adj[4] == [(2, [0])]


def _frontier_level(first, more):
    """The popcount of the frontier's masks: each level adds one color to
    the masks it admits, so no admitted mask has more colors than the
    newest ones."""
    return max(x.bit_count() for v in range(len(more)) for x in admitted_masks(first, more, v))


def _passed_by(adj, t, first, more):
    """``"one edge"`` if ``helpers.reaches_at_level`` passes ``t`` at the
    frontier's level, else ``"two edges"`` if ``helpers.reaches_in_two``
    does, else ``None``."""
    if reaches_at_level(adj[t], first, more, _frontier_level(first, more)):
        return "one edge"
    return "two edges" if reaches_in_two(adj, t, first, more) else None


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

    def test_matches_the_references(self, monkeypatch):
        """At every look-ahead check on ``look_ahead_inputs()`` and the ring
        coloring, the verdict is ``reaches_at_level`` at the frontier's
        level or ``reaches_in_two``. Every admitted mask with a free edge
        into the target has the frontier's popcount: an older state was
        expanded already and would have admitted the target then, so the
        one-edge walk needs no level. A target that passes by one edge
        passes by two as well, from the state one edge back."""
        within_two, seen = oracle._reaches_within_two, Counter()

        def recorded(adj, t, first, more):
            level = _frontier_level(first, more)
            by = _passed_by(adj, t, first, more)
            passed = within_two(adj, t, first, more)
            assert passed == (by is not None)
            assert by != "one edge" or reaches_in_two(adj, t, first, more)
            for b, ws in adj[t]:
                for w in ws:
                    for x in admitted_masks(first, more, w):
                        if not x & b:
                            assert x.bit_count() == level
                        elif x.bit_count() < level:
                            seen["older mask"] += 1
            seen[by] += 1
            return passed

        monkeypatch.setattr(oracle, "_reaches_within_two", recorded)
        ring = _ring_coloring()
        inputs = [(ring.graph, color_bits(ring.colors))]
        inputs += [x for xs in look_ahead_inputs().values() for x in xs]
        for g, bits in inputs:
            _check_all_pairs(g, bits)
        assert all(seen[k] for k in ("one edge", "two edges", None, "older mask")), seen


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


class TestLookAheadMatchesQueue:
    """Ending a source early, once every target left has a free edge from a
    state of the current level or a two-edge walk of distinct free colors
    from an admitted state, keeps the verdict and witness of the queue
    search in ``helpers.queue_check_all_pairs``."""

    @pytest.mark.parametrize(
        "name, verdicts",
        [("certified", {True}), ("recolored", {True, False}), ("tail", {False}),
         ("small", {True, False})],
    )
    def test_matches_queue(self, name, verdicts):
        seen = set()
        for g, bits in look_ahead_inputs()[name]:
            got = _check_all_pairs(g, bits)
            assert got == queue_check_all_pairs(g, bits)
            seen.add(got[0])
        assert seen == verdicts

    def test_tail_end_is_the_witness(self):
        # the tail's end is the last vertex, and source 0 reaches every other
        for g, bits in look_ahead_inputs()["tail"]:
            assert _check_all_pairs(g, bits) == (False, (0, g.n - 1))

    def test_look_ahead_ends_early_and_fails(self, monkeypatch):
        """Some source ends on a look-ahead whose last target passed by one
        edge, some on one whose last target passed by two (as the references
        in ``tests/helpers.py`` split them), and some look-ahead fails."""
        checks: list[tuple[str | None, bool]] = []
        ended_on: list[str | None] = []
        failed: list[bool] = []
        within_two, first_unreached = oracle._reaches_within_two, oracle._first_unreached

        def counted(adj, t, first, more):
            checks.append((_passed_by(adj, t, first, more), within_two(adj, t, first, more)))
            return checks[-1][1]

        def counted_search(adj, s):
            checks.clear()
            t = first_unreached(adj, s)
            # a look-ahead in which every target passed ends the search; a
            # failed one ends on a target that it rejects
            ended = t is None and checks and checks[-1][1]
            ended_on.append(checks[-1][0] if ended else None)
            failed.append(any(not passed for _, passed in checks))
            return t

        monkeypatch.setattr(oracle, "_reaches_within_two", counted)
        monkeypatch.setattr(oracle, "_first_unreached", counted_search)
        for inputs in look_ahead_inputs().values():
            for g, bits in inputs:
                _check_all_pairs(g, bits)
        assert {"one edge", "two edges"} <= set(ended_on) and any(failed)


_real_within_two, _real_check, _ascending = (
    oracle._reaches_within_two, oracle._check_adjacency, oracle._first_unreached
)


def _checks_in_both_orders(adj):
    """Check ``adj`` with ``oracle._first_unreached`` and again with
    ``helpers.circular_first_unreached``; assert the same verdict and the
    same checks, one list per source of ``(target, passed)`` per check: each
    ``_reaches_within_two`` call of the package, and each target the
    reference checks, by ``reaches_at_level`` and, if that rejects it, by
    ``reaches_in_two``. Returns the verdict and the reference's lists, of
    ``(target, passed, by_two)``, where ``by_two`` marks a target that
    ``reaches_at_level`` rejected."""
    target = {id(row): t for t, row in enumerate(adj)}
    package, reference = [], []

    def within_two(adj, t, first, more):
        package[-1].append((t, _real_within_two(adj, t, first, more)))
        return package[-1][-1][1]

    def at_level(row, first, more, level):
        passed = reaches_at_level(row, first, more, level)
        reference[-1].append((target[id(row)], passed, False))
        return passed

    def in_two(adj, t, first, more):
        passed = reaches_in_two(adj, t, first, more)
        reference[-1][-1] = (t, passed, True)
        return passed

    def run(first_unreached, sources):
        def search(adj, s):
            sources.append([])
            return first_unreached(adj, s)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_first_unreached", search)
            return _real_check(adj)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracle, "_reaches_within_two", within_two)
        patch.setattr(helpers, "reaches_at_level", at_level)
        patch.setattr(helpers, "reaches_in_two", in_two)
        verdict = run(_ascending, package)
        assert run(circular_first_unreached, reference) == verdict
    assert [[(t, passed) for t, passed, _ in checks] for checks in reference] == package
    return verdict, reference


def _resumes(checks):
    """Whether a look-ahead failed and a later one ran in the same source."""
    return any(not passed for _, passed, _ in checks[:-1])


def _resumes_past_two_edge_pass(checks):
    """Whether a look-ahead in which some target passed only the two-edge
    check failed, and a later one ran in the same source. That target is
    not admitted at the next level, so the next look-ahead starts at it,
    not at the target the failed one stopped at."""
    passed_in_two = False
    for _, passed, by_two in checks[:-1]:
        if by_two:
            if not passed and passed_in_two:
                return True
            # a failure ends the look-ahead, so the next one starts afresh
            passed_in_two = passed
    return False


class TestLookAheadOrder:
    """Scanning the targets left in ascending order makes the same checks,
    with the same outcomes and in the same order, as resuming at the first
    target that the one-edge check rejected in the last look-ahead and
    going round (``circular_first_unreached``): every target below that one
    passed by one edge and was admitted at the next level, so it is the
    smallest target left."""

    def test_look_ahead_inputs(self):
        verdicts, seen = set(), []
        for inputs in look_ahead_inputs().values():
            for g, bits in inputs:
                (ok, _), checks = _checks_in_both_orders(_adjacency(g, bits))
                verdicts.add(ok)
                seen += checks
        assert verdicts == {True, False}
        assert any(_resumes(checks) for checks in seen)
        assert any(_resumes_past_two_edge_pass(checks) for checks in seen)

    def test_exact_rc_prefix_checks(self, monkeypatch):
        seen = []

        def check(adj):
            verdict, checks = _checks_in_both_orders(adj)
            seen.extend(checks)
            return verdict

        lgs = [lg for lg in ensemble_line_graphs()[:8] if lg.m <= 12]
        assert len(lgs) == 4
        monkeypatch.setattr(oracle, "_check_adjacency", check)
        for lg in lgs:
            relabel_exact_rc(lg)
        assert any(_resumes(checks) for checks in seen)


def _ring_coloring() -> EdgeColoring:
    """The theorem-32 coloring of L(triangle_ring(12)), a rung of the
    ``sharp`` benchmark: a long sparse line graph on 36 vertices."""
    return color(triangle_ring(12), "32").coloring


class TestLookAheadTrigger:
    """The trigger only decides when a look-ahead runs: a look-ahead marks
    nothing, and when it fails the level is expanded as before."""

    def test_trigger_cannot_change_a_verdict(self, monkeypatch):
        ring = _ring_coloring()
        inputs = [(ring.graph, color_bits(ring.colors))]
        inputs += [x for xs in look_ahead_inputs().values() for x in xs]
        every_level = partial(circular_first_unreached, trigger=lambda states, left: True)
        never = partial(circular_first_unreached, trigger=lambda states, left: False)
        for g, bits in inputs:
            expected = queue_check_all_pairs(g, bits)
            for first_unreached in (every_level, never):
                monkeypatch.setattr(oracle, "_first_unreached", first_unreached)
                assert _check_all_pairs(g, bits) == expected

    def test_look_ahead_fires_on_a_long_sparse_line_graph(self, monkeypatch):
        calls = []
        within_two = oracle._reaches_within_two

        def counted(adj, t, first, more):
            calls.append(t)
            return within_two(adj, t, first, more)

        monkeypatch.setattr(oracle, "_reaches_within_two", counted)
        ring = _ring_coloring()
        assert is_rainbow_connected(ring) == (True, None)
        # a rule read off the vertex count would never fire here, and one that
        # fires before every level checks at least one target per source
        assert 0 < len(calls) < ring.graph.n - 1


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
