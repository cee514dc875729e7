import pathlib
import random
from itertools import combinations

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
from helpers import (
    check_iterated_tightness,
    circular_first_unreached,
    enumerate_exact_rc,
    naive_failing_pair,
    naive_rainbow_connected,
    queue_check_all_pairs,
    relabel_exact_rc,
)
from rainbowline import oracle
from rainbowline.coloring import EdgeColoring, color_forest_packing, color_packing
from rainbowline.errors import InputError, LimitError
from rainbowline.families import (
    bridged_triangle_chain,
    complete_graph,
    connected_gnp,
    cycle_graph,
    path_graph,
    shared_vertex_triangle_chain,
)
from rainbowline.graphs import Graph, build_graph, is_connected
from rainbowline.linegraph import line_graph
from rainbowline.triangles import pack_edge_disjoint
from rainbowline.oracle import (
    _adjacency,
    _check_all_pairs,
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

    @pytest.mark.parametrize("t, rc", [(3, 6), (4, 8), (6, 12)])
    def test_example31_line_graphs(self, t, rc):
        g = bridged_triangle_chain(t)
        coloring, cert = color_forest_packing(g, pack_edge_disjoint(g, "forest_exact"))
        lg = coloring.graph
        assert lg.m > oracle.DEFAULT_EDGE_CAP
        assert exact_rc(lg, max_edges=lg.m) == cert.bound_value == rc  # n2 - t

    @pytest.mark.parametrize("k, rc", [(3, 4), (4, 5), (6, 7)])
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


class TestCountedMatchesRelabel:
    """``exact_rc`` lets a walk cross uncolored edges freely and caps its
    length at ``k`` by the search level; ``helpers.relabel_exact_rc`` gives
    each uncolored edge a private color and allows any length. Both return
    the same value (a ``LimitError`` by its bracket), and the capped search
    makes no more prefix checks on any graph: a walk that passes the capped
    check contains a path that passes the private-color one, so it cuts
    every prefix the other cuts. The totals are pinned because the search
    without the length cap makes exactly the private-color checks."""

    @pytest.mark.parametrize(
        "name, counted_total, private_total",
        [
            ("small", 6377, 7861),
            ("small_line", 2593, 5613),
            ("ensemble", 569, 6950),
            ("cycles", 1073, 7632),
        ],
    )
    def test_same_values_no_more_prefix_checks(self, monkeypatch, name, counted_total, private_total):
        graphs, resolving = exact_search_sets()[name]
        assert len(graphs) == {"small": 131, "small_line": 130, "ensemble": 80, "cycles": 10}[name]
        counted_reaches, check = oracle._counted_reaches, oracle._check_adjacency
        checks = []

        def record_counted(adj, s, k):
            checks.append(s)  # every prefix check starts at source 0
            return counted_reaches(adj, s, k)

        def record_private(adj):
            checks.append(0)
            return check(adj)

        def run(search, g):
            checks.clear()
            try:
                value = search(g)
            except LimitError as exc:
                value = (exc.lower, exc.upper)
            return value, checks.count(0)

        monkeypatch.setattr(oracle, "_counted_reaches", record_counted)
        monkeypatch.setattr(oracle, "_check_adjacency", record_private)
        totals = [0, 0]
        resolved = 0
        for g in graphs:
            value, counted = run(exact_rc, g)
            reference, private = run(relabel_exact_rc, g)
            assert value == reference, g.edges
            assert counted <= private, g.edges
            totals[0] += counted
            totals[1] += private
            resolved += isinstance(value, int)
        assert resolved == resolving
        assert totals == [counted_total, private_total]


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
        assert adj[0] == [[1, [1, 3]], [2, [2, 4]]]
        assert adj[1] == [[1, [0]], [2, [2]]]
        assert adj[2] == [[2, [0, 1]]]
        assert adj[3] == [[1, [0]]] and adj[4] == [[2, [0]]]


class TestLookAheadMatchesQueue:
    """Ending a source one level early, once every target left has a free
    edge from a state of the current level, keeps the verdict and witness of
    the queue search in ``helpers.queue_check_all_pairs``."""

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
        checks: list[bool] = []
        ended_early: list[bool] = []
        failed: list[bool] = []
        reaches = oracle._reaches
        first_unreached = oracle._first_unreached

        def counted_reaches(row, visited, level):
            checks.append(reaches(row, visited, level))
            return checks[-1]

        def counted_search(adj, s):
            checks.clear()
            t = first_unreached(adj, s)
            # a look-ahead in which every target passed ends the search
            ended_early.append(t is None and checks[-1:] == [True])
            failed.append(False in checks)
            return t

        monkeypatch.setattr(oracle, "_reaches", counted_reaches)
        monkeypatch.setattr(oracle, "_first_unreached", counted_search)
        for inputs in look_ahead_inputs().values():
            for g, bits in inputs:
                _check_all_pairs(g, bits)
        assert any(ended_early) and any(failed)


_real_reaches, _real_check, _ascending = oracle._reaches, oracle._check_adjacency, oracle._first_unreached


def _checks_in_both_orders(adj):
    """Check ``adj`` with ``oracle._first_unreached`` and again with
    ``helpers.circular_first_unreached``; assert the same verdict and the
    same ``_reaches`` checks, one list of ``(target, level, passed)`` per
    source. Returns the verdict and the lists."""
    target = {id(row): t for t, row in enumerate(adj)}

    def run(first_unreached):
        sources = []

        def recorded(row, visited, level):
            passed = _real_reaches(row, visited, level)
            sources[-1].append((target[id(row)], level, passed))
            return passed

        def search(adj, s):
            sources.append([])
            return first_unreached(adj, s)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(oracle, "_reaches", recorded)
            patch.setattr(oracle, "_first_unreached", search)
            return _real_check(adj), sources

    got = run(_ascending)
    assert got == run(circular_first_unreached)
    return got


def _resumes(checks):
    """Whether a look-ahead failed and a later one ran in the same source."""
    return any(not passed for _, _, passed in checks[:-1])


class TestLookAheadOrder:
    """Scanning the targets left in ascending order makes the same
    ``_reaches`` checks, in the same order, as resuming at the target that
    failed the last look-ahead and going round (``circular_first_unreached``):
    every target below that one passed and was admitted, so it is the
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
