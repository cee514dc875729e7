import random
import re
from dataclasses import replace
from functools import cache, partial
from itertools import combinations

import pytest

import helpers
from corpus import (
    connected_graphs_up_to,
    construct_instances,
    cubic_star_packing,
    dense_gnp,
    sample_gnp,
    star_packing,
)
from helpers import (
    color_single_triangle,
    count_packing_work,
    detach_edge,
    hand_built_iterated_baseline,
    induced_by_edges,
    part_by_part_construction,
    pull_back,
    recursive_tree_assignment,
    replay_graphs,
    replay_trace,
    split_vertex,
)
from rainbowline import oracle
from rainbowline.coloring import (
    ColorPart,
    ColoringCertificate,
    EdgeColoring,
    Run,
    _construct,
    _restate,
    color,
    color_cubic_iterated,
    color_forest_packing,
    color_iterated_baseline,
    color_packing,
    color_triangle_tree,
    combine_colorings,
    general_from_forest,
    pendant_two_path_count,
    pick_packing,
    project_coloring,
)
from rainbowline.errors import InputError, InvariantViolation, LimitError
from rainbowline.families import (
    bridged_triangle_chain,
    complete_graph,
    connected_gnp,
    cycle_graph,
    friendship_graph,
    gen_family,
    path_graph,
    petersen_graph,
    random_cubic,
    shared_vertex_triangle_chain,
    triangle_ring,
)
from rainbowline.graphs import Graph, build_graph, diameter
from rainbowline.linegraph import LineGraphResult, line_graph
from rainbowline.oracle import exact_rc, is_rainbow_connected
from rainbowline.triangles import (
    PACK_MODES,
    build_transformed,
    classify_structure,
    EdgeDetachStep,
    enumerate_triangles,
    pack_edge_disjoint,
    TransformResult,
    TransformTrace,
)

BOWTIE = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
K33 = build_graph(6, [(a, 3 + b) for a in range(3) for b in range(3)])


def part_subgraph_rainbow(l_graph: Graph, part: ColorPart) -> bool:
    """Verify a partial coloring on the edge-induced subgraph it covers."""
    sub = induced_by_edges(l_graph, part.edge_colors.keys())
    colors = tuple(part.edge_colors[old] for old in sub.edge_to_parent)
    ok, _ = is_rainbow_connected(EdgeColoring(sub.graph, colors, part.k))
    return ok


def tree_part(lg: LineGraphResult, tris) -> ColorPart:
    """``color_triangle_tree``'s star rules on ``lg.source``, spread over the
    L-edges of the stars they name."""
    rules, k = color_triangle_tree(tris)
    index = lg.l_graph.edge_index
    colors = {}
    for x, (s, a, b) in rules.items():
        for e, f in combinations(lg.source.incident_edges[x], 2):
            colors[index[e, f]] = a if s in (e, f) else b
    return ColorPart(colors, k)


class TestCombine:
    def test_offsets_palettes(self):
        g = path_graph(6)
        combined = combine_colorings(
            g,
            [
                ColorPart({0: 1, 1: 2}, 2),
                ColorPart({2: 1, 3: 3, 4: 2}, 3),
            ],
        )
        assert combined.colors == (1, 2, 3, 5, 4)
        assert combined.k == 5

    def test_single_part_identity(self):
        g = path_graph(3)
        combined = combine_colorings(g, [ColorPart({0: 1, 1: 2}, 2)])
        assert combined.colors == (1, 2) and combined.k == 2

    def test_path_of_singletons(self):
        g = path_graph(4)
        parts = [ColorPart({e: 1}, 1) for e in range(3)]
        combined = combine_colorings(g, parts)
        assert combined.k == 3
        assert is_rainbow_connected(combined)[0]

    def test_rejects_overlap(self):
        g = path_graph(3)
        with pytest.raises(InputError, match="more than one part"):
            combine_colorings(g, [ColorPart({0: 1, 1: 1}, 1), ColorPart({1: 1}, 1)])

    def test_rejects_uncovered(self):
        g = path_graph(3)
        with pytest.raises(InputError, match="not covered"):
            combine_colorings(g, [ColorPart({0: 1}, 1)])

    @pytest.mark.parametrize(
        "part, message",
        [
            (ColorPart({0: 1, 2: 1}, 1), "edge id 2 out of range"),
            (ColorPart({0: 1, 1: 3}, 2), "part color 3 outside its palette 1..2"),
        ],
    )
    def test_rejects_a_part_outside_its_ranges(self, part, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            combine_colorings(path_graph(3), [part])


class TestSingleTriangle:
    def test_bare_triangle(self):
        lg = line_graph(complete_graph(3))
        col = color_single_triangle(lg)
        assert col.k == 2
        assert is_rainbow_connected(col)[0]

    def test_pendant_at_each_corner(self):
        g = build_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 4), (2, 5)])
        lg = line_graph(g)
        col = color_single_triangle(lg)
        assert col.k == 2
        assert is_rainbow_connected(col)[0]

    def test_three_pendants_at_one_corner(self):
        g = build_graph(6, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (0, 5)])
        lg = line_graph(g)
        col = color_single_triangle(lg)
        assert is_rainbow_connected(col)[0]

    def test_rejects_two_triangles(self):
        with pytest.raises(InputError, match="exactly one triangle"):
            color_single_triangle(line_graph(BOWTIE))

    def test_rejects_non_pendant_extras(self):
        g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4)])
        with pytest.raises(InputError, match="pendant"):
            color_single_triangle(line_graph(g))


class TestTriangleTree:
    def test_single_triangle_two_colors(self):
        g = complete_graph(3)
        lg = line_graph(g)
        part = tree_part(lg, enumerate_triangles(g))
        assert part.k == 2
        assert part_subgraph_rainbow(lg.l_graph, part)

    def test_bowtie_three_colors(self):
        lg = line_graph(BOWTIE)
        part = tree_part(lg, enumerate_triangles(BOWTIE))
        assert part.k == 3
        assert part_subgraph_rainbow(lg.l_graph, part)

    def test_chain_of_five(self):
        # five triangles glued corner to corner in a path
        edges = []
        for i in range(5):
            a, b, c = 2 * i, 2 * i + 1, 2 * i + 2
            edges += [(a, b), (a, c), (b, c)]
        g = build_graph(11, edges)
        lg = line_graph(g)
        part = tree_part(lg, enumerate_triangles(g))
        assert part.k == 6
        assert part_subgraph_rainbow(lg.l_graph, part)

    def test_rejects_cycle_structure(self):
        g = triangle_ring(3)
        tris = [t for t in enumerate_triangles(g) if t.vertices != (0, 1, 2)]
        with pytest.raises(InvariantViolation, match="no leaf triangle"):
            tree_part(line_graph(g), tris)

    def test_rejects_two_components(self):
        # a bowtie plus a triangle hanging off it by a bridge
        g = build_graph(
            8, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)]
        )
        with pytest.raises(InvariantViolation, match="no leaf triangle"):
            tree_part(line_graph(g), enumerate_triangles(g))


class TestForestPackingBound:
    @pytest.mark.parametrize("t", [2, 3])
    def test_triangle_chain_sharp(self, t):
        g = bridged_triangle_chain(t)
        col, cert = color_forest_packing(g, pack_edge_disjoint(g, "forest_exact"))
        assert cert.bound_value == 2 * t == cert.colors_used
        assert cert.verified
        assert diameter(col.graph) == 2 * t

    def test_triangle_free_uses_inner_count(self):
        g = cycle_graph(5)
        col, cert = color_forest_packing(g, pack_edge_disjoint(g, "forest_exact"))
        assert cert.colors_used == g.n2 == 5
        assert cert.verified

    def test_bowtie(self):
        col, cert = color_forest_packing(BOWTIE, pack_edge_disjoint(BOWTIE, "forest_exact"))
        assert cert.colors_used <= 3 and cert.verified

    def test_rejects_non_forest_packing(self):
        g = triangle_ring(3)
        tris = [t for t in enumerate_triangles(g) if t.vertices != (0, 1, 2)]
        with pytest.raises(InputError, match="forest"):
            color_forest_packing(g, classify_structure(g, tris))

    def test_rejects_trivial_line_graph(self):
        with pytest.raises(InputError, match="trivial"):
            color_forest_packing(path_graph(2), pack_edge_disjoint(path_graph(2), "greedy"))


class TestGeneralPackingBound:
    @pytest.mark.parametrize("k", [2, 4])
    def test_shared_chain_sharp(self, k):
        g = shared_vertex_triangle_chain(k)
        col, cert = color_packing(g, pack_edge_disjoint(g, "exact"))
        assert cert.bound_value == k + 1 == cert.colors_used
        assert cert.verified
        assert diameter(col.graph) == k + 1

    def test_ring3(self):
        g = triangle_ring(3)
        p = pack_edge_disjoint(g, "exact")
        col, cert = color_packing(g, p)
        assert cert.bound_value == 4 and cert.verified

    def test_unflattened_structure_is_invariant_violation(self, monkeypatch):
        """The flattened structure is not classified again, so a component
        that is still a cycle fails when its stars are colored."""
        g = triangle_ring(3)
        p = pack_edge_disjoint(g, "exact")
        assert p.op == 1
        unflattened = TransformResult(TransformTrace(source=g, steps=()), p.triangles)
        monkeypatch.setattr("rainbowline.coloring.build_transformed", lambda *args: unflattened)
        with pytest.raises(InvariantViolation, match="no leaf triangle"):
            color_packing(g, p)

    def test_bound_identity_on_forest(self):
        # t + n2' + c equals n2 + op - t when op = 0
        g = BOWTIE
        p = pack_edge_disjoint(g, "forest_exact")
        n2 = g.n2
        assert p.t + p.n2_prime + p.c == n2 + p.op - p.t

    @pytest.mark.parametrize("seed", range(12))
    def test_bound_identity_random(self, seed):
        g = sample_gnp(seed)
        p = pack_edge_disjoint(g, "greedy")
        n2 = g.n2
        assert p.t + p.n2_prime + p.c == n2 + p.op - p.t


class TestCertify:
    def test_construction_verifies_once_on_its_line_graph(self, monkeypatch):
        g = BOWTIE
        packing = pack_edge_disjoint(g, "greedy")
        col, cert = color_packing(g, packing)
        calls = []
        check = oracle.is_rainbow_connected

        def counted(c):
            calls.append(c.graph)
            return check(c)

        monkeypatch.setattr(oracle, "is_rainbow_connected", counted)
        assert _construct(g, packing) == (col, cert)
        assert calls == [line_graph(g).l_graph]

    def test_over_cap_palette_refused_before_its_line_graph(self, monkeypatch):
        """Each bound fixes its palette from G and the packing, so a palette
        over the verifier's cap is refused before the line graph it would
        color is built: the iterated bound builds L(G) and nothing after it,
        and theorem 32 builds no line graph at all."""
        built = []

        def recorded(g):
            built.append(g)
            return line_graph(g)

        monkeypatch.setattr("rainbowline.coloring.line_graph", recorded)
        monkeypatch.setattr("rainbowline.linegraph.line_graph", recorded)
        k30 = complete_graph(30)
        with pytest.raises(LimitError, match="^palette of 435 colors exceeds the search cap 64$"):
            color(k30, "iterated")
        assert built == [k30]
        built.clear()
        with pytest.raises(LimitError, match="^palette of 68 colors exceeds the search cap 64$"):
            color(connected_gnp(80, 0.12, 3), "32")
        assert built == []

    @pytest.mark.parametrize("theorem", ["31", "32"])
    def test_colors_used_counts_the_colors_that_appear(self, theorem):
        """L(K3)'s one triangle gives out a palette of two colors, yet every
        pair of L(K3) lands on a vertex whose special edge it holds, so one
        color appears."""
        run = color(complete_graph(3), theorem)
        assert (run.coloring.colors, run.coloring.k) == ((1, 1, 1), 2)
        assert run.certificate.colors_used == 1 and run.certificate.verified


class TestIterated:
    def test_cubic_k4(self):
        col, cert = color_cubic_iterated(complete_graph(4))
        assert cert.bound_value == 5 and cert.colors_used <= 5 and cert.verified

    def test_cubic_k33(self):
        col, cert = color_cubic_iterated(K33)
        assert cert.bound_value == 7 and cert.verified

    def test_cubic_rejects_non_cubic(self):
        with pytest.raises(InputError, match="degree exactly 3"):
            color_cubic_iterated(path_graph(4))

    def test_baseline_path6_exact(self):
        col, cert = color_iterated_baseline(path_graph(6))
        assert cert.colors_used == 3 == cert.bound_value
        assert cert.verified
        assert exact_rc(col.graph) == 3

    def test_baseline_cycle4_strict(self):
        col, cert = color_iterated_baseline(cycle_graph(4))
        assert cert.colors_used == 4 and cert.verified
        assert exact_rc(col.graph) == 2

    def test_baseline_claw_strict(self):
        claw = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        assert pendant_two_path_count(claw) == 0
        col, cert = color_iterated_baseline(claw)
        assert cert.colors_used == 3 and cert.verified
        assert exact_rc(col.graph) == 1

    def test_baseline_refuses_a_line_graph_past_the_iterate_cap(self):
        # L(G) of a 700-leaf star is K700; m - m1 = 700 would fail the
        # palette cap too, but only after L(G) was built
        star = build_graph(701, [(0, leaf) for leaf in range(1, 701)])
        message = "iteration 1: line graph would have 244650 edges, cap 200000"
        with pytest.raises(LimitError, match=f"^{re.escape(message)}$"):
            color(star, "iterated")

    def test_baseline_rejects_trivial_square(self):
        with pytest.raises(InputError):
            color_iterated_baseline(path_graph(3))

    def test_pendant_path_counts(self):
        assert pendant_two_path_count(path_graph(6)) == 2
        assert pendant_two_path_count(cycle_graph(4)) == 0
        spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        assert pendant_two_path_count(spider) == 3

    @pytest.mark.parametrize(
        "g, message",
        [
            (build_graph(1, []), "iteration 1: graph has no edges"),
            (path_graph(2), "iteration 2: graph has no edges"),
            (path_graph(3), "twice-iterated line graph is trivial"),
            (build_graph(4, [(0, 1), (2, 3)]), "graph must be connected"),
        ],
    )
    def test_baseline_input_messages(self, g, message):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            color_iterated_baseline(g)

    def test_baseline_matches_hand_built_reference(self, monkeypatch):
        # m - m1 is the t + n2' + c bound of L(G) with no triangles, so the
        # one construction must give the hand-built coloring and certificate
        graphs = [
            *(g for g in connected_graphs_up_to(7) if line_graph(g).l_graph.m >= 2),
            *(connected_gnp(n, p, s) for n in (6, 10, 15, 25) for p in (0.2, 0.4) for s in range(1, 8)),
            *(path_graph(n) for n in (4, 20, 40, 60)),
            *(random_cubic(n, s) for n in (8, 12, 20) for s in (1, 2)),
            gen_family("example31", t=4),
            gen_family("example32", k=6),
            triangle_ring(5),
            friendship_graph(4),
        ]
        assert len(graphs) >= 199
        capped = 0
        for g in graphs:
            ref_col, ref_lg, bound = hand_built_iterated_baseline(g)
            try:
                got = color_iterated_baseline(g)
            except LimitError:
                # palette over the verifier's cap: compare the coloring and
                # the certificate with the cap and the verifier stubbed
                assert bound > oracle.DEFAULT_COLOR_CAP
                palettes, verified = [], []

                def verify(col):
                    verified.append(col)
                    return False, None

                with monkeypatch.context() as patch:
                    patch.setattr(oracle, "check_palette", palettes.append)
                    patch.setattr(oracle, "is_rainbow_connected", verify)
                    got = color_iterated_baseline(g)
                assert palettes == [bound]
                assert verified == [ref_col] and ref_col.graph == ref_lg.l_graph
                assert got == (ref_col, ColoringCertificate("m - m1", bound, bound, False))
                capped += 1
                continue
            # the certificate the hand-built coloring earns: verified, m - m1 colors
            assert got == (ref_col, ColoringCertificate("m - m1", bound, bound, True))
        assert capped < len(graphs) // 10


class TestProjection:
    def test_empty_trace_is_identity(self):
        g = BOWTIE
        lg = line_graph(g)
        col = EdgeColoring(lg.l_graph, tuple(range(1, lg.l_graph.m + 1)), lg.l_graph.m)
        out = project_coloring(TransformTrace(source=g, steps=()), col)
        assert out == col

    def test_detach_projection_verifies(self):
        g = complete_graph(4)
        g2, step = detach_edge(g, 0)
        trace = TransformTrace(source=g, steps=(step,))
        lg2 = line_graph(g2)
        distinct = EdgeColoring(lg2.l_graph, tuple(range(1, lg2.l_graph.m + 1)), lg2.l_graph.m)
        projected = project_coloring(trace, distinct)
        assert projected.graph == line_graph(g).l_graph
        assert is_rainbow_connected(projected)[0]

    def test_split_projection_verifies(self):
        t1, t2 = enumerate_triangles(BOWTIE)
        g2, step = split_vertex(BOWTIE, 0, [t1], [t2])
        trace = TransformTrace(source=BOWTIE, steps=(step,))
        lg2 = line_graph(g2)
        # distinct colors avoiding the fill color 1, so every component of the
        # split line graph is rainbow and cross pairs survive projection
        m2 = lg2.l_graph.m
        split_col = EdgeColoring(lg2.l_graph, tuple(range(2, m2 + 2)), m2 + 1)
        projected = project_coloring(trace, split_col)
        assert projected.graph == line_graph(BOWTIE).l_graph
        assert is_rainbow_connected(projected)[0]

    @pytest.mark.parametrize("g", [BOWTIE, triangle_ring(3), complete_graph(6)], ids=["bowtie", "ring3", "k6"])
    def test_source_coloring_on_split_trace_is_input_error(self, g):
        """A coloring of L(source) is not one of L(final) once a split cut
        some pair, whether or not a detach added vertices (K6's does)."""
        packing = pack_edge_disjoint(g, "exact")
        if g is BOWTIE:
            t1, t2 = packing.triangles
            trace = TransformTrace(source=g, steps=(split_vertex(g, 0, [t1], [t2])[1],))
        else:
            trace = build_transformed(g, packing).trace
        assert trace.split_count > 0
        lg = line_graph(g).l_graph
        col = EdgeColoring(lg, tuple(range(1, lg.m + 1)), lg.m)
        with pytest.raises(InputError, match="does not match the line graph"):
            project_coloring(trace, col)
        # same vertex and edge counts as L(final), but other edges
        final = line_graph(replay_trace(trace)).l_graph
        shifted = build_graph(final.n, [((a + 1) % final.n, (b + 1) % final.n) for a, b in final.edges])
        assert set(shifted.edges) != set(final.edges)
        with pytest.raises(InputError, match="does not match the line graph"):
            project_coloring(trace, EdgeColoring(shifted, (1,) * shifted.m, 1))
        assert project_coloring(trace, EdgeColoring(final, (1,) * final.m, 1)).graph == lg


def _random_coloring(g: Graph, rng: random.Random) -> EdgeColoring:
    """Random coloring of L(g) from a palette of 2..6 colors."""
    lg = line_graph(g).l_graph
    k = rng.randint(2, 6)
    return EdgeColoring(lg, tuple(rng.randint(1, k) for _ in range(lg.m)), k)


def _renamed_pair_fates(trace: TransformTrace) -> tuple[int, int]:
    """Follow every L(source) pair through the trace's replayed graphs,
    renaming an edge when a detach at the pair's vertex gives it a new id
    there. Returns how many pairs with a renamed end still meet in the final
    graph, and how many a later split separates."""
    kept = cut = 0
    graphs = replay_graphs(trace)
    for f, h in line_graph(trace.source).l_graph.edges:
        pair = [f, h]
        (y,) = set(trace.source.edges[f]) & set(trace.source.edges[h])
        renamed = False
        for step, g_after in zip(trace.steps, graphs[1:]):
            if isinstance(step, EdgeDetachStep) and step.v == y and step.edge in pair:
                pair[pair.index(step.edge)] = step.new_edge
                renamed = True
            shared = set(g_after.edges[pair[0]]) & set(g_after.edges[pair[1]])
            if not shared:
                cut += renamed
                break
            (y,) = shared
        else:
            kept += renamed
    return kept, cut


def _assert_matches_pull_back(trace: TransformTrace, seed: int) -> None:
    col = _random_coloring(replay_trace(trace), random.Random(seed))
    assert project_coloring(trace, col) == pull_back(trace, col, line_graph(trace.source))


class TestProjectionMatchesPullBack:
    """``project_coloring`` against ``helpers.pull_back``, which replays each
    flattened vertex's origin and reads the flattened graph's edges."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("mode", PACK_MODES)
    def test_build_transformed_traces(self, seed, mode):
        g = sample_gnp(seed)
        _assert_matches_pull_back(build_transformed(g, pack_edge_disjoint(g, mode)).trace, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_cubic_star_packing_traces(self, seed):
        trace = build_transformed(*cubic_star_packing(8 + 2 * seed, seed)).trace
        assert trace.split_count > 0
        _assert_matches_pull_back(trace, seed)

    @pytest.mark.parametrize("seed", range(30))
    @pytest.mark.parametrize("mode", ["greedy", "forest_greedy"])
    def test_dense_traces(self, seed, mode):
        """Dense graphs, whose traces split vertices that a detach touched."""
        g = dense_gnp(seed)
        _assert_matches_pull_back(build_transformed(g, pack_edge_disjoint(g, mode)).trace, seed)

    def test_dense_trace_coverage(self):
        """The traces of ``test_dense_traces`` split vertices at an end of an
        earlier detach, and a split separates pairs with a renamed end."""
        at_detach = kept = cut = 0
        for seed in range(30):
            g = dense_gnp(seed)
            for mode in ("greedy", "forest_greedy"):
                trace = build_transformed(g, pack_edge_disjoint(g, mode)).trace
                detaches = trace.steps[: len(trace.steps) - trace.split_count]
                ends = {x for step in detaches for x in trace.source.edges[step.edge]}
                at_detach += sum(step.vertex in ends for step in trace.steps[len(detaches) :])
                fates = _renamed_pair_fates(trace)
                kept += fates[0]
                cut += fates[1]
        assert at_detach >= 50
        assert kept >= 1000 and cut >= 10

    def test_trace_coverage(self):
        """The traces of ``test_build_transformed_traces`` reach every case
        the landing distinguishes: pairs with an end a detach renamed keep an
        L(final) color, or a later split separates them and they get color 1."""
        kept = cut = splits = detaches = 0
        for seed in range(12):
            g = sample_gnp(seed)
            for mode in PACK_MODES:
                trace = build_transformed(g, pack_edge_disjoint(g, mode)).trace
                fates = _renamed_pair_fates(trace)
                kept += fates[0]
                cut += fates[1]
                splits += trace.split_count
                detaches += len(trace.steps) - trace.split_count
        assert kept >= 100 and cut >= 5
        assert splits >= 5 and detaches >= 20


def _assert_matches_recursion(g: Graph, packing) -> None:
    result = build_transformed(g, packing)
    final = replay_trace(result.trace)
    flat = classify_structure(final, result.triangles)
    lg = line_graph(final)
    for comp in flat.components:
        tris = [flat.triangles[i] for i in comp]
        part = tree_part(lg, tris)
        assert part == recursive_tree_assignment(lg, tris)[0]
        assert part.k == len(tris) + 1


class TestTreeColoringMatchesRecursion:
    """``color_triangle_tree`` against ``helpers.recursive_tree_assignment``
    on every forest component of the flattened structure, one case per
    instance, so a failure names its graph; ``TestConstructMatchesReference``
    runs the same reference through ``part_by_part_construction``."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("mode", PACK_MODES)
    def test_gnp_packings(self, seed, mode):
        g = sample_gnp(seed)
        _assert_matches_recursion(g, pack_edge_disjoint(g, mode))

    @pytest.mark.parametrize("seed", range(4))
    def test_cubic_star_packings(self, seed):
        _assert_matches_recursion(*cubic_star_packing(8 + 2 * seed, seed))

    @pytest.mark.parametrize("k", [2, 3, 5, 12])
    def test_example32(self, k):
        g = gen_family("example32", k=k)
        _assert_matches_recursion(g, pack_edge_disjoint(g, "greedy"))

    @pytest.mark.parametrize("r", range(3, 64))
    def test_triangle_ring(self, r):
        g = triangle_ring(r)
        _assert_matches_recursion(g, pack_edge_disjoint(g, "greedy"))

    @pytest.mark.parametrize("f", range(1, 7))
    def test_friendship(self, f):
        g = friendship_graph(f)
        _assert_matches_recursion(g, pack_edge_disjoint(g, "greedy"))


class TestConstructMatchesReference:
    def test_star_rules_match_part_by_part(self, monkeypatch):
        """``_construct`` gives ``helpers.part_by_part_construction``'s
        coloring, whose forest components are colored by
        ``recursive_tree_assignment``. Some components peel a triangle below
        one peeled earlier, so the leaf queue takes in new leaves out of
        order."""
        # the verifier is not under test here
        monkeypatch.setattr(oracle, "is_rainbow_connected", lambda col: (True, None))
        peel_orders = []

        def recorded(lg, tris):
            part, peeled = recursive_tree_assignment(lg, tris)
            peel_orders.append(peeled)
            return part, peeled

        monkeypatch.setattr(helpers, "recursive_tree_assignment", recorded)
        count = splits = 0
        for g, packing in construct_instances():
            col, _ = _construct(g, packing)
            assert col == part_by_part_construction(g, packing)
            count += 1
            splits += packing.op > 0
        assert count >= 1099
        assert splits >= 200
        assert sum(peeled != sorted(peeled) for peeled in peel_orders) >= 3

    def test_chord_detach_changes_no_color(self, monkeypatch):
        """With every detach dropped from ``TransformTrace.moved_ends`` (the
        entries that change an edge id), ``_construct`` colors every instance
        as before: a chord is never a special edge, and both ends of a pair
        holding it land on one final vertex either way."""
        # the verifier is not under test here
        monkeypatch.setattr(oracle, "is_rainbow_connected", lambda col: (True, None))
        instances = list(construct_instances())
        before = [_construct(g, packing)[0] for g, packing in instances]
        moved_ends = TransformTrace.moved_ends
        dropped = []

        def without_detaches(trace):
            moved = moved_ends(trace)
            kept = {end: to for end, to in moved.items() if to[0] == end[0]}
            dropped.append(len(moved) > len(kept))
            return kept

        monkeypatch.setattr(TransformTrace, "moved_ends", without_detaches)
        for (g, packing), col in zip(instances, before):
            assert _construct(g, packing)[0] == col
        assert len(dropped) == len(instances) >= 1099
        assert sum(dropped) >= 390


class TestEnsemble:
    @pytest.mark.parametrize("seed", range(30))
    def test_both_pipelines_verify(self, seed):
        g = connected_gnp(5 + seed % 5, 0.3 if seed % 2 else 0.5, seed=4000 + seed)
        n2 = g.n2
        run1 = color(g, "31")
        p1, col1, cert1 = run1.packing, run1.coloring, run1.certificate
        assert cert1.verified
        assert cert1.colors_used <= n2 - p1.t
        assert diameter(col1.graph) <= cert1.colors_used
        run2 = color(g, "32")
        p2, col2, cert2 = run2.packing, run2.coloring, run2.certificate
        assert cert2.verified
        assert cert2.colors_used <= p2.t + p2.n2_prime + p2.c
        assert cert2.colors_used <= n2 + p2.op - p2.t
        assert diameter(col2.graph) <= cert2.colors_used


_BACK_ENDS = {
    "31": color_forest_packing,
    "32": color_packing,
    "cubic": lambda g, packing: color_cubic_iterated(g),
    "iterated": lambda g, packing: color_iterated_baseline(g),
}


class TestColorEntryPoint:
    @pytest.mark.parametrize(
        "theorem, make, mode",
        [
            ("31", partial(gen_family, "example31", t=3), "forest_exact"),
            ("31", partial(gen_family, "triangle_ring", r=5), "forest_exact"),
            ("32", partial(gen_family, "example32", k=4), "exact"),
            ("32", partial(gen_family, "triangle_ring", r=5), "exact"),
            ("32", partial(gen_family, "example31", t=3), "greedy"),
            ("31", partial(gen_family, "example32", k=4), "forest_greedy"),
            ("cubic", partial(random_cubic, 8, 1), None),
            ("iterated", partial(path_graph, 6), None),
        ],
    )
    def test_run_matches_back_end(self, theorem, make, mode):
        """The run equals its back end called on the same packing; ``mode``
        is the default, or a requested one where it is not. The graphs are
        built in the test, so a sampler fault fails these tests, not the
        collection of the module."""
        g = make()
        requested = None if mode in (None, "forest_exact", "exact") else mode
        run = color(g, theorem, requested)
        packing = None if mode is None else pack_edge_disjoint(g, mode)
        assert run.mode == mode
        assert run.packing == packing
        assert (run.coloring, run.certificate) == _BACK_ENDS[theorem](g, packing)
        assert run.certificate.verified

    @pytest.mark.parametrize(
        "theorem, mode, t, colors", [("31", "forest_greedy", 4, 5), ("32", "greedy", 8, 9)]
    )
    def test_falls_back_to_greedy_past_the_exact_cap(self, theorem, mode, t, colors):
        g = complete_graph(9)  # 84 triangles, over the exact search's cap of 24
        run = color(g, theorem)
        assert (run.mode, run.packing.t, run.certificate.colors_used) == (mode, t, colors)
        assert run.packing == pack_edge_disjoint(g, mode)
        assert run.certificate.verified

    @pytest.mark.parametrize(
        "theorem, g",
        [
            ("31", gen_family("triangle_ring", r=5)),
            ("32", gen_family("triangle_ring", r=5)),
            ("31", sample_gnp(15)),  # the greedy fallback picks other triangles
            ("32", sample_gnp(15)),
            ("31", complete_graph(9)),  # the exact mode trips its cap, then greedy
            ("32", complete_graph(9)),
        ],
    )
    def test_packs_only_what_it_returns(self, monkeypatch, theorem, g):
        """``color`` picks the exact mode and its fallback from one
        enumeration and classifies only the returned pick, also when the
        two picks differ or the exact mode trips its cap."""
        expected = color(g, theorem)
        enumerated, classified = count_packing_work(monkeypatch)
        run = color(g, theorem)
        assert run == expected
        assert len(enumerated) == 1 and enumerated[0] is g
        assert classified == [(g, run.packing.triangles)]

    @pytest.mark.parametrize("theorem, pack", [("31", "forest_exact"), ("32", "exact")])
    def test_requested_exact_mode_raises_past_the_cap(self, theorem, pack):
        with pytest.raises(LimitError, match="exact packing capped at 24 triangles"):
            color(complete_graph(9), theorem, pack)

    @pytest.mark.parametrize("theorem", ["cubic", "iterated"])
    def test_pack_with_an_iterated_theorem_is_an_input_error(self, theorem):
        with pytest.raises(InputError, match=f"theorem {theorem} takes no packing"):
            color(random_cubic(8, 1), theorem, "greedy")

    def test_unknown_theorem_is_an_input_error(self):
        with pytest.raises(InputError, match="unknown theorem '33'"):
            color(BOWTIE, "33")


class TestGeneralFromForest:
    """``general_from_forest`` is theorem 32's run without a second
    construction when both theorems pick the same packing."""

    def test_equals_the_general_run(self):
        shared = 0
        graphs = [connected_gnp(n, 0.4, seed) for n in (6, 7, 8) for seed in range(1, 11)]
        graphs += [gen_family("example31", t=3), gen_family("friendship", f=4), BOWTIE]
        for g in graphs:
            forest, general = color(g, "31"), color(g, "32")
            assert pick_packing(g, "32") == (general.packing, general.mode)
            if general.packing != forest.packing:
                continue
            shared += 1
            run = general_from_forest(forest, general.mode)
            assert run == general
            assert run.certificate.bound_name == "t + n2' + c"
            assert run.coloring is forest.coloring
        assert shared >= 10

    def test_a_bound_mismatch_is_an_invariant_violation(self):
        forest = color(BOWTIE, "31")
        cert = replace(forest.certificate, bound_value=forest.certificate.bound_value + 1)
        with pytest.raises(InvariantViolation, match=r"differs from the certified n2 - t = \d+$"):
            general_from_forest(replace(forest, certificate=cert), "exact")


class TestRestate:
    """The forest, cubic and iterated back ends and ``general_from_forest``
    restate Theorem 3.2's certificate: each gives ``_construct``'s coloring
    and certificate on the same graph and packing, but for the bound's name."""

    @staticmethod
    def _assert_restates(g, packing, got, name):
        col, cert = _construct(g, packing)
        assert got == (col, replace(cert, bound_name=name))

    def test_forest_and_general_from_forest(self, monkeypatch):
        # each coloring is verified once: the back ends verify what
        # _construct does, and the verifier is not under test here
        monkeypatch.setattr(oracle, "is_rainbow_connected", cache(oracle.is_rainbow_connected))
        count = 0
        for g, packing in construct_instances():
            if not packing.all_forest:
                continue
            col, cert = _construct(g, packing)
            forest = Run(packing, "exact", *color_forest_packing(g, packing))
            assert (forest.coloring, forest.certificate) == (col, replace(cert, bound_name="n2 - t"))
            assert general_from_forest(forest, "exact") == Run(packing, "exact", col, cert)
            count += 1
        assert count >= 890

    @pytest.mark.parametrize(
        "make",
        [partial(complete_graph, 4), lambda: K33, petersen_graph,
         *(partial(random_cubic, n, s) for n in (8, 12, 20) for s in (1, 2))],
        ids=["k4", "k33", "petersen", *(f"cubic{n}-s{s}" for n in (8, 12, 20) for s in (1, 2))],
    )
    def test_cubic(self, make):
        """Built in the test, so a sampler fault fails it, not the
        collection of the module."""
        g = make()
        self._assert_restates(*star_packing(g), color_cubic_iterated(g), "n + 1")

    @pytest.mark.parametrize("n", [4, 5, 6, 20, 40, 60])
    def test_iterated(self, n):
        lg = line_graph(path_graph(n)).l_graph
        self._assert_restates(lg, classify_structure(lg, ()), color_iterated_baseline(path_graph(n)), "m - m1")

    def test_a_mismatched_value_raises(self):
        _, cert = color_packing(BOWTIE, pack_edge_disjoint(BOWTIE, "exact"))
        assert _restate(cert, "n2 - t", cert.bound_value) == replace(cert, bound_name="n2 - t")
        for value in (cert.bound_value - 1, cert.bound_value + 1):
            message = f"n2 - t = {value} differs from the certified t + n2' + c = {cert.bound_value}"
            with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
                _restate(cert, "n2 - t", value)
