import random
import re
from itertools import combinations

import pytest

from helpers import (
    color_single_triangle,
    connected_graphs_up_to,
    detach_edge,
    hand_built_iterated_baseline,
    induced_by_edges,
    part_by_part_construction,
    recursive_tree_assignment,
    replay_graphs,
    split_vertex,
    stepwise_project_coloring,
)
from rainbowline import oracle
from rainbowline.coloring import (
    ColorPart,
    ColoringCertificate,
    EdgeColoring,
    _certify,
    _construct,
    color,
    color_cubic_iterated,
    color_forest_packing,
    color_iterated_baseline,
    color_packing,
    color_triangle_tree,
    combine_colorings,
    pendant_two_path_count,
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
    random_cubic,
    shared_vertex_triangle_chain,
    triangle_ring,
)
from rainbowline.graphs import Graph, build_graph, degree_profile, diameter
from rainbowline.linegraph import LineGraphResult, line_graph
from rainbowline.oracle import exact_rc, is_rainbow_connected
from rainbowline.triangles import (
    PACK_MODES,
    build_transformed,
    classify_structure,
    EdgeDetachStep,
    enumerate_triangles,
    make_triangle,
    pack_edge_disjoint,
    TransformResult,
    TransformTrace,
    VertexSplitStep,
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
    rules, k = color_triangle_tree(lg.source, tris)
    index = lg.l_graph.edge_index
    colors = {}
    for x, (s, a, b) in rules.items():
        for e, f in combinations(lg.star_of[x], 2):
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
        assert cert.colors_used == degree_profile(g).n2 == 5
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
        unflattened = TransformResult(TransformTrace(source=g, steps=(), final_graph=g), p.triangles)
        monkeypatch.setattr("rainbowline.coloring.build_transformed", lambda *args: unflattened)
        with pytest.raises(InvariantViolation, match="no leaf triangle"):
            color_packing(g, p)

    def test_bound_identity_on_forest(self):
        # t + n2' + c equals n2 + op - t when op = 0
        g = BOWTIE
        p = pack_edge_disjoint(g, "forest_exact")
        n2 = degree_profile(g).n2
        assert p.t + p.n2_prime + p.c == n2 + p.op - p.t

    @pytest.mark.parametrize("seed", range(12))
    def test_bound_identity_random(self, seed):
        g = connected_gnp(5 + seed % 4, 0.5, seed=7000 + seed)
        p = pack_edge_disjoint(g, "greedy")
        n2 = degree_profile(g).n2
        assert p.t + p.n2_prime + p.c == n2 + p.op - p.t


class TestCertify:
    def test_mismatched_target_raises_before_verifying(self, monkeypatch):
        g = BOWTIE
        col, cert = color_packing(g, pack_edge_disjoint(g, "greedy"))
        lg = line_graph(g)
        calls = []
        check = oracle.is_rainbow_connected

        def counted(c):
            calls.append(c.graph)
            return check(c)

        monkeypatch.setattr(oracle, "is_rainbow_connected", counted)
        with pytest.raises(InvariantViolation, match="certificate target"):
            _certify(path_graph(5), lg, col, cert.bound_name, cert.bound_value)
        with pytest.raises(InvariantViolation, match="certificate target"):
            _certify(g, line_graph(path_graph(5)), col, cert.bound_name, cert.bound_value)
        assert calls == []
        assert _certify(g, lg, col, cert.bound_name, cert.bound_value) == cert
        assert calls == [lg.l_graph]


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
                # the certificate's inputs with certification stubbed
                assert bound > oracle.DEFAULT_COLOR_CAP
                with monkeypatch.context() as patch:
                    patch.setattr("rainbowline.coloring._certify", lambda *args: args)
                    got = color_iterated_baseline(g)
                assert got == (ref_col, (ref_lg.source, ref_lg, ref_col, "m - m1", bound))
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
        out = project_coloring(TransformTrace(source=g, steps=(), final_graph=g), col)
        assert out == col

    def test_detach_projection_verifies(self):
        g = complete_graph(4)
        g2, step = detach_edge(g, 0)
        trace = TransformTrace(source=g, steps=(step,), final_graph=g2)
        lg2 = line_graph(g2)
        distinct = EdgeColoring(lg2.l_graph, tuple(range(1, lg2.l_graph.m + 1)), lg2.l_graph.m)
        projected = project_coloring(trace, distinct)
        assert projected.graph == line_graph(g).l_graph
        assert is_rainbow_connected(projected)[0]

    def test_split_projection_verifies(self):
        t1, t2 = enumerate_triangles(BOWTIE)
        g2, step = split_vertex(BOWTIE, 0, [t1], [t2])
        trace = TransformTrace(source=BOWTIE, steps=(step,), final_graph=g2)
        lg2 = line_graph(g2)
        # distinct colors avoiding the fill color 1, so every component of the
        # split line graph is rainbow and cross pairs survive projection
        m2 = lg2.l_graph.m
        split_col = EdgeColoring(lg2.l_graph, tuple(range(2, m2 + 2)), m2 + 1)
        projected = project_coloring(trace, split_col)
        assert projected.graph == line_graph(BOWTIE).l_graph
        assert is_rainbow_connected(projected)[0]


def _random_coloring(g: Graph, rng: random.Random) -> EdgeColoring:
    """Random coloring of L(g) from a palette of 2..6 colors."""
    lg = line_graph(g).l_graph
    k = rng.randint(2, 6)
    return EdgeColoring(lg, tuple(rng.randint(1, k) for _ in range(lg.m)), k)


def _random_split(g: Graph, rng: random.Random, at: list[int]):
    """Split a random vertex of ``at`` lying in two edge-disjoint triangles."""
    tris = enumerate_triangles(g)
    for v in rng.sample(at, len(at)):
        used: set[int] = set()
        disjoint = []
        for tri in rng.sample(tris, len(tris)):
            if v in tri.vertices and not used & set(tri.edge_ids):
                disjoint.append(tri)
                used.update(tri.edge_ids)
        if len(disjoint) >= 2:
            cut = rng.randint(1, len(disjoint) - 1)
            return split_vertex(g, v, disjoint[:cut], disjoint[cut:])
    return None


def _random_detach(g: Graph, rng: random.Random, at: list[int]):
    """Detach a random edge with an end in ``at`` and both ends of degree >= 2."""
    eligible = [
        eid
        for eid, (a, b) in enumerate(g.edges)
        if (a in at or b in at) and g.degree(a) >= 2 and g.degree(b) >= 2
    ]
    return detach_edge(g, rng.choice(eligible)) if eligible else None


def _mixed_trace(seed: int) -> TransformTrace:
    """Seeded random detach/split sequence. Steps prefer the vertex the
    previous step created or touched, so splits are followed by detaches at
    the split's new vertex and detaches by splits at the detached edge's ends."""
    rng = random.Random(seed)
    g = connected_gnp(7 + seed % 4, 0.6, seed=9000 + seed)
    cur = g
    steps = []
    focus = list(range(g.n))
    for _ in range(rng.randint(2, 8)):
        everywhere = list(range(cur.n))
        moves = [_random_split, _random_detach]
        rng.shuffle(moves)
        made = None
        for move in moves:
            made = move(cur, rng, focus) or move(cur, rng, everywhere)
            if made:
                break
        if made is None:
            break
        cur, step = made
        steps.append(step)
        if isinstance(step, VertexSplitStep):
            focus = [step.new_vertex] if rng.random() < 0.7 else everywhere
        else:
            focus = [step.u, step.v] if rng.random() < 0.7 else everywhere
    return TransformTrace(source=g, steps=tuple(steps), final_graph=cur)


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


def _assert_matches_stepwise(trace: TransformTrace, rng: random.Random) -> None:
    col = _random_coloring(trace.final_graph, rng)
    fast = project_coloring(trace, col)
    slow = stepwise_project_coloring(trace, col)
    assert fast.graph == slow.graph
    assert fast.k == slow.k
    assert fast.colors == slow.colors


class TestProjectionMatchesStepwise:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("mode", PACK_MODES)
    def test_build_transformed_traces(self, seed, mode):
        g = connected_gnp(8 + seed % 5, 0.45, seed=7000 + seed)
        result = build_transformed(g, pack_edge_disjoint(g, mode))
        _assert_matches_stepwise(result.trace, random.Random(seed))

    @pytest.mark.parametrize("seed", range(4))
    def test_cubic_star_packing_traces(self, seed):
        g = random_cubic(8 + 2 * seed, seed=seed)
        lg = line_graph(g)
        tris = [make_triangle(lg.l_graph, *lg.star_of[v]) for v in range(g.n)]
        result = build_transformed(lg.l_graph, classify_structure(lg.l_graph, tris))
        assert result.trace.split_count > 0
        _assert_matches_stepwise(result.trace, random.Random(seed))

    @pytest.mark.parametrize("seed", range(60))
    def test_mixed_traces(self, seed):
        _assert_matches_stepwise(_mixed_trace(seed), random.Random(seed))

    def test_trace_coverage(self):
        """The seeded traces reach every case the forward pass distinguishes."""
        split_then_detach = detach_then_split = 0
        for seed in range(60):
            steps = _mixed_trace(seed).steps
            for prev, step in zip(steps, steps[1:]):
                if isinstance(prev, VertexSplitStep) and not isinstance(step, VertexSplitStep):
                    split_then_detach += step.v == prev.new_vertex
                if not isinstance(prev, VertexSplitStep) and isinstance(step, VertexSplitStep):
                    detach_then_split += step.vertex in (prev.u, prev.v)
        assert split_then_detach >= 10
        assert detach_then_split >= 10
        # pairs with an end a detach renamed: some keep an L(final) color,
        # some are separated by a later split and get color 1
        fates = [_renamed_pair_fates(_mixed_trace(seed)) for seed in range(60)]
        assert sum(kept for kept, _ in fates) >= 10
        assert sum(cut for _, cut in fates) >= 10
        splits = detaches = 0
        for seed in range(12):
            g = connected_gnp(8 + seed % 5, 0.45, seed=7000 + seed)
            trace = build_transformed(g, pack_edge_disjoint(g, "greedy")).trace
            splits += trace.split_count
            detaches += len(trace.steps) - trace.split_count
        assert splits >= 5 and detaches >= 20


def _tree_components(g: Graph, packing) -> tuple:
    """L(final) and the triangle lists of the flattened structure's components."""
    result = build_transformed(g, packing)
    flat = classify_structure(result.graph, result.triangles)
    comps = [[flat.triangles[i] for i in comp] for comp in flat.components]
    return line_graph(result.graph), comps


def _cubic_star_packing(seed: int) -> tuple:
    g = random_cubic(8 + 2 * seed, seed=seed)
    lg = line_graph(g)
    tris = [make_triangle(lg.l_graph, *lg.star_of[v]) for v in range(g.n)]
    return lg.l_graph, classify_structure(lg.l_graph, tris)


def _tree_instances():
    for seed in range(12):
        g = connected_gnp(8 + seed % 5, 0.45, seed=7000 + seed)
        for mode in PACK_MODES:
            yield g, pack_edge_disjoint(g, mode)
    for seed in range(4):
        yield _cubic_star_packing(seed)
    for g in (
        [gen_family("example32", k=k) for k in (2, 3, 5, 12)]
        + [triangle_ring(r) for r in range(3, 64)]
        + [friendship_graph(f) for f in range(1, 7)]
    ):
        yield g, pack_edge_disjoint(g, "greedy")


def _assert_matches_recursion(g: Graph, packing) -> None:
    lg, comps = _tree_components(g, packing)
    for tris in comps:
        part = tree_part(lg, tris)
        reference, _ = recursive_tree_assignment(lg, tris)
        assert part == reference
        assert part.k == len(tris) + 1


class TestTreeColoringMatchesRecursion:
    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("mode", PACK_MODES)
    def test_gnp_packings(self, seed, mode):
        g = connected_gnp(8 + seed % 5, 0.45, seed=7000 + seed)
        _assert_matches_recursion(g, pack_edge_disjoint(g, mode))

    @pytest.mark.parametrize("seed", range(4))
    def test_cubic_star_packings(self, seed):
        _assert_matches_recursion(*_cubic_star_packing(seed))

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

    def test_peel_order_coverage(self):
        """Some components peel a triangle below one peeled earlier, so the
        leaf queue takes in new leaves out of order."""
        out_of_order = 0
        for g, packing in _tree_instances():
            lg, comps = _tree_components(g, packing)
            for tris in comps:
                _, peeled = recursive_tree_assignment(lg, tris)
                out_of_order += peeled != sorted(peeled)
        assert out_of_order >= 3


def _construct_instances():
    """(graph, packing) pairs: small graphs, gnp samples and the paper's
    families in every packing mode under the exact-search cap, then cubic
    star packings."""
    graphs = [
        *(g for g in connected_graphs_up_to(7) if g.m >= 2),
        *(
            connected_gnp(n, p, s)
            for n, p in ((8, 0.4), (10, 0.4), (15, 0.3), (25, 0.2), (40, 0.2), (60, 0.14))
            for s in range(1, 16)
        ),
        *(triangle_ring(r) for r in (3, 5, 8, 12)),
        *(friendship_graph(f) for f in (1, 3, 6)),
        *(gen_family("example31", t=t) for t in (2, 8)),
        *(gen_family("example32", k=k) for k in (2, 6, 12)),
        complete_graph(6),
        complete_graph(7),
    ]
    for g in graphs:
        for mode in PACK_MODES:
            try:
                yield g, pack_edge_disjoint(g, mode)
            except LimitError:
                pass
    for n in (8, 12, 20, 40):
        for seed in (1, 2, 3):
            lg = line_graph(random_cubic(n, seed))
            tris = [make_triangle(lg.l_graph, *lg.star_of[v]) for v in range(n)]
            yield lg.l_graph, classify_structure(lg.l_graph, tris)


class TestConstructMatchesReference:
    def test_star_rules_match_part_by_part(self, monkeypatch):
        # the verifier is not under test here
        monkeypatch.setattr("rainbowline.coloring._certify", lambda *args: None)
        count = splits = 0
        for g, packing in _construct_instances():
            col, _ = _construct(g, packing, "bound", 0)
            assert col == part_by_part_construction(g, packing)
            count += 1
            splits += packing.op > 0
        assert count >= 878
        assert splits >= 50


class TestEnsemble:
    @pytest.mark.parametrize("seed", range(30))
    def test_both_pipelines_verify(self, seed):
        g = connected_gnp(5 + seed % 5, 0.3 if seed % 2 else 0.5, seed=4000 + seed)
        n2 = degree_profile(g).n2
        try:
            p1 = pack_edge_disjoint(g, "forest_exact")
        except LimitError:
            p1 = pack_edge_disjoint(g, "forest_greedy")
        col1, cert1 = color_forest_packing(g, p1)
        assert cert1.verified
        assert cert1.colors_used <= n2 - p1.t
        assert diameter(col1.graph) <= cert1.colors_used
        try:
            p2 = pack_edge_disjoint(g, "exact")
        except LimitError:
            p2 = pack_edge_disjoint(g, "greedy")
        col2, cert2 = color_packing(g, p2)
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
        "theorem, g, mode",
        [
            ("31", gen_family("example31", t=3), "forest_exact"),
            ("31", gen_family("triangle_ring", r=5), "forest_exact"),
            ("32", gen_family("example32", k=4), "exact"),
            ("32", gen_family("triangle_ring", r=5), "exact"),
            ("32", gen_family("example31", t=3), "greedy"),
            ("31", gen_family("example32", k=4), "forest_greedy"),
            ("cubic", random_cubic(8, 1), None),
            ("iterated", path_graph(6), None),
        ],
    )
    def test_run_matches_back_end(self, theorem, g, mode):
        """The run equals its back end called on the same packing; ``mode``
        is the default, or a requested one where it is not."""
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
