import dataclasses
import re
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    canonical_form,
    connected_graphs_up_to,
    dense_gnp,
    pack_as_color,
    packing_gnp,
    sample_gnp,
    small_graphs,
    sweep_instances,
)
from helpers import (
    blocks_is_forest,
    brute_force_max_packing,
    comp_map_pack,
    components,
    detach_edge,
    reclassify_build_transformed,
    replay_graphs,
    replay_trace,
    split_vertex,
)
from rainbowline.coloring import color_packing
from rainbowline.errors import InputError, InvariantViolation, LimitError
from rainbowline.families import (
    bridged_triangle_chain,
    complete_graph,
    connected_gnp,
    cycle_graph,
    friendship_graph,
    path_graph,
    shared_vertex_triangle_chain,
    triangle_ring,
)
from rainbowline.graphs import build_graph, is_connected
from rainbowline.triangles import (
    DEFAULT_EXACT_CAP,
    PACK_MODES,
    EdgeDetachStep,
    Triangle,
    VertexSplitStep,
    build_transformed,
    classify_structure,
    enumerate_triangles,
    make_triangle,
    pack_edge_disjoint,
    pack_modes,
)

BOWTIE = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


class TestEnumerate:
    def test_k4(self):
        assert len(enumerate_triangles(complete_graph(4))) == 4

    def test_cycle_has_none(self):
        assert enumerate_triangles(cycle_graph(5)) == []

    def test_bowtie(self):
        tris = enumerate_triangles(BOWTIE)
        assert [t.vertices for t in tris] == [(0, 1, 2), (0, 3, 4)]


class TestPacking:
    def test_k4_exact_is_one(self):
        # any two triangles of K4 share an edge; brute force agrees
        tris = enumerate_triangles(complete_graph(4))
        assert brute_force_max_packing(complete_graph(4), tris) == 1
        assert pack_edge_disjoint(complete_graph(4), "exact").t == 1

    @pytest.mark.parametrize("mode", PACK_MODES)
    def test_triangle_chain(self, mode):
        p = pack_edge_disjoint(bridged_triangle_chain(3), mode)
        assert p.t == 3 and p.c == 3 and p.all_forest and p.op == 0

    @pytest.mark.parametrize("mode", PACK_MODES)
    def test_triangle_free(self, mode):
        p = pack_edge_disjoint(cycle_graph(5), mode)
        assert p.t == 0 and p.n2_prime == 5

    def test_exact_cap(self):
        # K7 has 35 triangles, over the default cap
        assert len(enumerate_triangles(complete_graph(7))) > DEFAULT_EXACT_CAP
        with pytest.raises(LimitError):
            pack_edge_disjoint(complete_graph(7), "exact")

    @pytest.mark.parametrize("mode", PACK_MODES)
    def test_matches_comp_map_search(self, mode):
        # the union-find forest test chooses exactly the triangles the
        # child-to-parent map did, in every mode
        graphs = [g for g in packing_gnp() if len(enumerate_triangles(g)) <= DEFAULT_EXACT_CAP]
        assert len(graphs) >= 50
        for g in graphs:
            assert pack_edge_disjoint(g, mode).triangles == comp_map_pack(g, mode)
        if mode.startswith("forest"):
            # the forest test rejects triangles the plain mode would take
            plain = mode.removeprefix("forest_")
            assert any(comp_map_pack(g, mode) != comp_map_pack(g, plain) for g in graphs)

    def test_exact_matches_brute_force(self):
        """Every connected graph with up to 7 edges and the gnp graphs with
        at most 10 triangles: a fixed set, so a search bug that shows on
        one of them fails every run."""
        gnp = [g for g in packing_gnp() if len(enumerate_triangles(g)) <= 10]
        graphs = [*connected_graphs_up_to(7), *gnp]
        assert len(graphs) == 173
        for g in graphs:
            tris = enumerate_triangles(g)
            assert pack_edge_disjoint(g, "exact").t == brute_force_max_packing(g, tris)

    @given(small_graphs(min_n=3))
    @settings(max_examples=40, deadline=None)
    def test_exact_at_least_greedy(self, g):
        assume(len(enumerate_triangles(g)) <= 12)
        assert pack_edge_disjoint(g, "exact").t >= pack_edge_disjoint(g, "greedy").t
        assert (
            pack_edge_disjoint(g, "forest_exact").t
            >= pack_edge_disjoint(g, "forest_greedy").t
        )

    @given(small_graphs(min_n=3), st.sampled_from(PACK_MODES))
    @settings(max_examples=60, deadline=None)
    def test_packing_is_edge_disjoint(self, g, mode):
        assume(len(enumerate_triangles(g)) <= 12)
        p = pack_edge_disjoint(g, mode)
        used = set()
        for tri in p.triangles:
            assert not used.intersection(tri.edge_ids)
            used.update(tri.edge_ids)
        if mode.startswith("forest"):
            assert p.all_forest


class TestPackModes:
    """``pack_modes`` gives each mode's ``pack_edge_disjoint`` result from
    one enumeration, ``None`` where that call raises ``LimitError``, and one
    shared packing per distinct triangle set."""

    GRAPHS = (
        *(sample_gnp(seed) for seed in range(48)),
        *(dense_gnp(seed) for seed in range(30)),
        complete_graph(7),  # 35 triangles, past the exact search's cap
    )

    def test_matches_pack_edge_disjoint(self):
        shared = capped = 0
        for g in self.GRAPHS:
            packings = pack_modes(g)
            assert list(packings) == list(PACK_MODES)
            for mode, packing in packings.items():
                try:
                    expected = pack_edge_disjoint(g, mode)
                except LimitError:
                    assert packing is None
                    capped += 1
                    continue
                assert packing == expected
            picked = [p for p in packings.values() if p is not None]
            for p, q in combinations(picked, 2):
                assert (p is q) == (p.triangles == q.triangles)
                shared += p is q
        # K7 and 25 dense graphs are past the cap in both exact modes
        assert capped == 2 * 26 and shared >= 100

    def test_subset_of_modes(self):
        g = dense_gnp(0)
        assert pack_modes(g, ("forest_greedy",)) == {"forest_greedy": pack_edge_disjoint(g, "forest_greedy")}
        assert pack_modes(g, ()) == {}

    def test_unknown_mode_is_an_input_error(self):
        with pytest.raises(InputError, match="unknown packing mode 'fastest'"):
            pack_modes(BOWTIE, ("greedy", "fastest"))
        with pytest.raises(InputError, match="unknown packing mode 'fastest'"):
            pack_edge_disjoint(BOWTIE, "fastest")


class TestClassify:
    def test_bowtie_both_triangles(self):
        p = classify_structure(BOWTIE, enumerate_triangles(BOWTIE))
        assert p.t == 2 and p.c == 1
        assert len(p.covered_vertices) == 5 == 2 * p.t + 1
        assert p.all_forest and p.op == 0

    def test_ring3_defect(self):
        g = triangle_ring(3)
        tris = [t for t in enumerate_triangles(g) if t.vertices != (0, 1, 2)]
        p = classify_structure(g, tris)
        assert p.t == 3 and p.c == 1
        assert len(p.covered_vertices) == 6
        assert not p.all_forest and p.op == 1

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_shared_vertex_chain(self, k):
        g = shared_vertex_triangle_chain(k)
        p = pack_edge_disjoint(g, "exact")
        assert p.t == k - 1 and p.c == 1 and p.n2_prime == 1 and p.all_forest

    def test_rejects_overlapping_triangles(self):
        g = complete_graph(4)
        tris = enumerate_triangles(g)
        with pytest.raises(InputError, match="shares an edge"):
            classify_structure(g, tris[:2])

    @given(small_graphs(min_n=3))
    @settings(max_examples=60, deadline=None)
    def test_forest_iff_vertex_count(self, g):
        # independent characterization: 2*t_i + 1 vertices per component
        assume(len(enumerate_triangles(g)) <= 12)
        p = pack_edge_disjoint(g, "greedy")
        for idx, flag in enumerate(p.is_forest):
            expected = len(p.component_vertices[idx]) == 2 * p.t_i[idx] + 1
            assert flag == expected
        assert (p.op == 0) == p.all_forest

    def test_vertex_count_matches_blocks(self):
        verdicts = set()
        for seed in range(40):
            g = connected_gnp(6 + seed % 6, 0.5, seed=6000 + seed)
            for mode in PACK_MODES:
                p = pack_as_color(g, mode)
                assert p.is_forest == blocks_is_forest(g, p)
                verdicts.update(p.is_forest)
        assert verdicts == {True, False}


class TestDetachEdge:
    def test_triangle_edge(self):
        g = complete_graph(3)
        out, step = detach_edge(g, g.edge_id(0, 1))
        assert out.n == 5 and out.m == 4
        assert set(out.edges) == {(0, 3), (1, 2), (0, 2), (1, 4)}
        assert step.u_new == 3 and step.v_new == 4

    def test_requires_inner_endpoints(self):
        with pytest.raises(InputError, match="degree >= 2"):
            detach_edge(path_graph(3), 0)

    def test_cycle4_becomes_path(self):
        g = cycle_graph(4)
        out, _ = detach_edge(g, 0)
        assert canonical_form(out) == canonical_form(path_graph(6))

    @given(small_graphs(min_n=3))
    @settings(max_examples=40, deadline=None)
    def test_edge_count_grows_by_one(self, g):
        eligible = [
            eid for eid, (u, v) in enumerate(g.edges) if g.degree(u) >= 2 and g.degree(v) >= 2
        ]
        assume(eligible)
        out, _ = detach_edge(g, eligible[0])
        assert out.m == g.m + 1 and out.n == g.n + 2


class TestSplitVertex:
    def test_bowtie_center_gives_two_triangles(self):
        t1, t2 = enumerate_triangles(BOWTIE)
        out, step = split_vertex(BOWTIE, 0, [t1], [t2])
        assert out.n == 6 and out.m == BOWTIE.m
        assert len(components(out)) == 2

    def test_friendship_split_off_one(self):
        g = friendship_graph(3)
        tris = enumerate_triangles(g)
        out, _ = split_vertex(g, 0, [tris[0]], tris[1:])
        comps = sorted(len(c) for c in components(out))
        assert comps == [3, 5]

    def test_ring3_split_restores_forest(self):
        g = triangle_ring(3)
        tris = [t for t in enumerate_triangles(g) if t.vertices != (0, 1, 2)]
        at0 = [t for t in tris if 0 in t.vertices]
        assert len(at0) == 2
        out, step = split_vertex(g, 0, [at0[0]], [at0[1]])
        assert out.n == 7 and out.m == g.m
        moved = make_triangle(
            out, *(step.new_vertex if v == 0 else v for v in at0[1].vertices)
        )
        remapped = [moved if t == at0[1] else t for t in tris]
        assert classify_structure(out, remapped).all_forest

    def test_rejects_empty_side(self):
        t1, t2 = enumerate_triangles(BOWTIE)
        with pytest.raises(InputError):
            split_vertex(BOWTIE, 0, [t1, t2], [])

    def test_rejects_vertex_not_in_triangle(self):
        t1, t2 = enumerate_triangles(BOWTIE)
        with pytest.raises(InputError):
            split_vertex(BOWTIE, 1, [t1], [t2])

    def test_rejects_stale_triangle(self):
        t1, t2 = enumerate_triangles(BOWTIE)
        packing = classify_structure(BOWTIE, [t1, t2])
        a, b, c = t1.edge_ids
        # reversed keeps the middle side in place; rotated moves all three
        for ids in ((c, b, a), (b, c, a)):
            stale_tri = Triangle(t1.vertices, ids)
            with pytest.raises(InputError, match="is stale for this graph"):
                split_vertex(BOWTIE, 0, [stale_tri], [t2])
            with pytest.raises(InputError, match="has stale edge ids for this graph"):
                classify_structure(BOWTIE, [stale_tri, t2])
            stale = dataclasses.replace(packing, triangles=(stale_tri, t2))
            with pytest.raises(InputError, match="has stale edge ids for this graph"):
                build_transformed(BOWTIE, stale)
        out, _ = split_vertex(BOWTIE, 0, [t1], [t2])
        with pytest.raises(InputError, match="is not a triangle of the graph"):
            split_vertex(out, 0, [t1], [t2])


class TestSweepMatchesReclassify:
    @pytest.mark.parametrize("name", sorted(sweep_instances()))
    def test_same_result(self, name):
        g, p = sweep_instances()[name]
        sweep = build_transformed(g, p)
        reference, reference_graphs = reclassify_build_transformed(g, p)
        assert sweep.trace.source == reference.trace.source
        assert sweep.trace.steps == reference.trace.steps
        assert replay_graphs(sweep.trace) == reference_graphs
        assert sweep.triangles == reference.triangles
        final = classify_structure(reference_graphs[-1], sweep.triangles)
        assert final.all_forest
        assert final.c == p.c
        assert sweep.trace.split_count == p.op

    @pytest.mark.parametrize("name", sorted(sweep_instances()))
    def test_opposite_sides_after_renames(self, name):
        """Every flattened triangle's ``opposite(x)`` is the final graph's edge
        between its other two corners, so the star rules can read their
        special edges from the triangles' sides."""
        g, p = sweep_instances()[name]
        result = build_transformed(g, p)
        final = replay_trace(result.trace)
        for tri in result.triangles:
            for x in tri.vertices:
                y, z = (w for w in tri.vertices if w != x)
                assert tri.opposite(x) == final.edge_id(y, z)

    def test_coverage(self):
        """The instances split some vertex twice, move some triangle at two
        different corners, and split at some vertex whose triangles, after
        moves at lower corners, sort differently from their packing indices:
        a sweep in packing-index order can choose other splits there."""
        repeated_vertex = two_corners = reordered = 0
        for g, p in sweep_instances().values():
            index = {frozenset(tri.edge_ids): i for i, tri in enumerate(p.triangles)}
            splits = [s for s in build_transformed(g, p).trace.steps if isinstance(s, VertexSplitStep)]
            vertices = [s.vertex for s in splits]
            repeated_vertex += len(vertices) != len(set(vertices))
            corners: dict[frozenset, set[int]] = {}
            for s in splits:
                (moved,) = s.moved_triangles
                corners.setdefault(frozenset(moved.edge_ids), set()).add(s.vertex)
            two_corners += any(len(c) > 1 for c in corners.values())
            # the first split at a vertex sees all of its triangles
            orders = [
                [index[frozenset(tri.edge_ids)] for tri in sorted(s.kept_triangles + s.moved_triangles)]
                for s in {s.vertex: s for s in reversed(splits)}.values()
            ]
            reordered += any(ix != sorted(ix) for ix in orders)
        assert repeated_vertex >= 3
        assert two_corners >= 3
        assert reordered >= 3


class TestBuildTransformed:
    def test_triangle_chain_needs_nothing(self):
        g = bridged_triangle_chain(3)
        res = build_transformed(g, pack_edge_disjoint(g, "exact"))
        assert not res.trace.steps

    def test_k4_has_no_chords_inside_cover(self):
        g = complete_graph(4)
        res = build_transformed(g, pack_edge_disjoint(g, "exact"))
        assert not res.trace.steps

    def test_ring3_single_split(self):
        g = triangle_ring(3)
        p = pack_edge_disjoint(g, "exact")
        res = build_transformed(g, p)
        assert res.trace.split_count == 1 == p.op
        assert classify_structure(replay_trace(res.trace), res.triangles).all_forest

    def test_chord_detached(self):
        # bowtie plus a chord (1, 3) between the two triangles' outer corners
        g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4), (1, 3)])
        p = classify_structure(g, [make_triangle(g, 0, 1, 2), make_triangle(g, 0, 3, 4)])
        res = build_transformed(g, p)
        assert len(res.trace.steps) == 1 and res.trace.split_count == 0
        step = res.trace.steps[0]
        assert step.edge == g.edge_id(1, 3)
        flat = replay_trace(res.trace)
        assert flat.n == 7 and flat.m == 8

    def test_chords_detached_component_by_component(self):
        # two rings of three triangles (each one split from a forest), joined
        # by the edge 5-11; the chord of the first ring has the higher id
        def ring(b):
            return [(b, b + 1, b + 3), (b + 1, b + 2, b + 4), (b, b + 2, b + 5)]

        corners = ring(0) + ring(6)
        edges = [e for a, b, c in corners for e in ((a, b), (a, c), (b, c))]
        g = build_graph(12, edges + [(5, 11), (9, 10), (3, 4)])
        p = classify_structure(g, [make_triangle(g, *tri) for tri in corners])
        assert p.c == 2 and p.op == 2
        res = build_transformed(g, p)
        detached = [step.edge for step in res.trace.steps if isinstance(step, EdgeDetachStep)]
        assert detached == [g.edge_id(3, 4), g.edge_id(9, 10)]
        assert g.edge_id(3, 4) > g.edge_id(9, 10)
        assert res.trace.split_count == 2

    @pytest.mark.parametrize("mode", ["greedy", "forest_greedy"])
    def test_foreign_packing_is_input_error(self, mode):
        """A packing built for another graph fails on one of its triangles,
        whether the structure needs splits or not."""
        g = connected_gnp(12, 0.5, seed=4)
        p = pack_edge_disjoint(connected_gnp(12, 0.5, seed=5), mode)
        assert (p.op > 0) == (mode == "greedy")
        with pytest.raises(InputError, match=r"\(\d+, \d+, \d+\)") as err:
            color_packing(g, p)
        named = tuple(map(int, re.search(r"\((\d+), (\d+), (\d+)\)", str(err.value)).groups()))
        (tri,) = [t for t in p.triangles if t.vertices == named]
        if all(g.has_edge(a, b) for a, b in combinations(named, 2)):
            assert make_triangle(g, *named) != tri

    def test_wrong_defect_is_invariant_violation(self):
        g = triangle_ring(3)
        p = pack_edge_disjoint(g, "exact")
        with pytest.raises(InvariantViolation, match="structure defect says 2"):
            build_transformed(g, dataclasses.replace(p, op=p.op + 1))

    @pytest.mark.parametrize("seed", range(20))
    def test_random_structures_flatten(self, seed):
        g = connected_gnp(6 + seed % 4, 0.5, seed=9000 + seed)
        p = pack_edge_disjoint(g, "greedy")
        res = build_transformed(g, p)
        flat = replay_trace(res.trace)
        final = classify_structure(flat, res.triangles)
        assert final.all_forest
        assert res.trace.split_count == p.op
        assert final.c == p.c
        assert is_connected(flat)
        detaches = len(res.trace.steps) - res.trace.split_count
        # detaching adds one edge and two leaves; splitting adds one vertex
        assert flat.m == g.m + detaches
        assert flat.n == g.n + 2 * detaches + res.trace.split_count
        assert len(final.covered_vertices) == 2 * final.t + final.c
