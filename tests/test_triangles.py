import dataclasses
import re
from itertools import combinations, compress

import networkx as nx
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    connected_graphs_up_to,
    dense_gnp,
    pack_as_color,
    packing_gnp,
    sample_gnp,
    small_graphs,
    sweep_instances,
    sweep_names,
)
from helpers import (
    blocks_is_forest,
    brute_force_packing,
    detach_edge,
    is_packing,
    nx_graph,
    reclassify_build_transformed,
    replay_graphs,
    replay_trace,
    split_vertex,
)
from rainbowline.coloring import color_forest_packing, color_packing
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
from rainbowline.graphs import build_graph, edge_key, is_connected
from rainbowline.triangles import (
    DEFAULT_EXACT_CAP,
    PACK_MODES,
    EdgeDetachStep,
    Triangle,
    TrianglePacking,
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
        assert len(brute_force_packing(complete_graph(4))) == 1
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

    @pytest.mark.parametrize("mode", ["greedy", "forest_greedy"])
    def test_greedy_takes_each_triangle_that_fits(self, mode):
        """In canonical order, a greedy mode takes each triangle exactly
        when it and the triangles taken before it form a packing
        (``helpers.is_packing``). The graphs: every connected graph with up
        to 7 edges, and the 60 packing gnp graphs."""
        forest, rejected = mode == "forest_greedy", 0
        for g in [*connected_graphs_up_to(7), *packing_gnp()]:
            pick, taken = pack_edge_disjoint(g, mode).triangles, []
            for tri in enumerate_triangles(g):
                fits = is_packing([*taken, tri], forest)
                assert (tri in pick) == fits
                if fits:
                    taken.append(tri)
                elif is_packing([*taken, tri]):
                    rejected += 1  # by the forest rule alone
            assert tuple(taken) == pick
        assert bool(rejected) == forest

    @pytest.mark.parametrize("mode", ["exact", "forest_exact"])
    def test_exact_matches_brute_force(self, mode):
        """An exact mode picks ``helpers.brute_force_packing``'s packing,
        the first largest one in canonical order: the search takes a
        triangle before it skips it and keeps only a strictly larger pick.
        The graphs: every connected graph with up to 7 edges, and the packing
        gnp graphs within the exact search's triangle cap, a fixed set, so a
        search bug that shows on one of them fails every run."""
        forest = mode == "forest_exact"
        gnp = [g for g in packing_gnp() if len(enumerate_triangles(g)) <= DEFAULT_EXACT_CAP]
        graphs = [*connected_graphs_up_to(7), *gnp]
        assert len(graphs) == 189
        larger = 0
        for g in graphs:
            pick = pack_edge_disjoint(g, mode).triangles
            assert pick == brute_force_packing(g, forest)
            larger += len(pick) > pack_edge_disjoint(g, mode.replace("exact", "greedy")).t
        # the set reaches graphs where the greedy pick is not a largest one
        assert larger

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
    """``pack_modes`` gives each mode's ``pack_edge_disjoint`` pick from one
    enumeration, and ``None`` where that call raises ``LimitError``."""

    GRAPHS = (
        *(sample_gnp(seed) for seed in range(48)),
        *(dense_gnp(seed) for seed in range(30)),
        complete_graph(7),  # 35 triangles, past the exact search's cap
    )

    def test_matches_pack_edge_disjoint(self):
        capped = 0
        for g in self.GRAPHS:
            picks = pack_modes(g)
            assert list(picks) == list(PACK_MODES)
            for mode, pick in picks.items():
                try:
                    expected = pack_edge_disjoint(g, mode).triangles
                except LimitError:
                    assert pick is None
                    capped += 1
                    continue
                assert pick == expected
        # K7 and 25 dense graphs are past the cap in both exact modes
        assert capped == 2 * 26

    def test_subset_of_modes(self):
        g = dense_gnp(0)
        assert pack_modes(g, ("forest_greedy",)) == {"forest_greedy": pack_edge_disjoint(g, "forest_greedy").triangles}
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

    @pytest.mark.parametrize("name", sweep_names())
    def test_statistics_follow_the_triangles(self, name):
        """A packing with its last triangle dropped by ``dataclasses.replace``
        reports what ``classify_structure`` gives for the triangles it has."""
        g, p = sweep_instances()[name]
        fewer = dataclasses.replace(p, triangles=p.triangles[:-1])
        again = classify_structure(g, fewer.triangles)
        for stat in ("t", "c", "n2_prime", "op", "components", "component_vertices", "covered_vertices"):
            assert getattr(fewer, stat) == getattr(again, stat), stat

    def test_rejects_overlapping_triangles(self):
        g = complete_graph(4)
        tris = enumerate_triangles(g)
        with pytest.raises(InputError, match="shares an edge"):
            classify_structure(g, tris[:2])
        with pytest.raises(InputError, match="shares an edge"):
            TrianglePacking(tuple(tris[:2]), g)
        with pytest.raises(InputError, match="shares an edge"):
            dataclasses.replace(classify_structure(g, tris[:1]), triangles=tuple(tris[:2]))

    @given(small_graphs(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_packs_exactly_the_packings(self, g, data):
        """A sorted subset of ``g``'s triangles builds a ``TrianglePacking``
        exactly when ``is_packing`` accepts it, and that packing is
        ``classify_structure``'s."""
        tris = enumerate_triangles(g)
        keep = data.draw(st.lists(st.booleans(), min_size=len(tris), max_size=len(tris)))
        subset = tuple(compress(tris, keep))
        try:
            packing = TrianglePacking(subset, g)
        except InputError:
            assert not is_packing(subset)
        else:
            assert is_packing(subset)
            assert packing == classify_structure(g, subset)

    @pytest.mark.parametrize("kind", ["out_of_range", "negative", "swapped", "other_graph"])
    @pytest.mark.parametrize("side", range(3), ids=["ab", "ac", "bc"])
    def test_one_stale_side_is_rejected(self, side, kind):
        """Each side id is checked on its own: the side at position ``side``
        of ``(ab, ac, bc)`` is made stale and the others are left alone."""
        g = complete_graph(4)
        tri = enumerate_triangles(g)[0]
        other = build_graph(g.n, reversed(g.edges))  # every id i becomes m - 1 - i
        ids = list(tri.edge_ids)
        if kind == "swapped":
            nxt = (side + 1) % 3
            ids[side], ids[nxt] = ids[nxt], ids[side]
        elif kind == "other_graph":
            ids[side] = make_triangle(other, *tri.vertices).edge_ids[side]
            assert 0 <= ids[side] < g.m and ids[side] != tri.edge_ids[side]
        else:
            ids[side] = g.m if kind == "out_of_range" else -1
        with pytest.raises(InputError, match="stale edge ids"):
            classify_structure(g, [Triangle(tri.vertices, tuple(ids))])

    def test_repeated_corners_are_rejected(self):
        g = complete_graph(4)
        tri = enumerate_triangles(g)[0]
        with pytest.raises(InputError, match="must be distinct"):
            classify_structure(g, [Triangle((0, 0, 1), tri.edge_ids)])

    @given(small_graphs(min_n=3))
    @settings(max_examples=60, deadline=None)
    def test_forest_iff_vertex_count(self, g):
        # independent characterization: 2*t_i + 1 vertices per component
        assume(len(enumerate_triangles(g)) <= 12)
        p = pack_edge_disjoint(g, "greedy")
        blocks = blocks_is_forest(g, p)
        assert _vertex_count_verdicts(p) == blocks
        assert p.all_forest == (p.op == 0) == all(blocks)

    def test_vertex_count_matches_blocks(self):
        verdicts = set()
        for seed in range(40):
            g = connected_gnp(6 + seed % 6, 0.5, seed=6000 + seed)
            for mode in PACK_MODES:
                p = pack_as_color(g, mode)
                blocks = blocks_is_forest(g, p)
                assert _vertex_count_verdicts(p) == blocks
                assert p.all_forest == (p.op == 0) == all(blocks)
                verdicts.update(blocks)
        assert verdicts == {True, False}


def _vertex_count_verdicts(p) -> tuple[bool, ...]:
    """Per component: does it have ``2*t_i + 1`` vertices?"""
    return tuple(len(vs) == 2 * len(ix) + 1 for ix, vs in zip(p.components, p.component_vertices))


class TestDetachEdge:
    def test_triangle_edge(self):
        g = complete_graph(3)
        out, step = detach_edge(g, g.edge_id(0, 1))
        assert out.n == 5 and out.m == 4
        assert set(out.edges) == {(0, 3), (1, 2), (0, 2), (1, 4)}
        assert step.v == 1 and out.edges[step.edge] == (0, 3) and out.edges[step.new_edge] == (1, 4)

    def test_requires_inner_endpoints(self):
        with pytest.raises(InputError, match="degree >= 2"):
            detach_edge(path_graph(3), 0)

    def test_cycle4_becomes_path(self):
        g = cycle_graph(4)
        out, _ = detach_edge(g, 0)
        assert nx.is_isomorphic(nx_graph(out), nx_graph(path_graph(6)))

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
        assert nx.number_connected_components(nx_graph(out)) == 2

    def test_friendship_split_off_one(self):
        g = friendship_graph(3)
        tris = enumerate_triangles(g)
        out, _ = split_vertex(g, 0, [tris[0]], tris[1:])
        comps = sorted(len(c) for c in nx.connected_components(nx_graph(out)))
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
            # no packing holds a stale triangle, so none reaches build_transformed
            with pytest.raises(InputError, match="has stale edge ids for this graph"):
                dataclasses.replace(packing, triangles=(stale_tri, t2))
            with pytest.raises(InputError, match="has stale edge ids for this graph"):
                TrianglePacking((stale_tri, t2), BOWTIE)
        out, _ = split_vertex(BOWTIE, 0, [t1], [t2])
        with pytest.raises(InputError, match="is not a triangle of the graph"):
            split_vertex(out, 0, [t1], [t2])

    def test_rejects_packing_of_another_graph(self):
        """A packing of ``g1`` whose triangle ids are current in ``g2`` too,
        where ``g1`` has n2 = 4 and ``g2`` has 3. Left through,
        ``color_packing`` certified 3 colors where ``g2``'s own packing
        certifies 2."""
        g1 = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        g2 = build_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4)])
        packing = pack_edge_disjoint(g1, "greedy")
        assert (g1.n2, g2.n2) == (4, 3)
        assert classify_structure(g2, packing.triangles).triangles == packing.triangles
        for build in (build_transformed, color_packing, color_forest_packing):
            with pytest.raises(InputError, match="packing is of another graph"):
                build(g2, packing)

    def test_rejects_packing_of_a_supergraph_with_equal_n2(self):
        """A triangle with a pendant path, and the same graph with one more
        pendant edge at an inner vertex appended last: side ids and ``n2``
        both match, and the packing of the first is still refused for the
        second, while ``classify_structure`` re-targets it."""
        edges = [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]
        g1 = build_graph(5, edges)
        g2 = build_graph(6, edges + [(3, 5)])
        packing = pack_edge_disjoint(g1, "greedy")
        assert g1.n2 == g2.n2 == 4 and packing.all_forest
        retargeted = classify_structure(g2, packing.triangles)
        assert retargeted.triangles == packing.triangles and retargeted.graph == g2
        for build in (build_transformed, color_packing, color_forest_packing):
            with pytest.raises(InputError, match="packing is of another graph"):
                build(g2, packing)
            build(g2, retargeted)


class TestSweepMatchesReclassify:
    @pytest.mark.parametrize("name", sweep_names())
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

    @pytest.mark.parametrize("name", sweep_names())
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
            splits = [s for s in build_transformed(g, p).trace.steps if isinstance(s, VertexSplitStep)]
            vertices = [s.vertex for s in splits]
            repeated_vertex += len(vertices) != len(set(vertices))
            corners: dict[int, set[int]] = {}
            current = [tri.vertices for tri in p.triangles]  # corners after the splits so far
            orders = {}
            for s in splits:
                # splits keep edge ids, so the packing triangle holding the moved sides is the moved one
                (i,) = [i for i, tri in enumerate(p.triangles) if set(s.moved_edges) <= set(tri.edge_ids)]
                corners.setdefault(i, set()).add(s.vertex)
                # the first split at a vertex sees all of its triangles
                if s.vertex not in orders:
                    at = sorted((vs, j) for j, vs in enumerate(current) if s.vertex in vs)
                    orders[s.vertex] = [j for _, j in at]
                current[i] = tuple(sorted(s.new_vertex if x == s.vertex else x for x in current[i]))
            two_corners += any(len(c) > 1 for c in corners.values())
            reordered += any(ix != sorted(ix) for ix in orders.values())
        assert repeated_vertex >= 3
        assert two_corners >= 3
        assert reordered >= 3


class TestReplay:
    def test_rejects_tampered_records(self):
        """Every sweep trace replays, and ``replay_graphs`` refuses the first
        detach and the first split of each once tampered with: a detach with
        the wrong new edge or end, a split that lists the side opposite its
        vertex or a new vertex past the next id."""
        tampered = 0
        for g, p in sweep_instances().values():
            trace = build_transformed(g, p).trace
            graphs = replay_graphs(trace)
            for kind in (EdgeDetachStep, VertexSplitStep):
                k = next((k for k, step in enumerate(trace.steps) if isinstance(step, kind)), None)
                if k is None:
                    continue
                step, before = trace.steps[k], graphs[k]
                if kind is EdgeDetachStep:
                    u = before.edges[step.edge][0]
                    records = [
                        dataclasses.replace(step, new_edge=step.new_edge + 1),
                        dataclasses.replace(step, v=u),
                    ]
                else:
                    x, y = (a + b - step.vertex for a, b in (before.edges[e] for e in step.moved_edges))
                    sides = (step.moved_edges[0], before.edge_id(x, y))
                    records = [
                        dataclasses.replace(step, moved_edges=tuple(sorted(sides))),
                        dataclasses.replace(step, new_vertex=step.new_vertex + 1),
                    ]
                for record in records:
                    steps = (*trace.steps[:k], record, *trace.steps[k + 1 :])
                    with pytest.raises(InvariantViolation, match="recorded"):
                        replay_graphs(dataclasses.replace(trace, steps=steps))
                    tampered += 1
        assert tampered >= 100


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
        """A packing built for another graph is refused, whether the
        structure needs splits or not; re-targeted, it fails on one of its
        triangles."""
        g = connected_gnp(12, 0.5, seed=4)
        p = pack_edge_disjoint(connected_gnp(12, 0.5, seed=5), mode)
        assert (p.op > 0) == (mode == "greedy")
        with pytest.raises(InputError, match="packing is of another graph"):
            color_packing(g, p)
        with pytest.raises(InputError, match=r"\(\d+, \d+, \d+\)") as err:
            classify_structure(g, p.triangles)
        named = tuple(map(int, re.search(r"\((\d+), (\d+), (\d+)\)", str(err.value)).groups()))
        (tri,) = [t for t in p.triangles if t.vertices == named]
        if all(edge_key(a, b) in g.edge_index for a, b in combinations(named, 2)):
            assert make_triangle(g, *named) != tri

    def test_wrong_defect_is_invariant_violation(self, monkeypatch):
        g = triangle_ring(3)
        p = pack_edge_disjoint(g, "exact")
        real_op = TrianglePacking.op
        monkeypatch.setattr(TrianglePacking, "op", property(lambda q: real_op.fget(q) + 1))
        with pytest.raises(InvariantViolation, match="structure defect says 2"):
            build_transformed(g, p)

    def test_understated_defect_fails_in_the_tree_coloring(self, monkeypatch):
        """At op = 0 the split sweep is skipped, so a packing whose ``op``
        hides its cycle reaches ``color_triangle_tree``, which finds no leaf
        triangle."""
        g = triangle_ring(3)
        p = pack_edge_disjoint(g, "exact")
        monkeypatch.setattr(TrianglePacking, "op", property(lambda q: 0))
        with pytest.raises(InvariantViolation, match="no leaf triangle"):
            color_packing(g, p)

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
