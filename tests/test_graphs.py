import math
from itertools import combinations, takewhile

import networkx as nx
import pytest
from hypothesis import given, settings

from corpus import graph_layer_graphs, small_graphs, wide_graph_names, wide_graphs
from helpers import induced_by_edges, nx_graph, shrink, traced_peak
from rainbowline.errors import InputError
from rainbowline.families import bridged_triangle_chain, complete_graph, cycle_graph, path_graph
from rainbowline.graphs import (
    blocks,
    build_graph,
    diameter,
    distances,
    edge_key,
    is_connected,
)
from rainbowline.linegraph import line_graph
from rainbowline.triangles import enumerate_triangles


def assert_distances_match_networkx(g):
    """Each ``distances`` row is networkx's, -1 where it does not reach;
    ``is_connected`` and ``diameter`` follow from the rows."""
    rows = dict(nx.all_pairs_shortest_path_length(nx_graph(g)))
    for s in range(g.n):
        assert distances(g, s) == [rows[s].get(v, -1) for v in range(g.n)]
    connected = all(len(row) == g.n for row in rows.values())
    assert is_connected(g) == connected
    longest = max((d for row in rows.values() for d in row.values()), default=0)
    assert diameter(g) == (longest if connected else math.inf)


class TestMatchesNetworkx:
    """The graph layer equals networkx on ``corpus.graph_layer_graphs()``."""

    def test_line_graph(self):
        """Vertex ``i`` of L(g) is edge ``i`` of g; networkx names it by its ends."""
        for g in graph_layer_graphs():
            lg = line_graph(g).l_graph
            expected = nx.line_graph(nx_graph(g))
            assert lg.n == expected.number_of_nodes() == g.m
            ids = g.edge_index
            assert sorted(edge_key(a, b) for a, b in lg.edges) == sorted(
                edge_key(ids[edge_key(*e)], ids[edge_key(*f)]) for e, f in expected.edges
            )

    def test_stars(self):
        """``incident_edges``, ``adjacency`` and ``degrees``, all read off
        the one star per vertex, are networkx's edges, neighbours and
        degrees, isolated vertices included."""
        for g in graph_layer_graphs():
            gx = nx_graph(g)
            assert g.incident_edges == tuple(tuple(sorted(g.edge_id(*e) for e in gx.edges(v))) for v in gx)
            assert g.adjacency == tuple(tuple(sorted(gx[v])) for v in gx)
            assert g.degrees == tuple(d for _, d in gx.degree)

    def test_triangles(self):
        for g in graph_layer_graphs():
            cliques = takewhile(lambda c: len(c) <= 3, nx.enumerate_all_cliques(nx_graph(g)))
            corners = sorted(tuple(sorted(c)) for c in cliques if len(c) == 3)
            assert [(t.vertices, t.edge_ids) for t in enumerate_triangles(g)] == [
                (c, tuple(g.edge_index[side] for side in combinations(c, 2))) for c in corners
            ]

    def test_distances(self):
        for g in graph_layer_graphs():
            assert_distances_match_networkx(g)

    def test_inner_vertices(self):
        for g in graph_layer_graphs():
            gx = nx_graph(g)
            assert g.n2 == sum(1 for v in gx if gx.degree(v) >= 2)

    @pytest.mark.parametrize("name", wide_graph_names())
    def test_distances_on_wide_graphs(self, name):
        """100 to 300 vertices, so every ball spans several machine words,
        and diameters up to 199."""
        assert_distances_match_networkx(wide_graphs()[name])

    def test_blocks(self):
        for g in graph_layer_graphs():
            bd = blocks(g)
            gx = nx_graph(g)
            expected = [frozenset(g.edge_id(*e) for e in blk) for blk in nx.biconnected_component_edges(gx)]
            assert sorted(bd.blocks, key=min) == sorted(expected, key=min)
            assert bd.cut_vertices == set(nx.articulation_points(gx))


class TestBuildGraph:
    def test_triangle_ids_follow_input_order(self):
        g = build_graph(3, [(0, 1), (1, 2), (0, 2)])
        assert g.m == 3
        assert g.edges == ((0, 1), (1, 2), (0, 2))
        assert g.edge_id(2, 1) == 1

    def test_rejects_loop(self):
        with pytest.raises(InputError, match=r"loop.*\(0, 0\)"):
            build_graph(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(InputError, match=r"duplicate.*\(0, 1\)"):
            build_graph(4, [(0, 1), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InputError, match=r"out of range"):
            build_graph(2, [(0, 5)])

    def test_rejects_negative_vertex_count(self):
        # the edge-list parser refuses a negative count before it calls this
        with pytest.raises(InputError, match=r"^vertex count must be non-negative, got -1$"):
            build_graph(-1, [])


class TestDiameter:
    def test_path(self):
        assert diameter(path_graph(4)) == 3

    def test_cycle(self):
        assert diameter(cycle_graph(5)) == 2

    def test_disconnected_is_infinite(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert diameter(g) == math.inf

    def test_disconnected_grows_no_ball(self):
        """``is_connected`` answers first: 30,000 isolated vertices cost one
        search, not 30,000 balls of up to 30,000 bits (about 56 MiB)."""
        g = build_graph(30_000, [])
        d, peak = traced_peak(lambda: diameter(g))
        assert d == math.inf
        assert peak < 8 * 2**20

    def test_single_vertex(self):
        assert diameter(build_graph(1, [])) == 0

    def test_empty_graph(self):
        assert diameter(build_graph(0, [])) == 0

    def test_cached_on_the_graph(self):
        """The first call computes and stores the value on the graph, like
        ``adjacency`` and ``degrees``; later calls read it back."""
        g = cycle_graph(7)
        assert "diameter" not in vars(g)
        assert diameter(g) == 3
        assert vars(g)["diameter"] == 3
        assert diameter(g) == g.diameter == 3

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx(self, g):
        assert_distances_match_networkx(g)


class TestBlocks:
    def test_bowtie(self):
        g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        bd = blocks(g)
        assert len(bd.blocks) == 2
        assert bd.cut_vertices == {0}

    def test_cycle_is_one_block(self):
        bd = blocks(cycle_graph(4))
        assert len(bd.blocks) == 1
        assert not bd.cut_vertices

    def test_path_bridges(self):
        bd = blocks(path_graph(3))
        assert sorted(bd.blocks, key=min) == [frozenset({0}), frozenset({1})]
        assert bd.cut_vertices == {1}

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_blocks_partition_edges(self, g):
        bd = blocks(g)
        all_ids = [eid for blk in bd.blocks for eid in blk]
        assert sorted(all_ids) == list(range(g.m))

    @given(small_graphs(min_n=2))
    @settings(max_examples=60, deadline=None)
    def test_cut_vertices_disconnect(self, g):
        # v is a cut vertex exactly when deleting it increases the component count
        bd = blocks(g)
        gx = nx_graph(g)
        base = nx.number_connected_components(gx)
        for v in range(g.n):
            after = nx.number_connected_components(gx.subgraph(set(gx) - {v}))
            assert (v in bd.cut_vertices) == (after > base)


class TestInducedByEdges:
    def test_triangle_of_k4(self):
        g = complete_graph(4)
        tri = [g.edge_id(0, 1), g.edge_id(0, 2), g.edge_id(1, 2)]
        sub = induced_by_edges(g, tri)
        assert sub.graph.n == 3 and sub.graph.m == 3
        assert sub.vertex_to_parent == (0, 1, 2)

    def test_empty_selection(self):
        sub = induced_by_edges(complete_graph(4), [])
        assert sub.graph.n == 0 and sub.graph.m == 0

    def test_bowtie_triangle_keeps_shared_vertex(self):
        g = build_graph(5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])
        sub = induced_by_edges(g, [3, 4, 5])
        assert 0 in sub.vertex_to_parent
        assert sub.graph.m == 3

    def test_invalid_edge_id(self):
        with pytest.raises(InputError):
            induced_by_edges(complete_graph(3), [7])


class TestShrink:
    def test_path_endpoints_merge_parallel_edges(self):
        res = shrink(path_graph(3), {0, 2})
        assert res.graph.n == 2 and res.graph.m == 1
        assert res.edge_map == (0, 0)

    def test_cycle4_adjacent_pair_gives_triangle(self):
        res = shrink(cycle_graph(4), {0, 1})
        assert res.graph.n == 3 and res.graph.m == 3

    def test_triangle_pair_gives_edge(self):
        res = shrink(build_graph(3, [(0, 1), (1, 2), (0, 2)]), {0, 1})
        assert res.graph.n == 2 and res.graph.m == 1

    def test_rejects_empty_and_full(self):
        g = path_graph(3)
        with pytest.raises(InputError):
            shrink(g, set())
        with pytest.raises(InputError):
            shrink(g, {0, 1, 2})

    @given(small_graphs(min_n=3))
    @settings(max_examples=60, deadline=None)
    def test_preserves_outside_adjacency(self, g):
        x = {0, 1}
        res = shrink(g, x)
        for u, v in g.edges:
            if u in x or v in x:
                continue
            assert edge_key(res.vertex_map[u], res.vertex_map[v]) in res.graph.edge_index


class TestInnerVertices:
    def test_path(self):
        assert path_graph(4).n2 == 2

    def test_triangle(self):
        assert complete_graph(3).n2 == 3

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_triangle_chain_all_inner(self, t):
        assert bridged_triangle_chain(t).n2 == 3 * t

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum(self, g):
        assert sum(g.degrees) == 2 * g.m
        leaves = sum(1 for d in g.degrees if d == 1)
        isolated = sum(1 for d in g.degrees if d == 0)
        assert g.n2 + leaves + isolated == g.n


def test_connected_helpers():
    assert is_connected(complete_graph(1))
    assert is_connected(cycle_graph(5))
    assert not is_connected(build_graph(4, [(0, 1), (2, 3)]))
    assert is_connected(build_graph(0, []))
    g = cycle_graph(6)
    assert "is_connected" not in vars(g)
    assert is_connected(g) and vars(g)["is_connected"] is True


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_connected_iff_one_component(g):
    assert is_connected(g) == (nx.number_connected_components(nx_graph(g)) <= 1)
