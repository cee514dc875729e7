import math

import pytest
from hypothesis import given, settings

from corpus import small_graphs
from helpers import components, induced_by_edges, remove_vertex_components, shrink
from rainbowline.errors import InputError
from rainbowline.families import bridged_triangle_chain, complete_graph, cycle_graph, path_graph
from rainbowline.graphs import (
    blocks,
    build_graph,
    degree_profile,
    diameter,
    is_connected,
)


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


class TestDiameter:
    def test_path(self):
        assert diameter(path_graph(4)) == 3

    def test_cycle(self):
        assert diameter(cycle_graph(5)) == 2

    def test_disconnected_is_infinite(self):
        g = build_graph(4, [(0, 1), (2, 3)])
        assert diameter(g) == math.inf

    def test_single_vertex(self):
        assert diameter(build_graph(1, [])) == 0

    def test_empty_graph(self):
        assert diameter(build_graph(0, [])) == 0

    def test_cached_on_the_graph(self):
        """The first call sweeps and stores the value on the graph, like
        ``adjacency`` and ``degrees``; later calls read it back."""
        g = cycle_graph(7)
        assert "diameter" not in vars(g)
        assert diameter(g) == 3
        assert vars(g)["diameter"] == 3
        assert diameter(g) == g.diameter == 3

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_matches_floyd_warshall(self, g):
        n = g.n
        inf = math.inf
        dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
        for u, v in g.edges:
            dist[u][v] = dist[v][u] = 1
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    if dist[i][k] + dist[k][j] < dist[i][j]:
                        dist[i][j] = dist[i][k] + dist[k][j]
        expected = max((dist[i][j] for i in range(n) for j in range(n)), default=0)
        assert diameter(g) == expected


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
        base = len(components(g))
        for v in range(g.n):
            after = remove_vertex_components(g, v)
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
            assert res.graph.has_edge(res.vertex_map[u], res.vertex_map[v])


class TestDegreeProfile:
    def test_path(self):
        prof = degree_profile(path_graph(4))
        assert prof.n1 == 2 and prof.n2 == 2

    def test_triangle(self):
        prof = degree_profile(complete_graph(3))
        assert prof.n1 == 0 and prof.n2 == 3

    @pytest.mark.parametrize("t", [1, 2, 3, 4])
    def test_triangle_chain_all_inner(self, t):
        prof = degree_profile(bridged_triangle_chain(t))
        assert prof.n2 == 3 * t

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_degree_sum(self, g):
        prof = degree_profile(g)
        assert sum(prof.degrees) == 2 * g.m
        zero = sum(1 for d in prof.degrees if d == 0)
        assert prof.n1 + prof.n2 + zero == g.n


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
    assert is_connected(g) == (len(components(g)) <= 1)
