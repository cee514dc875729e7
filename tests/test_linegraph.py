from math import comb

import networkx as nx
import pytest
from hypothesis import assume, given, settings

from corpus import small_graphs
from helpers import nx_graph, star_clique_edges, traced_peak
from rainbowline import linegraph
from rainbowline.errors import InputError, LimitError
from rainbowline.families import (
    complete_graph,
    cycle_graph,
    path_graph,
)
from rainbowline.graphs import build_graph, is_connected
from rainbowline.linegraph import iterated_line_graph, line_graph


class TestLineGraph:
    def test_path3_gives_single_edge(self):
        lg = line_graph(path_graph(3))
        assert lg.l_graph.n == 2 and lg.l_graph.m == 1

    def test_triangle_is_self_line_graph(self):
        lg = line_graph(complete_graph(3))
        assert nx.is_isomorphic(nx_graph(lg.l_graph), nx_graph(complete_graph(3)))

    def test_claw_gives_triangle(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        lg = line_graph(star)
        assert nx.is_isomorphic(nx_graph(lg.l_graph), nx_graph(complete_graph(3)))

    def test_isolated_vertices_cost_no_list(self):
        """The stars of 10^5 vertices around one edge peak near 0.9 MiB, not
        at the 7 MiB of a list per vertex, and give L = one vertex."""
        g = build_graph(100_000, [(0, 1)])
        lg, peak = traced_peak(lambda: line_graph(g))
        assert lg.l_graph == build_graph(1, [])
        assert peak < 3 * 2**20

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_edge_count_formula(self, g):
        lg = line_graph(g)
        assert lg.l_graph.m == sum(comb(g.degree(v), 2) for v in range(g.n))

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_star_cliques_decompose_edges(self, g):
        lg = line_graph(g)
        covered = []
        for v in range(g.n):
            covered.extend(star_clique_edges(lg, v))
        assert sorted(covered) == list(range(lg.l_graph.m))

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_each_line_vertex_in_at_most_two_stars(self, g):
        lg = line_graph(g)
        counts = [0] * g.m
        for v in range(g.n):
            for e in lg.source.incident_edges[v]:
                counts[e] += 1
        assert all(c == 2 for c in counts)

    @given(small_graphs(min_n=2))
    @settings(max_examples=60, deadline=None)
    def test_line_of_connected_is_connected(self, g):
        assume(is_connected(g) and g.m >= 2)
        assert is_connected(line_graph(g).l_graph)


class TestIteratedLineGraph:
    def test_path4_twice_is_single_edge(self):
        chain = iterated_line_graph(path_graph(4), 2)
        assert chain[-1].l_graph.n == 2 and chain[-1].l_graph.m == 1

    def test_cycles_are_fixed_points(self):
        chain = iterated_line_graph(cycle_graph(5), 2)
        assert nx.is_isomorphic(nx_graph(chain[-1].l_graph), nx_graph(cycle_graph(5)))

    def test_path3_twice_is_single_vertex(self):
        chain = iterated_line_graph(path_graph(3), 2)
        assert chain[-1].l_graph.n == 1 and chain[-1].l_graph.m == 0

    def test_path3_thrice_errors(self):
        with pytest.raises(InputError, match="no edges"):
            iterated_line_graph(path_graph(3), 3)

    @given(small_graphs())
    @settings(max_examples=60, deadline=None)
    def test_cap_names_the_count_it_would_build(self, g):
        """Past ``ITERATE_EDGE_CAP`` the message names the iterate's edge
        count, which is the ``m`` of the line graph it would build; at the
        cap the line graph builds."""
        assume(g.m >= 1)
        m = line_graph(g).l_graph.m
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linegraph, "ITERATE_EDGE_CAP", m)
            assert iterated_line_graph(g, 1)[0].l_graph.m == m
            patch.setattr(linegraph, "ITERATE_EDGE_CAP", m - 1)
            with pytest.raises(LimitError, match=f"^iteration 1: line graph would have {m} edges, cap {m - 1}$"):
                iterated_line_graph(g, 1)
