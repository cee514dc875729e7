from math import comb

import pytest
from hypothesis import assume, given, settings

from corpus import canonical_form, small_graphs
from helpers import star_clique_edges
from rainbowline.errors import InputError
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
        assert canonical_form(lg.l_graph) == canonical_form(complete_graph(3))

    def test_claw_gives_triangle(self):
        star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        lg = line_graph(star)
        assert canonical_form(lg.l_graph) == canonical_form(complete_graph(3))

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
            for e in lg.star_of[v]:
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
        assert canonical_form(chain[-1].l_graph) == canonical_form(cycle_graph(5))

    def test_path3_twice_is_single_vertex(self):
        chain = iterated_line_graph(path_graph(3), 2)
        assert chain[-1].l_graph.n == 1 and chain[-1].l_graph.m == 0

    def test_path3_thrice_errors(self):
        with pytest.raises(InputError, match="no edges"):
            iterated_line_graph(path_graph(3), 3)

