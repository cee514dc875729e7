"""Acceptance suite: every release-gating check at its stated tolerance.

Each test prints one pass/fail line (`pytest -s` to see them inline).
"""

import math
from contextlib import contextmanager

import pytest

from corpus import acceptance_gnp, connected_graphs_up_to, random_edge_partition, small_trees
from helpers import (
    check_detach_projection,
    check_iterated_tightness,
    check_partition_combination,
    naive_failing_pair,
    replay_trace,
)
from rainbowline.coloring import (
    EdgeColoring,
    color_cubic_iterated,
    color_forest_packing,
    color_packing,
    pick_packing,
    project_coloring,
)
from rainbowline.families import (
    bridged_triangle_chain,
    complete_graph,
    connected_gnp,
    cycle_graph,
    path_graph,
    petersen_graph,
    shared_vertex_triangle_chain,
)
from rainbowline.graphs import build_graph, diameter
from rainbowline.linegraph import line_graph
from rainbowline.oracle import _check_all_pairs, canonical_colorings, exact_rc, is_rainbow_connected
from rainbowline.triangles import (
    build_transformed,
    classify_structure,
    pack_edge_disjoint,
)

K33 = build_graph(6, [(a, 3 + b) for a in range(3) for b in range(3)])


@contextmanager
def acceptance(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def test_1_forest_bound_sharp_on_triangle_chains():
    # diameter of L equals the bound, so the construction is optimal
    with acceptance("forest bound sharp on bridged triangle chains (t=2,3,4)"):
        for t in (2, 3, 4):
            g = bridged_triangle_chain(t)
            packing = pack_edge_disjoint(g, "forest_exact")
            coloring, cert = color_forest_packing(g, packing)
            assert diameter(coloring.graph) == 2 * t
            assert cert.colors_used == 2 * t
            assert cert.verified


def test_2_general_bound_sharp_on_shared_vertex_chains():
    with acceptance("general bound sharp on shared-vertex chains (k=2..6)"):
        for k in range(2, 7):
            g = shared_vertex_triangle_chain(k)
            packing = pack_edge_disjoint(g, "exact")
            coloring, cert = color_packing(g, packing)
            assert diameter(coloring.graph) == k + 1
            assert cert.colors_used <= k + 1
            assert cert.verified


def test_3_oracle_calibration():
    with acceptance("oracle calibration: complete, trees, cycles"):
        assert exact_rc(complete_graph(4)) == 1
        assert exact_rc(complete_graph(5)) == 1
        trees = small_trees(7)
        assert len(trees) == 24
        for tree in trees:
            assert exact_rc(tree) == tree.n - 1
        for k in range(4, 9):
            assert exact_rc(cycle_graph(k)) == math.ceil(k / 2)


def test_4_forest_pipeline_ensemble():
    with acceptance("forest pipeline verified on 100 seeded gnp instances"):
        for g in acceptance_gnp():
            packing, _ = pick_packing(g, "31")
            assert packing.all_forest
            coloring, cert = color_forest_packing(g, packing)
            assert cert.verified, (g, cert)
            assert cert.colors_used <= g.n2 - packing.t


def test_5_general_pipeline_ensemble():
    with acceptance("general pipeline verified on 100 seeded gnp instances"):
        for g in acceptance_gnp():
            packing, _ = pick_packing(g, "32")
            coloring, cert = color_packing(g, packing)
            assert cert.verified, (g, cert)
            n2 = g.n2
            assert cert.colors_used <= packing.t + packing.n2_prime + packing.c
            assert cert.colors_used <= n2 + packing.op - packing.t
            # defect accounting: replayed split count matches the formula
            result = build_transformed(g, packing)
            assert result.trace.split_count == packing.op
            assert classify_structure(replay_trace(result.trace), result.triangles).all_forest


def test_6_cubic_iterated_bounds():
    with acceptance("cubic iterated bound on K4, K33, Petersen"):
        for g, bound in ((complete_graph(4), 5), (K33, 7), (petersen_graph(), 11)):
            coloring, cert = color_cubic_iterated(g)
            assert cert.bound_value == bound
            assert cert.colors_used <= bound
            assert cert.verified


def test_7_iterated_equality_characterization():
    with acceptance("iterated equality holds exactly for long paths"):
        for n in (5, 6, 7, 8):
            report = check_iterated_tightness(path_graph(n))
            assert report.verdict == "equality"
            assert report.exact == n - 3
            assert report.is_long_path
        spider = build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
        claw = build_graph(4, [(0, 1), (0, 2), (0, 3)])
        for g in (cycle_graph(4), claw, spider):
            report = check_iterated_tightness(g)
            assert report.verdict == "strict"
            assert not report.is_long_path
        # decided verdicts must agree with the path predicate
        for g in [path_graph(n) for n in (5, 6, 7, 8)] + [cycle_graph(4), claw, spider]:
            report = check_iterated_tightness(g)
            assert report.verdict in ("equality", "strict")
            assert (report.verdict == "equality") == report.is_long_path


def _partition_instance(i):
    return connected_gnp(5 + i % 4, 0.5, seed=8600 + i)


def test_8_observation_suite():
    with acceptance("edge partitions combine and projections verify (50 seeded)"):
        import random

        split_checked = 0
        for i in range(50):
            g = _partition_instance(i)
            # (a) connected edge partition, one distinct palette per part
            check_partition_combination(g, random_edge_partition(g, random.Random(i)))
            # (b) projections through one detach, then through a build's splits
            check_detach_projection(g)
            packing = pack_edge_disjoint(g, "greedy")
            if not packing.all_forest:
                result = build_transformed(g, packing)
                if result.trace.split_count:
                    lgf = line_graph(replay_trace(result.trace)).l_graph
                    col = EdgeColoring(lgf, tuple(range(1, lgf.m + 1)), max(lgf.m, 1))
                    projected = project_coloring(result.trace, col)
                    assert _check_all_pairs(projected.graph, [1 << (c - 1) for c in projected.colors])[0]
                    split_checked += 1
        assert split_checked >= 5


def test_9_double_implementation_agreement():
    with acceptance("state search agrees with naive path enumeration, witness included (52 graphs)"):
        graphs = connected_graphs_up_to(6)
        assert len(graphs) == 52
        checked = failing = 0
        for g in graphs:
            for k in range(1, min(3, g.m) + 1):
                for colors in canonical_colorings(g.m, k):
                    ok, witness = is_rainbow_connected(EdgeColoring(g, colors, k))
                    assert witness == naive_failing_pair(g, colors)
                    assert ok == (witness is None)
                    checked += 1
                    failing += not ok
        assert checked > 3000 and failing > 1000
