"""Executable forms of the structural facts the constructions rely on:
palette concatenation over connected edge partitions, rc monotonicity under
shrinking, and coloring projection through both transform steps."""

import random
from itertools import combinations

import pytest

from corpus import random_edge_partition
from helpers import detach_edge, shrink, split_vertex
from rainbowline.coloring import ColorPart, EdgeColoring, combine_colorings, project_coloring
from rainbowline.families import connected_gnp
from rainbowline.graphs import blocks, is_connected
from rainbowline.linegraph import line_graph
from rainbowline.oracle import _check_all_pairs, exact_rc, is_rainbow_connected
from rainbowline.triangles import TransformTrace, pack_edge_disjoint


class TestPartitionCombination:
    @pytest.mark.parametrize("seed", range(25))
    def test_connected_parts_with_distinct_palettes_verify(self, seed):
        rng = random.Random(seed)
        g = connected_gnp(5 + seed % 4, 0.5, seed=2000 + seed)
        groups = random_edge_partition(g, rng)
        parts = [
            ColorPart({eid: i + 1 for i, eid in enumerate(group)}, len(group))
            for group in groups
        ]
        combined = combine_colorings(g, parts)
        assert combined.k == g.m
        ok, witness = is_rainbow_connected(combined)
        assert ok, (g, groups, witness)


class TestShrinkMonotone:
    @pytest.mark.parametrize("seed", range(25))
    def test_rc_never_grows(self, seed):
        rng = random.Random(seed)
        g = connected_gnp(rng.randint(4, 6), 0.5, seed=3000 + seed)
        if g.m > 10:
            pytest.skip("oracle budget")
        adj = [set(g.adjacency[v]) for v in range(g.n)]
        candidates = [
            (a, b)
            for a, b in combinations(range(g.n), 2)
            if not (adj[a] & adj[b]) - {a, b}
        ]
        if not candidates:
            pytest.skip("no shrinkable pair without a common outside neighbor")
        a, b = candidates[rng.randrange(len(candidates))]
        res = shrink(g, {a, b})
        if res.graph.m == 0:
            pytest.skip("quotient has no edges")
        assert is_connected(res.graph)
        assert exact_rc(res.graph) <= exact_rc(g)


class TestDetachProjection:
    @pytest.mark.parametrize("seed", range(25))
    def test_projected_rainbow_survives(self, seed):
        g = connected_gnp(5 + seed % 4, 0.5, seed=2500 + seed)
        bridge_ids = {next(iter(blk)) for blk in blocks(g).blocks if len(blk) == 1}
        eligible = [
            eid
            for eid, (u, v) in enumerate(g.edges)
            if g.degree(u) >= 2 and g.degree(v) >= 2 and eid not in bridge_ids
        ]
        if not eligible:
            pytest.skip("no detachable non-bridge edge")
        g2, step = detach_edge(g, eligible[0])
        assert is_connected(g2)
        trace = TransformTrace(source=g, steps=(step,))
        lg2 = line_graph(g2).l_graph
        k = max(lg2.m, 1)
        distinct = EdgeColoring(lg2, tuple(range(1, lg2.m + 1)), k)
        assert _check_all_pairs(lg2, [1 << (c - 1) for c in distinct.colors])[0]
        projected = project_coloring(trace, distinct)
        assert _check_all_pairs(projected.graph, [1 << (c - 1) for c in projected.colors])[0]


class TestSplitProjection:
    def _split_instance(self, seed):
        g = connected_gnp(6 + seed % 4, 0.55, seed=3500 + seed)
        packing = pack_edge_disjoint(g, "greedy")
        for v in range(g.n):
            at_v = [t for t in packing.triangles if v in t.vertices]
            if len(at_v) < 2:
                continue
            for moved in at_v:
                keep = [t for t in at_v if t != moved]
                g2, step = split_vertex(g, v, keep, [moved])
                if is_connected(g2):
                    return g, g2, step
        return None

    @pytest.mark.parametrize("seed", range(40))
    def test_projected_rainbow_survives(self, seed):
        inst = self._split_instance(seed)
        if inst is None:
            pytest.skip("no connectivity-preserving split available")
        g, g2, step = inst
        trace = TransformTrace(source=g, steps=(step,))
        lg2 = line_graph(g2).l_graph
        k = max(lg2.m, 1)
        distinct = EdgeColoring(lg2, tuple(range(1, lg2.m + 1)), k)
        assert _check_all_pairs(lg2, [1 << (c - 1) for c in distinct.colors])[0]
        projected = project_coloring(trace, distinct)
        assert _check_all_pairs(projected.graph, [1 << (c - 1) for c in projected.colors])[0]

    def test_split_coverage(self):
        found = sum(1 for seed in range(40) if self._split_instance(seed) is not None)
        assert found >= 10
