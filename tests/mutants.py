"""A catalogue of mutants of the package, each with the tests that kill it.

Run it from anywhere with ``python tests/mutants.py``. It is not part of the
Tier-1 suite. The runner first runs every killing test once on an unmutated
copy, where each must pass. Then, for each mutant, it copies ``src/``,
``tests/`` and ``pyproject.toml`` to a temporary directory, replaces the
mutant's snippet there and runs each of its killing tests alone, in a
pytest run of its own. The copy matters: pytest's ``pythonpath = ["src"]``
would otherwise import the unmutated package. It exits 1 if a listed test
does not kill its mutant on its own, if a snippet no longer occurs exactly
once, or if the unmutated run fails. A refactor that moves a snippet must
update its entry along with the code, and a test that stops killing its
mutant must be replaced by one that does. ``tests/test_mutants.py``, in the
Tier-1 suite, checks each entry's snippet and killers without applying it.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
ORACLE = "src/rainbowline/oracle.py"
GRAPHS = "src/rainbowline/graphs.py"
LINEGRAPH = "src/rainbowline/linegraph.py"
TRIANGLES = "src/rainbowline/triangles.py"
COLORING = "src/rainbowline/coloring.py"
FAMILIES = "src/rainbowline/families.py"
NETWORKX = "tests/test_graphs.py::TestMatchesNetworkx::"
CUBIC_REFERENCE = "tests/test_cli.py::TestGenAndFamilies::test_cubic_sampler_matches_shuffle_reference"
WITHIN_TWO = "tests/test_oracle.py::TestReachesWithinTwo::"
RULE = WITHIN_TWO + "test_matches_the_rule"
LOOK_AHEAD = "tests/test_oracle.py::TestLookAheadMatchesQueue::"
LOOK_AHEAD_SCAN = "tests/test_oracle.py::TestLookAheadScan::test_scans_the_targets_left_in_order"
SCAN = "tests/test_oracle.py::TestTargetScan::"
PROJECTION = "tests/test_coloring.py::TestProjection::"
PULL_BACK = "tests/test_coloring.py::TestProjectionMatchesPullBack::"
RECURSION = "tests/test_coloring.py::TestTreeColoringMatchesRecursion::"
CONSTRUCT = "tests/test_coloring.py::TestConstructMatchesReference::test_star_rules_match_part_by_part"
GOLDEN = "tests/test_goldens.py::test_report_is_byte_identical"
STALE = "tests/test_triangles.py::TestClassify::test_one_stale_side_is_rejected"
FIRES = "tests/test_oracle.py::TestLookAheadTrigger::test_look_ahead_fires_on_a_long_sparse_line_graph"
GREEDY_RULE = "tests/test_triangles.py::TestPacking::test_greedy_takes_each_triangle_that_fits"
BRUTE_FORCE = "tests/test_triangles.py::TestPacking::test_exact_matches_brute_force"
CLASSIFY = "tests/test_triangles.py::TestClassify::"
CHORDS = "tests/test_triangles.py::TestBuildTransformed::test_chords_detached_component_by_component"
RING3_SPLIT = "tests/test_triangles.py::TestBuildTransformed::test_ring3_single_split"
ENTRY = "tests/test_coloring.py::TestColorEntryPoint::"
FALLS_BACK = ENTRY + "test_falls_back_to_greedy_past_the_exact_cap"
ENUMERATION = "tests/test_oracle.py::TestPrunedSearchMatchesEnumeration::test_exact_search_sets"
BOUND = "if len(chosen) + (n_t - i) <= len(best):"
FOREST_TEST = "return len({self.find(v) for v in tri.vertices}) == 3"
TRIGGER = "if len(frontier) > _LOOK_AHEAD_FACTOR * left:"


class Mutant(NamedTuple):
    name: str
    path: str
    snippet: str
    replacement: str
    killers: tuple[str, ...]


MUTANTS = (
    Mutant(
        "exact_rc: the fresh-color skip applied to reused colors",
        ORACLE,
        "if c <= top and not all(",
        "if c > top and not all(",
        (
            "tests/test_oracle.py::TestExactRc::test_cycle5",
            ENUMERATION + "[small]",
        ),
    ),
    Mutant(
        "exact_rc: the forced-fresh tail dropped",
        ORACLE,
        "stack.append([free.pop(), t, t if k - t == m - len(stack) else 0])",
        "stack.append([free.pop(), t, 0])",
        ("tests/test_oracle.py::TestEdgeOrders::test_checked_prefixes_can_reach_k_colors",),
    ),
    Mutant(
        "exact_rc: a backtracked edge keeps its color",
        ORACLE,
        "            at_u[0] = at_v[0] = 0\n            insort(",
        "            insort(",
        (
            "tests/test_oracle.py::TestSharpPastTheCap::test_long_cycles",
            ENUMERATION + "[small]",
            "tests/test_oracle.py::TestEdgeOrders::test_failed_palette_size_leaves_edges_uncolored",
        ),
    ),
    Mutant(
        "exact_rc: failure counts never incremented",
        ORACLE,
        "            weight[i] += m\n",
        "",
        ("tests/test_oracle.py::TestEdgeOrders::test_call_budget[gnp11-s1]",),
    ),
    Mutant(
        "exact_rc: a backtracked edge never offered again",
        ORACLE,
        "            insort(free, i, key=weight.__getitem__)\n",
        "",
        (
            "tests/test_oracle.py::TestSharpPastTheCap::test_long_cycles",
            ENUMERATION + "[small]",
        ),
    ),
    Mutant(
        "exact_rc: ties by edge id alone",
        ORACLE,
        "key=lambda i: min(dist[u] for u in g.edges[i]))",
        "key=lambda i: i)",
        ("tests/test_oracle.py::TestEdgeOrders::test_call_budget[gnp11-s1]",),
    ),
    Mutant(
        "exact_rc: the search stops one edge short of a full coloring",
        ORACLE,
        "if len(stack) == m:",
        "if len(stack) == m - 1:",
        (
            "tests/test_oracle.py::TestExactRc::test_cycle5",
            ENUMERATION + "[small]",
        ),
    ),
    Mutant(
        "look-ahead: the two-edge phase allows c2 == c1",
        ORACLE,
        "                if c2 == c1:\n                    continue\n",
        "",
        (
            WITHIN_TWO + "test_one_color_twice_fails",
            RULE,
            LOOK_AHEAD + "test_matches_queue[tail-verdicts2]",
            LOOK_AHEAD + "test_tail_end_is_the_witness",
        ),
    ),
    Mutant(
        "look-ahead: the two-edge phase tests only c1, the color next to the target",
        ORACLE,
        "b = c1 | c2",
        "b = c1",
        (
            WITHIN_TWO + "test_mask_holding_either_color_fails",
            RULE,
            LOOK_AHEAD + "test_matches_queue[small-verdicts3]",
        ),
    ),
    Mutant(
        "look-ahead: a target passes when neither phase finds a walk",
        ORACLE,
        "                                return True\n    return False\n\n\ndef _first_unreached",
        "                                return True\n    return True\n\n\ndef _first_unreached",
        (
            WITHIN_TWO + "test_mask_holding_either_color_fails",
            WITHIN_TWO + "test_one_color_twice_fails",
            WITHIN_TWO + "test_no_mask_two_edges_away_fails",
            WITHIN_TWO + "test_unreached_neighbour_fails",
            RULE,
            LOOK_AHEAD + "test_matches_queue[tail-verdicts2]",
            LOOK_AHEAD + "test_tail_end_is_the_witness",
            LOOK_AHEAD + "test_look_ahead_ends_early_and_fails",
            LOOK_AHEAD_SCAN,
        ),
    ),
    # Only hand-built states kill the next two: in the search, a frontier
    # state with a free edge into a target came from a state whose two-edge
    # walk passes the same target, so no verdict changes.
    Mutant(
        "look-ahead: the one-edge phase skips first[w] once w has later masks",
        ORACLE,
        "if not first[w] & b:",
        "if more[w] is None and not first[w] & b:",
        (WITHIN_TWO + "test_first_mask_beside_later_ones",),
    ),
    Mutant(
        "look-ahead: the one-edge phase skips more[w]",
        ORACLE,
        "            xs = more[w]\n            if xs is not None:",
        "            xs = None\n            if xs is not None:",
        (WITHIN_TWO + "test_first_mask_beside_later_ones",),
    ),
    Mutant(
        "look-ahead: the next target read from t + 2",
        ORACLE,
        "t = first.index(-1, t + 1)",
        "t = first.index(-1, t + 2)",
        (SCAN + "test_unreachable_target_after_a_reachable_one", LOOK_AHEAD + "test_tail_end_is_the_witness"),
    ),
    Mutant(
        "verifier: no slot past the last vertex to end a scan",
        ORACLE,
        "first = [-1] * (n + 1)",
        "first = [-1] * n",
        (
            SCAN + "test_scan_past_every_target_left_ends_the_source",
            LOOK_AHEAD + "test_matches_queue[certified-verdicts0]",
        ),
    ),
    Mutant(
        "look-ahead: the scan's end read one slot early",
        ORACLE,
        "if t == n:",
        "if t == n - 1:",
        (SCAN + "test_only_target_left_is_the_last_vertex", LOOK_AHEAD + "test_tail_end_is_the_witness"),
    ),
    # Verdicts do not change: a source ends on the look-ahead only when
    # every target left passes, as before, so only the scan test sees it.
    Mutant(
        "look-ahead: the scan goes on past a rejected target",
        ORACLE,
        "            while t < n and _reaches_within_two(adj, t, first, more):\n"
        "                t = first.index(-1, t + 1)\n            if t == n:\n",
        "            passed = True\n            while t < n:\n"
        "                passed = _reaches_within_two(adj, t, first, more) and passed\n"
        "                t = first.index(-1, t + 1)\n            if passed:\n",
        (LOOK_AHEAD_SCAN,),
    ),
    Mutant(
        "verifier: the first visit of target s + 1 not counted",
        ORACLE,
        "                        if w > s:\n                            left -= 1",
        "                        if w > s + 1:\n                            left -= 1",
        (
            "tests/test_oracle.py::TestIsRainbowConnected::test_monochromatic_complete",
            "tests/test_oracle.py::TestNaiveAgreement::test_random_small_instances[2]",
        ),
    ),
    Mutant(
        "relaxed check: the first visit of target s + 1 not counted",
        ORACLE,
        "                    if w > s:\n                        left -= 1",
        "                    if w > s + 1:\n                        left -= 1",
        (
            "tests/test_oracle.py::TestCountedReaches::test_uncolored_edge_reaches_the_next_vertex",
            "tests/test_oracle.py::TestExactRc::test_cycle5",
        ),
    ),
    Mutant(
        "relaxed check: a later mask admitted without the subset scan",
        ORACLE,
        "\n                        for x in xs:\n                            if x & nm == x:\n"
        "                                break\n                        else:\n",
        "\n                        if True:\n",
        ("tests/test_oracle.py::TestCountedReaches::test_superset_of_a_later_mask_is_dropped",),
    ),
    Mutant(
        "look-ahead: the trigger read from the vertex count",
        ORACLE,
        TRIGGER,
        "if len(frontier) > len(adj):",
        (FIRES,),
    ),
    Mutant(
        "look-ahead: never runs",
        ORACLE,
        TRIGGER,
        "if False:",
        (
            FIRES,
            LOOK_AHEAD + "test_look_ahead_ends_early_and_fails",
            LOOK_AHEAD_SCAN,
        ),
    ),
    Mutant(
        "look-ahead: runs before every level",
        ORACLE,
        TRIGGER,
        "if True:",
        (FIRES, RULE),
    ),
    Mutant(
        "graphs: a disconnected graph's diameter is its round count",
        GRAPHS,
        "return rounds if all(ball == full for ball in balls) else math.inf",
        "return rounds",
        (
            NETWORKX + "test_distances",
            NETWORKX + "test_distances_on_wide_graphs[union]",
            "tests/test_graphs.py::TestDiameter::test_disconnected_is_infinite",
        ),
    ),
    Mutant(
        "graphs: a ball ORs in the balls its lower neighbours grew this round",
        GRAPHS,
        "ball |= balls[w]",
        "ball |= grown[w] if w < len(grown) else balls[w]",
        (
            NETWORKX + "test_distances",
            NETWORKX + "test_distances_on_wide_graphs[L_gnp_40_0.15]",
            "tests/test_graphs.py::TestDiameter::test_cached_on_the_graph",
        ),
    ),
    Mutant(
        "graphs: two isolated vertices called connected",
        GRAPHS,
        "return self.n <= 1 or",
        "return self.n <= 2 or",
        (
            "tests/test_graphs.py::TestDiameter::test_matches_networkx",
            "tests/test_graphs.py::test_connected_iff_one_component",
        ),
    ),
    Mutant(
        "graphs: the search revisits the source",
        GRAPHS,
        "if dist[w] < 0:",
        "if dist[w] <= 0:",
        (NETWORKX + "test_distances",),
    ),
    Mutant(
        "graphs: a block that closes at its first vertex is not cut off",
        GRAPHS,
        "if low[v] >= disc[p]:",
        "if low[v] > disc[p]:",
        (NETWORKX + "test_blocks",),
    ),
    Mutant(
        "Graph.n2 counts every vertex with an edge",
        GRAPHS,
        "for d in self.degrees if d >= 2)",
        "for d in self.degrees if d >= 1)",
        (NETWORKX + "test_inner_vertices", GOLDEN + "[bench_gnp_7_seed1.csv]"),
    ),
    Mutant(
        "line_graph: consecutive edges of a star left unjoined",
        LINEGRAPH,
        "l_edges.extend(combinations(inc, 2))",
        "l_edges.extend((a, b) for i, a in enumerate(inc) for b in inc[i + 2 :])",
        (NETWORKX + "test_line_graph",),
    ),
    Mutant(
        "enumerate_triangles: a triangle found from two of its sides",
        TRIANGLES,
        "adj[u] & adj[v] if w > v",
        "adj[u] & adj[v] if w > u",
        (NETWORKX + "test_triangles",),
    ),
    Mutant(
        "triangles: the side bc of a triangle left unchecked",
        TRIANGLES,
        "ids.get((b, c))) != tri.edge_ids",
        "tri.edge_ids[2]) != tri.edge_ids",
        (STALE + "[bc-other_graph]", STALE + "[bc-out_of_range]"),
    ),
    Mutant(
        "TrianglePacking: a packing's triangles may share an edge",
        TRIANGLES,
        'raise InputError(f"triangle {tri.vertices} shares an edge with another")',
        "pass",
        (CLASSIFY + "test_rejects_overlapping_triangles", CLASSIFY + "test_packs_exactly_the_packings"),
    ),
    Mutant(
        "greedy packing: triangles scanned in reverse",
        TRIANGLES,
        "    for tri in tris:\n        mask = _edge_mask(tri)\n        if used & mask:\n            continue",
        "    for tri in reversed(tris):\n        mask = _edge_mask(tri)\n        if used & mask:\n            continue",
        (GREEDY_RULE + "[greedy]", GREEDY_RULE + "[forest_greedy]", GOLDEN + "[color_gnp_40_seed1.json]"),
    ),
    Mutant(
        "forest packing: a triangle with two corners in one component kept",
        TRIANGLES,
        FOREST_TEST,
        "return len({self.find(v) for v in tri.vertices}) >= 2",
        (
            GREEDY_RULE + "[forest_greedy]",
            BRUTE_FORCE + "[forest_exact]",
            ENTRY + "test_run_matches_back_end[31-make1-forest_exact]",
        ),
    ),
    Mutant(
        "forest packing: the forest test dropped",
        TRIANGLES,
        FOREST_TEST,
        "return True",
        (GREEDY_RULE + "[forest_greedy]", BRUTE_FORCE + "[forest_exact]", FALLS_BACK + "[31-forest_greedy-4-5]"),
    ),
    Mutant(
        "forest greedy packing: the union-find never takes a chosen triangle in",
        TRIANGLES,
        "        if forest:\n            dsu.add_triangle(tri)\n",
        "",
        (
            GREEDY_RULE + "[forest_greedy]",
            FALLS_BACK + "[31-forest_greedy-4-5]",
            GOLDEN + "[color_gnp_30_seed2_t31.json]",
        ),
    ),
    Mutant(
        "forest exact packing: one union-find shared by the take and skip branches",
        TRIANGLES,
        "taken = dsu.copy()",
        "taken = dsu",
        (BRUTE_FORCE + "[forest_exact]", GOLDEN + "[bench_gnp_7_seed1.csv]"),
    ),
    Mutant(
        "exact packing: ties explored, so the last of equal picks wins",
        TRIANGLES,
        BOUND,
        "if len(chosen) + (n_t - i) < len(best):",
        (BRUTE_FORCE + "[exact]", BRUTE_FORCE + "[forest_exact]", GOLDEN + "[color_gnp_14_seed11.json]"),
    ),
    Mutant(
        "exact packing: the bound counts one triangle fewer left",
        TRIANGLES,
        BOUND,
        "if len(chosen) + (n_t - i - 1) <= len(best):",
        (BRUTE_FORCE + "[exact]", BRUTE_FORCE + "[forest_exact]"),
    ),
    Mutant(
        "exact packing: no branch skips a triangle it can take",
        TRIANGLES,
        "            chosen.pop()\n        dfs(i + 1, used, dsu)\n",
        "            chosen.pop()\n        else:\n            dfs(i + 1, used, dsu)\n",
        (BRUTE_FORCE + "[exact]", BRUTE_FORCE + "[forest_exact]", RING3_SPLIT),
    ),
    # The next two lose optimality: the exact modes' pick is smaller, not
    # only another choice.
    Mutant(
        "exact packing: a branch that could beat the best by one is pruned",
        TRIANGLES,
        BOUND,
        "if len(chosen) + (n_t - i) <= len(best) + 1:",
        (BRUTE_FORCE + "[exact]", BRUTE_FORCE + "[forest_exact]"),
    ),
    Mutant(
        "exact packing: no leaf is ever recorded, not even the first (greedy) one",
        TRIANGLES,
        "            best = chosen.copy()\n",
        "            best = best\n",
        (BRUTE_FORCE + "[exact]", BRUTE_FORCE + "[forest_exact]", RING3_SPLIT),
    ),
    Mutant(
        "TrianglePacking: components in descending root order",
        TRIANGLES,
        "for r in sorted(groups))",
        "for r in sorted(groups, reverse=True))",
        (CHORDS, GOLDEN + "[color_gnp_14_seed11.json]"),
    ),
    Mutant(
        "TrianglePacking: a component's vertices miss each triangle's last corner",
        TRIANGLES,
        "for v in self.triangles[i].vertices)",
        "for v in self.triangles[i].vertices[:2])",
        (CLASSIFY + "test_vertex_count_matches_blocks", CHORDS),
    ),
    Mutant(
        "TrianglePacking: n2_prime ignores the covered vertices",
        TRIANGLES,
        "return self.graph.n2 - len(self.covered_vertices)",
        "return self.graph.n2",
        (CLASSIFY + "test_shared_vertex_chain[2]", GOLDEN + "[color_gnp_14_seed11.json]"),
    ),
    Mutant(
        "TrianglePacking: c counts triangles",
        TRIANGLES,
        "return len(self.components)",
        "return len(self.triangles)",
        (CLASSIFY + "test_bowtie_both_triangles", CLASSIFY + "test_ring3_defect"),
    ),
    Mutant(
        "TrianglePacking: all_forest read as op <= 1",
        TRIANGLES,
        "return self.op == 0",
        "return self.op <= 1",
        (
            CLASSIFY + "test_ring3_defect",
            CLASSIFY + "test_vertex_count_matches_blocks",
            "tests/test_coloring.py::TestForestPackingBound::test_rejects_non_forest_packing",
            GOLDEN + "[color_triangle_ring_8.json]",
        ),
    ),
    Mutant(
        "default_mode: the table's last mode tried first",
        COLORING,
        "next(mode for mode in DEFAULT_PACK[theorem] if",
        "next(mode for mode in reversed(DEFAULT_PACK[theorem]) if",
        (
            ENTRY + "test_run_matches_back_end[31-make0-forest_exact]",
            ENTRY + "test_run_matches_back_end[32-make2-exact]",
            GOLDEN + "[color_friendship_5_t31.json]",
        ),
    ),
    Mutant(
        "pick_packing: only the exact mode picked",
        COLORING,
        "picks = pack_modes(g, DEFAULT_PACK[theorem])",
        "picks = pack_modes(g, DEFAULT_PACK[theorem][:1])",
        (FALLS_BACK + "[31-forest_greedy-4-5]", FALLS_BACK + "[32-greedy-8-9]"),
    ),
    Mutant(
        "build_transformed: a split records the side opposite its vertex",
        TRIANGLES,
        "if eid != tris[i].opposite(v)",
        "if eid != min(tris[i].edge_ids)",
        (
            "tests/test_triangles.py::TestSweepMatchesReclassify::test_same_result[triangle_ring-3]",
            "tests/test_triangles.py::TestReplay::test_rejects_tampered_records",
        ),
    ),
    Mutant(
        "build_transformed: the split sweep skipped at op = 1 too",
        TRIANGLES,
        "if packing.op:",
        "if packing.op > 1:",
        (
            "tests/test_triangles.py::TestBuildTransformed::test_ring3_single_split",
            GOLDEN + "[color_triangle_ring_8.json]",
        ),
    ),
    Mutant(
        "build_transformed: a packing of another graph let through",
        TRIANGLES,
        "if packing.graph != g:",
        "if False:",
        (
            "tests/test_triangles.py::TestSplitVertex::test_rejects_packing_of_another_graph",
            "tests/test_triangles.py::TestSplitVertex::test_rejects_packing_of_a_supergraph_with_equal_n2",
        ),
    ),
    # A detach changes no color, so only the projection tests see the next one.
    Mutant(
        "moved_ends: a detach moves its edge's u end, not its v end",
        TRIANGLES,
        "moved[step.edge, step.v] = (step.new_edge, step.v)",
        "moved[step.edge, self.source.edges[step.edge][0]] = (step.new_edge, self.source.edges[step.edge][0])",
        (PROJECTION + "test_detach_projection_verifies", PULL_BACK + "test_build_transformed_traces[greedy-0]"),
    ),
    Mutant(
        "moved_ends: a split leaves its moved ends at the old vertex",
        TRIANGLES,
        "(e, step.new_vertex)",
        "(e, step.vertex)",
        (
            PROJECTION + "test_split_projection_verifies",
            PULL_BACK + "test_cubic_star_packing_traces[0]",
            CONSTRUCT,
            GOLDEN + "[color_triangle_ring_8.json]",
        ),
    ),
    Mutant(
        "construction: a pair a split cut gets color 2",
        COLORING,
        "colors.append(1)",
        "colors.append(2)",
        (CONSTRUCT, GOLDEN + "[color_triangle_ring_8.json]"),
    ),
    Mutant(
        "construction: the star rule gives the special edge's pairs color b",
        COLORING,
        "colors.append(a if s in (e, f) else b)",
        "colors.append(b if s in (e, f) else a)",
        (
            CONSTRUCT,
            "tests/test_coloring.py::TestForestPackingBound::test_bowtie",
            GOLDEN + "[color_friendship_5_t31.json]",
        ),
    ),
    Mutant(
        "color_triangle_tree: the highest leaf peeled first",
        COLORING,
        "        i = heapq.heappop(leaves)\n",
        "        leaves.sort()\n        i = leaves.pop()\n",
        (RECURSION + "test_example32[5]", CONSTRUCT, GOLDEN + "[color_gnp_30_seed2_t31.json]"),
    ),
    Mutant(
        "construction: an uncovered inner vertex reuses the previous color",
        COLORING,
        "            k += 1\n            rules[x] = (None, k, k)",
        "            rules[x] = (None, max(k, 1), max(k, 1))",
        (
            CONSTRUCT,
            "tests/test_coloring.py::TestForestPackingBound::test_triangle_free_uses_inner_count",
            GOLDEN + "[color_path_20_iterated.json]",
        ),
    ),
    Mutant(
        "_construct leaves the palette to the verifier",
        COLORING,
        "check_palette(k)",
        "pass",
        ("tests/test_coloring.py::TestCertify::test_over_cap_palette_refused_before_its_line_graph",),
    ),
    Mutant(
        "colors_used reports the palette",
        COLORING,
        "used = len(set(colors))",
        "used = k",
        ("tests/test_coloring.py::TestCertify::test_colors_used_counts_the_colors_that_appear",),
    ),
    Mutant(
        "iterated builds L(G) with line_graph",
        COLORING,
        "lg = iterated_line_graph(g, 1)[0].l_graph",
        "lg = line_graph(g).l_graph",
        ("tests/test_coloring.py::TestIterated::test_baseline_refuses_a_line_graph_past_the_iterate_cap",),
    ),
    Mutant(
        "_restate skips its value check",
        COLORING,
        "if value != cert.bound_value:",
        "if False:",
        ("tests/test_coloring.py::TestRestate::test_a_mismatched_value_raises",),
    ),
    Mutant(
        "random_cubic: the draw width read off i, not i + 1",
        FAMILIES,
        "draws = [(i, (i + 1).bit_length())",
        "draws = [(i, i.bit_length())",
        (CUBIC_REFERENCE,),
    ),
    Mutant(
        "random_cubic: a loop passes the rejection test and reaches build_graph",
        FAMILIES,
        "for u, v in pairs if u != v}",
        "for u, v in pairs}",
        (CUBIC_REFERENCE,),
    ),
)

# Deterministic runs: a fixed hypothesis seed, and no cache or bytecode
# written into the copy.
PYTEST = ("-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0")


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".hypothesis", "*.egg-info")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def _pytest(root: Path, tests: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *PYTEST, *tests], cwd=root, env=env, capture_output=True, text=True
    )


def _outcomes(mutant: Mutant) -> dict[str, str]:
    """Per killing test, ``"killed"``, ``"survived"`` or a reason it could
    not run; a snippet that does not occur exactly once fails them all."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp)
        _copy(root)
        target = root / mutant.path
        text = target.read_text()
        found = text.count(mutant.snippet)
        if found != 1:
            return dict.fromkeys(mutant.killers, f"snippet found {found} times in {mutant.path}")
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
        outcomes = {}
        for test in mutant.killers:
            run = _pytest(root, (test,))
            if run.returncode == 0:
                outcomes[test] = "survived"
            elif run.returncode == 1:
                outcomes[test] = "killed"
            else:
                outcomes[test] = f"pytest exited {run.returncode}:\n{run.stdout}{run.stderr}"
    return outcomes


def main() -> int:
    killers = tuple(dict.fromkeys(t for mutant in MUTANTS for t in mutant.killers))
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="unmutated-") as tmp:
        _copy(Path(tmp))
        run = _pytest(Path(tmp), killers)
    if run.returncode != 0:
        print(f"the killing tests fail on the unmutated copy:\n{run.stdout}{run.stderr}")
        return 1
    failed = 0
    for mutant in MUTANTS:
        began = time.perf_counter()
        outcomes = _outcomes(mutant)
        kills = sum(outcome == "killed" for outcome in outcomes.values())
        verdict = "killed" if kills == len(outcomes) else "FAILED"
        print(f"{verdict:<7} {kills}/{len(outcomes)} {time.perf_counter() - began:5.1f} s  {mutant.name}")
        if kills < len(outcomes):
            failed += 1
            for test, outcome in outcomes.items():
                if outcome != "killed":
                    print(f"    {outcome}: {test}")
    print(
        f"{len(MUTANTS) - failed} of {len(MUTANTS)} mutants killed by each of their tests"
        f" in {time.perf_counter() - start:.1f} s"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
