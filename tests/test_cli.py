import ast
import functools
import io
import json
import os
import pathlib
import re
import runpy
import signal
import subprocess
import sys
from dataclasses import replace
from typing import NamedTuple

import pytest

from helpers import count_packing_work, shuffle_random_cubic
from rainbowline import cli, coloring, families, oracle
from rainbowline.cli import EXIT_INPUT, EXIT_INTERNAL, EXIT_LIMIT, main, run_bench
from rainbowline.errors import InputError, InvariantViolation, LimitError
from rainbowline.families import FAMILIES, connected_gnp, cycle_graph, gen_family, random_cubic
from rainbowline.formats import parse_edge_list, render_edge_list, to_dot
from rainbowline.graphs import Graph, diameter
from rainbowline.linegraph import line_graph
from rainbowline.triangles import pack_edge_disjoint

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"


class TestEdgeListFormat:
    def test_parse_triangle(self):
        g = parse_edge_list("3 3\n0 1\n1 2\n0 2\n")
        assert g.n == 3 and g.m == 3

    def test_loop_reports_line(self):
        with pytest.raises(InputError, match="line 2: loop"):
            parse_edge_list("2 1\n0 0\n")

    def test_parse_path(self):
        g = parse_edge_list("4 3\n0 1\n1 2\n2 3\n")
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list("# a triangle\n\n3 3\n0 1\n# middle\n1 2\n0 2\n")
        assert g.m == 3

    def test_count_mismatch(self):
        with pytest.raises(InputError, match="expected 3 edge lines"):
            parse_edge_list("3 3\n0 1\n")
        with pytest.raises(InputError, match="line 4: unexpected"):
            parse_edge_list("3 2\n0 1\n1 2\n0 2\n")

    def test_malformed_line(self):
        with pytest.raises(InputError, match="line 2"):
            parse_edge_list("3 2\n0 x\n1 2\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# c\n3 2\n0 3\n1 2\n", "line 3: vertex out of range in edge (0, 3)"),
            ("3 3\n0 1\n\n1 0\n1 2\n", "line 4: duplicate edge (1, 0)"),
            ("3 2\n1 1\n0 x\n", "line 2: loop edge (1, 1)"),
            ("3 2\n0 x\n1 1\n", "line 2: expected two integers, got '0 x'"),
        ],
    )
    def test_first_bad_line_is_reported(self, text, message):
        with pytest.raises(InputError) as exc:
            parse_edge_list(text)
        assert str(exc.value) == message

    @pytest.mark.parametrize(
        "name,params",
        [
            ("example31", {"t": 3}),
            ("example32", {"k": 4}),
            ("path", {"n": 5}),
            ("cycle", {"n": 6}),
            ("complete", {"n": 5}),
            ("petersen", {}),
            ("triangle_ring", {"r": 4}),
            ("friendship", {"f": 3}),
        ],
    )
    def test_round_trip(self, name, params):
        g = gen_family(name, **params)
        assert parse_edge_list(render_edge_list(g)) == g


class TestGenAndFamilies:
    def test_chain_family_shape(self):
        g = gen_family("example31", t=2)
        assert g.n == 6 and g.m == 7
        assert diameter(line_graph(g).l_graph) == 4

    def test_shared_chain_diameter(self):
        g = gen_family("example32", k=2)
        assert diameter(line_graph(g).l_graph) == 3

    def test_ring_defect(self):
        p = pack_edge_disjoint(gen_family("triangle_ring", r=3), "exact")
        assert p.op == 1

    def test_unlikely_gnp_is_a_resource_limit(self):
        # a connected sample exists, but not within GNP_MAX_TRIES draws
        message = "no connected gnp(30, 0.01) sample in 1000 tries"
        with pytest.raises(LimitError, match=re.escape(message)):
            connected_gnp(30, 0.01, 1)

    def test_unknown_family_is_an_input_error(self):
        # the CLI's --family choices refuse it before gen_family is called
        with pytest.raises(InputError, match=f"^unknown family 'nosuch'; available: {', '.join(FAMILIES)}$"):
            gen_family("nosuch")

    def test_cubic_sampler_out_of_tries_is_a_resource_limit(self, monkeypatch):
        monkeypatch.setattr(families, "CUBIC_MAX_TRIES", 0)
        with pytest.raises(LimitError, match="no simple connected cubic sample on 8 vertices in 0 tries"):
            random_cubic(8, 1)

    @pytest.mark.parametrize(
        "n, seeds",
        [(n, range(50)) for n in (4, 6, 8, 10, 12)]
        + [(n, range(10)) for n in (20, 40, 62)]
        + [(8, [s * 1_000_003 for s in range(1, 41)])],
    )
    def test_cubic_sampler_matches_shuffle_reference(self, n, seeds):
        """The sampler inlines ``random.shuffle``'s draws, so each seed gives
        the reference's graph, edge order and orientation included. A failure
        on a new CPython means ``random.shuffle``'s draws changed there: make
        the sampler follow the reference, since seeded samples must not move.
        The last case is the benchmark's ``ensemble`` seeds."""
        for seed in seeds:
            assert random_cubic(n, seed) == shuffle_random_cubic(n, seed), seed

    def test_cubic_sampler_rejects_as_the_reference_does(self, monkeypatch):
        """Seed 6_000_018 (``ensemble`` seed 6) is accepted on try 49, so a
        rejected try must consume the reference's draws and count as one."""
        monkeypatch.setattr(families, "CUBIC_MAX_TRIES", 48)
        for sampler in (random_cubic, shuffle_random_cubic):
            with pytest.raises(LimitError, match="no simple connected cubic sample on 8 vertices in 48 tries"):
                sampler(8, 6_000_018)
        monkeypatch.setattr(families, "CUBIC_MAX_TRIES", 49)
        assert random_cubic(8, 6_000_018) == shuffle_random_cubic(8, 6_000_018)


class TestColorCommand:
    def test_diameter_only_for_json(self, capsys, monkeypatch, tmp_path):
        calls = []

        def counted(g):
            calls.append(g)
            return diameter(g)

        monkeypatch.setattr(cli, "rc_lower_bound", counted)
        argv = ["color", "--family", "example31", "--t", "3", "--theorem", "31"]
        assert main(argv) == 0
        assert "verified = true" in capsys.readouterr().out
        assert calls == []
        report = tmp_path / "r.json"
        assert main(argv + ["--json", str(report)]) == 0
        assert len(calls) == 1
        assert json.loads(report.read_text())["diameter_lower_bound"] == diameter(calls[0])

    def test_invariant_violation_is_internal_error(self, capsys, monkeypatch):
        def broken(g, packing):
            raise InvariantViolation("trace lost an edge")

        # raised inside color_packing, below the name the CLI imported
        monkeypatch.setattr(coloring, "build_transformed", broken)
        code = main(["color", "--family", "example32", "--k", "3", "--theorem", "32"])
        assert code == EXIT_INTERNAL == 1
        captured = capsys.readouterr()
        assert captured.err == "internal error: trace lost an edge\n"
        assert captured.out == ""

    def test_unverified_coloring_names_its_failing_pair(self, capsys, monkeypatch):
        # only a defect reaches this line, so the verifier is stubbed to fail
        monkeypatch.setattr(oracle, "is_rainbow_connected", lambda col: (False, (0, 2)))
        assert main(["color", "--family", "example31", "--t", "2", "--theorem", "31"]) == 2
        out = capsys.readouterr().out.splitlines()
        assert out[1:4] == ["colors used = 4", "verified = false", "failing pair = 0 2"]


class Golden(NamedTuple):
    """The file ``tests/data/<name>``: a row's expected output or an input."""

    name: str


class Case(NamedTuple):
    """One ``main`` run. It runs in an empty directory holding only
    ``files`` (name, bytes or golden), so ``argv``, split on spaces, names
    them as relative paths; ``stdin`` is the bytes stdin holds, if read. It
    exits with ``code`` and prints exactly ``stdout``, and ``stderr`` as one
    line if it is not empty. Afterwards the directory holds ``files`` and
    the files the run ``writes`` (name, text or golden), byte for byte, and
    nothing else. A ``scripts/`` command runs the script's ``main``."""

    argv: str
    code: int
    stderr: str = ""
    stdout: str | Golden = ""
    stdin: bytes | None = None
    files: tuple[tuple[str, bytes | Golden], ...] = ()
    writes: tuple[tuple[str, str | Golden], ...] = ()


def golden(name: str, argv: str, stdout: str | Golden = "", code: int = 0, inputs: tuple[str, ...] = ()) -> Case:
    """The run that writes ``tests/data/<name>`` from the ``tests/data``
    files ``inputs``: a ``.json`` golden is its ``--json`` report, any other
    golden is its stdout."""
    files = tuple((f, Golden(f)) for f in inputs)
    if name.endswith(".json"):
        return Case(f"{argv} --json {name}", code, stdout=stdout, files=files, writes=((name, Golden(name)),))
    return Case(argv, code, stdout=Golden(name), files=files)


GNP = "--model gnp --n 6 --p 0.5 --seed 1"
INPUT, LIMIT = "input error: ", "resource limit: "
BOM = b"\xef\xbb\xbf"
BENCH_HEADER = (
    "index,seed,n,m,n2,t_greedy,t_exact,t_forest_greedy,t_forest_exact,c,n2_prime,op,"
    "bound_forest,colors_forest,verified_forest,bound_general,colors_general,verified_general,"
    "bound_cubic,colors_cubic,verified_cubic,diam_line,exact_rc_line\n"
)
BENCH_GNP_6_SEED7 = (
    BENCH_HEADER
    + "0,7000021,6,9,6,1,1,1,1,1,3,0,5,5,True,5,5,True,,,,2,\n"
    + "1,7000022,6,7,5,1,1,1,1,1,2,0,4,4,True,4,4,True,,,,2,2\n"
)
# the line graphs of the paper's smallest sharpness examples, read back by
# ``exact --file -``
L_EXAMPLE31_2 = "7 10\n0 1\n0 2\n1 2\n1 3\n2 3\n3 4\n3 5\n4 5\n4 6\n5 6\n"
L_EXAMPLE32_2 = "5 6\n0 1\n0 2\n0 3\n2 3\n1 2\n3 4\n"
L_C4 = line_graph(cycle_graph(4)).l_graph
# one instance of each family; gen takes its parameter letter as a flag
FAMILY_PARAMS = {
    "example31": {"t": 2},
    "example32": {"k": 2},
    "path": {"n": 4},
    "cycle": {"n": 5},
    "complete": {"n": 4},
    "petersen": {},
    "triangle_ring": {"r": 3},
    "friendship": {"f": 2},
}

# Every in-process CLI run the tests make that needs no stub, argparse's
# usage errors aside (TestUsageErrors): its exit code, exact stdout and
# stderr, and the files it leaves behind.
# test_every_raise_site_has_a_row checks that each InputError and LimitError
# message in src/ is the stderr of some exit-3 or exit-4 row.
CASES = [
    # gen and linegraph
    Case("gen --family complete --n 3", 0, stdout="3 3\n0 1\n0 2\n1 2\n"),
    *(
        Case(
            " ".join(["gen --family", name, *(f"--{key} {value}" for key, value in FAMILY_PARAMS[name].items())]),
            0,
            stdout=render_edge_list(gen_family(name, **FAMILY_PARAMS[name])),
        )
        for name in FAMILIES
    ),
    Case("linegraph --family cycle --n 5", 0, stdout=render_edge_list(line_graph(cycle_graph(5)).l_graph)),
    Case("linegraph --family path --n 4 --iterations 2", 0, stdout="2 1\n0 1\n"),
    Case("linegraph --family cycle --n 4 --dot l.dot", 0, stdout=render_edge_list(L_C4), writes=(("l.dot", to_dot(L_C4)),)),
    Case("linegraph --family example31 --t 2", 0, stdout=L_EXAMPLE31_2),
    Case("linegraph --family example32 --k 2", 0, stdout=L_EXAMPLE32_2),
    # bound and exact
    Case("bound --family path --n 5", 0, stdout="diameter = 4\nrc lower bound = 4\nrc upper bound (spanning tree) = 4\n"),
    Case("exact --family cycle --n 5", 0, stdout="exact rc = 3\n"),
    Case("exact --file -", 0, stdout="exact rc = 4\n", stdin=L_EXAMPLE31_2.encode()),
    Case("exact --file -", 0, stdout="exact rc = 3\n", stdin=L_EXAMPLE32_2.encode()),
    # color
    Case(
        "color --family example31 --t 3 --theorem 31",
        0,
        stdout="bound n2 - t = 6\ncolors used = 6\nverified = true\npacking: t=3 c=3 n2'=0 op=0 mode=forest_exact\n",
    ),
    Case("color --family complete --n 4 --theorem cubic", 0, stdout="bound n + 1 = 5\ncolors used = 5\nverified = true\n"),
    # triangle-free, so the bound counts the inner vertices
    Case(
        "color --file g.txt --theorem 32",
        0,
        stdout="bound t + n2' + c = 5\ncolors used = 5\nverified = true\npacking: t=0 c=0 n2'=5 op=0 mode=exact\n",
        files=(("g.txt", b"5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"),),
    ),
    Case("color --family path --n 6 --theorem iterated", 0, stdout="bound m - m1 = 3\ncolors used = 3\nverified = true\n"),
    Case(
        "color --family complete --n 3 --theorem 32 --dot l.dot",
        0,
        stdout="bound t + n2' + c = 2\ncolors used = 1\nverified = true\npacking: t=1 c=1 n2'=0 op=0 mode=exact\n",
        writes=(
            (
                "l.dot",
                "graph L {\n  // color 1 = #e6194b\n  0;\n  1;\n  2;\n"
                "  0 -- 1 [color=1];\n  0 -- 2 [color=1];\n  1 -- 2 [color=1];\n}\n",
            ),
        ),
    ),
    Case(
        "color --family example31 --t 2 --theorem 31 --pack forest_greedy",
        0,
        stdout="bound n2 - t = 4\ncolors used = 4\nverified = true\npacking: t=2 c=2 n2'=0 op=0 mode=forest_greedy\n",
    ),
    # the same seeded sample twice
    *[
        Case(
            "color --model gnp --n 7 --p 0.4 --seed 3 --theorem 32",
            0,
            stdout="bound t + n2' + c = 4\ncolors used = 4\nverified = true\npacking: t=0 c=0 n2'=4 op=0 mode=exact\n",
        )
    ]
    * 2,
    # two instances of the flatten benchmark: the verifier's look-ahead runs
    # on both line graphs
    Case(
        "color --model gnp --n 60 --p 0.14 --seed 1 --theorem 32",
        0,
        stdout="bound t + n2' + c = 50\ncolors used = 50\nverified = true\npacking: t=38 c=1 n2'=11 op=29 mode=greedy\n",
    ),
    Case(
        "color --model random_cubic --n 40 --seed 1 --theorem cubic",
        0,
        stdout="bound n + 1 = 41\ncolors used = 41\nverified = true\n",
    ),
    # verify
    Case(
        "verify --file g.txt --coloring c.txt",
        0,
        stdout="verified = true\n",
        files=(("g.txt", b"3 3\n0 1\n1 2\n0 2\n"), ("c.txt", b"1 1 1\n")),
    ),
    Case(
        "verify --file g.txt --coloring c.txt",
        2,
        stdout="verified = false\nfailing pair = 0 2\n",
        files=(("g.txt", b"3 2\n0 1\n1 2\n"), ("c.txt", b"1 1\n")),
    ),
    # bench
    Case(
        "bench --model gnp --n 7 --p 0.4 --count 4 --seed 11",
        0,
        stdout=BENCH_HEADER
        + "0,11000033,7,12,7,1,2,1,2,1,2,0,5,5,True,5,5,True,,,,3,\n"
        + "1,11000034,7,10,7,1,1,1,1,1,4,0,6,6,True,6,6,True,,,,3,\n"
        + "2,11000035,7,12,7,2,3,2,2,1,1,1,5,5,True,5,5,True,,,,3,\n"
        + "3,11000036,7,8,6,0,0,0,0,0,6,0,6,6,True,6,6,True,,,,3,3\n",
    ),
    # the same seeded table twice, then once more written by --csv
    *[
        Case(
            "bench --model gnp --n 6 --p 0.5 --count 3 --seed 7",
            0,
            stdout=BENCH_GNP_6_SEED7 + "2,7000023,6,8,6,2,2,2,2,1,1,0,4,4,True,4,4,True,,,,3,\n",
        )
    ]
    * 2,
    Case("bench --model gnp --n 6 --p 0.5 --count 2 --seed 7", 0, stdout=BENCH_GNP_6_SEED7),
    Case("bench --model gnp --n 6 --p 0.5 --count 2 --seed 7 --csv rows.csv", 0, writes=(("rows.csv", BENCH_GNP_6_SEED7),)),
    Case(f"bench {GNP} --count 0", 0, stdout=BENCH_HEADER),
    # A leading UTF-8 byte-order mark is not part of the text: each source
    # gives the same output with or without one, and an undecodable byte's
    # offset still counts from the start of the file.
    *(
        row
        for mark in (b"", BOM)
        for row in (
            Case("gen --file g.txt", 0, stdout="3 2\n0 1\n1 2\n", files=(("g.txt", mark + b"3 2\n0 1\n1 2\n"),)),
            Case("exact --file -", 0, stdout="exact rc = 1\n", stdin=mark + b"3 3\n0 1\n1 2\n0 2\n"),
            Case(
                "verify --family cycle --n 3 --coloring c.txt", 0, stdout="verified = true\n", files=(("c.txt", mark + b"1 1 1\n"),)
            ),
        )
    ),
    Case("gen --file -", 3, INPUT + "stdin: byte 13 is not UTF-8 (invalid start byte)", stdin=BOM + b"3 2\n0 1\n1 \xff\n"),
    # the goldens in tests/data, each written again by the run that made it
    golden(
        "color_triangle_ring_8.json",
        "color --family triangle_ring --r 8 --theorem 32",
        "bound t + n2' + c = 9\ncolors used = 9\nverified = true\npacking: t=8 c=1 n2'=0 op=1 mode=exact\n",
    ),
    golden(
        "color_gnp_12_seed4.json",
        "color --model gnp --n 12 --p 0.5 --seed 4 --theorem 32 --pack greedy",
        "bound t + n2' + c = 9\ncolors used = 9\nverified = true\npacking: t=8 c=1 n2'=0 op=5 mode=greedy\n",
    ),
    golden(
        "color_cubic_12_seed1.json",
        "color --model random_cubic --n 12 --seed 1 --theorem cubic",
        "bound n + 1 = 13\ncolors used = 13\nverified = true\n",
    ),
    golden(
        "color_gnp_40_seed1.json",
        "color --model gnp --n 40 --p 0.2 --seed 1 --theorem 32",
        "bound t + n2' + c = 29\ncolors used = 29\nverified = true\npacking: t=26 c=1 n2'=2 op=16 mode=greedy\n",
    ),
    golden(
        "color_gnp_30_seed2_t31.json",
        "color --model gnp --n 30 --p 0.25 --seed 2 --theorem 31",
        "bound n2 - t = 19\ncolors used = 19\nverified = true\npacking: t=11 c=1 n2'=7 op=0 mode=forest_greedy\n",
    ),
    golden(
        "color_path_20_iterated.json",
        "color --family path --n 20 --theorem iterated",
        "bound m - m1 = 17\ncolors used = 17\nverified = true\n",
    ),
    golden(
        "color_example32_6_iterated.json",
        "color --family example32 --k 6 --theorem iterated",
        "bound m - m1 = 16\ncolors used = 16\nverified = true\n",
    ),
    golden(
        "color_friendship_5_t31.json",
        "color --family friendship --f 5 --theorem 31",
        "bound n2 - t = 6\ncolors used = 6\nverified = true\npacking: t=5 c=1 n2'=0 op=0 mode=forest_exact\n",
    ),
    golden(
        "color_gnp_14_seed11.json",
        "color --model gnp --n 14 --p 0.3 --seed 11 --theorem 32",
        "bound t + n2' + c = 10\ncolors used = 10\nverified = true\npacking: t=5 c=2 n2'=3 op=1 mode=exact\n",
    ),
    *(
        golden(
            f"verify_cycle_7_{name}.json",
            f"verify --family cycle --n 7 --coloring coloring_cycle_7_{name}.txt",
            stdout,
            code,
            inputs=(f"coloring_cycle_7_{name}.txt",),
        )
        for name, code, stdout in [
            ("rainbow", 0, "verified = true\n"),
            ("unrainbow", 2, "verified = false\nfailing pair = 0 3\n"),
            ("sparse", 0, "verified = true\n"),
        ]
    ),
    golden(
        "bound_example31_3.json",
        "bound --family example31 --t 3",
        "diameter = 5\nrc lower bound = 5\nrc upper bound (spanning tree) = 8\n",
    ),
    golden("exact_cycle_7.json", "exact --family cycle --n 7", "exact rc = 4\n"),
    golden("bench_gnp_7_seed1.json", "bench --model gnp --n 7 --p 0.6 --count 3 --seed 1", Golden("bench_gnp_7_seed1.csv")),
    # op = 2, 4 and 1: theorem 32 picks a packing other than theorem 31's
    golden("bench_gnp_7_seed1.csv", "bench --model gnp --n 7 --p 0.6 --count 3 --seed 1"),
    # both rows are past the exact search's cap: every column of a fallback row
    golden("bench_gnp_9_fallback.csv", "bench --model gnp --n 9 --p 0.9 --count 2 --seed 1 --max-edges 0"),
    golden("bench_gnp_8_seed7.csv", "bench --model gnp --n 8 --p 0.4 --count 3 --seed 7"),
    golden("bench_random_cubic_8_seed7.csv", "bench --model random_cubic --n 8 --count 3 --seed 7"),
    golden("reproduce_sharpness.txt", "scripts/reproduce_sharpness.py"),
    # failures for bad input (exit 3) or a limit (exit 4), with nothing on stdout
    # sources: families, random models, flags the source does not read
    Case("gen --family example31", 3, INPUT + "family 'example31' takes exactly the parameter 't'"),
    Case("gen --family petersen --n 5", 3, INPUT + "petersen takes no parameters"),
    Case("gen --family example31 --t 0", 3, INPUT + "triangle chain needs t >= 1, got 0"),
    Case("gen --family example32 --k 1", 3, INPUT + "shared-vertex chain needs k >= 2, got 1"),
    Case("gen --family path --n 0", 3, INPUT + "path needs n >= 1, got 0"),
    Case("gen --family cycle --n 2", 3, INPUT + "cycle needs n >= 3, got 2"),
    Case("gen --family complete --n 0", 3, INPUT + "complete graph needs n >= 1, got 0"),
    Case("gen --family triangle_ring --r 2", 3, INPUT + "triangle ring needs r >= 3, got 2"),
    Case("gen --family friendship --f 0", 3, INPUT + "friendship graph needs f >= 1, got 0"),
    # no connected sample exists, so these are bad input, not a resource limit
    Case("gen --model gnp --n 1 --p 0.5 --seed 1", 3,
            INPUT + "no connected gnp(1, 0.5) graph exists; needs n >= 2 and p > 0"),
    Case("gen --model gnp --n 3 --p 0 --seed 1", 3,
            INPUT + "no connected gnp(3, 0.0) graph exists; needs n >= 2 and p > 0"),
    Case("gen --model gnp --n 5 --p 1.5 --seed 1", 3, INPUT + "bad gnp parameters n=5, p=1.5"),
    # a connected sample exists, but not within GNP_MAX_TRIES draws
    Case("gen --model gnp --n 30 --p 0.01 --seed 1", 4, LIMIT + "no connected gnp(30, 0.01) sample in 1000 tries"),
    Case("gen --model random_cubic --n 5 --seed 1", 3, INPUT + "cubic graphs need even n >= 4, got 5"),
    Case("gen --model gnp --p 0.5 --seed 1", 3, INPUT + "--n is required for random models"),
    Case("gen --model gnp --n 4 --p 0.9 --seed 1 --k 5", 3, INPUT + "--k does not apply to --model gnp"),
    Case("gen --model random_cubic --n 8 --seed 1 --p 0.3", 3, INPUT + "--p does not apply to --model random_cubic"),
    Case("gen --family path --n 3 --seed 9", 3, INPUT + "--seed does not apply to --family path"),
    Case("gen --family path --n 3 --p 0.7", 3, INPUT + "--p does not apply to --family path"),
    Case("gen --file - --n 3", 3, INPUT + "--n does not apply to --file"),
    Case("color --theorem 31", 3, INPUT + "exactly one of --file, --family, or --model is required"),
    # files: unreadable, not UTF-8, or not an edge list
    Case("gen --file missing.txt", 3, INPUT + "[Errno 2] No such file or directory: 'missing.txt'"),
    Case("gen --file g.txt", 3, INPUT + "g.txt: byte 0 is not UTF-8 (invalid start byte)",
            files=(("g.txt", b"\xff3 2\n0 1\n1 2\n"),)),
    Case("gen --file -", 3, INPUT + "stdin: byte 10 is not UTF-8 (invalid start byte)", stdin=b"3 2\n0 1\n1 \xff\n"),
    Case("gen --file -", 3, INPUT + "empty input: expected a header line 'n m'", stdin=b""),
    Case("gen --file -", 3, INPUT + "line 1: expected header 'n m', got '3'", stdin=b"3\n"),
    Case("gen --file -", 3, INPUT + "line 1: expected two integers, got 'a b'", stdin=b"a b\n"),
    Case("gen --file -", 3, INPUT + "line 1: counts must be non-negative", stdin=b"-1 0\n"),
    Case("gen --file -", 3, INPUT + "expected 3 edge lines, found 1", stdin=b"3 3\n0 1\n"),
    Case("gen --file -", 3, INPUT + "line 4: unexpected data after 2 edges", stdin=b"3 2\n0 1\n1 2\n0 2\n"),
    Case("gen --file -", 3, INPUT + "line 2: expected 'u v', got '0'", stdin=b"2 1\n0\n"),
    Case("gen --file -", 3, INPUT + "line 2: loop edge (1, 1)", stdin=b"2 1\n1 1\n"),
    # linegraph
    Case("linegraph --family path --n 3 --iterations 0", 3, INPUT + "iteration count must be >= 1, got 0"),
    Case("linegraph --family path --n 3 --iterations 3", 3, INPUT + "iteration 3: graph has no edges"),
    Case("linegraph --family friendship --f 320", 4,
            LIMIT + "iteration 1: line graph would have 205120 edges, cap 200000"),
    # color; a failure writes no report
    *(
        Case(f"color --model random_cubic --n 8 --seed 1 --theorem {theorem} --pack {pack} --json r.json", 3,
                INPUT + f"theorem {theorem} takes no packing; pack applies only to theorems 31 and 32")
        for theorem, pack in [("cubic", "forest_exact"), ("iterated", "greedy")]
    ),
    Case("color --family triangle_ring --r 4 --theorem 31 --pack greedy", 3,
            INPUT + "packing structure must be a triangle-forest; theorem 32 takes any packing"),
    Case("color --family complete --n 8 --theorem 32 --pack exact", 4,
            LIMIT + "exact packing capped at 24 triangles, instance has 56"),
    Case("color --model gnp --n 7 --p 0.4 --theorem 32", 3, INPUT + "--seed is required for random models"),
    # the second graph has a billion vertices and no edges: it is refused
    # before any per-vertex work
    *(
        Case(f"color --file g.txt --theorem {theorem}", 3, INPUT + "graph must be connected", files=(("g.txt", graph),))
        for graph in (b"4 2\n0 1\n2 3\n", b"1000000000 0\n")
        for theorem in ("31", "32", "cubic", "iterated")
    ),
    Case("color --family path --n 4 --theorem cubic", 3, INPUT + "every vertex must have degree exactly 3"),
    # no vertices, so the degree-3 test passes vacuously
    Case("color --file g.txt --theorem cubic", 3,
            INPUT + "line graph is trivial; rainbow connection is undefined on it", files=(("g.txt", b"0 0\n"),)),
    Case("color --family path --n 2 --theorem iterated", 3, INPUT + "iteration 2: graph has no edges"),
    Case("color --family path --n 3 --theorem iterated", 3, INPUT + "twice-iterated line graph is trivial"),
    Case("color --family friendship --f 320 --theorem iterated", 4,
            LIMIT + "iteration 1: line graph would have 205120 edges, cap 200000"),
    # one triangle tree with t = 1099: colored without recursion, then
    # refused by the verifier's palette cap, not by a RecursionError
    Case("color --family example32 --k 1100 --theorem 31", 4,
            LIMIT + "palette of 1101 colors exceeds the search cap 64"),
    # verify
    Case("verify --file g.txt --coloring c.txt", 3, INPUT + "coloring has 1 entries for 2 edges",
            files=(("g.txt", b"3 2\n0 1\n1 2\n"), ("c.txt", b"1\n"))),
    *(
        Case("verify --file g.txt --coloring c.txt", 3, INPUT + f"edge {edge} has color {bad}",
                files=(("g.txt", b"3 3\n0 1\n1 2\n0 2\n"), ("c.txt", colors)))
        for colors, edge, bad in [
            (b"1 0 1\n", 1, "0 outside 1..1"),
            (b"2 -1 1\n", 1, "-1 outside 1..2"),
            (b"0 0 0\n", 0, "0 outside 1..0"),
            (b"-2 -1 -3\n", 0, "-2 outside 1..-1"),
        ]
    ),
    Case("verify --family cycle --n 3 --coloring c.txt", 3, INPUT + "line 1: bad color 'x'",
            files=(("c.txt", b"1 x 1\n"),)),
    Case("verify --family cycle --n 3 --coloring c.txt", 3,
            INPUT + "c.txt: byte 4 is not UTF-8 (invalid start byte)",
            files=(("c.txt", b"1 1 \xff\n"),)),
    Case("verify --family cycle --n 3 --coloring missing.txt", 3,
            INPUT + "[Errno 2] No such file or directory: 'missing.txt'"),
    # bound and exact; g.txt has a billion vertices and no edges
    *(
        Case(f"{command} {source}", 3, INPUT + "rc is defined only on connected graphs with at least 2 vertices",
                files=files)
        for command in ("bound", "exact")
        for source, files in [("--family path --n 1", ()), ("--file g.txt", (("g.txt", b"1000000000 0\n"),))]
    ),
    Case("exact --family cycle --n 5 --max-edges -1", 3, INPUT + "edge cap must be non-negative, got -1"),
    Case("exact --family cycle --n 13", 4,
            LIMIT + "13 edges exceed the exact-search cap 12 (proven bracket: 6..12)"),
    # bench, which shares the model-flag checks with the sources
    Case("bench --model gnp --n 6 --p 0.5", 3, INPUT + "--seed is required for random models"),
    Case("bench --model gnp --p 0.5 --seed 1", 3, INPUT + "--n is required for random models"),
    Case("bench --model random_cubic --n 8 --p 0.3 --count 1 --seed 1", 3,
            INPUT + "--p does not apply to --model random_cubic"),
    Case("bench --model gnp --n 1 --p 0.5 --count 2 --seed 1", 3,
            INPUT + "no connected gnp(1, 0.5) graph exists; needs n >= 2 and p > 0"),
    Case(f"bench {GNP} --count -1", 3, INPUT + "count must be non-negative"),
    # --count 0: no row reaches exact_rc
    *(
        Case(f"bench {GNP} --count {count} --max-edges -5", 3, INPUT + "edge cap must be non-negative, got -5")
        for count in (2, 0)
    ),
    # an output that cannot be written is refused before the run, which
    # prints nothing and writes no other output
    Case(f"bench {GNP} --count 1 --csv nodir/rows.csv", 3, INPUT + "[Errno 2] No such file or directory: 'nodir/rows.csv'"),
    Case("linegraph --family cycle --n 5 --dot nodir/l.dot", 3, INPUT + "[Errno 2] No such file or directory: 'nodir/l.dot'"),
    Case("exact --family cycle --n 5 --json .", 3, INPUT + "[Errno 21] Is a directory: '.'"),
    Case("verify --family cycle --n 3 --coloring c.txt --json c.txt/r.json", 3,
            INPUT + "[Errno 20] Not a directory: 'c.txt/r.json'", files=(("c.txt", b"1 1 1\n"),)),
]


def _stdin(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


def _bytes(value: str | bytes | Golden) -> bytes:
    if isinstance(value, Golden):
        return (DATA / value.name).read_bytes()
    return value.encode() if isinstance(value, str) else value


def _row_id(row: Case) -> str:
    """The name of the golden the row writes, else its argv and inputs."""
    for value in (*(data for _, data in row.writes), row.stdout):
        if isinstance(value, Golden):
            return value.name
    inputs = [f"{name}={data!r}" for name, data in row.files]
    if row.stdin is not None:
        inputs.append(f"stdin={row.stdin!r}")
    return " ".join([row.argv, *inputs])


@pytest.mark.parametrize("row", CASES, ids=_row_id)
def test_run(row, capsys, monkeypatch, tmp_path):
    """The row's exit code, its exact stdout and stderr, and afterwards its
    input files and the files it writes, byte for byte, and nothing else."""
    for name, data in row.files:
        (tmp_path / name).write_bytes(_bytes(data))
    if row.stdin is not None:
        _stdin(monkeypatch, row.stdin)
    monkeypatch.chdir(tmp_path)
    argv = row.argv.split()
    if argv[0].startswith("scripts/"):
        monkeypatch.setattr(sys, "argv", argv)
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
        code = runpy.run_path(str(ROOT / argv[0]))["main"]() or 0
    else:
        code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out.encode(), err) == (row.code, _bytes(row.stdout), row.stderr and row.stderr + "\n")
    left = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    assert left == {name: _bytes(data) for name, data in (*row.files, *row.writes)}


@pytest.mark.parametrize(
    "argv, error",
    [
        ("bench --model gnp --n 8 --p 0.4 --count 200 --seed 1 --csv nodir/rows.csv",
            "[Errno 2] No such file or directory: 'nodir/rows.csv'"),
        ("bench --model gnp --n 8 --p 0.4 --count 200 --seed 1 --csv rows.csv --json nodir/r.json",
            "[Errno 2] No such file or directory: 'nodir/r.json'"),
        ("color --model gnp --n 60 --p 0.14 --seed 1 --theorem 32 --json r.json --dot .", "[Errno 21] Is a directory: '.'"),
    ],
)
def test_unwritable_output_is_refused_before_the_work(argv, error, capsys, monkeypatch, tmp_path):
    """An output path that cannot be written exits 3 before ``run_bench`` or
    ``color`` starts, and no file is written, a writable one included."""
    monkeypatch.setattr(cli, "run_bench", lambda *args: pytest.fail("the work started"))
    monkeypatch.setattr(cli, "color", lambda *args: pytest.fail("the work started"))
    monkeypatch.chdir(tmp_path)
    assert main(argv.split()) == EXIT_INPUT
    assert capsys.readouterr() == ("", f"input error: {error}\n")
    assert not any(tmp_path.iterdir())


def test_every_data_file_is_in_a_row():
    """Each file in ``tests/data`` is some row's golden or input, and each
    golden a row names is there."""
    named = {
        value.name
        for row in CASES
        for value in (row.stdout, *(data for _, data in (*row.files, *row.writes)))
        if isinstance(value, Golden)
    }
    assert named == {path.name for path in DATA.iterdir()}


# Raise sites no CLI invocation reaches; library tests reach them.
LIBRARY_ONLY = {
    # argparse's choices, or the edge-list parser, refuse the input first
    "unknown model {}",
    "unknown family {}; available: {}",
    "unknown theorem {}; expected one of {}",
    "unknown packing mode {}",
    "vertex count must be non-negative, got {}",
    # functions only the benchmark's tracer calls
    "edge id {} out of range",
    "part color {} outside its palette 1..{}",
    "edge {} covered by more than one part",
    "edges not covered by any part: {}",
    "coloring does not match the line graph of the trace's final graph",
    # checks of a caller's triangles or packing; each command packs the
    # graph's own triangles
    "triangle {} has stale edge ids for this graph",
    "triangle {} shares an edge with another",
    "triangle vertices must be distinct: {}",
    "{} is not a triangle of the graph",
    "packing is of another graph",
    # CUBIC_MAX_TRIES (10,000) rejected pairings
    "no simple connected cubic sample on {} vertices in {} tries",
}


def raise_sites() -> dict[str, str]:
    """Each ``raise InputError(...)`` or ``raise LimitError(...)`` in the
    package whose message is a string or an f-string: its message with
    ``{}`` for each placeholder, mapped to ``module:line``."""
    sites = {}
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "rainbowline"
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)):
                continue
            call = node.exc
            if ast.unparse(call.func) not in ("InputError", "LimitError") or not call.args:
                continue
            message = call.args[0]
            if isinstance(message, ast.Constant) and isinstance(message.value, str):
                sites[message.value] = f"{path.stem}:{node.lineno}"
            elif isinstance(message, ast.JoinedStr):
                parts = (v.value if isinstance(v, ast.Constant) else "{}" for v in message.values)
                sites["".join(parts)] = f"{path.stem}:{node.lineno}"
    return sites


def test_every_raise_site_has_a_row():
    """Each raise site's message, literal parts escaped and each placeholder
    a wildcard, matches the start of some row's message (its stderr after
    ``input error: `` or ``resource limit: ``) in an exit-3 or exit-4 row,
    unless no CLI invocation can reach the site."""
    messages = [row.stderr.split(": ", 1)[1] for row in CASES if row.code in (EXIT_INPUT, EXIT_LIMIT)]
    unmatched = {
        template: where
        for template, where in raise_sites().items()
        for pattern in [".*".join(map(re.escape, template.split("{}")))]
        if not any(re.match(pattern, message) for message in messages)
    }
    assert set(unmatched) == LIBRARY_ONLY, sorted(
        f"{unmatched.get(t, 'no site')}: {t}" for t in set(unmatched) ^ LIBRARY_ONLY
    )


class TestUsageErrors:
    """argparse's own errors are input errors (exit 3), and the message
    names the argument; ``--help`` still exits 0."""

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["bench", "--model", "gnp", "--n", "7", "--p", "0.5", "--seed", "1", "--t", "3"], "--t 3"),
            (["exact", "--family", "cycle", "--n", "abc"], "argument --n: invalid int value: 'abc'"),
            (["color", "--family", "cycle", "--n", "5"], "required: --theorem"),
            (["exact", "--family", "nosuch", "--n", "5"], "argument --family: invalid choice: 'nosuch'"),
            (["color", "--family", "cycle", "--n", "5", "--theorem", "cubic", "--bogus"], "unrecognized arguments: --bogus"),
        ],
    )
    def test_usage_error_exits_3(self, capsys, argv, named):
        """Each error prints its subcommand's usage line, an unknown flag's
        included."""
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: rainbowline {argv[0]} ")
        assert "\ninput error: " in captured.err and named in captured.err.splitlines()[-1]

    def test_missing_subcommand_prints_the_root_usage(self, capsys):
        assert main([]) == 3
        err = capsys.readouterr().err
        assert err.startswith("usage: rainbowline [-h] {")
        assert err.splitlines()[-1].startswith("input error: the following arguments are required")

    @pytest.mark.parametrize("argv", [["--help"], ["exact", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: rainbowline")


def test_out_of_process_exit_codes():
    """``python -m rainbowline.cli`` as a user runs it: C12's rc is printed
    and exits 0, C13 is past the edge cap (exit 4), a sixth line graph of K5
    is refused at its fifth iterate, whose count it names (exit 4), the
    iterated bound's 435 colors on K30 are refused (exit 4), and a usage
    error exits 3. A closed stdout ends a command by ``SIGPIPE``, with
    nothing on stderr, as it ends other filters."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*argv, stdout=subprocess.PIPE):
        cmd = [sys.executable, "-m", "rainbowline.cli", *argv]
        return subprocess.run(cmd, stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=120)

    c12 = run("exact", "--family", "cycle", "--n", "12")
    assert (c12.returncode, c12.stdout, c12.stderr) == (0, "exact rc = 6\n", "")
    c13 = run("exact", "--family", "cycle", "--n", "13")
    assert (c13.returncode, c13.stdout, c13.stderr) == (
        4, "", "resource limit: 13 edges exceed the exact-search cap 12 (proven bracket: 6..12)\n"
    )
    k5 = run("linegraph", "--family", "complete", "--n", "5", "--iterations", "6")
    assert (k5.returncode, k5.stdout, k5.stderr) == (
        4, "", "resource limit: iteration 5: line graph would have 757350 edges, cap 200000\n"
    )
    k30 = run("color", "--family", "complete", "--n", "30", "--theorem", "iterated")
    assert (k30.returncode, k30.stdout, k30.stderr) == (
        4, "", "resource limit: palette of 435 colors exceeds the search cap 64\n"
    )
    usage = run("exact", "--family", "cycle", "--n", "abc")
    assert usage.returncode == 3 and "argument --n: invalid int value" in usage.stderr
    for argv in (
        ("gen", "--family", "complete", "--n", "5"),
        ("color", "--family", "complete", "--n", "3", "--theorem", "32"),
        ("linegraph", "--family", "complete", "--n", "5", "--iterations", "3"),
    ):
        read, write = os.pipe()
        os.close(read)
        try:
            closed = run(*argv, stdout=write)
        finally:
            os.close(write)
        assert (closed.returncode, closed.stderr) == (-signal.SIGPIPE, ""), argv


def _assert_packed_once(enumerated, classified, cubic):
    """One enumeration per row graph, and on it one classification per
    distinct pick a bound is colored from: theorem 31's, and theorem 32's
    where it differs. A cubic row also classifies its line graph's star
    packing once."""
    assert len(enumerated) == len(set(map(id, enumerated)))
    for g in enumerated:
        colored = {coloring.color(g, theorem).packing.triangles for theorem in ("31", "32")}
        on_g = [tris for h, tris in classified if h is g]
        assert sorted(on_g) == sorted(colored)
    others = [h for h, _ in classified if all(h is not g for g in enumerated)]
    assert len(others) == (len(enumerated) if cubic else 0)


class TestBench:
    def test_cubic_rows(self):
        rows = run_bench("random_cubic", 6, 0.0, 3, seed=5, max_edges=12)
        assert all(r["bound_cubic"] == 7 for r in rows)
        assert all(r["verified_cubic"] is True for r in rows)
        assert all(r["verified_forest"] is True and r["verified_general"] is True for r in rows)

    def test_rows_past_the_exact_cap_fall_back_to_greedy(self):
        """gnp(9, 0.9) has more triangles than the exact search's cap, so
        both exact columns are empty and both bounds use the greedy modes."""
        rows = run_bench("gnp", 9, 0.9, 2, seed=1, max_edges=0)
        assert [r["t_exact"] for r in rows] == ["", ""]
        assert [r["t_forest_exact"] for r in rows] == ["", ""]
        assert [r["t_greedy"] for r in rows] == [8, 8]
        assert [r["t_forest_greedy"] for r in rows] == [4, 3]
        assert [r["colors_forest"] for r in rows] == [5, 6]
        assert [r["colors_general"] for r in rows] == [9, 9]
        assert all(r["verified_forest"] is True and r["verified_general"] is True for r in rows)

    def test_fallback_rows_pack_each_exact_mode_once(self, monkeypatch):
        """A row past the exact cap enumerates its triangles once and
        classifies the two greedy picks its bounds are colored from; no mode
        is packed again for its column. The rows are unchanged."""
        expected = run_bench("gnp", 9, 0.9, 2, seed=1, max_edges=0)
        enumerated, classified = count_packing_work(monkeypatch)
        assert run_bench("gnp", 9, 0.9, 2, seed=1, max_edges=0) == expected
        assert len(enumerated) == 2 and len(classified) == 4  # t_greedy 8, t_forest_greedy 4 / 3
        monkeypatch.undo()
        _assert_packed_once(enumerated, classified, cubic=False)

    @pytest.mark.parametrize(
        "model, n, p, seed, checks, shared",
        [
            ("gnp", 8, 0.4, 7, 3, 3),  # every row's two packings agree
            ("gnp", 7, 0.6, 1, 6, 0),  # op = 2, 4, 1: the packings differ
            ("random_cubic", 8, 0.0, 7, 6, 3),  # shared, plus the cubic bound
        ],
    )
    def test_work_per_row(self, monkeypatch, model, n, p, seed, checks, shared):
        """A row certifies each distinct coloring once and sweeps L(G)'s
        diameter once; ``diam_line`` and ``exact_rc`` share the sweep. A
        shared general certificate keeps its own bound name. It enumerates
        its triangles once and classifies only the picks it colors, each
        once. The rows are unchanged."""
        expected = run_bench(model, n, p, 3, seed=seed, max_edges=12)
        real_check, real_sweep, real_share = (
            oracle.is_rainbow_connected, Graph.diameter.func, cli.general_from_forest
        )
        verified, sweeps, general = [], [], []

        def counted_check(col):
            verified.append(col)
            return real_check(col)

        def counted_sweep(g):
            sweeps.append(g)
            return real_sweep(g)

        def recorded_general(forest, mode):
            general.append(real_share(forest, mode))
            return general[-1]

        counted = functools.cached_property(counted_sweep)
        counted.__set_name__(Graph, "diameter")
        monkeypatch.setattr(oracle, "is_rainbow_connected", counted_check)
        monkeypatch.setattr(Graph, "diameter", counted)
        monkeypatch.setattr(cli, "general_from_forest", recorded_general)
        enumerated, classified = count_packing_work(monkeypatch)
        assert run_bench(model, n, p, 3, seed=seed, max_edges=12) == expected
        assert len(verified) == checks
        assert len(sweeps) == 3
        assert len(general) == shared
        assert all(run.certificate.bound_name == "t + n2' + c" for run in general)
        assert len(enumerated) == 3
        monkeypatch.undo()
        _assert_packed_once(enumerated, classified, cubic=model == "random_cubic")

    @pytest.mark.parametrize(
        "model, n, p, seed", [("gnp", 8, 0.4, 7), ("gnp", 7, 0.6, 1), ("random_cubic", 8, 0.0, 7)]
    )
    def test_one_connectivity_search_per_graph(self, monkeypatch, model, n, p, seed):
        """The sampler and every back end of a row ask whether its graph is
        connected, and ``diam_line`` whether L(G) is; one search per graph
        answers them all. The rows are unchanged."""
        expected = run_bench(model, n, p, 3, seed=seed, max_edges=12)
        real_search = Graph.is_connected.func
        searched = []

        def counted_search(g):
            searched.append(g)
            return real_search(g)

        counted = functools.cached_property(counted_search)
        counted.__set_name__(Graph, "is_connected")
        monkeypatch.setattr(Graph, "is_connected", counted)
        assert run_bench(model, n, p, 3, seed=seed, max_edges=12) == expected
        assert len(searched) == len(set(searched)) == 6

    def test_unverified_cubic_row_exits_2(self, monkeypatch, capsys):
        real = coloring.color_cubic_iterated

        def unverified(g):
            col, cert = real(g)
            return col, replace(cert, verified=False)

        monkeypatch.setattr(coloring, "color_cubic_iterated", unverified)
        argv = ["bench", "--model", "random_cubic", "--n", "8", "--count", "2", "--seed", "1"]
        assert main(argv) == 2
        rows = capsys.readouterr().out.strip().splitlines()[1:]
        assert [row.split(",")[20] for row in rows] == ["False", "False"]

    def test_unknown_model_is_an_input_error(self):
        # the CLI's --model choices refuse it before run_bench is called
        with pytest.raises(InputError, match="^unknown model 'nosuch'$"):
            run_bench("nosuch", 6, 0.5, 1, seed=1, max_edges=12)
