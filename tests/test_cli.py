import ast
import functools
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace
from typing import NamedTuple

import pytest

from helpers import count_packing_work, shuffle_random_cubic
from rainbowline import cli, coloring, families, oracle
from rainbowline.cli import EXIT_INTERNAL, main, run_bench
from rainbowline.errors import InputError, InvariantViolation, LimitError
from rainbowline.families import FAMILIES, complete_graph, connected_gnp, cycle_graph, gen_family, random_cubic
from rainbowline.formats import parse_edge_list, render_edge_list, to_dot
from rainbowline.graphs import Graph, diameter
from rainbowline.linegraph import line_graph
from rainbowline.triangles import pack_edge_disjoint


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
    def test_gen_prints_edge_list(self, capsys):
        assert main(["gen", "--family", "complete", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert parse_edge_list(out) == complete_graph(3)

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

    def test_all_families_have_generators(self, capsys):
        """Each family builds, and ``gen`` takes its parameter letter as a flag."""
        params = {
            "example31": {"t": 2},
            "example32": {"k": 2},
            "path": {"n": 4},
            "cycle": {"n": 5},
            "complete": {"n": 4},
            "petersen": {},
            "triangle_ring": {"r": 3},
            "friendship": {"f": 2},
        }
        assert set(params) == set(FAMILIES)
        for name, kw in params.items():
            g = gen_family(name, **kw)
            assert g.m > 0
            flags = [arg for key, value in kw.items() for arg in (f"--{key}", str(value))]
            assert main(["gen", "--family", name, *flags]) == 0
            assert capsys.readouterr().out == render_edge_list(g)


class TestColorCommand:
    def test_chain_forest_bound(self, capsys, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            ["color", "--family", "example31", "--t", "3", "--theorem", "31",
             "--json", str(report)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "colors used = 6" in out
        assert "verified = true" in out
        payload = json.loads(report.read_text())
        assert payload["schema"] == 1
        assert payload["bound"] == {"name": "n2 - t", "value": 6}
        assert payload["verified"] is True

    def test_reports_are_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            assert (
                main(["color", "--family", "example32", "--k", "3", "--theorem", "32",
                      "--json", str(path)])
                == 0
            )
        assert a.read_bytes() == b.read_bytes()

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

    def test_cubic_on_k4(self, capsys):
        assert main(["color", "--family", "complete", "--n", "4", "--theorem", "cubic"]) == 0
        out = capsys.readouterr().out
        assert "bound n + 1 = 5" in out
        assert "verified = true" in out

    def test_triangle_free_file_uses_inner_count(self, capsys, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text(render_edge_list(cycle_graph(5)))
        assert main(["color", "--file", str(path), "--theorem", "32"]) == 0
        out = capsys.readouterr().out
        assert "colors used = 5" in out

    def test_iterated_baseline(self, capsys):
        assert main(["color", "--family", "path", "--n", "6", "--theorem", "iterated"]) == 0
        assert "bound m - m1 = 3" in capsys.readouterr().out

    def test_dot_export(self, tmp_path, capsys):
        dot = tmp_path / "l.dot"
        assert (
            main(["color", "--family", "example31", "--t", "2", "--theorem", "31",
                  "--dot", str(dot)])
            == 0
        )
        text = dot.read_text()
        assert text.startswith("graph L {")
        assert "[color=1]" in text
        assert "// color 1 =" in text

    def test_pack_override(self, capsys):
        assert (
            main(["color", "--family", "example31", "--t", "2", "--theorem", "31",
                  "--pack", "forest_greedy"])
            == 0
        )
        assert "mode=forest_greedy" in capsys.readouterr().out

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

    def test_random_model_source(self, capsys):
        args = ["color", "--model", "gnp", "--n", "7", "--p", "0.4",
                "--seed", "3", "--theorem", "32"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "verified = true" in first
        assert main(args) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize(
        "source, theorem, colors",
        [
            (["--model", "gnp", "--n", "60", "--p", "0.14"], "32", 50),
            (["--model", "random_cubic", "--n", "40"], "cubic", 41),
        ],
    )
    def test_flatten_instances_certify(self, capsys, source, theorem, colors):
        """Two instances of the ``flatten`` benchmark, seed 1: the verifier's
        look-ahead runs on both line graphs, and both colorings certify."""
        assert main(["color", *source, "--seed", "1", "--theorem", theorem]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"colors used = {colors}" in out
        assert "verified = true" in out


class TestVerifyCommand:
    def test_good_and_bad(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("3 3\n0 1\n1 2\n0 2\n")
        good = tmp_path / "good.txt"
        good.write_text("1 1 1\n")
        assert main(["verify", "--file", str(g), "--coloring", str(good)]) == 0
        assert "verified = true" in capsys.readouterr().out
        bad_graph = tmp_path / "p.txt"
        bad_graph.write_text("3 2\n0 1\n1 2\n")
        bad = tmp_path / "bad.txt"
        bad.write_text("1 1\n")
        assert main(["verify", "--file", str(bad_graph), "--coloring", str(bad)]) == 2
        assert "failing pair = 0 2" in capsys.readouterr().out



def _stdin(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


BOM = b"\xef\xbb\xbf"


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is not part of the text: each source
    the commands read gives the same output with or without one, and an
    undecodable byte's offset still counts from the start of the file."""

    @staticmethod
    def _same_output(capsys, run, data: bytes):
        outputs = []
        for prefix in (b"", BOM):
            outputs.append((run(prefix + data), capsys.readouterr()))
        assert outputs[0] == outputs[1]
        return outputs[0]

    def test_edge_list_file(self, capsys, tmp_path):
        f = tmp_path / "g.txt"

        def run(data):
            f.write_bytes(data)
            return main(["gen", "--file", str(f)])

        code, captured = self._same_output(capsys, run, b"3 2\n0 1\n1 2\n")
        assert (code, captured.out) == (0, "3 2\n0 1\n1 2\n")

    def test_stdin(self, capsys, monkeypatch):
        def run(data):
            _stdin(monkeypatch, data)
            return main(["exact", "--file", "-"])

        code, captured = self._same_output(capsys, run, b"3 3\n0 1\n1 2\n0 2\n")
        assert (code, captured.out) == (0, "exact rc = 1\n")

    def test_coloring_file(self, capsys, tmp_path):
        c = tmp_path / "c.txt"

        def run(data):
            c.write_bytes(data)
            return main(["verify", "--family", "cycle", "--n", "3", "--coloring", str(c)])

        code, captured = self._same_output(capsys, run, b"1 1 1\n")
        assert code == 0 and "verified = true" in captured.out

    def test_undecodable_offset_counts_the_mark(self, capsys, monkeypatch):
        _stdin(monkeypatch, BOM + b"3 2\n0 1\n1 \xff\n")
        assert main(["gen", "--file", "-"]) == 3
        assert capsys.readouterr().err == "input error: stdin: byte 13 is not UTF-8 (invalid start byte)\n"


class TestExactAndBound:
    def test_exact_cycle(self, capsys):
        assert main(["exact", "--family", "cycle", "--n", "5"]) == 0
        assert "exact rc = 3" in capsys.readouterr().out

    @pytest.mark.parametrize("family, param, rc", [("example31", "--t", 4), ("example32", "--k", 3)])
    def test_line_graph_through_stdin(self, capsys, monkeypatch, family, param, rc):
        """``linegraph | exact --file -``: rc of the paper's smallest
        sharpness examples, L(G) read back from stdin."""
        assert main(["linegraph", "--family", family, param, "2"]) == 0
        _stdin(monkeypatch, capsys.readouterr().out.encode())
        assert main(["exact", "--file", "-"]) == 0
        assert capsys.readouterr().out == f"exact rc = {rc}\n"

    def test_bound(self, capsys):
        assert main(["bound", "--family", "path", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "rc lower bound = 4" in out


class Failure(NamedTuple):
    """One ``main`` invocation that fails. It runs in an empty directory
    holding only ``files`` (name, bytes), so ``argv``, split on spaces, names
    them as relative paths; ``stdin`` is the bytes stdin holds, if read."""

    argv: str
    code: int
    stderr: str
    stdin: bytes | None = None
    files: tuple[tuple[str, bytes], ...] = ()


GNP = "--model gnp --n 6 --p 0.5 --seed 1"
INPUT, LIMIT = "input error: ", "resource limit: "

# Every failure the CLI reports for bad input (exit 3) or a limit (exit 4),
# with its exact stderr; test_every_raise_site_has_a_row checks that each
# InputError and LimitError message in src/ is one of them.
FAILURES = [
    # sources: families, random models, flags the source does not read
    Failure("gen --family example31", 3, INPUT + "family 'example31' takes exactly the parameter 't'"),
    Failure("gen --family petersen --n 5", 3, INPUT + "petersen takes no parameters"),
    Failure("gen --family example31 --t 0", 3, INPUT + "triangle chain needs t >= 1, got 0"),
    Failure("gen --family example32 --k 1", 3, INPUT + "shared-vertex chain needs k >= 2, got 1"),
    Failure("gen --family path --n 0", 3, INPUT + "path needs n >= 1, got 0"),
    Failure("gen --family cycle --n 2", 3, INPUT + "cycle needs n >= 3, got 2"),
    Failure("gen --family complete --n 0", 3, INPUT + "complete graph needs n >= 1, got 0"),
    Failure("gen --family triangle_ring --r 2", 3, INPUT + "triangle ring needs r >= 3, got 2"),
    Failure("gen --family friendship --f 0", 3, INPUT + "friendship graph needs f >= 1, got 0"),
    # no connected sample exists, so these are bad input, not a resource limit
    Failure("gen --model gnp --n 1 --p 0.5 --seed 1", 3,
            INPUT + "no connected gnp(1, 0.5) graph exists; needs n >= 2 and p > 0"),
    Failure("gen --model gnp --n 3 --p 0 --seed 1", 3,
            INPUT + "no connected gnp(3, 0.0) graph exists; needs n >= 2 and p > 0"),
    Failure("gen --model gnp --n 5 --p 1.5 --seed 1", 3, INPUT + "bad gnp parameters n=5, p=1.5"),
    # a connected sample exists, but not within GNP_MAX_TRIES draws
    Failure("gen --model gnp --n 30 --p 0.01 --seed 1", 4, LIMIT + "no connected gnp(30, 0.01) sample in 1000 tries"),
    Failure("gen --model random_cubic --n 5 --seed 1", 3, INPUT + "cubic graphs need even n >= 4, got 5"),
    Failure("gen --model gnp --p 0.5 --seed 1", 3, INPUT + "--n is required for random models"),
    Failure("gen --model gnp --n 4 --p 0.9 --seed 1 --k 5", 3, INPUT + "--k does not apply to --model gnp"),
    Failure("gen --model random_cubic --n 8 --seed 1 --p 0.3", 3, INPUT + "--p does not apply to --model random_cubic"),
    Failure("gen --family path --n 3 --seed 9", 3, INPUT + "--seed does not apply to --family path"),
    Failure("gen --family path --n 3 --p 0.7", 3, INPUT + "--p does not apply to --family path"),
    Failure("gen --file - --n 3", 3, INPUT + "--n does not apply to --file"),
    Failure("color --theorem 31", 3, INPUT + "exactly one of --file, --family, or --model is required"),
    # files: unreadable, not UTF-8, or not an edge list
    Failure("gen --file missing.txt", 3, INPUT + "[Errno 2] No such file or directory: 'missing.txt'"),
    Failure("gen --file g.txt", 3, INPUT + "g.txt: byte 0 is not UTF-8 (invalid start byte)",
            files=(("g.txt", b"\xff3 2\n0 1\n1 2\n"),)),
    Failure("gen --file -", 3, INPUT + "stdin: byte 10 is not UTF-8 (invalid start byte)", stdin=b"3 2\n0 1\n1 \xff\n"),
    Failure("gen --file -", 3, INPUT + "empty input: expected a header line 'n m'", stdin=b""),
    Failure("gen --file -", 3, INPUT + "line 1: expected header 'n m', got '3'", stdin=b"3\n"),
    Failure("gen --file -", 3, INPUT + "line 1: expected two integers, got 'a b'", stdin=b"a b\n"),
    Failure("gen --file -", 3, INPUT + "line 1: counts must be non-negative", stdin=b"-1 0\n"),
    Failure("gen --file -", 3, INPUT + "expected 3 edge lines, found 1", stdin=b"3 3\n0 1\n"),
    Failure("gen --file -", 3, INPUT + "line 4: unexpected data after 2 edges", stdin=b"3 2\n0 1\n1 2\n0 2\n"),
    Failure("gen --file -", 3, INPUT + "line 2: expected 'u v', got '0'", stdin=b"2 1\n0\n"),
    Failure("gen --file -", 3, INPUT + "line 2: loop edge (1, 1)", stdin=b"2 1\n1 1\n"),
    # linegraph
    Failure("linegraph --family path --n 3 --iterations 0", 3, INPUT + "iteration count must be >= 1, got 0"),
    Failure("linegraph --family path --n 3 --iterations 3", 3, INPUT + "iteration 3: graph has no edges"),
    Failure("linegraph --family friendship --f 320", 4,
            LIMIT + "iteration 1: line graph would have 205120 edges, cap 200000"),
    # color; a failure writes no report
    *(
        Failure(f"color --model random_cubic --n 8 --seed 1 --theorem {theorem} --pack {pack} --json r.json", 3,
                INPUT + f"theorem {theorem} takes no packing; pack applies only to theorems 31 and 32")
        for theorem, pack in [("cubic", "forest_exact"), ("iterated", "greedy")]
    ),
    Failure("color --family triangle_ring --r 4 --theorem 31 --pack greedy", 3,
            INPUT + "packing structure must be a triangle-forest; theorem 32 takes any packing"),
    Failure("color --family complete --n 8 --theorem 32 --pack exact", 4,
            LIMIT + "exact packing capped at 24 triangles, instance has 56"),
    Failure("color --model gnp --n 7 --p 0.4 --theorem 32", 3, INPUT + "--seed is required for random models"),
    *(
        Failure(f"color --file g.txt --theorem {theorem}", 3, INPUT + "graph must be connected",
                files=(("g.txt", b"4 2\n0 1\n2 3\n"),))
        for theorem in ("31", "32", "cubic", "iterated")
    ),
    Failure("color --family path --n 4 --theorem cubic", 3, INPUT + "every vertex must have degree exactly 3"),
    # no vertices, so the degree-3 test passes vacuously
    Failure("color --file g.txt --theorem cubic", 3,
            INPUT + "line graph is trivial; rainbow connection is undefined on it", files=(("g.txt", b"0 0\n"),)),
    Failure("color --family path --n 2 --theorem iterated", 3, INPUT + "iteration 2: graph has no edges"),
    Failure("color --family path --n 3 --theorem iterated", 3, INPUT + "twice-iterated line graph is trivial"),
    Failure("color --family friendship --f 320 --theorem iterated", 4,
            LIMIT + "iteration 1: line graph would have 205120 edges, cap 200000"),
    # one triangle tree with t = 1099: colored without recursion, then
    # refused by the verifier's palette cap, not by a RecursionError
    Failure("color --family example32 --k 1100 --theorem 31", 4,
            LIMIT + "palette of 1101 colors exceeds the search cap 64"),
    # verify
    Failure("verify --file g.txt --coloring c.txt", 3, INPUT + "coloring has 1 entries for 2 edges",
            files=(("g.txt", b"3 2\n0 1\n1 2\n"), ("c.txt", b"1\n"))),
    *(
        Failure("verify --file g.txt --coloring c.txt", 3, INPUT + f"edge {edge} has color {bad}",
                files=(("g.txt", b"3 3\n0 1\n1 2\n0 2\n"), ("c.txt", colors)))
        for colors, edge, bad in [
            (b"1 0 1\n", 1, "0 outside 1..1"),
            (b"2 -1 1\n", 1, "-1 outside 1..2"),
            (b"0 0 0\n", 0, "0 outside 1..0"),
            (b"-2 -1 -3\n", 0, "-2 outside 1..-1"),
        ]
    ),
    Failure("verify --family cycle --n 3 --coloring c.txt", 3, INPUT + "line 1: bad color 'x'",
            files=(("c.txt", b"1 x 1\n"),)),
    Failure("verify --family cycle --n 3 --coloring c.txt", 3,
            INPUT + "c.txt: byte 4 is not UTF-8 (invalid start byte)",
            files=(("c.txt", b"1 1 \xff\n"),)),
    Failure("verify --family cycle --n 3 --coloring missing.txt", 3,
            INPUT + "[Errno 2] No such file or directory: 'missing.txt'"),
    # bound and exact
    *(
        Failure(f"{command} --family path --n 1", 3,
                INPUT + "rc is defined only on connected graphs with at least 2 vertices")
        for command in ("bound", "exact")
    ),
    Failure("exact --family cycle --n 5 --max-edges -1", 3, INPUT + "edge cap must be non-negative, got -1"),
    Failure("exact --family cycle --n 13", 4,
            LIMIT + "13 edges exceed the exact-search cap 12 (proven bracket: 6..12)"),
    # bench, which shares the model-flag checks with the sources
    Failure("bench --model gnp --n 6 --p 0.5", 3, INPUT + "--seed is required for random models"),
    Failure("bench --model gnp --p 0.5 --seed 1", 3, INPUT + "--n is required for random models"),
    Failure("bench --model random_cubic --n 8 --p 0.3 --count 1 --seed 1", 3,
            INPUT + "--p does not apply to --model random_cubic"),
    Failure("bench --model gnp --n 1 --p 0.5 --count 2 --seed 1", 3,
            INPUT + "no connected gnp(1, 0.5) graph exists; needs n >= 2 and p > 0"),
    Failure(f"bench {GNP} --count -1", 3, INPUT + "count must be non-negative"),
    # --count 0: no row reaches exact_rc
    *(
        Failure(f"bench {GNP} --count {count} --max-edges -5", 3, INPUT + "edge cap must be non-negative, got -5")
        for count in (2, 0)
    ),
]


def _row_id(row: Failure) -> str:
    inputs = [f"{name}={data!r}" for name, data in row.files]
    if row.stdin is not None:
        inputs.append(f"stdin={row.stdin!r}")
    return " ".join([row.argv, *inputs])


@pytest.mark.parametrize("row", FAILURES, ids=_row_id)
def test_failure(row, capsys, monkeypatch, tmp_path):
    """The row's exit code and exact stderr, nothing on stdout, and nothing
    written beside the row's input files."""
    for name, data in row.files:
        (tmp_path / name).write_bytes(data)
    if row.stdin is not None:
        _stdin(monkeypatch, row.stdin)
    monkeypatch.chdir(tmp_path)
    assert main(row.argv.split()) == row.code
    assert capsys.readouterr() == ("", row.stderr + "\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(name for name, _ in row.files)


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
    ``input error: `` or ``resource limit: ``), unless no CLI invocation can
    reach the site."""
    messages = [row.stderr.split(": ", 1)[1] for row in FAILURES]
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
    error exits 3."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        cmd = [sys.executable, "-m", "rainbowline.cli", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    c12 = run("exact", "--family", "cycle", "--n", "12")
    assert (c12.returncode, c12.stdout) == (0, "exact rc = 6\n")
    c13 = run("exact", "--family", "cycle", "--n", "13")
    assert c13.returncode == 4 and "resource limit" in c13.stderr
    k5 = run("linegraph", "--family", "complete", "--n", "5", "--iterations", "6")
    assert (k5.returncode, k5.stdout) == (4, "")
    assert "resource limit: iteration 5: line graph would have 757350 edges" in k5.stderr
    k30 = run("color", "--family", "complete", "--n", "30", "--theorem", "iterated")
    assert (k30.returncode, k30.stdout) == (4, "")
    assert "palette of 435 colors exceeds the search cap 64" in k30.stderr
    usage = run("exact", "--family", "cycle", "--n", "abc")
    assert usage.returncode == 3 and "argument --n: invalid int value" in usage.stderr


class TestLinegraphCommand:
    def test_output_matches_library(self, capsys):
        assert main(["linegraph", "--family", "cycle", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert parse_edge_list(out) == line_graph(cycle_graph(5)).l_graph

    def test_iterations(self, capsys):
        assert main(["linegraph", "--family", "path", "--n", "4", "--iterations", "2"]) == 0
        g = parse_edge_list(capsys.readouterr().out)
        assert g.n == 2 and g.m == 1

    def test_dot_export(self, capsys, tmp_path):
        dot = tmp_path / "l.dot"
        assert main(["linegraph", "--family", "cycle", "--n", "4", "--dot", str(dot)]) == 0
        target = line_graph(cycle_graph(4)).l_graph
        assert capsys.readouterr().out == render_edge_list(target)
        assert dot.read_text() == to_dot(target)


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
    def test_gnp_rows_verified(self, capsys):
        assert (
            main(["bench", "--model", "gnp", "--n", "7", "--p", "0.4",
                  "--count", "4", "--seed", "11"])
            == 0
        )
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert len(lines) == 5
        assert lines[0].startswith("index,seed,n,m,n2,")
        assert all(",True," in line for line in lines[1:])

    def test_deterministic(self, capsys):
        args = ["bench", "--model", "gnp", "--n", "6", "--p", "0.5",
                "--count", "3", "--seed", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first

    def test_csv_file_holds_the_table(self, capsys, tmp_path):
        argv = ["bench", "--model", "gnp", "--n", "6", "--p", "0.5", "--count", "2", "--seed", "7"]
        assert main(argv) == 0
        table = capsys.readouterr().out
        out = tmp_path / "rows.csv"
        assert main([*argv, "--csv", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == table

    def test_empty_table(self, capsys):
        assert main(["bench", "--model", "gnp", "--n", "6", "--p", "0.5",
                     "--count", "0", "--seed", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1

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
        connected; one search per graph answers them all. The rows are
        unchanged."""
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
        assert len(searched) == len(set(searched)) == 3

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
