import functools
import io
import json
import os
import pathlib
import re
import subprocess
import sys
from dataclasses import replace

import pytest

from helpers import count_packing_work
from rainbowline import cli, coloring, families, oracle
from rainbowline.cli import EXIT_INTERNAL, main, run_bench
from rainbowline.errors import InputError, InvariantViolation, LimitError
from rainbowline.families import FAMILIES, complete_graph, connected_gnp, cycle_graph, gen_family, random_cubic
from rainbowline.formats import parse_edge_list, render_edge_list
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

    def test_bad_family_params(self, capsys):
        assert main(["gen", "--family", "example31"]) == 3
        assert main(["gen", "--family", "example31", "--t", "0"]) == 3
        assert main(["gen", "--family", "petersen", "--n", "5"]) == 3

    @pytest.mark.parametrize("n, p", [("1", "0.5"), ("3", "0")])
    def test_impossible_gnp_is_an_input_error(self, capsys, n, p):
        # no connected sample exists, so this is bad input, not a resource limit
        assert main(["gen", "--model", "gnp", "--n", n, "--p", p, "--seed", "1"]) == 3
        err = capsys.readouterr().err
        assert err == f"input error: no connected gnp({n}, {float(p)}) graph exists; needs n >= 2 and p > 0\n"

    def test_unlikely_gnp_is_a_resource_limit(self, capsys):
        # a connected sample exists, but not within GNP_MAX_TRIES draws
        message = "no connected gnp(30, 0.01) sample in 1000 tries"
        with pytest.raises(LimitError, match=re.escape(message)):
            connected_gnp(30, 0.01, 1)
        assert main(["gen", "--model", "gnp", "--n", "30", "--p", "0.01", "--seed", "1"]) == 4
        assert capsys.readouterr().err == f"resource limit: {message}\n"

    def test_cubic_sampler_out_of_tries_is_a_resource_limit(self, monkeypatch):
        monkeypatch.setattr(families, "CUBIC_MAX_TRIES", 0)
        with pytest.raises(LimitError, match="no simple connected cubic sample on 8 vertices in 0 tries"):
            random_cubic(8, 1)

    @pytest.mark.parametrize(
        "argv, flag, source",
        [
            (["--model", "gnp", "--n", "4", "--p", "0.9", "--seed", "1", "--k", "5"], "--k", "--model gnp"),
            (["--model", "random_cubic", "--n", "8", "--seed", "1", "--p", "0.3"], "--p", "--model random_cubic"),
            (["--family", "path", "--n", "3", "--seed", "9"], "--seed", "--family path"),
            (["--family", "path", "--n", "3", "--p", "0.7"], "--p", "--family path"),
            (["--file", "-", "--n", "3"], "--n", "--file"),
        ],
    )
    def test_unread_source_flag_is_an_input_error(self, capsys, argv, flag, source):
        assert main(["gen", *argv]) == 3
        assert capsys.readouterr().err == f"input error: {flag} does not apply to {source}\n"

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

    @pytest.mark.parametrize(
        "theorem, pack", [("cubic", "forest_exact"), ("iterated", "greedy")]
    )
    def test_pack_only_for_packing_theorems(self, capsys, tmp_path, theorem, pack):
        report = tmp_path / "r.json"
        argv = ["color", "--model", "random_cubic", "--n", "8", "--seed", "1",
                "--theorem", theorem, "--pack", pack, "--json", str(report)]
        assert main(argv) == 3
        assert capsys.readouterr().err == (
            f"input error: theorem {theorem} takes no packing; "
            "pack applies only to theorems 31 and 32\n"
        )
        assert not report.exists()

    def test_forest_theorem_rejects_a_non_forest_packing(self, capsys):
        argv = ["color", "--family", "triangle_ring", "--r", "4", "--theorem", "31",
                "--pack", "greedy"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "input error: packing structure must be a triangle-forest; "
            "theorem 32 takes any packing\n"
        )

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

    def test_requires_source(self, capsys):
        assert main(["color", "--theorem", "31"]) == 3

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

    def test_cubic_rejects_non_cubic(self, capsys):
        assert main(["color", "--family", "path", "--n", "4", "--theorem", "cubic"]) == 3

    def test_cubic_on_empty_graph_is_input_error(self, capsys, tmp_path):
        # no vertices, so the degree-3 test passes vacuously
        path = tmp_path / "g.txt"
        path.write_text("0 0\n")
        assert main(["color", "--file", str(path), "--theorem", "cubic"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: line graph is trivial; rainbow connection is undefined on it\n"

    def test_deep_triangle_tree_is_a_resource_limit(self, capsys):
        # one triangle tree with t = 1099: colored without recursion, then
        # stopped by the verifier's palette cap, not by a RecursionError
        argv = ["color", "--family", "example32", "--k", "1100", "--theorem", "31"]
        assert main(argv) == 4
        assert capsys.readouterr().err.startswith("resource limit: ")

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

    def test_model_needs_seed(self, capsys):
        assert main(["color", "--model", "gnp", "--n", "7", "--p", "0.4",
                     "--theorem", "32"]) == 3
        assert "seed" in capsys.readouterr().err


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

    def test_wrong_length(self, tmp_path, capsys):
        g = tmp_path / "g.txt"
        g.write_text("3 2\n0 1\n1 2\n")
        c = tmp_path / "c.txt"
        c.write_text("1\n")
        assert main(["verify", "--file", str(g), "--coloring", str(c)]) == 3
        assert capsys.readouterr().err == "input error: coloring has 1 entries for 2 edges\n"


def _stdin(monkeypatch, data: bytes) -> None:
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))


class TestUndecodableInput:
    """Bytes that are not UTF-8 are an input error naming the file, from
    each source the commands read."""

    def test_edge_list_file(self, capsys, tmp_path):
        f = tmp_path / "g.txt"
        f.write_bytes(b"\xff3 2\n0 1\n1 2\n")
        assert main(["gen", "--file", str(f)]) == 3
        assert capsys.readouterr().err == f"input error: {f}: byte 0 is not UTF-8 (invalid start byte)\n"

    def test_stdin(self, capsys, monkeypatch):
        _stdin(monkeypatch, b"3 2\n0 1\n1 \xff\n")
        assert main(["gen", "--file", "-"]) == 3
        assert capsys.readouterr().err == "input error: stdin: byte 10 is not UTF-8 (invalid start byte)\n"

    def test_coloring_file(self, capsys, tmp_path):
        c = tmp_path / "c.txt"
        c.write_bytes(b"1 1 \xff\n")
        assert main(["verify", "--family", "cycle", "--n", "3", "--coloring", str(c)]) == 3
        assert capsys.readouterr().err == f"input error: {c}: byte 4 is not UTF-8 (invalid start byte)\n"


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

    def test_exact_over_cap(self, capsys):
        assert main(["exact", "--family", "cycle", "--n", "13"]) == 4
        err = capsys.readouterr().err
        assert "resource limit" in err and "6..12" in err

    def test_negative_edge_cap_is_an_input_error(self, capsys):
        assert main(["exact", "--family", "cycle", "--n", "5", "--max-edges", "-1"]) == 3
        assert capsys.readouterr().err == "input error: edge cap must be non-negative, got -1\n"

    def test_bound(self, capsys):
        assert main(["bound", "--family", "path", "--n", "5"]) == 0
        out = capsys.readouterr().out
        assert "rc lower bound = 4" in out

    @pytest.mark.parametrize("command", ["bound", "exact"])
    def test_single_vertex_is_an_input_error(self, capsys, command):
        assert main([command, "--family", "path", "--n", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: rc is defined only on connected graphs with at least 2 vertices\n"


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
    and exits 0, C13 is past the edge cap (exit 4), a usage error exits 3."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))}

    def run(*argv):
        cmd = [sys.executable, "-m", "rainbowline.cli", *argv]
        return subprocess.run(cmd, capture_output=True, text=True, env=env, timeout=120)

    c12 = run("exact", "--family", "cycle", "--n", "12")
    assert (c12.returncode, c12.stdout) == (0, "exact rc = 6\n")
    c13 = run("exact", "--family", "cycle", "--n", "13")
    assert c13.returncode == 4 and "resource limit" in c13.stderr
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

    def test_seed_required(self, capsys):
        assert main(["bench", "--model", "gnp", "--n", "6", "--p", "0.5"]) == 3

    @pytest.mark.parametrize("command", ["bench", "gen"])
    def test_n_required(self, capsys, command):
        """``bench`` and ``gen`` share the model-flag checks and message."""
        assert main([command, "--model", "gnp", "--p", "0.5", "--seed", "1"]) == 3
        assert capsys.readouterr().err == "input error: --n is required for random models\n"

    def test_single_vertex_gnp_is_an_input_error(self, capsys):
        assert main(["bench", "--model", "gnp", "--n", "1", "--p", "0.5",
                     "--count", "2", "--seed", "1"]) == 3
        assert capsys.readouterr().err.startswith("input error: no connected gnp(1, 0.5) graph exists")

    @pytest.mark.parametrize("count", ["2", "0"])  # "0": no row reaches exact_rc
    def test_negative_edge_cap_is_an_input_error(self, capsys, count):
        assert main(["bench", "--model", "gnp", "--n", "6", "--p", "0.5",
                     "--count", count, "--seed", "1", "--max-edges", "-5"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "input error: edge cap must be non-negative, got -5\n"
        assert captured.out == ""

    def test_cubic_rejects_p(self, capsys):
        assert main(["bench", "--model", "random_cubic", "--n", "8", "--p", "0.3",
                     "--count", "1", "--seed", "1"]) == 3
        assert capsys.readouterr().err == "input error: --p does not apply to --model random_cubic\n"
