"""Every golden report in ``tests/data``, written again in-process by the
command that made it and compared byte for byte, with its exit code."""

import pathlib
import runpy
import sys

import pytest

from rainbowline.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"

# golden -> the command that writes it, and its exit code. A ``.json`` golden
# is the command's ``--json`` report; any other golden is what it prints.
# ``scripts/`` commands run the script's ``main``.
COMMANDS = {
    "color_triangle_ring_8.json": ("color --family triangle_ring --r 8 --theorem 32", 0),
    "color_gnp_12_seed4.json": ("color --model gnp --n 12 --p 0.5 --seed 4 --theorem 32 --pack greedy", 0),
    "color_cubic_12_seed1.json": ("color --model random_cubic --n 12 --seed 1 --theorem cubic", 0),
    "color_gnp_40_seed1.json": ("color --model gnp --n 40 --p 0.2 --seed 1 --theorem 32", 0),
    "color_gnp_30_seed2_t31.json": ("color --model gnp --n 30 --p 0.25 --seed 2 --theorem 31", 0),
    "color_path_20_iterated.json": ("color --family path --n 20 --theorem iterated", 0),
    "color_example32_6_iterated.json": ("color --family example32 --k 6 --theorem iterated", 0),
    "color_friendship_5_t31.json": ("color --family friendship --f 5 --theorem 31", 0),
    "color_gnp_14_seed11.json": ("color --model gnp --n 14 --p 0.3 --seed 11 --theorem 32", 0),
    "verify_cycle_7_rainbow.json": ("verify --family cycle --n 7 --coloring {data}/coloring_cycle_7_rainbow.txt", 0),
    "verify_cycle_7_unrainbow.json": ("verify --family cycle --n 7 --coloring {data}/coloring_cycle_7_unrainbow.txt", 2),
    "verify_cycle_7_sparse.json": ("verify --family cycle --n 7 --coloring {data}/coloring_cycle_7_sparse.txt", 0),
    "bound_example31_3.json": ("bound --family example31 --t 3", 0),
    "exact_cycle_7.json": ("exact --family cycle --n 7", 0),
    "bench_gnp_7_seed1.json": ("bench --model gnp --n 7 --p 0.6 --count 3 --seed 1", 0),
    # op = 2, 4 and 1: theorem 32 picks a packing other than theorem 31's
    "bench_gnp_7_seed1.csv": ("bench --model gnp --n 7 --p 0.6 --count 3 --seed 1", 0),
    # both rows are past the exact search's cap: every column of a fallback row
    "bench_gnp_9_fallback.csv": ("bench --model gnp --n 9 --p 0.9 --count 2 --seed 1 --max-edges 0", 0),
    "bench_gnp_8_seed7.csv": ("bench --model gnp --n 8 --p 0.4 --count 3 --seed 7", 0),
    "bench_random_cubic_8_seed7.csv": ("bench --model random_cubic --n 8 --count 3 --seed 7", 0),
    "reproduce_sharpness.txt": ("scripts/reproduce_sharpness.py", 0),
}


def test_every_golden_has_a_command():
    inputs = {p.name for p in DATA.glob("coloring_*.txt")}
    assert {p.name for p in DATA.iterdir()} - inputs == set(COMMANDS)


@pytest.mark.parametrize("golden", sorted(COMMANDS))
def test_report_is_byte_identical(golden, capsys, monkeypatch, tmp_path):
    command, code = COMMANDS[golden]
    argv = command.format(data=DATA).split()
    report = tmp_path / golden
    if golden.endswith(".json"):
        argv += ["--json", str(report)]
    if argv[0].startswith("scripts/"):
        monkeypatch.setattr(sys, "argv", argv)
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/
        assert (runpy.run_path(str(ROOT / argv[0]))["main"]() or 0) == code
    else:
        assert main(argv) == code
    out = capsys.readouterr().out
    got = report.read_bytes() if golden.endswith(".json") else out.encode()
    assert got == (DATA / golden).read_bytes()
