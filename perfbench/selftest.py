#!/usr/bin/env python3
"""Checks on the benchmark itself; prints one PASS/FAIL line per check.

    python3 perfbench/selftest.py

Run from the root of a source checkout. Takes about a minute: it runs every
workload once untraced and once traced with ``--seconds 1``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from rainbowline import families, formats  # noqa: E402

SEED = 97


def check_failure_accounting() -> str:
    """A real failure is counted with its class and the pass goes on.

    Theorem 32 on connected_gnp(80, 0.12, 3) needs 68 colours, over the
    verifier's 64-colour cap, so it raises LimitError today.
    """
    bad = workloads.Call("gnp80-s3", "32", text=formats.render_edge_list(families.connected_gnp(80, 0.12, 3)))
    good = workloads.build_calls("sharp", SEED)[0]
    result = run.run_pass([bad, good])
    failures = run.failures(result["manifest"])
    assert len(result["latencies"]) == 2, "both calls must be timed"
    assert [(f["call"], f["error"]) for f in failures] == [("gnp80-s3", "LimitError")], failures
    assert "palette of 68 colors exceeds the search cap 64" in failures[0]["message"], failures
    assert "colors_used" in result["manifest"][1], "the pass must go on after a failure"
    return "failed call recorded as LimitError, next call still gated"


def check_gate_rejects() -> str:
    """The gate recomputes the bound, so a certificate that lies is caught."""
    call = next(c for c in workloads.build_calls("sharp", SEED) if c.theorem == "32")
    g, packing, mode, col, cert = workloads.execute(call)
    lies = {
        "GateMismatch": dataclasses.replace(cert, bound_value=cert.bound_value + 1),
        "Unverified": dataclasses.replace(cert, verified=False),
    }
    for expected, bad in lies.items():
        try:
            workloads.check(call, (g, packing, mode, col, bad))
        except (workloads.GateMismatch, workloads.Unverified) as exc:
            assert type(exc).__name__ == expected, exc
        else:
            raise AssertionError(f"gate accepted a certificate that should raise {expected}")
    return "tampered bound and verdict both rejected"


def _run(workload: str, trace: int) -> dict:
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert last["correct"] and last["failed"] == 0, last
    return json.loads((run.RESULTS / f"{workload}-seed{SEED}-trace{trace}.json").read_text())


def check_determinism() -> str:
    """Two runs, and a traced and an untraced run, give the same content."""
    for workload in run.WORKLOAD_NAMES:
        first = _run(workload, 0)
        second = _run(workload, 0)
        traced = _run(workload, 1)
        assert first["manifest"] == second["manifest"], f"{workload}: two untraced runs differ"
        assert first["manifest"] == traced["manifest"], f"{workload}: traced run differs"
        assert first["end_to_end"]["palette_total"] == traced["end_to_end"]["palette_total"]
        assert not traced["problems"], traced["problems"]
    return "manifests equal across runs and between traced and untraced runs"


def check_bare_directory() -> str:
    """Without the package sources the benchmark fails fast and prints no result."""
    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "sharp", "--seed", "1", "--seconds", "1", "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0, "must fail without src/rainbowline"
    assert not proc.stdout.strip(), proc.stdout
    return f"exit code {proc.returncode}, nothing on stdout"


def main() -> int:
    failed = 0
    for check in (check_failure_accounting, check_gate_rejects, check_determinism, check_bare_directory):
        try:
            print(f"PASS {check.__name__}: {check()}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {check.__name__}: {exc}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
