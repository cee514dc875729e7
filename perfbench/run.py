#!/usr/bin/env python3
"""Benchmark rainbowline from edge list to verified certificate.

    python3 perfbench/run.py --workload flatten|sharp|ensemble|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. A run sets up (timed in fresh interpreters), then makes a fixed
number of passes over the workload's calls, gates every call's output
outside the timed region, and prints a summary followed by one JSON line:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Names and units come from ``BENCHMARK.json``. The full record (metadata,
manifest, failures, every metric) goes to ``perfbench/results/``.

With ``--trace 1`` untraced and traced passes alternate; per-layer numbers
come from the traced passes and ``trace.overhead_s`` is the difference of
the two kinds' median pass times.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("flatten", "sharp", "ensemble")

SETUP_PROBES = 5
# Seconds budgeted per pass; the pass count is --seconds divided by this, so
# every run of a workload has the same samples and tail percentile. Near one
# pass's time on a loaded 2-vCPU Xeon with Python 3.11 (flatten 4.5-5 s).
# Flatten's budget gives 4 passes in 25 s: with 5, the tail (11th largest of
# 50) sat on the edge between the gnp60 and gnp50 calls and spread 28% from
# run to run; with 4 it falls inside the gnp50 calls and spread 6%.
PASS_SECONDS = {"flatten": 6.0, "sharp": 0.5, "ensemble": 2.2}
# A run stops starting passes after this many times --seconds, so a much
# slower program still exits in time; the record then says "truncated".
HARD_STOP = 4
TAIL_BEYOND = 10
CAL_ITERS = 20_000


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop of dict lookups and integer bit
    operations, like the package's inner loops. On a shared host the speed
    of the interpreter drifts within a second, so each call is divided by
    the loop timed just before it."""
    start = perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(CAL_ITERS):
        key = (i * 40503) & 1023
        acc ^= table.get(key, i) << (i & 7)
        table[key] = acc & 0xFFFF
    return perf_counter() - start


def run_pass(calls, tracer=None) -> dict:
    """Time every call once; gate each output outside the timed region.

    Every failure (an error the package raises, an unverified certificate or
    a gate mismatch) is one failed call, recorded with its class, and the
    pass goes on.
    """
    import workloads

    execute = workloads.execute
    if tracer is not None:
        tracer.reset()
        tracer.install()
        execute = tracer.span(tracing.ROOT_SPAN, workloads.execute)
    latencies, calibrations, manifest = [], [], []
    try:
        for index, call in enumerate(calls):
            gc.collect()  # so one call's garbage is not collected inside the next
            calibrations.append(calibrate())
            if tracer is not None:
                tracer.call = index
            start = perf_counter()
            try:
                out = execute(call)
            except workloads.CALL_ERRORS as exc:
                latencies.append(perf_counter() - start)
                manifest.append(_failure(call, exc))
                continue
            latencies.append(perf_counter() - start)
            try:
                manifest.append(workloads.check(call, out))
            except (workloads.Unverified, workloads.GateMismatch) as exc:
                manifest.append(_failure(call, exc))
    finally:
        if tracer is not None:
            tracer.uninstall()
    return {"latencies": latencies, "calibrations": calibrations, "manifest": manifest}


def _failure(call, exc) -> dict:
    """A failed call's manifest entry."""
    return {"call": call.name, "error": type(exc).__name__, "message": str(exc)}


def failures(manifest: list[dict]) -> list[dict]:
    return [entry for entry in manifest if "error" in entry]


def set_up(workload: str, seed: int):
    """Generate the workload's calls and run the cheapest one untimed."""
    import workloads

    start = perf_counter()
    calls = workloads.build_calls(workload, seed)
    gen_s = perf_counter() - start
    warm = min(calls, key=lambda c: (len(c.text), c.name))
    run_pass([warm])
    return calls, gen_s


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of set-up.

    No timeout: with one, ``subprocess`` polls in sleeps of up to 50 ms,
    which rounded every probe up to the next 50 ms.
    """
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    start = perf_counter()
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return perf_counter() - start


def host_meta(seed: int) -> dict:
    import workloads

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "seed": seed,
        "max_edges": workloads.MAX_EDGES,
    }


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} samples leave no tail of {TAIL_BEYOND}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(untraced: list[dict], setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced passes, plus raw-time context.

    Host speed on a shared machine drifts within a second, so each call's
    latency is divided by the calibration loop timed just before it. On five
    runs of one flatten seed that per-call ratio spread 1.2% (quartile
    distance over median) where the raw pass time spread 13% and the ratio to
    the run's median calibration 13%. The ``*_rel`` metrics are the steady
    ones; the raw times are kept in the record next to them.
    """
    latencies = [p["latencies"] for p in untraced]
    ratios = [[x / c for x, c in zip(p["latencies"], p["calibrations"])] for p in untraced]
    flat = [x for p in ratios for x in p]
    tail_rel, tail_pct = tail(flat)
    raw = [x for p in latencies for x in p]
    manifest = untraced[0]["manifest"]
    metrics = {
        "wall_rel": sum(statistics.median(samples) for samples in zip(*ratios)),
        "call_p50_rel": statistics.median(flat),
        "call_tail_rel": tail_rel,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "palette_total": sum(e.get("colors_used", 0) for e in manifest),
    }
    raw_times = {
        "wall_s": sum(statistics.median(samples) for samples in zip(*latencies)),
        "call_p50_ms": statistics.median(raw) * 1000,
        "call_tail_ms": tail(raw)[0] * 1000,
        "calib_s": statistics.median(c for p in untraced for c in p["calibrations"]),
    }
    context = {
        "call_tail_percentile": tail_pct,
        "call_samples": len(flat),
        "setup_samples_s": setup,
    }
    return metrics, raw_times, context


def per_layer(traced: list[tuple[dict, dict]], untraced: list[dict], gen_s: float) -> tuple[dict, list[str]]:
    """Median self times over the traced passes; counts must repeat exactly."""
    problems = []
    layers = [m for _, m in traced]
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between traced passes: {values}")
            out[name] = values[0]
    out["families.gen_s"] = gen_s
    out["trace.overhead_s"] = statistics.median(sum(p["latencies"]) for p, _ in traced) - statistics.median(
        sum(p["latencies"]) for p in untraced
    )
    return out, problems


def run(workload: str, seed: int, seconds: int, trace: bool) -> int:
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    calls, gen_s = set_up(workload, seed)
    # Enough untraced passes for the latency tail, and at least two passes to
    # compare manifests; traced and untraced passes alternate.
    least = -(-(TAIL_BEYOND + 1) // len(calls))
    least = 2 * least if trace else max(2, least)
    passes = max(least, round(seconds / PASS_SECONDS[workload]))
    tracer = tracing.Tracer() if trace else None
    started = perf_counter()
    stop_at = started + HARD_STOP * seconds
    untraced, traced, spans = [], [], []
    for index in range(passes):
        if trace and index % 2 == 1:
            result = run_pass(calls, tracer)
            traced.append((result, tracing.layer_metrics(tracer)))
            spans.append(tracer.spans)
        else:
            untraced.append(run_pass(calls))
        if perf_counter() > stop_at and index + 1 >= least:
            break
    measure_s = perf_counter() - started
    done = untraced + [p for p, _ in traced]
    attempted = len(calls) * len(done)
    failed = [f for p in done for f in failures(p["manifest"])]
    problems = [
        f"pass {i} manifest differs from pass 0"
        for i, p in enumerate(done)
        if p["manifest"] != done[0]["manifest"]
    ]
    metrics, raw_times, context = end_to_end(untraced, setup)
    layer = {}
    if trace:
        layer, more = per_layer(traced, untraced, gen_s)
        problems += more
        steps = sum(e.get("trace_steps") or 0 for e in done[0]["manifest"])
        if workload != "ensemble" and layer["triangles.trace_steps"] != steps:
            problems.append(f"traced trace_steps {layer['triangles.trace_steps']} != manifest {steps}")
    failed_ratio = len(failed) / attempted
    correct = not failed and not problems
    record = {
        "workload": workload,
        "why": workloads.WHY[workload],
        "trace": trace,
        "meta": host_meta(seed),
        "passes": len(done),
        "measure_s": measure_s,
        "truncated": len(done) < passes,
        "calls_per_pass": len(calls),
        "end_to_end": metrics,
        "raw_times": raw_times,
        "failed_ratio": failed_ratio,
        **context,
        "per_layer": layer,
        "correct": correct,
        "problems": problems,
        "failures": failed,
        "manifest": done[0]["manifest"],
        "samples": [{k: p[k] for k in ("latencies", "calibrations")} for p in untraced],
    }
    write_record(record, spans)
    chosen = spec["per_layer"] if trace else spec["end_to_end"]
    source = layer if trace else metrics
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in chosen},
    }
    print_summary(record, spec)
    print(json.dumps(result))
    return 0


def write_record(record: dict, spans: list) -> None:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{record['workload']}-seed{record['meta']['seed']}"
    (RESULTS / f"{stem}-trace{int(record['trace'])}.json").write_text(json.dumps(record, indent=1) + "\n")
    if record["trace"]:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for pass_index, pass_spans in enumerate(spans):
                for span in pass_spans:
                    fh.write(json.dumps([pass_index, *span]) + "\n")


def print_summary(record: dict, spec: dict) -> None:
    """Every metric by name and unit, raw times and failures included."""
    meta = record["meta"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    print(
        f"workload {record['workload']}: {record['passes']} passes x {record['calls_per_pass']} calls, "
        f"seed {meta['seed']}, python {meta['python']}, {meta['cpu']}, nproc {meta['nproc']}, "
        f"max_edges {meta['max_edges']}"
    )
    for name, value in record["end_to_end"].items():
        print(f"  {name:<14} {value:>14.6g} {units[name]}")
    for name, value in record["raw_times"].items():
        print(f"  {name:<14} {value:>14.6g} {'ms' if name.endswith('_ms') else 's'} (raw, not steady)")
    failed = record["failures"]
    attempted = record["passes"] * record["calls_per_pass"]
    print(f"  {'failed_ratio':<14} {record['failed_ratio']:>14.6g} ratio ({len(failed)} of {attempted})")
    print(f"  call tails are p{record['call_tail_percentile']:.1f} of {record['call_samples']} calls")
    for m in spec["per_layer"] if record["trace"] else ():
        print(f"  {m['name']:<40} {record['per_layer'][m['name']]:>14.6g} {m['unit']}")
    for failure in failed:
        print(f"  FAILED {failure['call']}: {failure['error']}: {failure['message']}")
    for problem in record["problems"]:
        print(f"  PROBLEM {problem}")


def run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {}
    for workload in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {workload} exited with {proc.returncode}", file=sys.stderr)
            return 1
        combined[workload] = json.loads(lines[-1])
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "rainbowline" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not a rainbowline source checkout (needs src/rainbowline and BENCHMARK.json)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        set_up(args.workload, args.seed)
        return 0
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
