"""What the benchmark in ``perfbench/`` needs from the package.

The benchmark's tracer looks functions up by module and name, and its gate
requires the traced flattening step count to equal ``chords + op`` from the
manifest. These tests load the benchmark's modules without changing them, so
a rename or a dropped step fails here, not only in the benchmark self-test.
"""

import importlib.util
import pathlib
import sys

from rainbowline.triangles import build_transformed

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Import ``perfbench/<name>.py`` without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
        del sys.modules[spec.name]
    return module


tracing = _load("tracer")
workloads = _load("workloads")


def test_traced_names_resolve():
    for module, name in tracing.TRACED + tracing.COUNTED_GENERATORS:
        package_module = importlib.import_module(f"{tracing.PACKAGE}.{module}")
        assert callable(getattr(package_module, name, None)), f"{module}.{name}"


def test_flatten_steps_are_chords_plus_op():
    (call,) = [c for c in workloads.build_calls("flatten", 1) if c.name == "gnp40-s1"]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        out = workloads.execute(call)
    finally:
        tracer.uninstall()
    g, packing = out[0], out[1]
    # the manifest's count, chords + op, recomputed by the benchmark's gate
    steps = workloads.check(call, out)["trace_steps"]
    assert packing.op > 0 and steps > packing.op
    assert len(build_transformed(g, packing).trace.steps) == steps
    assert tracer.counters["triangles.trace_steps"] == steps
