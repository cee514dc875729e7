"""What the benchmark in ``perfbench/`` needs from the package.

The benchmark's tracer looks functions up by module and name, and its gate
requires the traced flattening step count to equal ``chords + op`` from the
manifest. These tests load the benchmark's modules without changing them, so
a rename or a dropped step fails here, not only in the benchmark self-test.
The tracer's names are also the only definitions the package may keep with
no caller of its own: any other dead function or class fails here.
"""

import ast
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


# Kept only because the tracer looks them up by name; ROADMAP item 7 deletes
# them once the benchmark may change.
TRACER_ONLY = {
    "coloring.combine_colorings",
    "coloring.project_coloring",
    "graphs.blocks",
    "oracle.canonical_colorings",
}


def test_no_dead_definitions():
    """Every module-level function or class in the package is loaded, by
    name or as an attribute, somewhere in ``src/`` outside its own
    definition, or it is one the tracer looks up by name."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / tracing.PACKAGE
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    loaded: dict[str, set[tuple[str, str | None]]] = {}
    for module, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(getattr(node, "ctx", None), ast.Load) and isinstance(node, (ast.Name, ast.Attribute)):
                    name = node.id if isinstance(node, ast.Name) else node.attr
                    loaded.setdefault(name, set()).add((module, owner))
    dead = {
        f"{module}.{top.name}"
        for module, tree in trees.items()
        for top in tree.body
        if isinstance(top, (ast.FunctionDef, ast.ClassDef))
        and not loaded.get(top.name, set()) - {(module, top.name)}
    }
    traced = {f"{module}.{name}" for module, name in tracing.TRACED + tracing.COUNTED_GENERATORS}
    assert dead <= traced, sorted(dead - traced)
    assert dead == TRACER_ONLY
