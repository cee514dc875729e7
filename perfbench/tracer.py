"""Spans around the calls into each layer, recorded from outside the package.

Each traced function is replaced at every module attribute that holds it, so
the wrapper is what the package looks up at call time (``coloring`` calls
``line_graph`` through its own namespace, ``_certify`` imports
``oracle.is_rainbow_connected`` when it runs). ``uninstall`` restores the
originals. A span is ``(name, start, end, parent, call, error)``; parent is an
index into the span list. Spans stay in memory until the run writes them out.
"""

import functools
import sys
from collections import Counter
from time import perf_counter

# Layer boundaries, as (module, function). The pipeline entry points are
# traced too so that the spans below them have a meaningful parent.
TRACED = (
    ("formats", "parse_edge_list"),
    ("triangles", "pack_edge_disjoint"),
    ("triangles", "classify_structure"),
    ("triangles", "build_transformed"),
    ("linegraph", "line_graph"),
    ("coloring", "color_forest_packing"),
    ("coloring", "color_packing"),
    ("coloring", "color_cubic_iterated"),
    ("coloring", "color_iterated_baseline"),
    ("coloring", "project_coloring"),
    ("coloring", "color_triangle_tree"),
    ("coloring", "combine_colorings"),
    ("oracle", "is_rainbow_connected"),
    ("oracle", "exact_rc"),
    ("graphs", "blocks"),
    ("graphs", "is_connected"),
    ("graphs", "diameter"),
    ("cli", "run_bench"),
)

# Generators run lazily inside their consumer's span, so they are counted
# instead of timed.
COUNTED_GENERATORS = (("oracle", "canonical_colorings"),)

PACKAGE = "rainbowline"

# The benchmark's own span around each whole call; the root of a call's tree.
ROOT_SPAN = "bench.call"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: Counter = Counter()
        self.call = -1
        self._stack: list[int] = []
        self._line_inputs: set[int] = set()
        self._patches: list[tuple] = []

    def reset(self) -> None:
        """Start a new pass: spans and counters are per pass."""
        self.spans = []
        self.counters = Counter()
        self._line_inputs = set()

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(index)
            error = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self.call, error)
            self._count(name, args, result)
            return result

        return wrapper

    def _count(self, name: str, args, result) -> None:
        if name == "linegraph.line_graph":
            g = args[0]
            self.counters["linegraph.line_graph.l_edges"] += result.l_graph.m
            self._line_inputs.add(hash((g.n, g.edges)))
            self.counters["linegraph.line_graph.distinct"] = len(self._line_inputs)
        elif name == "triangles.build_transformed":
            self.counters["triangles.trace_steps"] += len(result.trace.steps)

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counters[name + ".yielded"] += 1
                yield item

        return wrapper

    def install(self) -> None:
        targets = {}
        for module, name in TRACED + COUNTED_GENERATORS:
            fn = getattr(sys.modules[f"{PACKAGE}.{module}"], name)
            make = self.counted if (module, name) in COUNTED_GENERATORS else self.span
            targets[id(fn)] = make(f"{module}.{name}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, targets[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches = []


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """One pass's per-layer metrics: ``<name>.calls`` and ``<name>.self_s``
    for every traced name, plus the counters and the derived counts.

    Self time is a span's duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _, _ in tracer.spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = {}
    errors: Counter = Counter()
    for module, name in TRACED:
        out[f"{module}.{name}.calls"] = 0
        out[f"{module}.{name}.self_s"] = 0.0
    for i, (name, start, end, _, _, error) in enumerate(tracer.spans):
        if name == ROOT_SPAN:
            continue
        out[name + ".calls"] += 1
        out[name + ".self_s"] += end - start - child[i]
        if error:
            errors[(name, error)] += 1
    counters = tracer.counters
    out["triangles.pack_fallbacks"] = errors[("triangles.pack_edge_disjoint", "LimitError")]
    out["triangles.trace_steps"] = counters["triangles.trace_steps"]
    out["linegraph.line_graph.l_edges"] = counters["linegraph.line_graph.l_edges"]
    line_calls = out["linegraph.line_graph.calls"]
    out["linegraph.line_graph.distinct_ratio"] = (
        counters["linegraph.line_graph.distinct"] / line_calls if line_calls else 0.0
    )
    rc_calls = out["oracle.exact_rc.calls"]
    out["oracle.exact_rc.resolved_ratio"] = (
        (rc_calls - sum(v for (n, _), v in errors.items() if n == "oracle.exact_rc")) / rc_calls
        if rc_calls
        else 0.0
    )
    out["oracle.canonical_colorings.yielded"] = counters["oracle.canonical_colorings.yielded"]
    return out
