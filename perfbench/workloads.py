"""Workload definitions, the timed call, and the correctness gate.

A call drives the package the way ``rainbowline color`` does: parse an edge
list, pack triangles (exact mode, greedy when the exact search cap trips),
run one of the four pipelines and return its certificate. In ``ensemble`` a
call is one ``rainbowline bench`` row instead. Every function of the package
is looked up through its module at call time, so the tracer's wrappers are
seen without editing the package.

The gate runs outside the timed region. It recomputes each bound formula from
the degrees and the packing itself instead of trusting the certificate.
"""

import hashlib
import json
import random
from dataclasses import dataclass

from rainbowline import cli, coloring, families, formats, triangles
from rainbowline.errors import InputError, InvariantViolation, LimitError

# Errors a call may raise that count as one failed call; anything else is a
# defect in the benchmark and stops it.
CALL_ERRORS = (LimitError, InputError, InvariantViolation)

# Passed to every bench row, so a change to the oracle's default cap shows up
# as a changed workload rather than as a speed-up.
MAX_EDGES = 12

# Same defaults and fallbacks as ``rainbowline color``.
DEFAULT_PACK = {"31": "forest_exact", "32": "exact"}
GREEDY_FALLBACK = {"forest_exact": "forest_greedy", "exact": "greedy"}

# Why each workload exists and which layers it stresses; a traced run
# (--trace 1) shows each layer's share.
WHY = {
    "flatten": (
        "theorem 32 on gnp (40, 0.2), (50, 0.16), (60, 0.14) and theorem cubic on "
        "random cubic graphs n = 40, 62, two instances each: "
        "op > 0, hundreds of detach/split steps per instance, so flattening, "
        "projection and line_graph rebuilds dominate next to the verifier"
    ),
    "sharp": (
        "the paper's sharpness families with op <= 1: projection is bypassed and "
        "the verifier on long sparse line graphs with palettes up to 64 dominates; "
        "the control for any flattening or projection change"
    ),
    "ensemble": (
        "bench rows on gnp(7, 0.35) and random_cubic(8) with max_edges=12: all "
        "packing modes plus brute-force exact_rc, thousands of tiny verifier "
        "checks that mostly fail early"
    ),
}


@dataclass(frozen=True)
class Call:
    """One unit of timed work. ``theorem`` is a ``color --theorem`` selector,
    or ``bench`` for an ensemble row described by model, n, p and seed."""

    name: str
    theorem: str
    text: str = ""
    model: str = ""
    n: int = 0
    p: float = 0.0
    seed: int = 0


class Unverified(Exception):
    """The certificate or bench row says the coloring did not verify."""


class GateMismatch(Exception):
    """An output disagrees with what the benchmark recomputed."""


def _edge_list_call(name: str, theorem: str, g) -> Call:
    return Call(name, theorem, text=formats.render_edge_list(g))


def _flatten() -> list[Call]:
    calls = []
    for n, p in ((40, 0.2), (50, 0.16), (60, 0.14)):
        for seed in (1, 2):
            calls.append(_edge_list_call(f"gnp{n}-s{seed}", "32", families.connected_gnp(n, p, seed)))
    for n in (40, 62):
        for seed in (1, 2):
            calls.append(_edge_list_call(f"cubic{n}-s{seed}", "cubic", families.random_cubic(n, seed)))
    return calls


def _sharp() -> list[Call]:
    # Every rung certifies under the verifier's 64-colour cap (t=32, k=63 and
    # r=63 sit exactly on it); larger rungs would only measure the cap.
    ladder = (
        [("31", "example31", "t", v) for v in (8, 16, 24, 32)]
        + [("32", "example32", "k", v) for v in (8, 16, 24, 48, 63)]
        + [("32", "triangle_ring", "r", v) for v in (12, 24, 48, 63)]
        + [("iterated", "path", "n", v) for v in (20, 40, 60)]
    )
    return [
        _edge_list_call(f"{family}-{key}{v}", theorem, families.gen_family(family, **{key: v}))
        for theorem, family, key, v in ladder
    ]


def _ensemble() -> list[Call]:
    return [
        Call(f"{model}{n}-s{seed}", "bench", model=model, n=n, p=p, seed=seed)
        for model, n, p in (("gnp", 7, 0.35), ("random_cubic", 8, 0.0))
        for seed in range(1, 41)
    ]


def build_calls(workload: str, seed: int) -> list[Call]:
    """The workload's calls in the order a pass runs them; same seed, same calls.

    The instances are fixed and the workload seed only orders them. Drawing
    instances from the seed made the work itself vary: on flatten, wall_rel
    spread 5.8% and call_p50_rel 12.9% over five seeds against 1.2% for five
    runs of one seed, and exact_rc on ensemble rows is heavy-tailed (one
    seeded gnp(7, 0.35) row in 200 took 81% of their time).
    """
    calls = {"flatten": _flatten, "sharp": _sharp, "ensemble": _ensemble}[workload]()
    random.Random(seed).shuffle(calls)
    return calls


def _pack(g, theorem: str):
    mode = DEFAULT_PACK[theorem]
    try:
        return triangles.pack_edge_disjoint(g, mode), mode
    except LimitError:
        mode = GREEDY_FALLBACK[mode]
        return triangles.pack_edge_disjoint(g, mode), mode


def execute(call: Call):
    """The timed part of a call; returns whatever the gate needs."""
    if call.theorem == "bench":
        return cli.run_bench(call.model, call.n, call.p, 1, call.seed, MAX_EDGES)[0]
    g = formats.parse_edge_list(call.text)
    packing = mode = None
    if call.theorem == "31":
        packing, mode = _pack(g, "31")
        col, cert = coloring.color_forest_packing(g, packing)
    elif call.theorem == "32":
        packing, mode = _pack(g, "32")
        col, cert = coloring.color_packing(g, packing)
    elif call.theorem == "cubic":
        col, cert = coloring.color_cubic_iterated(g)
    else:
        col, cert = coloring.color_iterated_baseline(g)
    return g, packing, mode, col, cert


def _components(tris) -> int:
    parent: dict[int, int] = {}

    def find(v: int) -> int:
        while parent.setdefault(v, v) != v:
            v = parent[v]
        return v

    for tri in tris:
        a, b, c = (find(v) for v in tri.vertices)
        parent[b] = a
        parent[find(c)] = a
    return len({find(v) for tri in tris for v in tri.vertices})


def _degrees(g) -> list[int]:
    deg = [0] * g.n
    for u, v in g.edges:
        deg[u] += 1
        deg[v] += 1
    return deg


def _line_degrees(g, deg) -> list[int]:
    """Degree of each line-graph vertex (one per edge of the source)."""
    return [deg[u] + deg[v] - 2 for u, v in g.edges]


def _pairs(degrees) -> int:
    return sum(d * (d - 1) // 2 for d in degrees)


def _digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()[:16]


def check(call: Call, out) -> dict:
    """Gate one call's output; return its manifest entry (no timings)."""
    if call.theorem == "bench":
        return _check_row(call, out)
    g, packing, mode, col, cert = out
    if not cert.verified:
        raise Unverified(f"{call.name}: certificate not verified, witness {cert.witness_failure}")
    deg = _degrees(g)
    n2 = sum(1 for d in deg if d >= 2)
    t = c = op = steps = None
    if packing is not None:
        tris = packing.triangles
        covered = {v for tri in tris for v in tri.vertices}
        t, c = len(tris), _components(tris)
        op = 2 * t + c - len(covered)
        tri_edges = {e for tri in tris for e in tri.edge_ids}
        comp = {v: i for i, verts in enumerate(packing.component_vertices) for v in verts}
        chords = sum(
            1
            for e, (a, b) in enumerate(g.edges)
            if e not in tri_edges and a in comp and comp[a] == comp.get(b)
        )
        steps = chords + op
        bound = n2 - t if call.theorem == "31" else t + (n2 - len(covered)) + c
        l_n, l_m = g.m, _pairs(deg)
    elif call.theorem == "cubic":
        # The n vertex stars of L(G) are the packing: t = n, c = 1, every
        # vertex of L(G) covered and no chords, so op = 2n + 1 - m.
        t, c = g.n, 1
        op = steps = 2 * g.n + 1 - g.m
        bound = g.n + 1
        l_n, l_m = _pairs(deg), _pairs(_line_degrees(g, deg))
    else:
        nbr = {u: v for u, v in g.edges} | {v: u for u, v in g.edges}
        m1 = sum(1 for v in range(g.n) if deg[v] == 1 and deg[nbr[v]] == 2)
        bound = g.m - m1
        l_n, l_m = _pairs(deg), _pairs(_line_degrees(g, deg))
    problems = []
    if cert.bound_value != bound:
        problems.append(f"bound {cert.bound_value} != recomputed {bound}")
    if cert.colors_used != bound or col.k != cert.colors_used:
        problems.append(f"colors {cert.colors_used} (k={col.k}) != bound {bound}")
    if (col.graph.n, col.graph.m) != (l_n, l_m):
        problems.append(f"target has {col.graph.n}/{col.graph.m} vertices/edges, expected {l_n}/{l_m}")
    if len(col.colors) != l_m or not all(1 <= x <= col.k for x in col.colors):
        problems.append("coloring length or range wrong")
    if problems:
        raise GateMismatch(f"{call.name}: " + "; ".join(problems))
    return {
        "call": call.name, "theorem": call.theorem, "n": g.n, "m": g.m,
        "l_n": l_n, "l_m": l_m, "pack": mode, "t": t, "c": c, "op": op,
        "trace_steps": steps, "colors_used": cert.colors_used, "digest": _digest(col.colors),
    }


def _check_row(call: Call, row: dict) -> dict:
    cubic = call.model == "random_cubic"
    if not (row["verified_forest"] is True and row["verified_general"] is True):
        raise Unverified(f"{call.name}: forest/general coloring not verified")
    if cubic and row["verified_cubic"] is not True:
        raise Unverified(f"{call.name}: cubic coloring not verified")
    t_forest = row["t_forest_exact"] if row["t_forest_exact"] != "" else row["t_forest_greedy"]
    t_general = row["t_exact"] if row["t_exact"] != "" else row["t_greedy"]
    problems = []
    if row["colors_forest"] != row["bound_forest"] or row["bound_forest"] != row["n2"] - t_forest:
        problems.append("forest colors != n2 - t")
    if row["colors_general"] != row["bound_general"] or row["bound_general"] != (
        t_general + row["n2_prime"] + row["c"]
    ):
        problems.append("general colors != t + n2' + c")
    if cubic and not row["colors_cubic"] == row["bound_cubic"] == row["n"] + 1:
        problems.append("cubic colors != n + 1")
    rc = row["exact_rc_line"]
    if rc != "" and not row["diam_line"] <= rc <= min(row["colors_forest"], row["colors_general"]):
        problems.append(f"exact_rc {rc} outside diam {row['diam_line']}..min(colors)")
    if problems:
        raise GateMismatch(f"{call.name}: " + "; ".join(problems))
    palette = row["colors_forest"] + row["colors_general"] + (row["colors_cubic"] if cubic else 0)
    return {
        "call": call.name, "theorem": "bench", "n": row["n"], "m": row["m"],
        "t": t_general, "c": row["c"], "op": row["op"], "exact_rc": rc,
        "colors_used": palette, "digest": _digest([json.dumps(row, sort_keys=True)]),
    }
