"""Command-line surface.

Subcommands: gen, linegraph, bound, exact, verify, color, bench.
Exit codes: 0 success/verified, 1 internal error (a defect, not bad input),
2 verification failed, 3 input error (usage errors included), 4 resource
limit exceeded.
"""

import argparse
import csv
import io
import sys
from pathlib import Path

from . import triangles
from .coloring import (
    THEOREMS,
    EdgeColoring,
    Run,
    color,
    color_forest_packing,
    color_packing,
    default_mode,
    general_from_forest,
)
from .errors import InputError, InvariantViolation, LimitError
from .families import FAMILIES, FAMILY_TABLE, connected_gnp, gen_family, random_cubic
from .formats import (
    dump_report,
    graph_payload,
    parse_coloring,
    parse_edge_list,
    render_edge_list,
    to_dot,
)
from .graphs import Graph, diameter
from .linegraph import iterated_line_graph
from .oracle import DEFAULT_EDGE_CAP, check_edge_cap, exact_rc, is_rainbow_connected, rc_lower_bound

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_UNVERIFIED = 2
EXIT_INPUT = 3
EXIT_LIMIT = 4

# Each random model's sampler, called as (n, p, seed), and the flags it reads
# besides --seed and --n, which every model reads.
_MODELS = {
    "gnp": (connected_gnp, ("p",)),
    "random_cubic": (lambda n, p, seed: random_cubic(n, seed), ()),
}
# The families' parameter letters, each once, in FAMILY_TABLE's order.
_FAMILY_FLAGS = tuple(dict.fromkeys(key for key, _ in FAMILY_TABLE.values() if key))


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        """A usage error is an input error (exit 3), not argparse's exit 2."""
        self.print_usage(sys.stderr)
        raise InputError(message)


def _add_source_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--file", help="edge-list file ('-' for stdin)")
    p.add_argument("--family", choices=FAMILIES, help="generated family")
    p.add_argument("--model", choices=tuple(_MODELS), help="random model source")
    p.add_argument("--seed", type=int, help="seed, mandatory with --model")
    for flag in _FAMILY_FLAGS:
        p.add_argument(f"--{flag}", type=int, help=argparse.SUPPRESS)
    p.add_argument("--p", type=float, help=argparse.SUPPRESS)


def _reject_unread(args: argparse.Namespace, source: str, reads: tuple[str, ...]) -> None:
    """A source flag the chosen source does not read, if defined, is an input error."""
    for flag in ("seed", *_FAMILY_FLAGS, "p"):
        if flag not in reads and getattr(args, flag, None) is not None:
            raise InputError(f"--{flag} does not apply to {source}")


def _check_model_flags(args: argparse.Namespace) -> tuple[str, ...]:
    """A random model needs ``--seed``, ``--n`` and its own flags, and no other
    source flag. Returns the flags it reads."""
    _, own = _MODELS[args.model]
    reads = ("seed", "n", *own)
    _reject_unread(args, f"--model {args.model}", reads)
    for flag in reads:
        if getattr(args, flag) is None:
            whom = f"the {args.model} model" if flag in own else "random models"
            raise InputError(f"--{flag} is required for {whom}")
    return reads


def _sample(model: str, n: int, p: float, seed: int) -> Graph:
    sampler, _ = _MODELS[model]
    return sampler(n, p, seed)


def _read(path: str, stdin: bool = False) -> str:
    """The file ``path``, or stdin if ``stdin``, decoded as UTF-8 without a
    leading byte-order mark; other bytes are an input error that names the
    file and the offset from its start."""
    data = sys.stdin.buffer.read() if stdin else Path(path).read_bytes()
    try:
        return data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        name = "stdin" if stdin else path
        raise InputError(f"{name}: byte {exc.start} is not UTF-8 ({exc.reason})") from None


def _load_graph(args: argparse.Namespace) -> tuple[Graph, dict]:
    sources = [s for s in (args.file, args.family, args.model) if s]
    if len(sources) != 1:
        raise InputError("exactly one of --file, --family, or --model is required")
    if args.file:
        _reject_unread(args, "--file", ())
        text = _read(args.file, stdin=args.file == "-")
        return parse_edge_list(text), {"file": args.file}
    if args.model:
        meta = {flag: getattr(args, flag) for flag in ("model", *_check_model_flags(args))}
        return _sample(args.model, args.n, args.p, args.seed), meta
    _reject_unread(args, f"--family {args.family}", _FAMILY_FLAGS)
    params = {flag: getattr(args, flag) for flag in _FAMILY_FLAGS if getattr(args, flag) is not None}
    return gen_family(args.family, **params), {"family": args.family, "params": params}


def _write(path: str, text: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _report(args: argparse.Namespace, payload: dict) -> None:
    """Write ``payload`` under the command's name to the ``--json`` path, if given."""
    if args.json:
        _write(args.json, dump_report({"command": args.command, **payload}))


def cmd_gen(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args)
    sys.stdout.write(render_edge_list(g))
    return EXIT_OK


def cmd_linegraph(args: argparse.Namespace) -> int:
    g, _ = _load_graph(args)
    chain = iterated_line_graph(g, args.iterations)
    target = chain[-1].l_graph
    sys.stdout.write(render_edge_list(target))
    if args.dot:
        _write(args.dot, to_dot(target))
    return EXIT_OK


def cmd_bound(args: argparse.Namespace) -> int:
    g, meta = _load_graph(args)
    lower = rc_lower_bound(g)
    upper = g.n - 1
    print(f"diameter = {lower}")
    print(f"rc lower bound = {lower}")
    print(f"rc upper bound (spanning tree) = {upper}")
    _report(
        args,
        {"instance": meta, "graph": graph_payload(g), "diameter": lower, "rc_lower": lower, "rc_upper": upper},
    )
    return EXIT_OK


def cmd_exact(args: argparse.Namespace) -> int:
    g, meta = _load_graph(args)
    value = exact_rc(g, max_edges=args.max_edges)
    print(f"exact rc = {value}")
    _report(args, {"instance": meta, "graph": graph_payload(g), "exact_rc": value})
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    g, meta = _load_graph(args)
    colors, k = parse_coloring(_read(args.coloring))
    coloring = EdgeColoring(g, colors, k)
    ok, witness = is_rainbow_connected(coloring)
    print(f"verified = {str(ok).lower()}")
    if witness:
        print(f"failing pair = {witness[0]} {witness[1]}")
    _report(
        args,
        {
            "instance": meta,
            "graph": graph_payload(g),
            "coloring": list(colors),
            "k": k,
            "verified": ok,
            "witness_failure": list(witness) if witness else None,
        },
    )
    return EXIT_OK if ok else EXIT_UNVERIFIED


def _packing_payload(p: triangles.TrianglePacking) -> dict:
    return {
        "t": p.t,
        "c": p.c,
        "n2_prime": p.n2_prime,
        "op": p.op,
        "forest": p.all_forest,
        "triangles": [list(t.vertices) for t in p.triangles],
    }


def cmd_color(args: argparse.Namespace) -> int:
    g, meta = _load_graph(args)
    run = color(g, args.theorem, args.pack)
    packing, coloring, cert = run.packing, run.coloring, run.certificate
    target = coloring.graph
    print(f"bound {cert.bound_name} = {cert.bound_value}")
    print(f"colors used = {cert.colors_used}")
    print(f"verified = {str(cert.verified).lower()}")
    if cert.witness_failure:
        print(f"failing pair = {cert.witness_failure[0]} {cert.witness_failure[1]}")
    if packing is not None:
        print(
            f"packing: t={packing.t} c={packing.c} n2'={packing.n2_prime} "
            f"op={packing.op} mode={run.mode}"
        )
    if args.json:  # the target's diameter is computed only for the report
        payload = {
            "instance": {**meta, "theorem": args.theorem, "pack": run.mode},
            "source_graph": graph_payload(g),
            "target": "L2" if packing is None else "L",
            "target_graph": graph_payload(target),
            "bound": {"name": cert.bound_name, "value": cert.bound_value},
            "colors_used": cert.colors_used,
            "coloring": list(coloring.colors),
            "verified": cert.verified,
            "witness_failure": list(cert.witness_failure) if cert.witness_failure else None,
            "diameter_lower_bound": rc_lower_bound(target),
        }
        if packing is not None:
            payload["packing"] = _packing_payload(packing)
        _report(args, payload)
    if args.dot:
        _write(args.dot, to_dot(target, coloring.colors))
    return EXIT_OK if cert.verified else EXIT_UNVERIFIED


_BENCH_FIELDS = [
    "index", "seed", "n", "m", "n2",
    "t_greedy", "t_exact", "t_forest_greedy", "t_forest_exact",
    "c", "n2_prime", "op",
    "bound_forest", "colors_forest", "verified_forest",
    "bound_general", "colors_general", "verified_general",
    "bound_cubic", "colors_cubic", "verified_cubic",
    "diam_line", "exact_rc_line",
]


def _bench_row(index: int, seed: int, g: Graph, cubic: bool, max_edges: int) -> dict:
    """One row: G's triangles are enumerated once (``pack_modes``), and only
    the picks a bound is colored from are classified. When both theorems pick
    the same triangles, the row certifies one coloring for both bounds."""
    row: dict = {"index": index, "seed": seed, "n": g.n, "m": g.m, "n2": g.n2}
    picks = triangles.pack_modes(g)
    forest_mode, general_mode = default_mode(picks, "31"), default_mode(picks, "32")
    forest_pack = triangles.classify_structure(g, picks[forest_mode])
    forest = Run(forest_pack, forest_mode, *color_forest_packing(g, forest_pack))
    if picks[general_mode] == picks[forest_mode]:
        # a triangle-forest, so op = 0 and theorem 32 builds theorem 31's coloring
        general = general_from_forest(forest, general_mode)
    else:
        general_pack = triangles.classify_structure(g, picks[general_mode])
        general = Run(general_pack, general_mode, *color_packing(g, general_pack))
    runs = {"forest": forest, "general": general}
    for mode, pick in picks.items():
        # an exact column past the search's cap stays empty
        row[f"t_{mode}"] = "" if pick is None else len(pick)
    row["c"] = general.packing.c
    row["n2_prime"] = general.packing.n2_prime
    row["op"] = general.packing.op
    if cubic:
        runs["cubic"] = color(g, "cubic")
    else:
        row["bound_cubic"] = row["colors_cubic"] = row["verified_cubic"] = ""
    for name, run in runs.items():
        cert = run.certificate
        row[f"bound_{name}"] = cert.bound_value
        row[f"colors_{name}"] = cert.colors_used
        row[f"verified_{name}"] = cert.verified
    lg = runs["forest"].coloring.graph  # L(g), which _construct built from g
    row["diam_line"] = diameter(lg)
    try:
        row["exact_rc_line"] = exact_rc(lg, max_edges=max_edges)
    except LimitError:
        row["exact_rc_line"] = ""
    return row


def run_bench(model: str, n: int, p: float, count: int, seed: int, max_edges: int) -> list[dict]:
    """Seeded benchmark rows; connected samples only, deterministic per seed."""
    if model not in _MODELS:
        raise InputError(f"unknown model {model!r}")
    if count < 0:
        raise InputError("count must be non-negative")
    check_edge_cap(max_edges)
    rows = []
    for index in range(count):
        instance_seed = seed * 1_000_003 + index
        g = _sample(model, n, p, instance_seed)
        rows.append(_bench_row(index, instance_seed, g, model == "random_cubic", max_edges))
    return rows


def _bench_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=_BENCH_FIELDS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def cmd_bench(args: argparse.Namespace) -> int:
    _check_model_flags(args)
    rows = run_bench(args.model, args.n, args.p or 0.0, args.count, args.seed, args.max_edges)
    text = _bench_csv(rows)
    if args.csv:
        _write(args.csv, text)
    else:
        sys.stdout.write(text)
    _report(
        args,
        {"model": args.model, "n": args.n, "p": args.p, "count": args.count, "seed": args.seed, "rows": rows},
    )
    # a bound the row does not build leaves its verdict cell empty
    verdicts = [row[field] for row in rows for field in _BENCH_FIELDS if field.startswith("verified_")]
    return EXIT_UNVERIFIED if False in verdicts else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rainbowline",
        description="Rainbow colorings of (iterated) line graphs from triangle structures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, text: str, source: bool = True, report: bool = True):
        p = sub.add_parser(name, help=text)
        p.set_defaults(func=func, parser=p)
        if source:
            _add_source_args(p)
        if report:
            p.add_argument("--json", help="write a JSON report")
        return p

    command("gen", cmd_gen, "print a family graph as an edge list", report=False)
    p_lg = command("linegraph", cmd_linegraph, "print the (iterated) line graph", report=False)
    p_lg.add_argument("--iterations", type=int, default=1)
    p_lg.add_argument("--dot", help="write the result as DOT")
    command("bound", cmd_bound, "diameter lower bound for rc")
    p_exact = command("exact", cmd_exact, "exact rc by pruned search over colorings")
    p_exact.add_argument("--max-edges", type=int, default=DEFAULT_EDGE_CAP)
    p_verify = command("verify", cmd_verify, "check a coloring for rainbow connectivity")
    p_verify.add_argument("--coloring", required=True, help="file with one color per edge")
    p_color = command("color", cmd_color, "build and verify a rainbow coloring")
    p_color.add_argument("--theorem", choices=THEOREMS, required=True)
    p_color.add_argument("--pack", choices=triangles.PACK_MODES)
    p_color.add_argument("--dot", help="write the colored target graph as DOT")
    p_bench = command("bench", cmd_bench, "seeded random ensembles with all bounds", source=False)
    p_bench.add_argument("--model", choices=tuple(_MODELS), required=True)
    p_bench.add_argument("--n", type=int)
    p_bench.add_argument("--p", type=float)
    p_bench.add_argument("--count", type=int, default=10)
    p_bench.add_argument("--seed", type=int)
    p_bench.add_argument("--max-edges", type=int, default=DEFAULT_EDGE_CAP)
    p_bench.add_argument("--csv", help="write the table as CSV")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            # reported by the subcommand, so its usage line is printed
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
        return args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except LimitError as exc:
        msg = str(exc)
        if exc.lower is not None and exc.upper is not None:
            msg += f" (proven bracket: {exc.lower}..{exc.upper})"
        print(f"resource limit: {msg}", file=sys.stderr)
        return EXIT_LIMIT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
