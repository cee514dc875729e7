"""Flat-file formats: edge-list text, coloring files, DOT export, JSON reports.

Edge-list format: optional full-line comments starting with '#', then a
header line "n m", then exactly m lines "u v" with 0-based vertex ids.
"""

import json
from typing import Iterable, Iterator

from .errors import InputError
from .graphs import Graph, build_graph

REPORT_SCHEMA = 1

DOT_GRAPH_NAME = "L"

# 12-entry palette; color ids above 12 wrap around.
PALETTE = (
    "#e6194b", "#3cb44b", "#ffe119", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080", "#e6beff",
)


def _data_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append((lineno, line))
    return out


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format; errors carry the offending line number."""
    lines = _data_lines(text)
    if not lines:
        raise InputError("empty input: expected a header line 'n m'")
    lineno, header = lines[0]
    fields = header.split()
    if len(fields) != 2:
        raise InputError(f"line {lineno}: expected header 'n m', got {header!r}")
    try:
        n, m = int(fields[0]), int(fields[1])
    except ValueError:
        raise InputError(f"line {lineno}: expected two integers, got {header!r}") from None
    if n < 0 or m < 0:
        raise InputError(f"line {lineno}: counts must be non-negative")
    body = lines[1:]
    if len(body) < m:
        raise InputError(f"expected {m} edge lines, found {len(body)}")
    if len(body) > m:
        extra_line = body[m][0]
        raise InputError(f"line {extra_line}: unexpected data after {m} edges")

    def pairs() -> Iterator[tuple[int, int]]:
        for lineno, line in body:
            fields = line.split()
            if len(fields) != 2:
                raise InputError(f"line {lineno}: expected 'u v', got {line!r}")
            try:
                u, v = int(fields[0]), int(fields[1])
            except ValueError:
                raise InputError(f"line {lineno}: expected two integers, got {line!r}") from None
            yield u, v

    # lazy, so a format error is reported only after the lines above it pass
    return build_graph(n, pairs(), lines=[lineno for lineno, _ in body])


def render_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines += [f"{u} {v}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def parse_coloring(text: str) -> tuple[tuple[int, ...], int]:
    """Whitespace-separated color ids, one per edge in id order; '#' comments
    allowed. Returns (colors, k) with k the largest color; ``EdgeColoring``
    checks the count against the graph and each color against 1..k."""
    values: list[int] = []
    for lineno, line in _data_lines(text):
        for tok in line.split():
            try:
                values.append(int(tok))
            except ValueError:
                raise InputError(f"line {lineno}: bad color {tok!r}") from None
    return tuple(values), max(values, default=1)


def to_dot(g: Graph, colors: Iterable[int] | None = None) -> str:
    """DOT text with an edge attribute color=<id> and a palette table."""
    lines = [f"graph {DOT_GRAPH_NAME} {{"]
    col = list(colors) if colors is not None else None
    if col is not None:
        for c in sorted(set(col)):
            lines.append(f"  // color {c} = {PALETTE[(c - 1) % len(PALETTE)]}")
    for v in range(g.n):
        lines.append(f"  {v};")
    for eid, (u, v) in enumerate(g.edges):
        attr = f" [color={col[eid]}]" if col is not None else ""
        lines.append(f"  {u} -- {v}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_payload(g: Graph) -> dict:
    return {"n": g.n, "m": g.m, "edges": [[u, v] for u, v in g.edges]}


def dump_report(payload: dict) -> str:
    """Stable JSON: identical payloads give byte-identical files."""
    body = dict(payload)
    body["schema"] = REPORT_SCHEMA
    return json.dumps(body, sort_keys=True, indent=2) + "\n"
