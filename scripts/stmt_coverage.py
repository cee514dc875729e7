#!/usr/bin/env python3
"""List the statements of the package that the Tier-1 suite never runs,
and fail on any that is not an expected miss.

    python scripts/stmt_coverage.py [pytest arguments]

It runs pytest in this process (on ``tests/`` of the checkout the script
sits in, unless arguments are given) under a ``sys.settrace`` hook that
records each line executed in ``src/rainbowline``. A statement is any
``ast`` statement node but a docstring or an import only type checkers
read (under ``if TYPE_CHECKING:``), and it runs when its first line does.
It prints each statement that never ran as ``module:line  source``, then
their count. Statements with no bytecode of their own, such as
``nonlocal``, are listed too. Subprocesses the tests start are not traced.
The hook slows the suite several times over, so this is not part of Tier-1;
CI runs it as a step of its own.

It exits with pytest's code if pytest fails, else 1 if a statement that
is not in ``EXPECTED_MISSES`` never ran. That list is keyed by module and
source text, not by line, so an edit elsewhere in a module does not stale
it; a text listed once excuses one statement with that text.
"""

import ast
import os
import sys
import threading
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rainbowline"
# (module, source text) of each statement the suite is expected never to run
EXPECTED_MISSES = Counter(
    [
        # the console script's entry point, which only a subprocess runs
        ("cli.py", 'if hasattr(signal, "SIGPIPE"):'),
        ("cli.py", "signal.signal(signal.SIGPIPE, signal.SIG_DFL)"),
        ("cli.py", "sys.exit(main())"),
        ("cli.py", "entrypoint()"),
        # read by a person, not by the package
        ("graphs.py", 'return f"Graph(n={self.n}, m={self.m})"'),
        # canonical_colorings with k outside 1..m, which no caller asks for
        ("oracle.py", "return"),
        # exact_rc's end: an all-distinct coloring is always rainbow
        ("oracle.py", 'raise InvariantViolation("an all-distinct coloring must be rainbow")'),
        # no bytecode of its own
        ("triangles.py", "nonlocal best"),
    ]
)


def statement_lines(tree: ast.Module) -> set[int]:
    """First lines of the statements of ``tree``, docstrings and the body of
    ``if TYPE_CHECKING:`` left out."""
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            if ast.get_docstring(node, clean=False) is not None:
                skipped.add(id(node.body[0]))
        elif isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            skipped.update(id(child) for stmt in node.body for child in ast.walk(stmt))
    return {node.lineno for node in ast.walk(tree) if isinstance(node, ast.stmt) and id(node) not in skipped}


def main(args: list[str]) -> int:
    prefix = str(PACKAGE) + os.sep
    ran: set[tuple[str, int]] = set()

    def local(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    sys.path.insert(0, str(PACKAGE.parent))
    os.chdir(ROOT)
    threading.settrace(enter)
    sys.settrace(enter)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *(args or ["tests"])])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = Counter()
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for lineno in sorted(statement_lines(ast.parse(source))):
            if (str(path), lineno) not in ran:
                text = lines[lineno - 1].strip()
                missed[path.name, text] += 1
                print(f"{path.name}:{lineno}  {text}")
    print(f"{missed.total()} statements never ran")
    unexpected = missed - EXPECTED_MISSES
    for name, text in unexpected.elements():
        print(f"not an expected miss: {name}  {text}")
    return int(code) or int(bool(unexpected))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
