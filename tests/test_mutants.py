"""The mutant catalogue in ``tests/mutants.py`` is well formed, checked
without applying a mutant or starting pytest: each snippet occurs exactly
once in its file and differs from its replacement, and each killer names a
test file, class and function that exist, read with ``ast``. A killer's
parametrize suffix is left to the catalogue run, ``python tests/mutants.py``,
which applies every mutant and runs each killer alone."""

import ast
from functools import cache
from pathlib import Path

from mutants import MUTANTS, ROOT


@cache
def _test_names(path: Path) -> frozenset[str]:
    """``function`` for each module-level function of ``path`` and
    ``Class::function`` for each method of a module-level class; empty if
    there is no such file."""
    if not path.is_file():
        return frozenset()
    names = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{f.name}" for f in node.body if isinstance(f, ast.FunctionDef))
    return frozenset(names)


def test_each_snippet_occurs_once_and_changes():
    bad = [
        (mutant.name, found)
        for mutant in MUTANTS
        for found in [(ROOT / mutant.path).read_text().count(mutant.snippet)]
        if found != 1 or mutant.snippet == mutant.replacement
    ]
    assert not bad


def test_each_killer_names_a_test():
    missing = [
        (mutant.name, killer)
        for mutant in MUTANTS
        for killer in mutant.killers
        for path, _, name in [killer.partition("::")]
        if name.split("[", 1)[0] not in _test_names(ROOT / path)
    ]
    assert not missing
