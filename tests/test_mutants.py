"""The mutant catalogue in ``tests/mutants.py`` is well formed, checked
without applying a mutant or starting pytest: each snippet occurs exactly
once in its file and differs from its replacement, and each killer names a
test file, class and function that exist, read with ``ast``. A killer with a
parametrize suffix, ``[...]``, must name a function that carries a
``pytest.mark.parametrize`` decorator; which ids it makes is left to the
catalogue run, ``python tests/mutants.py``, which applies every mutant and
runs each killer alone."""

import ast
from functools import cache
from pathlib import Path

from mutants import MUTANTS, ROOT


def _parametrized(f: ast.FunctionDef) -> bool:
    """Does ``f`` carry a ``pytest.mark.parametrize`` decorator?"""
    return any(
        isinstance(d, ast.Call) and ast.unparse(d.func) == "pytest.mark.parametrize" for d in f.decorator_list
    )


@cache
def _test_names(path: Path) -> dict[str, bool]:
    """``function`` for each module-level function of ``path`` and
    ``Class::function`` for each method of a module-level class, each with
    whether it is parametrized; empty if there is no such file."""
    if not path.is_file():
        return {}
    names = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef):
            names[node.name] = _parametrized(node)
        elif isinstance(node, ast.ClassDef):
            names.update(
                (f"{node.name}::{f.name}", _parametrized(f)) for f in node.body if isinstance(f, ast.FunctionDef)
            )
    return names


def test_each_snippet_occurs_once_and_changes():
    bad = [
        (mutant.name, found)
        for mutant in MUTANTS
        for found in [(ROOT / mutant.path).read_text().count(mutant.snippet)]
        if found != 1 or mutant.snippet == mutant.replacement
    ]
    assert not bad


def test_each_killer_names_a_test():
    """Each killer names a test, and one with a ``[...]`` suffix a
    parametrized one."""
    missing = [
        (mutant.name, killer)
        for mutant in MUTANTS
        for killer in mutant.killers
        for path, _, name in [killer.partition("::")]
        for function, suffix, _ in [name.partition("[")]
        for tests in [_test_names(ROOT / path)]
        if function not in tests or (suffix and not tests[function])
    ]
    assert not missing
