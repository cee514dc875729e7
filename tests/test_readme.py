"""The README's list of exported names is the package's public API, and
every method of a package class is read inside the package. The README's
Library example runs, and so does each of its ``rainbowline`` commands."""

import ast
import inspect
import pathlib
import re
import shlex
from collections import Counter

import pytest

import rainbowline
from rainbowline.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "rainbowline"


def readme_exported_names() -> list[str]:
    """Backticked names under the README's "Exported names" heading."""
    text = README.read_text()
    section = text.split("### Exported names", 1)[1].split("\n#", 1)[0]
    return re.findall(r"`([A-Za-z_]\w*)`", section)


def test_exported_names_match_readme():
    public = {
        name
        for name in dir(rainbowline)
        if not name.startswith("__") and not inspect.ismodule(getattr(rainbowline, name))
    }
    listed = readme_exported_names()
    assert len(listed) == len(set(listed)), "a name is listed twice"
    assert set(listed) == public


def _attribute_reads(node: ast.AST) -> Counter:
    """How often each attribute name is read (loaded) within ``node``."""
    return Counter(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load))


def test_every_method_is_read():
    """Every method and property of a package class, dunders aside, is read
    by name as an attribute somewhere in ``src/`` outside its own
    definition."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    reads = sum((_attribute_reads(tree) for tree in trees), Counter())
    unread = [
        f"{cls.name}.{f.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, ast.FunctionDef)
        and not (f.name.startswith("__") and f.name.endswith("__"))
        and reads[f.name] == _attribute_reads(f)[f.name]
    ]
    assert not unread


def test_library_example_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out == "(True, None)\n3\n"


def readme_blocks() -> list[str]:
    """The README's plain (untagged) code blocks."""
    blocks = re.findall(r"^```(\w*)\n(.*?)^```$", README.read_text(), re.M | re.S)
    return [block for tag, block in blocks if not tag]


def readme_commands() -> list[str]:
    """Every ``rainbowline`` command in the README's plain code blocks: end of
    line comments dropped, continuation lines joined to their command, and
    bracketed optional flags dropped."""
    commands = []
    for block in readme_blocks():
        block = re.sub(r"\n[ \t]+", " ", re.sub(r"[ \t]+#.*", "", block))
        lines = (line for line in block.splitlines() if line.startswith("rainbowline "))
        commands += [re.sub(r" *\[[^]]*\]", "", line) for line in lines]
    return commands


def test_readme_lists_nine_commands():
    # seven in the CLI block, two bench runs under "Experiment scripts"
    assert len(readme_commands()) == 9


@pytest.mark.parametrize("command", readme_commands())
def test_readme_command_runs(command, capsys, monkeypatch, tmp_path):
    """In a directory holding ``g.txt``, the README's bowtie edge list, and
    ``c.txt``, a coloring of it, the command exits 0."""
    (bowtie,) = (block for block in readme_blocks() if block.startswith("# bowtie\n"))
    (tmp_path / "g.txt").write_text(bowtie)
    (tmp_path / "c.txt").write_text("1 2 3 4 5 6\n")
    monkeypatch.chdir(tmp_path)
    assert main(shlex.split(command)[1:]) == 0, capsys.readouterr().err
