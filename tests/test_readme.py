"""The README's list of exported names is the package's public API."""

import inspect
import pathlib
import re

import rainbowline

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


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
