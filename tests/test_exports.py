"""The package's __all__ lists exactly the names its __init__ imports."""

import ast
from pathlib import Path

import companion_bases

INIT = Path(companion_bases.__file__)


def imported_names() -> set[str]:
    tree = ast.parse(INIT.read_text())
    return {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def test_every_export_resolves():
    for name in companion_bases.__all__:
        assert getattr(companion_bases, name) is not None, name


def test_all_matches_the_imports():
    assert len(companion_bases.__all__) == len(set(companion_bases.__all__))
    assert set(companion_bases.__all__) == imported_names()
