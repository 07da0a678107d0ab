"""The package's __all__ lists exactly the names its __init__ imports, and
each of them is used by the package, a demo, the benchmark or an acceptance
criterion."""

import ast
import re
from pathlib import Path

import companion_bases

from conftest import DEMOS, PACKAGE_MODULES

INIT = Path(companion_bases.__file__)
REPO = Path(__file__).resolve().parents[1]

# where a public name counts as used: a name that only its own tests read is
# a test oracle, and belongs in tests/
USERS = [
    *(path for path in PACKAGE_MODULES if path.name != "__init__.py"),
    *DEMOS,
    *sorted((REPO / "bench").glob("*.py")),
    REPO / "tests" / "test_acceptance.py",
]


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


def test_every_export_is_used_outside_its_definition():
    lines = [line for path in USERS for line in path.read_text(encoding="utf-8").splitlines()]
    unused = [
        name
        for name in companion_bases.__all__
        if not any(
            re.search(rf"\b{name}\b", line) and not re.match(rf"\s*(def|class) {name}\b", line)
            for line in lines
        )
    ]
    assert unused == []
