"""The library checks its invariants explicitly: `python -O` strips asserts."""

import ast
from pathlib import Path

import companion_bases

PACKAGE_DIR = Path(companion_bases.__file__).resolve().parent


def test_library_modules_contain_no_assert_statements():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
