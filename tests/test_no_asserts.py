"""The library and its demos check invariants explicitly: `python -O` strips asserts."""

import ast
from pathlib import Path

from conftest import DEMOS, PACKAGE_MODULES


def assert_statements(modules: list[Path]) -> list[str]:
    assert modules
    return [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_library_modules_contain_no_assert_statements():
    assert assert_statements(PACKAGE_MODULES) == []


def test_demos_contain_no_assert_statements():
    assert assert_statements(DEMOS) == []
