"""The library and its demos check invariants explicitly: `python -O` strips asserts."""

import ast
from pathlib import Path

import companion_bases

PACKAGE_DIR = Path(companion_bases.__file__).resolve().parent
DEMOS_DIR = Path(__file__).resolve().parents[1] / "demos"


def assert_statements(directory: Path) -> list[str]:
    modules = sorted(directory.glob("*.py"))
    assert modules
    return [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_library_modules_contain_no_assert_statements():
    assert assert_statements(PACKAGE_DIR) == []


def test_demos_contain_no_assert_statements():
    assert assert_statements(DEMOS_DIR) == []
