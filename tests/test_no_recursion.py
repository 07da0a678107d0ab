"""No new recursion in the library: its depth would grow with rank.

A function that calls itself by name is listed below or the test fails, and
a listed function that no longer recurses fails it too, so the list only
shrinks.
"""

import ast
from pathlib import Path

import companion_bases

PACKAGE_DIR = Path(companion_bases.__file__).resolve().parent

# module.function, with enclosing functions and classes in the name
ALLOWED: set[str] = set()


def calls_itself(function: ast.FunctionDef) -> bool:
    """Whether the body calls function's name (or self.<name>), nested defs aside."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Call):
            callee = node.func
            if isinstance(callee, ast.Name) and callee.id == function.name:
                return True
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == function.name
                and isinstance(callee.value, ast.Name)
                and callee.value.id in ("self", "cls")
            ):
                return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def recursive_functions(path: Path) -> set[str]:
    found = set()
    stack = [(path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{prefix}.{child.name}"
                if not isinstance(child, ast.ClassDef) and calls_itself(child):
                    found.add(name)
                stack.append((name, child))
            else:
                stack.append((prefix, child))
    return found


def test_only_the_listed_functions_recurse():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = set().union(*(recursive_functions(path) for path in modules))
    assert sorted(found - ALLOWED) == [], "new recursive function"
    assert sorted(ALLOWED - found) == [], "no longer recursive: remove it from ALLOWED"


def test_the_scan_sees_nested_and_method_recursion(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "def outer(n):\n"
        "    def inner(k):\n"
        "        return inner(k - 1) if k else 0\n"
        "    return inner(n)\n"
        "class C:\n"
        "    def walk(self, k):\n"
        "        return self.walk(k - 1) if k else 0\n"
        "def flat(n):\n"
        "    return [flat for _ in range(n)]\n"
    )
    assert recursive_functions(source) == {"sample.outer.inner", "sample.C.walk"}
