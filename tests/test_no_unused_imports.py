"""No package module imports a name it never uses.

A deletion tends to leave its imports behind: the module still loads, so
nothing else notices.  A line marked `# noqa: F401` is exempt; quiver and
root_system keep det_bareiss that way, for the benchmark's tracer.  The
package's __init__ imports only to re-export, so it is not scanned.
"""

import ast
from pathlib import Path

from conftest import PACKAGE_MODULES

NOQA = "# noqa: F401"


def unused_imports(path: Path) -> list[str]:
    """The names that path imports and never reads, as 'module:line name'."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    tree = ast.parse(text, str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if NOQA in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                # `import a.b` binds the name a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(
        f"{path.stem}:{line} {name}" for name, line in imported.items() if name not in used
    )


def test_every_imported_name_is_used():
    modules = [p for p in PACKAGE_MODULES if p.name != "__init__.py"]
    assert modules
    assert [name for path in modules for name in unused_imports(path)] == []


def test_the_scan_sees_every_spelling(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import comb, prod\n"
        "from .intlinalg import det_bareiss  # noqa: F401\n"
        "from .quiver import (\n"
        "    mutate,\n"
        "    recognize,\n"
        ")\n"
        "def f(x: Fraction) -> int:\n"
        "    from fractions import Fraction\n"
        "    return comb(x, 2) + mutate\n"
    )
    assert unused_imports(source) == [
        "sample:2 os",
        "sample:3 j",
        "sample:4 prod",
        "sample:6 recognize",
    ]
