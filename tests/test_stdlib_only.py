"""The library imports nothing outside the standard library.

Every absolute import in the package, at module level or inside a function,
must name a top-level module in sys.stdlib_module_names; relative imports
stay inside the package.
"""

import ast
import sys
from pathlib import Path

from conftest import PACKAGE_MODULES


def absolute_imports(path: Path) -> set[str]:
    """Top-level names of the modules that path imports absolutely."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_the_package_imports_only_the_standard_library():
    assert PACKAGE_MODULES
    outside = sorted(
        f"{path.name}: {name}"
        for path in PACKAGE_MODULES
        for name in absolute_imports(path)
        if name not in sys.stdlib_module_names
    )
    assert outside == []


def test_the_scan_sees_every_absolute_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import json, numpy.linalg as la\n"
        "from scipy import sparse\n"
        "from . import quiver\n"
        "from .intlinalg import det_bareiss\n"
        "def load():\n"
        "    import yaml\n"
    )
    assert absolute_imports(source) == {"json", "numpy", "scipy", "yaml"}
