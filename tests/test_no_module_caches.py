"""No new module-level caches in the library: they grow for the process's life.

A function decorated with functools.lru_cache or functools.cache is listed
below or the test fails, and a listed function that lost its cache fails it
too, so the list only shrinks.
"""

import ast
from pathlib import Path

from conftest import PACKAGE_MODULES, SCOPES, scoped_nodes

# module.function, with enclosing functions and classes in the name
ALLOWED = {"root_system.build_root_system"}

CACHE_DECORATORS = {"lru_cache", "cache"}


def is_cache(decorator: ast.expr) -> bool:
    """Whether a decorator is lru_cache or cache, bare, called or as functools.<name>."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    if isinstance(decorator, ast.Attribute):
        return decorator.attr in CACHE_DECORATORS
    return isinstance(decorator, ast.Name) and decorator.id in CACHE_DECORATORS


def cached_functions(path: Path) -> set[str]:
    return {
        name
        for name, node in scoped_nodes(path)
        if isinstance(node, SCOPES) and any(map(is_cache, node.decorator_list))
    }


def test_only_the_listed_functions_are_cached():
    assert PACKAGE_MODULES
    found = set().union(*map(cached_functions, PACKAGE_MODULES))
    assert sorted(found - ALLOWED) == [], "new module cache"
    assert sorted(ALLOWED - found) == [], "no longer cached: remove it from ALLOWED"


def test_the_scan_sees_every_spelling(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import functools\n"
        "from functools import cache, cached_property, lru_cache\n"
        "@lru_cache(maxsize=None)\n"
        "def a(n): return n\n"
        "@functools.lru_cache\n"
        "def b(n): return n\n"
        "@cache\n"
        "def c(n): return n\n"
        "class C:\n"
        "    @functools.cache\n"
        "    def d(self): return 0\n"
        "    @cached_property\n"
        "    def e(self): return 0\n"
        "def plain(n): return n\n"
    )
    assert cached_functions(source) == {"sample.a", "sample.b", "sample.c", "sample.C.d"}
