"""The three value types behave as the frozen dataclasses they replaced.

DynkinType, ExchangeMatrix and Triangulation are plain classes on
root_system.Frozen, so that importing the package does not import
dataclasses.  Each is built by position and by keyword, compares and hashes
by its fields within its own class only, prints a dataclass repr, refuses
assignment and deletion, and survives pickle and deepcopy.  A fresh
interpreter also checks which modules the package's import loads.
"""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import companion_bases
from companion_bases.quiver import ExchangeMatrix, mutate
from companion_bases.root_system import DynkinType, build_root_system
from companion_bases.type_a import Triangulation

SRC = str(Path(companion_bases.__file__).resolve().parents[1])

ENTRIES = ((0, 1), (-1, 0))

# class, positional fields, the same by keyword, a different value, its repr
CASES = [
    (
        DynkinType,
        ("A", 4),
        {"family": "A", "rank": 4},
        DynkinType("D", 4),
        "DynkinType(family='A', rank=4)",
    ),
    (
        ExchangeMatrix,
        (ENTRIES,),
        {"entries": ENTRIES},
        ExchangeMatrix(((0, -1), (1, 0))),
        "ExchangeMatrix(entries=((0, 1), (-1, 0)))",
    ),
    (
        Triangulation,
        (2, ((1, 4), (1, 3))),
        {"n": 2, "diagonals": ((1, 4), (1, 3))},
        Triangulation(2, ((1, 3), (3, 5))),
        "Triangulation(n=2, diagonals=((1, 3), (1, 4)))",
    ),
]

IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls,args,kwargs,other,text", CASES, ids=IDS)
def test_built_by_position_and_by_keyword(cls, args, kwargs, other, text):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert by_position == by_keyword
    for name, value in kwargs.items():
        # Triangulation stores its diagonals sorted
        expected = tuple(sorted(value)) if name == "diagonals" else value
        assert getattr(by_position, name) == expected


@pytest.mark.parametrize("cls,args,kwargs,other,text", CASES, ids=IDS)
def test_equal_fields_give_equal_values_and_hashes(cls, args, kwargs, other, text):
    a, b = cls(*args), cls(*args)
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other and other != a
    assert len({a, other}) == 2


def test_different_classes_are_never_equal():
    values = [cls(*args) for cls, args, *_ in CASES]
    for a, (_, args, *_) in zip(values, CASES):
        assert [a == b for b in values] == [a is b for b in values]
        assert a.__eq__(args) is NotImplemented and a != args

    class Subclass(DynkinType):
        pass

    assert DynkinType("A", 4).__eq__(Subclass("A", 4)) is NotImplemented
    assert DynkinType("A", 4) != Subclass("A", 4)


@pytest.mark.parametrize("cls,args,kwargs,other,text", CASES, ids=IDS)
def test_repr_reads_like_a_dataclass(cls, args, kwargs, other, text):
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("cls,args,kwargs,other,text", CASES, ids=IDS)
def test_assignment_and_deletion_raise_attribute_error(cls, args, kwargs, other, text):
    value = cls(*args)
    for name in kwargs:
        before = getattr(value, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(value, name)
        assert getattr(value, name) == before
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("cls,args,kwargs,other,text", CASES, ids=IDS)
def test_pickle_and_deepcopy_round_trip(cls, args, kwargs, other, text):
    value = cls(*args)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(value, protocol))
        assert type(restored) is cls and restored == value
        assert hash(restored) == hash(value)
    for clone in (copy.copy(value), copy.deepcopy(value)):
        assert type(clone) is cls and clone == value and repr(clone) == text


@pytest.mark.parametrize("cls,args,kwargs,other,text", CASES, ids=IDS)
def test_unpickling_and_copying_call_the_constructor(
    monkeypatch, cls, args, kwargs, other, text
):
    """So the constructor's checks run again on what pickle or copy rebuilds."""
    value = cls(*args)
    calls = []
    original = cls.__init__

    def counting(self, *fields):
        calls.append(fields)
        original(self, *fields)

    monkeypatch.setattr(cls, "__init__", counting)
    pickle.loads(pickle.dumps(value))
    copy.copy(value)
    copy.deepcopy(value)
    assert calls == [tuple(getattr(value, name) for name in kwargs)] * 3


def test_a_trusted_matrix_caches_its_neighbours_and_pickles_without_them():
    B = mutate(ExchangeMatrix(ENTRIES), 0)
    assert B == ExchangeMatrix(((0, -1), (1, 0)))
    first = B.neighbours
    assert B.neighbours is first
    restored = pickle.loads(pickle.dumps(B))
    assert "neighbours" not in vars(restored)
    assert restored == B and restored.neighbours == first


def test_build_root_system_finds_an_equal_dynkin_type():
    rs = build_root_system(DynkinType("E", 7))
    assert build_root_system(DynkinType.parse("E7")) is rs
    assert build_root_system(pickle.loads(pickle.dumps(DynkinType("E", 7)))) is rs


HEAVY = [
    "dataclasses",
    "inspect",
    "fractions",
    "decimal",
    "concurrent.futures",
    "multiprocessing",
    "random",
]


@pytest.mark.parametrize("module", ["companion_bases", "companion_bases.cli"])
def test_the_import_loads_none_of_the_heavy_modules(module):
    """-S keeps site's own imports out, so sys.modules holds what the import
    brought: none of these, which only dataclasses, solve_fractions and
    verify-type-a's process pool and sample mode would use."""
    probe = f"import sys, {module}; print(*sorted(m for m in {HEAVY!r} if m in sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": SRC},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"
