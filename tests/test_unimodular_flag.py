"""Only three places in the library may assign CompanionBasis._unimodular.

A basis with the flag set skips its determinant (CompanionBasis.is_z_basis),
which is sound only because _mutate_basis sets it on bases derived by
elementary column operations from a checked one, companion_basis_for sets it
on a basis whose Gram matrix is a positive companion A with |det A| = det C
(so det M = +-1), and `_set`, which every constructor runs, resets it.  An
assignment anywhere else could mark an unchecked basis as a Z-basis, so this
scan fails on it.

A held inverse (`_inverse`) proves det = +-1 as well, since lattice_inverse
raises on any other determinant, so the same scan also allows only `_set`
and `CompanionBasis.inverse` to assign that slot.

The recognised quiver (`_recognized`) lets the strongness check skip its
chordless-cycle walk, which is sound only for the quiver that
companion_basis_for recognised; `_set` clears it.
"""

import ast
from pathlib import Path

from conftest import PACKAGE_MODULES, scoped_nodes

FLAG = "_unimodular"

# (module.function, with enclosing classes in the name; the value assigned)
ALLOWED = [
    ("companion.CompanionBasis._set", False),
    ("companion._mutate_basis", True),
    ("companion.companion_basis_for", True),
]


def assignment_targets(node: ast.AST) -> list[ast.expr]:
    if isinstance(node, ast.Assign):
        targets = []
        stack = list(node.targets)
        while stack:
            target = stack.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                stack.extend(target.elts)
            else:
                targets.append(target)
        return targets
    if isinstance(node, (ast.AugAssign, ast.AnnAssign, ast.NamedExpr)):
        return [node.target]
    return []


def is_slots(node: ast.AST) -> bool:
    """Whether node is the assignment to __slots__, whose strings name the slots."""
    return (
        isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["__slots__"]
    )


def flag_assignments(path: Path, flag: str = FLAG) -> list[tuple[str, object]]:
    """(enclosing function, assigned constant or None) for every write of flag.

    Counts attribute assignments, including in tuples and augmented ones,
    setattr(..., flag, ...) and any other string constant naming the flag
    outside the class's __slots__.
    """
    found = []
    for scope, node in scoped_nodes(path, prune=is_slots):
        for target in assignment_targets(node):
            if isinstance(target, ast.Attribute) and target.attr == flag:
                value = getattr(node, "value", None)
                constant = value.value if isinstance(value, ast.Constant) else None
                found.append((scope, constant))
        if isinstance(node, ast.Constant) and node.value == flag:
            found.append((scope, "string"))
    return found


def test_the_flag_is_assigned_only_by_the_reset_and_by_mutation():
    assert PACKAGE_MODULES
    found = [item for path in PACKAGE_MODULES for item in flag_assignments(path)]
    assert sorted(found, key=str) == sorted(ALLOWED, key=str)


def test_the_inverse_is_assigned_only_by_the_reset_and_by_inverse():
    # is_z_basis trusts a held inverse: lattice_inverse raises unless det = +-1
    found = [item for path in PACKAGE_MODULES for item in flag_assignments(path, "_inverse")]
    assert sorted(found, key=str) == [
        ("companion.CompanionBasis._set", None),
        ("companion.CompanionBasis.inverse", None),
    ]


def test_the_recognised_quiver_is_assigned_only_by_recognition_and_mutation():
    # is_strong_companion_basis skips its cycle walk for the quiver held here,
    # so only the construction that recognised that quiver writes it
    found = [
        item for path in PACKAGE_MODULES for item in flag_assignments(path, "_recognized")
    ]
    assert sorted(found, key=str) == [
        ("companion.CompanionBasis._set", None),
        ("companion.companion_basis_for", None),
    ]


def test_the_scan_sees_every_spelling(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "class Basis:\n"
        "    __slots__ = ('_unimodular',)\n"
        "    def _set(self):\n"
        "        self._unimodular = False\n"
        "def plain(psi, other):\n"
        "    psi._unimodular = True\n"
        "def chained(psi, other):\n"
        "    psi._unimodular = other._unimodular = True\n"
        "def unpacked(psi):\n"
        "    psi._inverse, psi._unimodular = None, True\n"
        "def augmented(psi):\n"
        "    psi._unimodular |= True\n"
        "def computed(psi, other):\n"
        "    psi._unimodular = other.is_z_basis()\n"
        "def by_name(psi):\n"
        "    setattr(psi, '_unimodular', True)\n"
        "def reader(psi):\n"
        "    return psi._unimodular\n"
    )
    assert sorted(flag_assignments(source), key=str) == sorted(
        [
            ("sample.Basis._set", False),
            ("sample.plain", True),
            ("sample.chained", True),
            ("sample.chained", True),
            ("sample.unpacked", None),
            ("sample.augmented", True),
            ("sample.computed", None),
            ("sample.by_name", "string"),
        ],
        key=str,
    )
