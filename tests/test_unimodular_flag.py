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
chordless-cycle walk, which is sound only for a quiver that recognition
walked (companion_basis_for, initial_companion_basis) or a mutation of it
(_mutate_basis, since mutation keeps the Dynkin type); `_set` clears it.
"""

import ast
from pathlib import Path

import companion_bases

PACKAGE_DIR = Path(companion_bases.__file__).resolve().parent

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


def flag_assignments(path: Path, flag: str = FLAG) -> list[tuple[str, object]]:
    """(enclosing function, assigned constant or None) for every write of flag.

    Counts attribute assignments, including in tuples and augmented ones,
    setattr(..., flag, ...) and any other string constant naming the flag
    outside the class's __slots__.
    """
    found = []
    stack = [(path.stem, ast.parse(path.read_text(encoding="utf-8"), str(path)))]
    while stack:
        prefix, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                stack.append((f"{prefix}.{child.name}", child))
                continue
            for target in assignment_targets(child):
                if isinstance(target, ast.Attribute) and target.attr == flag:
                    value = getattr(child, "value", None)
                    constant = value.value if isinstance(value, ast.Constant) else None
                    found.append((prefix, constant))
            if (
                isinstance(child, ast.Assign)
                and [getattr(t, "id", None) for t in child.targets] == ["__slots__"]
            ):
                continue
            if isinstance(child, ast.Constant) and child.value == flag:
                found.append((prefix, "string"))
            stack.append((prefix, child))
    return found


def test_the_flag_is_assigned_only_by_the_reset_and_by_mutation():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [item for path in modules for item in flag_assignments(path)]
    assert sorted(found, key=str) == sorted(ALLOWED, key=str)


def test_the_inverse_is_assigned_only_by_the_reset_and_by_inverse():
    # is_z_basis trusts a held inverse: lattice_inverse raises unless det = +-1
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    found = [item for path in modules for item in flag_assignments(path, "_inverse")]
    assert sorted(found, key=str) == [
        ("companion.CompanionBasis._set", None),
        ("companion.CompanionBasis.inverse", None),
    ]


def test_the_recognised_quiver_is_assigned_only_by_recognition_and_mutation():
    # is_strong_companion_basis skips its cycle walk for the quiver held here
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    found = [item for path in modules for item in flag_assignments(path, "_recognized")]
    assert sorted(found, key=str) == [
        ("companion.CompanionBasis._set", None),
        ("companion._mutate_basis", None),
        ("companion.companion_basis_for", None),
        ("companion.initial_companion_basis", None),
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
