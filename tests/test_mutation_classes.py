"""Recognition and basis mutation against whole mutation classes at rank 4 and 5.

Every quiver on 4 or 5 vertices with entries in {-1, 0, 1} is recognized, and
it must get a type exactly when it lies in the A4, D4, A5 or D5 class, the
type of that class (Fomin-Zelevinsky 2003; the classes come from `mutate`
alone, see mutation_classes.py).  Every class member then gets a companion
basis, and both basis mutations at every vertex must give a companion basis
for the mutated quiver (the paper's mutation theorem).
"""

from itertools import combinations, product

import pytest

from companion_bases.companion import (
    companion_basis_failure,
    companion_basis_for,
    mutate_inward,
    mutate_outward,
)
from companion_bases.quiver import ExchangeMatrix, recognize
from companion_bases.root_system import DynkinType
from companion_bases.type_a import is_strong_companion_basis

from mutation_classes import CLASS_SIZES, mutation_class, orientation

LABELS = {4: ("A4", "D4"), 5: ("A5", "D5")}


@pytest.fixture(scope="module")
def classes() -> dict[DynkinType, list[ExchangeMatrix]]:
    found = {}
    for label in (*LABELS[4], *LABELS[5]):
        dynkin = DynkinType.parse(label)
        found[dynkin] = mutation_class(orientation(dynkin))
        assert len(found[dynkin]) == CLASS_SIZES[label]
    return found


def unit_quivers(n: int):
    """Every skew-symmetric n x n matrix with entries in {-1, 0, 1}."""
    pairs = list(combinations(range(n), 2))
    for values in product((-1, 0, 1), repeat=len(pairs)):
        rows = [[0] * n for _ in range(n)]
        for (x, y), b in zip(pairs, values):
            rows[x][y], rows[y][x] = b, -b
        yield ExchangeMatrix.from_rows(rows)


@pytest.mark.parametrize("n", [4, 5])
def test_a_unit_quiver_has_a_type_exactly_when_its_class_gives_one(classes, n):
    expected = {
        B.entries: dynkin for dynkin, members in classes.items() for B in members
    }
    typed = 0
    for B in unit_quivers(n):
        assert recognize(B)[1] == expected.get(B.entries), B.entries
        typed += B.entries in expected
    # every class member has entries in {-1, 0, 1}, so the sweep met them all
    assert typed == sum(CLASS_SIZES[label] for label in LABELS[n])


def test_every_class_member_gets_a_basis_that_mutates_with_it(classes):
    for dynkin, members in classes.items():
        entries = {B.entries for B in members}
        for B in members:
            psi = companion_basis_for(B)
            assert psi.rs.dynkin == dynkin
            # an equal copy is not the matrix psi passed against, so its
            # check runs the pair scan again
            assert companion_basis_failure(psi, ExchangeMatrix(B.entries)) is None
            for k in range(B.n):
                for step in (mutate_inward, mutate_outward):
                    mutated, mutated_B = step(psi, B, k)
                    assert mutated_B.entries in entries
                    assert companion_basis_failure(mutated, mutated_B) is None
                    assert mutated._recognized is None
                    if dynkin.family == "A" and dynkin.rank == 4:
                        assert is_strong_companion_basis(mutated, mutated_B)
