"""A basis carries the quiver it was recognised for, and the strongness check
walks that quiver's chordless cycles no second time.

`CompanionBasis._recognized` is compared by identity: only the very
ExchangeMatrix object that recognition walked (or its mutation, which keeps
the Dynkin type) skips the walk.  Every other basis or matrix is walked once.
"""

import random

import pytest

from companion_bases import quiver
from companion_bases.companion import (
    CompanionBasis,
    companion_basis_for,
    dumps_companion_basis,
    initial_companion_basis,
    loads_companion_basis,
    mutate_inward,
    mutate_outward,
    sign_change,
    transform,
)
from companion_bases.quiver import ExchangeMatrix, mutate
from companion_bases.type_a import (
    is_strong_companion_basis,
    quiver_from_triangulation,
    random_triangulation,
)

from conftest import PENDANT_ARROWS, dynkin_orientation

PENDANT = ExchangeMatrix.from_arrows(4, PENDANT_ARROWS)


@pytest.fixture
def walks(monkeypatch) -> list[ExchangeMatrix]:
    """The matrices whose chordless cycles are walked, one entry per walk."""
    walked = []
    original = quiver._cycle_walk

    def counting(B):
        walked.append(B)
        return original(B)

    monkeypatch.setattr(quiver, "_cycle_walk", counting)
    return walked


@pytest.mark.parametrize(
    "B",
    [PENDANT, quiver_from_triangulation(random_triangulation(9, random.Random(21)))],
    ids=["pendant", "A9 triangulation"],
)
def test_construction_then_the_strongness_check_walks_once(walks, B):
    psi = companion_basis_for(B)
    assert psi._recognized is B
    assert is_strong_companion_basis(psi, B)
    assert walks == [B]


def test_the_initial_basis_carries_its_quiver(walks):
    B = dynkin_orientation("A5")
    psi = initial_companion_basis(B)
    assert psi._recognized is B
    assert is_strong_companion_basis(psi, B)
    assert walks == [B]


@pytest.mark.parametrize("step", [mutate_inward, mutate_outward])
def test_a_mutated_basis_carries_the_mutated_quiver(walks, step):
    psi = companion_basis_for(PENDANT)
    B = PENDANT
    for k in (1, 2, 0, 3, 1):
        psi, B = step(psi, B, k)
        assert psi._recognized is B
        assert is_strong_companion_basis(psi, B)
    assert walks == [PENDANT]


@pytest.mark.parametrize("step", [mutate_inward, mutate_outward])
def test_a_basis_recognised_for_nothing_mutates_to_one_recognised_for_nothing(
    walks, step
):
    built = companion_basis_for(PENDANT)
    psi = CompanionBasis(built.rs, built.gamma)
    del walks[:]
    mutated, mutated_B = step(psi, PENDANT, 1)
    assert mutated._recognized is None
    assert is_strong_companion_basis(mutated, mutated_B)
    assert walks == [mutated_B]


def test_mutating_against_an_equal_copy_carries_nothing(walks):
    psi = companion_basis_for(PENDANT)
    copy = ExchangeMatrix(PENDANT.entries)
    mutated, mutated_B = mutate_inward(psi, copy, 1)
    assert mutated._recognized is None
    assert is_strong_companion_basis(mutated, mutated_B)
    assert walks == [PENDANT, mutated_B]


# bases equal or related to psi, a companion basis for PENDANT, that no
# recognition built
REBUILDS = {
    "loads": lambda psi: loads_companion_basis(dumps_companion_basis(psi, PENDANT))[0],
    "sign_change": lambda psi: sign_change(psi, [0, 2]),
    "transform": lambda psi: transform(psi, word=[psi.gamma[1]]),
    "constructor": lambda psi: CompanionBasis(psi.rs, psi.gamma),
}


@pytest.mark.parametrize("how", REBUILDS)
def test_a_rebuilt_basis_is_walked_once(walks, how):
    rebuilt = REBUILDS[how](companion_basis_for(PENDANT))
    assert rebuilt._recognized is None
    del walks[:]
    assert is_strong_companion_basis(rebuilt, PENDANT)
    assert walks == [PENDANT]


def test_a_check_against_an_equal_copy_is_walked_once(walks):
    psi = companion_basis_for(PENDANT)
    copy = ExchangeMatrix(PENDANT.entries)
    del walks[:]
    assert is_strong_companion_basis(psi, copy)
    assert walks == [copy]


def test_a_carried_quiver_is_still_refused_a_basis_of_another_shape(walks):
    # the slot is read only after the basis precondition: a basis recognised
    # for B is no companion basis for a mutation of B with other edges
    psi = companion_basis_for(PENDANT)
    other = mutate(PENDANT, 1)
    assert other.underlying_edges() != PENDANT.underlying_edges()
    with pytest.raises(ValueError, match="^invalid companion basis: "):
        is_strong_companion_basis(psi, other)
    assert walks == [PENDANT]
