"""Every expansion over a basis is one solve on its basis matrix.

CompanionBasis.expand and d_vector_set both run CompanionBasis._solve.  These
tests check that solve against the inverse (CompanionBasis.inverse, the
solve on I) times the vector, its refusals, and that it proves det = +-1.
tests/test_dvector_solve.py checks that a singular root set names the same
determinant on every route.
"""

import random
from fractions import Fraction

import pytest

from companion_bases import companion
from companion_bases.companion import (
    CompanionBasis,
    d_vector_set,
    initial_companion_basis,
    inward_update_components,
    mutate_inward,
    mutate_outward,
    sign_change,
    transform,
)
from companion_bases.intlinalg import det_bareiss, mat_vec
from companion_bases.root_system import DynkinType, build_root_system, diagram_automorphisms
from conftest import dynkin_orientation

LABELS = [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]

A2 = build_root_system(DynkinType("A", 2))
A3 = build_root_system(DynkinType("A", 3))


def moved_bases(label: str, rng: random.Random) -> list[CompanionBasis]:
    """A walked basis, a sign change of it and a transport of that."""
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    for _ in range(2 * B.n + 10):
        op = mutate_inward if rng.random() < 0.5 else mutate_outward
        psi, B = op(psi, B, rng.randrange(B.n))
    rs = psi.rs
    signed = sign_change(psi, [x for x in range(rs.rank) if rng.random() < 0.5])
    word = [rs.positive_roots[rng.randrange(len(rs.positive_roots))] for _ in range(3)]
    perm = rng.choice(diagram_automorphisms(rs.dynkin))
    return [psi, signed, transform(signed, word=word, perm=perm)]


@pytest.mark.parametrize("label", LABELS)
def test_expand_is_the_inverse_times_the_vector(label):
    rng = random.Random(f"one-solve:{label}")
    for psi in moved_bases(label, rng):
        rs = psi.rs
        inverse = psi.inverse()
        count = len(rs.positive_roots)
        vectors = [rs.root(h) for h in range(-count, count)]
        vectors += [tuple(rng.randint(-9, 9) for _ in range(rs.rank)) for _ in range(20)]
        for v in vectors:
            assert psi.expand(v) == mat_vec(inverse, v)
        by_root = d_vector_set(psi).by_root
        for alpha in rs.positive_roots:
            assert psi.d_vector(alpha) == by_root[alpha]


def test_after_expand_the_z_basis_test_runs_no_elimination(monkeypatch):
    psi = moved_bases("E8", random.Random("one-solve-flag"))[2]
    gamma = psi.gamma
    calls = []
    monkeypatch.setattr(
        companion, "det_bareiss", lambda rows: calls.append(rows) or det_bareiss(rows)
    )
    solved = CompanionBasis(psi.rs, gamma)
    solved.expand(gamma[0])
    assert solved.is_z_basis()
    assert calls == []
    # a basis no solve has run over still eliminates
    assert CompanionBasis(psi.rs, gamma).is_z_basis()
    assert len(calls) == 1


@pytest.mark.parametrize("v", [(1, 0, 0, 7), (), (1, 0)])
def test_expand_refuses_a_vector_of_the_wrong_length(v):
    psi = CompanionBasis(A3, A3.simple_roots)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        psi.expand(v)


@pytest.mark.parametrize("v", [(1.0, 0, 0), (True, 0, 0), ("1", 0, 0), (Fraction(1), 0, 0)])
def test_expand_refuses_coordinates_that_are_not_plain_ints(v):
    psi = CompanionBasis(A3, A3.simple_roots)
    with pytest.raises(ValueError, match="^coordinates must be plain integers$"):
        psi.expand(v)


def test_the_callers_of_expand_refuse_what_it_refuses():
    B = dynkin_orientation("A2")
    psi = initial_companion_basis(B)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        inward_update_components(psi, B, 1, (1,))
    with pytest.raises(ValueError, match="^coordinates must be plain integers$"):
        psi.d_vector((1.0, 0))
    # a list or any other iterable of plain ints is read like a tuple
    assert psi.expand([1, 1]) == psi.expand(iter((1, 1))) == psi.expand((1, 1))
    assert CompanionBasis(A2, A2.simple_roots).expand([1, 1]) == (1, 1)
