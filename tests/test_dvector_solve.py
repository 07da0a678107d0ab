"""The packed d-vector solve against the parent-chain oracle, and its field bound.

companion.d_vector_set reads every root's coefficients out of one packed
solve, one signed byte per root (root_system.FIELD_BITS).  These tests check
it against the expansion over the inverse (coordinate_oracles), root order
included, on companion bases and on unimodular root bases that are not, and
check the bound that makes one byte enough.
"""

import math
import random

import pytest

from companion_bases import companion
from companion_bases.cli import main
from companion_bases.companion import (
    CompanionBasis,
    d_vector_set,
    dumps_companion_basis,
    initial_companion_basis,
    mutate_inward,
    mutate_outward,
    sign_change,
    transform,
)
from companion_bases.intlinalg import det_bareiss
from companion_bases.quiver import ExchangeMatrix
from companion_bases.root_system import (
    FIELD_BITS,
    DynkinType,
    build_root_system,
    diagram_automorphisms,
    lattice_inverse,
)
from conftest import dynkin_orientation
from coordinate_oracles import cartan_matrix, d_vectors_by_parent_chain

LABELS = (
    [f"A{n}" for n in range(1, 41)] + [f"D{n}" for n in range(4, 31)] + ["E6", "E7", "E8"]
)


def walked(label: str, steps: int, rng: random.Random):
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    for _ in range(steps):
        k = rng.randrange(B.n)
        op = mutate_inward if rng.random() < 0.5 else mutate_outward
        psi, B = op(psi, B, k)
    return psi, B


def random_root_basis(rs, rng: random.Random, unimodular: bool) -> CompanionBasis:
    """n roots of rs drawn with random signs until det is +-1 (or is not)."""
    count = len(rs.positive_roots)
    while True:
        ids = tuple(
            h if rng.random() < 0.5 else ~h
            for h in (rng.randrange(count) for _ in range(rs.rank))
        )
        gamma = [rs.root(h) for h in ids]
        if (det_bareiss(gamma) in (1, -1)) == unimodular:
            return CompanionBasis(rs, gamma)


def assert_matches_oracle(psi: CompanionBasis) -> None:
    expected = d_vectors_by_parent_chain(psi)
    if len(set(expected.values())) < len(expected):
        with pytest.raises(RuntimeError, match="duplicate d-vector"):
            d_vector_set(CompanionBasis(psi.rs, psi.gamma))
        return
    got = d_vector_set(CompanionBasis(psi.rs, psi.gamma)).by_root
    assert list(got.items()) == list(expected.items())


@pytest.mark.parametrize("label", LABELS)
def test_the_solve_matches_the_parent_chain_on_moved_companion_bases(label):
    rng = random.Random(f"packed-solve:{label}")
    psi, _ = walked(label, 2 * DynkinType.parse(label).rank + 10, rng)
    rs = psi.rs
    flips = [x for x in range(rs.rank) if rng.random() < 0.5]
    word = [rs.positive_roots[rng.randrange(len(rs.positive_roots))] for _ in range(3)]
    perms = diagram_automorphisms(rs.dynkin)
    moved = transform(sign_change(psi, flips), word=word, perm=perms[rng.randrange(len(perms))])
    for basis in (psi, sign_change(psi, flips), moved):
        assert_matches_oracle(basis)


@pytest.mark.parametrize("label", ["A2", "A5", "A8", "D4", "D6", "D8", "E6", "E7", "E8"])
def test_the_solve_matches_the_parent_chain_on_other_unimodular_root_bases(label):
    rng = random.Random(f"packed-solve-random:{label}")
    rs = build_root_system(DynkinType.parse(label))
    for _ in range(40):
        assert_matches_oracle(random_root_basis(rs, rng, unimodular=True))


def test_the_solve_matches_the_parent_chain_on_a_mutated_a130_basis():
    psi, _ = walked("A130", 390, random.Random("packed-solve:A130"))
    assert_matches_oracle(psi)


@pytest.mark.parametrize("label", ["A3", "D5", "E6", "E8"])
def test_a_root_set_that_is_not_a_z_basis_raises_with_its_determinant(label):
    rng = random.Random(f"packed-solve-singular:{label}")
    rs = build_root_system(DynkinType.parse(label))
    for _ in range(20):
        psi = random_root_basis(rs, rng, unimodular=False)
        det = det_bareiss(psi.gamma)
        message = f"matrix is not unimodular (determinant {det})"
        with pytest.raises(ValueError) as inverse_error:
            lattice_inverse(psi.gamma)
        assert str(inverse_error.value) == message
        with pytest.raises(ValueError) as solve_error:
            d_vector_set(psi)
        assert str(solve_error.value) == message
        with pytest.raises(ValueError) as expand_error:
            psi.expand(psi.gamma[0])
        assert str(expand_error.value) == message
        assert not psi.is_z_basis()


def coefficient_bound(dynkin: DynkinType) -> int:
    """The bound of RootSystem.packed_coordinates on |c| in one type."""
    if dynkin.family == "A":
        return 1
    if dynkin.family == "D":
        return 2
    det = det_bareiss(cartan_matrix(dynkin))
    return math.isqrt(2**dynkin.rank // det)


def test_the_bounds_fit_one_field():
    assert [coefficient_bound(DynkinType("E", n)) for n in (6, 7, 8)] == [4, 8, 16]
    assert 16 < 2 ** (FIELD_BITS - 1)


@pytest.mark.parametrize(
    "label", ["A3", "A4", "A5", "A6", "A7", "A8", "D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"]
)
def test_every_coefficient_over_a_unimodular_root_basis_is_within_the_bound(label):
    rng = random.Random(f"packed-bound:{label}")
    rs = build_root_system(DynkinType.parse(label))
    bound = coefficient_bound(rs.dynkin)
    largest = 0
    for _ in range(300):
        psi = random_root_basis(rs, rng, unimodular=True)
        largest = max(largest, *map(max, d_vectors_by_parent_chain(psi).values()))
    assert largest <= bound


def run_dvectors(tmp_path, capsys, psi, B):
    path = tmp_path / "basis.json"
    path.write_text(dumps_companion_basis(psi, B))
    code = main(["dvectors", "--input", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_dvectors_reports_a_basis_that_is_not_a_z_basis(tmp_path, capsys):
    rs = build_root_system(DynkinType.parse("A4"))
    psi = random_root_basis(rs, random.Random("dvectors-singular"), unimodular=False)
    B = dynkin_orientation("A4")
    assert run_dvectors(tmp_path, capsys, psi, B) == (
        4,
        "",
        "error: not a Z-basis of the root lattice\n",
    )


def test_dvectors_reports_a_mismatch_on_a_unimodular_basis(tmp_path, capsys):
    psi, B = walked("E8", 30, random.Random("dvectors-mismatch"))
    other = ExchangeMatrix.from_arrows(8, [(x, x + 1) for x in range(7)])
    failure = companion.companion_basis_failure(CompanionBasis(psi.rs, psi.gamma), other)
    assert failure is not None and failure.startswith("form/arrow mismatch")
    assert run_dvectors(tmp_path, capsys, psi, other) == (4, "", f"error: {failure}\n")


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_a_solve_error_never_replaces_the_checks_message(tmp_path, capsys, monkeypatch, error):
    psi, B = walked("D8", 30, random.Random("dvectors-solve-error"))
    other = ExchangeMatrix.from_arrows(8, [(x, x + 1) for x in range(7)])
    failure = companion.companion_basis_failure(CompanionBasis(psi.rs, psi.gamma), other)

    def failing(psi):
        raise error("from the solve")

    monkeypatch.setattr("companion_bases.cli.d_vector_set", failing)
    assert run_dvectors(tmp_path, capsys, psi, other) == (4, "", f"error: {failure}\n")


def test_a_solve_error_on_a_valid_basis_is_one_error_line(tmp_path, capsys, monkeypatch):
    psi, B = walked("E7", 20, random.Random("dvectors-invariant"))

    def failing(psi):
        raise RuntimeError("duplicate d-vector: invariant violation")

    monkeypatch.setattr("companion_bases.cli.d_vector_set", failing)
    assert run_dvectors(tmp_path, capsys, psi, B) == (
        4,
        "",
        "error: duplicate d-vector: invariant violation\n",
    )

