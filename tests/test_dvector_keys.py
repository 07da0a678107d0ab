"""The d-vector set as byte keys, against a reference held as tuples.

companion.DVectorSet holds one bytes key per positive root, and the
`dvectors` command writes its report from those keys and the root system's
memoized JSON fragments, with no dict per root.  These tests check the keys'
tuple views, their comparisons and both writers against
coordinate_oracles.TupleDVectorSet, which holds the parent-chain d-vectors as
tuples and writes the report with dump_json, on walked, sign-changed and
transported bases of every type up to rank 12 and on one mutated D100 basis.
"""

import random
from itertools import product

import pytest

from companion_bases.cli import main
from companion_bases.companion import (
    DVectorSet,
    companion_basis_for,
    d_vector_set,
    dumps_companion_basis,
    dumps_d_vector_set,
    initial_companion_basis,
    mutate_inward,
    mutate_outward,
    mutation_map_inward,
    sign_change,
    transform,
)
from companion_bases.quiver import mutate_sequence
from companion_bases.root_system import DynkinType, build_root_system, diagram_automorphisms
from conftest import dynkin_orientation
from coordinate_oracles import tuple_d_vector_set

LABELS = [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]


def walked_variants(label: str):
    """(quiver, [a walked basis, a sign change of it, a transport of that]), seeded."""
    rng = random.Random(f"dvector-keys:{label}")
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    for _ in range(3 * B.n + 5):
        op = mutate_inward if rng.random() < 0.5 else mutate_outward
        psi, B = op(psi, B, rng.randrange(B.n))
    rs = psi.rs
    perms = diagram_automorphisms(rs.dynkin)
    flipped = sign_change(psi, [x for x in range(B.n) if rng.random() < 0.5])
    word = [rs.positive_roots[rng.randrange(len(rs.positive_roots))] for _ in range(3)]
    moved = transform(flipped, word=word, perm=perms[rng.randrange(len(perms))])
    return B, [psi, flipped, moved]


def assert_report(psi, B, tmp_path, capsys) -> None:
    """`dvectors` on psi prints the reference's report and a newline, byte for byte."""
    path = tmp_path / "basis.json"
    path.write_text(dumps_companion_basis(psi, B))
    assert main(["dvectors", "--input", str(path)]) == 0
    got = capsys.readouterr().out
    expected = tuple_d_vector_set(psi).report(psi.rs.dynkin) + "\n"
    # a plain assert would diff two reports of up to 600 kB
    if got != expected:
        at = next((i for i, (a, b) in enumerate(zip(got, expected)) if a != b), None)
        at = min(len(got), len(expected)) if at is None else at
        pytest.fail(f"report differs at byte {at}: {got[max(at - 20, 0) : at + 20]!r}")


@pytest.mark.parametrize("label", LABELS)
def test_the_report_is_dump_json_of_one_dict_per_root(label, tmp_path, capsys):
    B, bases = walked_variants(label)
    for psi in bases:
        assert_report(psi, B, tmp_path, capsys)


def test_the_report_on_a_mutated_d100_basis(tmp_path, capsys):
    B = mutate_sequence(dynkin_orientation("D100"), [3, 17, 40, 41, 63, 88, 97, 98])
    assert_report(companion_basis_for(B), B, tmp_path, capsys)


@pytest.mark.parametrize("label", LABELS)
def test_the_views_and_comparisons_match_the_tuple_reference(label):
    B, bases = walked_variants(label)
    bases.append(initial_companion_basis(dynkin_orientation(label)))
    sets = [d_vector_set(psi) for psi in bases]
    references = [tuple_d_vector_set(psi) for psi in bases]
    rs = bases[0].rs
    for dset, reference in zip(sets, references):
        assert all(type(k) is bytes and len(k) == rs.rank for k in dset.keys)
        assert dset.vectors == reference.vectors
        assert list(dset.by_root.items()) == list(reference.by_root.items())
        assert dset.sorted_items() == reference.sorted_items()
        assert len(dset) == len(reference) == len(rs.positive_roots)
        assert dumps_d_vector_set(dset) == reference.dumps()
        if label in ("E7", "E8"):
            assert max(map(max, reference.vectors)) >= 2
    for (a, ref_a), (b, ref_b) in product(zip(sets, references), repeat=2):
        assert (a == b) == (ref_a == ref_b)
        if a == b:
            assert hash(a) == hash(b)


@pytest.mark.parametrize("label", ["A6", "D6", "E7"])
def test_the_mutation_map_pairs_the_reference_vectors(label):
    B, (psi, *_) = walked_variants(label)
    for k in range(B.n):
        old = tuple_d_vector_set(psi).by_root
        new = tuple_d_vector_set(mutate_inward(psi, B, k)[0]).by_root
        assert mutation_map_inward(psi, B, k) == {old[a]: new[a] for a in old}


def test_the_views_are_built_on_each_read():
    dset = d_vector_set(initial_companion_basis(dynkin_orientation("D5")))
    assert dset.by_root is not dset.by_root
    dset.by_root.clear()
    assert len(dset.by_root) == len(dset) == 20


def test_a_repeated_key_is_an_invariant_violation():
    rs = build_root_system(DynkinType.parse("A2"))
    with pytest.raises(RuntimeError, match="^duplicate d-vector: invariant violation$"):
        DVectorSet(rs, [b"\x01\x00", b"\x00\x01", b"\x01\x00"])
