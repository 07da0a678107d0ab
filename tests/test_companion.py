import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from companion_bases import companion, quiver
from companion_bases.cli import main
from companion_bases.companion import (
    CompanionBasis,
    _gram_realization,
    companion_basis_failure,
    companion_basis_for,
    d_vector_set,
    dumps_companion_basis,
    find_mutation_sequence_to_tree,
    initial_companion_basis,
    inward_update_components,
    loads_companion_basis,
    mutate_inward,
    mutate_outward,
    mutation_map_inward,
    phi_in_type_a,
    sign_change,
    transform,
)
from companion_bases.intlinalg import det_bareiss, mat_vec
from companion_bases.quiver import (
    ExchangeMatrix,
    chordless_cycles,
    dynkin_type_and_companion,
    mutate,
    mutate_sequence,
)
from companion_bases.root_system import (
    DynkinType,
    RootSystem,
    build_root_system,
    diagram_automorphisms,
)
from companion_bases.type_a import (
    enumerate_triangulations,
    is_strong_companion_basis,
    quiver_from_triangulation,
    random_triangulation,
)

from conftest import PENDANT_ARROWS, PENDANT_DVECTORS, dynkin_orientation
from coordinate_oracles import (
    cartan_matrix,
    reflect,
    root_with_support_string,
    simultaneous_sign_change,
)

A2 = build_root_system(DynkinType("A", 2))
B_A2 = ExchangeMatrix.from_arrows(2, [(0, 1)])
PI_A2 = CompanionBasis(A2, A2.simple_roots)


def random_walk_basis(label, steps, seed):
    rng = random.Random(seed)
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    for _ in range(steps):
        k = rng.randrange(B.n)
        op = mutate_inward if rng.random() < 0.5 else mutate_outward
        psi, B = op(psi, B, k)
    return psi, B


def test_companion_basis_constructor_rejects_non_roots():
    with pytest.raises(ValueError, match="not a root"):
        CompanionBasis(A2, ((2, 0), (0, 1)))
    with pytest.raises(ValueError, match="expected 2 roots"):
        CompanionBasis(A2, ((1, 0),))


def test_initial_basis_on_natural_path():
    B = dynkin_orientation("A4")
    psi = initial_companion_basis(B)
    assert psi.gamma == psi.rs.simple_roots
    assert companion_basis_failure(psi, B) is None


def test_initial_basis_on_relabeled_path():
    # path 2 -> 0 -> 3 -> 1 is still an A4 orientation
    B = ExchangeMatrix.from_arrows(4, [(2, 0), (0, 3), (3, 1)])
    psi = initial_companion_basis(B)
    assert companion_basis_failure(psi, B) is None
    assert sorted(psi.gamma) == sorted(psi.rs.simple_roots)


def test_initial_basis_on_branching_types():
    for label in ("D4", "D6", "E6", "E7", "E8"):
        B = dynkin_orientation(label)
        psi = initial_companion_basis(B)
        assert psi.rs.dynkin == DynkinType.parse(label)
        assert companion_basis_failure(psi, B) is None


def test_initial_basis_rejects_non_trees(pendant_quiver):
    with pytest.raises(ValueError, match="not a tree"):
        initial_companion_basis(pendant_quiver)
    with pytest.raises(ValueError, match="entries"):
        initial_companion_basis(ExchangeMatrix.from_rows([[0, 2], [-2, 0]]))
    star5 = ExchangeMatrix.from_arrows(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    with pytest.raises(ValueError, match="not a Dynkin diagram"):
        initial_companion_basis(star5)
    # n - 1 edges but two components: the count passes, connectivity does not
    forest = ExchangeMatrix.from_arrows(4, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(ValueError, match="not a tree"):
        initial_companion_basis(forest)


@pytest.mark.parametrize(
    "n,arrows,tree",
    [
        (1, [], True),
        (5, [(0, 1), (2, 1), (2, 3), (4, 3)], True),
        (6, DynkinType("D", 6).edges(), True),
        (8, DynkinType("E", 8).edges(), True),
        (4, PENDANT_ARROWS, False),
        (4, [(0, 1), (1, 2), (2, 0)], False),
    ],
    ids=["A1", "A5", "D6", "E8", "pendant", "forest"],
)
def test_initial_basis_scans_the_matrix_once(monkeypatch, n, arrows, tree):
    """The tree test counts edges in the neighbour sets that the connectivity
    test reads, so a new matrix is scanned for edges once, tree or not."""
    B = ExchangeMatrix.from_arrows(n, arrows)
    scans = []
    build = quiver.neighbour_sets

    def counting(size, edges):
        scans.append(size)
        return build(size, edges)

    monkeypatch.setattr(quiver, "neighbour_sets", counting)
    if tree:
        initial_companion_basis(B)
    else:
        with pytest.raises(ValueError, match="not a tree"):
            initial_companion_basis(B)
    assert scans == [n]


def random_orientation(n, edges, rng):
    """A tree on edges, relabelled and with each arrow's direction drawn at random."""
    perm = list(range(n))
    rng.shuffle(perm)
    arrows = [(perm[i], perm[j]) if rng.random() < 0.5 else (perm[j], perm[i]) for i, j in edges]
    return ExchangeMatrix.from_arrows(n, arrows)


def star_edges(*arms):
    """Edges of a tree with hub 0 and one path of each given length leaving it."""
    edges, n = [], 1
    for length in arms:
        prev = 0
        for v in range(n, n + length):
            edges.append((prev, v))
            prev = v
        n += length
    return n, edges


TREE_LABELS = (
    [f"A{n}" for n in range(1, 10)] + [f"D{n}" for n in range(4, 10)] + ["E6", "E7", "E8"]
)


@pytest.mark.parametrize("label", TREE_LABELS)
def test_initial_basis_types_relabelled_reoriented_trees(label):
    dynkin = DynkinType.parse(label)
    rng = random.Random(f"tree {label}")
    for _ in range(4):
        B = random_orientation(dynkin.rank, dynkin.edges(), rng)
        psi = initial_companion_basis(B)
        assert psi.rs.dynkin == dynkin
        assert companion_basis_failure(psi, B) is None


NON_DYNKIN_TREES = {
    "4-leaf star": star_edges(1, 1, 1, 1),
    "affine D5": (6, [(0, 1), (0, 2), (0, 3), (3, 4), (3, 5)]),
    "affine D6": (7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (4, 6)]),
    "affine E6": star_edges(2, 2, 2),
    "affine E7": star_edges(1, 3, 3),
    "affine E8": star_edges(1, 2, 5),
}


@pytest.mark.parametrize("name", NON_DYNKIN_TREES)
def test_initial_basis_rejects_affine_trees(name):
    n, edges = NON_DYNKIN_TREES[name]
    assert len(edges) == n - 1
    rng = random.Random(f"tree {name}")
    for _ in range(3):
        with pytest.raises(ValueError, match="underlying tree is not a Dynkin diagram"):
            initial_companion_basis(random_orientation(n, edges, rng))


def test_is_companion_basis_examples(pendant_quiver, pendant_basis, rs_a4):
    assert companion_basis_failure(pendant_basis, pendant_quiver) is None
    pi = CompanionBasis(rs_a4, rs_a4.simple_roots)
    assert companion_basis_failure(pi, pendant_quiver) is not None
    assert "mismatch" in companion_basis_failure(pi, pendant_quiver)


def test_failure_reasons(pendant_quiver, rs_a4):
    degenerate = CompanionBasis(rs_a4, ((1, 0, 0, 0), (-1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    assert companion_basis_failure(degenerate, pendant_quiver) == (
        "not a Z-basis of the root lattice"
    )
    psi = CompanionBasis(A2, A2.simple_roots)
    assert "size mismatch" in companion_basis_failure(psi, pendant_quiver)


def test_sign_change(pendant_quiver, pendant_basis):
    assert sign_change(pendant_basis, set()) == pendant_basis
    flipped = sign_change(pendant_basis, {0, 2})
    assert sign_change(flipped, {0, 2}) == pendant_basis
    assert companion_basis_failure(flipped, pendant_quiver) is None
    assert flipped.gram() == simultaneous_sign_change(pendant_basis.gram(), {0, 2})


def test_transform_examples():
    assert transform(PI_A2).gamma == PI_A2.gamma
    moved = transform(PI_A2, word=(A2.simple_roots[0],))
    assert moved.gamma == ((-1, 0), (1, 1))
    assert moved.gram() == PI_A2.gram()
    assert companion_basis_failure(moved, B_A2) is None
    a1, a2 = A2.simple_roots
    assert transform(PI_A2, word=(a2, a1)).gamma == tuple(
        reflect(A2, reflect(A2, g, a2), a1) for g in PI_A2.gamma
    )
    with pytest.raises(ValueError, match=r"^mirror \(2, 0\) is not a root$"):
        transform(PI_A2, word=((2, 0),))
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        transform(PI_A2, word=((1, 0, 0),))


def test_transform_with_automorphism(pendant_basis, pendant_quiver):
    rs = pendant_basis.rs
    for perm in diagram_automorphisms(rs.dynkin):
        for word in [(), (rs.positive_roots[3],), (rs.positive_roots[5], rs.positive_roots[0])]:
            out = transform(pendant_basis, word=word, perm=perm)
            assert out.gram() == pendant_basis.gram()
            assert companion_basis_failure(out, pendant_quiver) is None
            assert d_vector_set(out) == d_vector_set(pendant_basis)


def test_transform_rejects_a_perm_that_is_not_a_diagram_automorphism():
    rs = build_root_system(DynkinType("A", 3))
    psi = CompanionBasis(rs, rs.simple_roots)
    # (1, 0, 2) sends every simple root to a root but breaks the Gram matrix
    for perm in [(1, 0, 2), (0, 2, 1), (0, 0, 1), (0, 1), (0, 1, 2, 2)]:
        message = f"^{re.escape(str(perm))} is not a diagram automorphism of A3$"
        with pytest.raises(ValueError, match=message):
            transform(psi, perm=perm)
    with pytest.raises(ValueError, match=r"^\(1, 0, 2\) is not a diagram automorphism"):
        transform(psi, word=(rs.simple_roots[0],), perm=[1, 0, 2])
    for perm in [(0, 1, 2), (2, 1, 0), [2, 1, 0]]:
        assert transform(psi, perm=perm).gram() == psi.gram()


def test_mutate_inward_two_vertex_example():
    psi2, B2 = mutate_inward(PI_A2, B_A2, 1)
    assert psi2.gamma == ((1, 1), (0, 1))
    assert B2.arrows() == [(1, 0)]
    assert companion_basis_failure(psi2, B2) is None


def test_mutate_inward_at_source_keeps_basis():
    psi2, B2 = mutate_inward(PI_A2, B_A2, 0)
    assert psi2.gamma == PI_A2.gamma
    assert B2.arrows() == [(1, 0)]


def test_mutate_outward_examples():
    # vertex 1 is the sink of 0 -> 1
    psi2, B2 = mutate_outward(PI_A2, B_A2, 1)
    assert psi2.gamma == PI_A2.gamma
    psi3, _ = mutate_outward(PI_A2, B_A2, 0)
    assert psi3.gamma == ((1, 0), (1, 1))
    assert companion_basis_failure(psi3, mutate(B_A2, 0)) is None


def test_inward_and_outward_agree_on_target_matrix(pendant_basis, pendant_quiver):
    for k in range(4):
        psi_in, B_in = mutate_inward(pendant_basis, pendant_quiver, k)
        psi_out, B_out = mutate_outward(pendant_basis, pendant_quiver, k)
        assert B_in == B_out == mutate(pendant_quiver, k)
        assert companion_basis_failure(psi_in, B_in) is None
        assert companion_basis_failure(psi_out, B_out) is None


def test_mutate_validates_inputs(pendant_quiver, rs_a4):
    pi = CompanionBasis(rs_a4, rs_a4.simple_roots)
    with pytest.raises(ValueError, match="invalid companion basis"):
        mutate_inward(pi, pendant_quiver, 0)
    with pytest.raises(IndexError):
        mutate_inward(pi, pendant_quiver, 9)


def test_d_vector_examples(pendant_basis):
    assert pendant_basis.d_vector((1, 1, 0, 0)) == (1, 1, 1, 0)
    assert pendant_basis.d_vector((0, 1, 1, 0)) == (0, 1, 0, 0)
    for x, g in enumerate(pendant_basis.gamma):
        unit = tuple(1 if i == x else 0 for i in range(4))
        assert pendant_basis.d_vector(g) == unit
    neg = tuple(-c for c in (1, 1, 0, 0))
    assert pendant_basis.d_vector(neg) == pendant_basis.d_vector((1, 1, 0, 0))
    with pytest.raises(ValueError, match="not a root"):
        pendant_basis.d_vector((1, 1, 1, 2))


def test_d_vector_set(pendant_basis, rs_a4):
    dset = d_vector_set(pendant_basis)
    assert dset.vectors == PENDANT_DVECTORS
    assert len(dset) == 10
    assert {d: root for root, d in dset.by_root.items()}[(1, 1, 0, 1)] == (1, 1, 1, 1)
    # over the simple roots the d-vectors are the root coordinates themselves
    pi = CompanionBasis(rs_a4, rs_a4.simple_roots)
    assert d_vector_set(pi).by_root == {v: v for v in rs_a4.positive_roots}


@settings(max_examples=30, deadline=None)
@given(
    label=st.sampled_from(["A5", "A9", "D6", "D9", "E6", "E7", "E8"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_d_vector_set_matches_matrix_expansion(label, seed):
    psi, _ = random_walk_basis(label, 30, seed)
    inverse = psi.inverse()
    assert d_vector_set(psi).by_root == {
        alpha: tuple(abs(c) for c in mat_vec(inverse, alpha))
        for alpha in psi.rs.positive_roots
    }


def test_d_vector_set_invariance(pendant_basis):
    base = d_vector_set(pendant_basis)
    rng = random.Random(7)
    for _ in range(6):
        flips = {x for x in range(4) if rng.random() < 0.5}
        flipped = d_vector_set(sign_change(pendant_basis, flips))
        assert flipped == base and hash(flipped) == hash(base)
        assert len({base, flipped}) == 1
    # the same vectors in another container are not a d-vector set
    assert base != frozenset(base.vectors) and frozenset(base.vectors) != base


def support(psi, alpha) -> set[int]:
    """Vertices with a nonzero expansion coefficient of alpha over psi."""
    return {x for x, c in enumerate(psi.d_vector(alpha)) if c}


def test_support(pendant_basis):
    assert support(pendant_basis, (0, 1, 1, 0)) == {1}
    assert support(pendant_basis, (1, 1, 0, 0)) == {0, 1, 2}
    for x, g in enumerate(pendant_basis.gamma):
        assert support(pendant_basis, g) == {x}


def closed_form_string_root(rs, gamma, walk):
    # alternating-sign expansion of the iterated reflection along a string
    beta = list(gamma[walk[0]])
    running = 1
    for k in range(1, len(walk)):
        running *= rs.inner(gamma[walk[k]], gamma[walk[k - 1]])
        coeff = (-1) ** k * running
        beta = [b + coeff * g for b, g in zip(beta, gamma[walk[k]])]
    return tuple(beta)


def test_root_with_support_string(pendant_basis):
    for z in range(4):
        out = root_with_support_string(pendant_basis, [z])
        assert support(pendant_basis, out) == {z}
    assert root_with_support_string(pendant_basis, [0, 1, 2]) == (1, 1, 0, 0)
    assert pendant_basis.d_vector((1, 1, 0, 0)) == (1, 1, 1, 0)
    with pytest.raises(ValueError, match="not a string"):
        root_with_support_string(pendant_basis, [0, 2])  # not adjacent
    with pytest.raises(ValueError, match="not a string"):
        root_with_support_string(pendant_basis, [1, 2, 3])  # closes a triangle
    with pytest.raises(ValueError, match="revisits"):
        root_with_support_string(pendant_basis, [0, 1, 0])


def test_string_roots_match_closed_form():
    rng = random.Random(13)
    for T in rng.sample(enumerate_triangulations(5), 12):
        B = quiver_from_triangulation(T)
        psi = companion_basis_for(B)
        rs = psi.rs
        adjacency = [
            [y for y in range(B.n) if y != x and B.entries[x][y] != 0]
            for x in range(B.n)
        ]

        def strings_from(path):
            yield path
            for nxt in adjacency[path[-1]]:
                if nxt in path:
                    continue
                if any(B.entries[v][nxt] != 0 for v in path[:-1]):
                    continue
                yield from strings_from(path + [nxt])

        for start in range(B.n):
            for walk in strings_from([start]):
                got = root_with_support_string(psi, walk)
                raw = closed_form_string_root(rs, psi.gamma, walk)
                assert got in (raw, tuple(-c for c in raw))
                assert support(psi, got) == set(walk)
                indicator = tuple(1 if x in set(walk) else 0 for x in range(B.n))
                assert psi.d_vector(got) == indicator


def test_find_mutation_sequence(pendant_quiver):
    assert find_mutation_sequence_to_tree(dynkin_orientation("A5")) == []
    tri = mutate(dynkin_orientation("A3"), 1)
    seq = find_mutation_sequence_to_tree(tri)
    assert len(seq) == 1
    pendant_seq = find_mutation_sequence_to_tree(pendant_quiver)
    assert pendant_seq
    end = mutate_sequence(pendant_quiver, pendant_seq)
    assert chordless_cycles(end) == []
    square = ExchangeMatrix.from_arrows(4, [(0, 1), (1, 2), (3, 2), (0, 3)])
    with pytest.raises(ValueError, match="not finite type"):
        find_mutation_sequence_to_tree(square)


def test_companion_basis_for(pendant_quiver, pendant_basis):
    path = dynkin_orientation("A4")
    assert companion_basis_for(path).gamma == build_root_system(
        DynkinType("A", 4)
    ).simple_roots
    psi = companion_basis_for(pendant_quiver)
    assert companion_basis_failure(psi, pendant_quiver) is None
    assert d_vector_set(psi) == d_vector_set(pendant_basis)
    for T in enumerate_triangulations(4):
        B = quiver_from_triangulation(T)
        assert companion_basis_failure(companion_basis_for(B), B) is None


def test_find_mutation_sequence_rejects_disconnected_input():
    with pytest.raises(ValueError, match="not connected"):
        find_mutation_sequence_to_tree(ExchangeMatrix.from_arrows(3, [(0, 1)]))


STANDARD_LABELS = (
    [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]
)


@pytest.mark.parametrize("label", STANDARD_LABELS)
def test_companion_basis_for_standard_orientation_is_simple_roots(label):
    psi = companion_basis_for(dynkin_orientation(label))
    assert psi.rs.dynkin == DynkinType.parse(label)
    assert psi.gamma == psi.rs.simple_roots


@pytest.mark.parametrize(
    "label,seed",
    [
        (label, seed)
        for label in ("A3", "A6", "D4", "D6", "E6", "E7", "A14", "D12", "E8")
        for seed in range(3)
    ],
)
def test_companion_basis_for_agrees_with_basis_mutation(label, seed):
    # the walked basis is a companion basis of B by construction; the one
    # realized from B alone may differ, but not in its d-vectors
    walked, B = random_walk_basis(label, 60, f"realize:{label}:{seed}")
    psi = companion_basis_for(B)
    assert companion_basis_failure(psi, B) is None
    assert psi.rs.dynkin == walked.rs.dynkin
    assert d_vector_set(psi) == d_vector_set(walked)


def test_companion_basis_for_branching_types():
    for label in ("D4", "D5", "E6"):
        B = mutate_sequence(dynkin_orientation(label), [0, 2, 1, 3])
        psi = companion_basis_for(B)
        assert companion_basis_failure(psi, B) is None
        assert psi.rs.dynkin == DynkinType.parse(label)


def test_mutation_map_identity_at_source():
    the_map = mutation_map_inward(PI_A2, B_A2, 0)
    assert all(k == v for k, v in the_map.items())


def test_mutation_map_example(pendant_basis, pendant_quiver):
    the_map = mutation_map_inward(pendant_basis, pendant_quiver, 1)
    assert the_map[(1, 1, 1, 0)] == (1, 0, 1, 0)
    assert set(the_map) == PENDANT_DVECTORS
    assert len(set(the_map.values())) == len(the_map)


def test_mutation_map_is_basis_independent(pendant_basis, pendant_quiver):
    rng = random.Random(23)
    rs = pendant_basis.rs
    for k in range(4):
        reference = mutation_map_inward(pendant_basis, pendant_quiver, k)
        for _ in range(4):
            flips = {x for x in range(4) if rng.random() < 0.5}
            other = sign_change(pendant_basis, flips)
            assert mutation_map_inward(other, pendant_quiver, k) == reference
            word = tuple(
                rs.positive_roots[rng.randrange(len(rs.positive_roots))]
                for _ in range(2)
            )
            moved = transform(pendant_basis, word=word)
            assert mutation_map_inward(moved, pendant_quiver, k) == reference


def test_phi_in_type_a_closed_form(pendant_basis, pendant_quiver):
    dset = d_vector_set(pendant_basis)
    assert phi_in_type_a(pendant_quiver, 1)[(1, 1, 1, 0)] == (1, 0, 1, 0)
    for k in range(4):
        the_map = mutation_map_inward(pendant_basis, pendant_quiver, k)
        # the map covers exactly the realised d-vectors, as mutation_map_inward does
        assert phi_in_type_a(pendant_quiver, k) == the_map
        assert set(the_map) == dset.vectors
    # vectors that are not realised d-vectors are simply not in the map
    assert (1, 1, 1, 1) not in phi_in_type_a(pendant_quiver, 1)
    assert (2, 0, 0, 0) not in phi_in_type_a(pendant_quiver, 1)
    with pytest.raises(IndexError):
        phi_in_type_a(pendant_quiver, 7)


def test_phi_in_rejects_non_type_a():
    B = dynkin_orientation("D4")
    assert (1, 2, 1, 1) in d_vector_set(companion_basis_for(B)).vectors
    for k in (0, 1):
        with pytest.raises(ValueError, match="^closed form only holds in type A$"):
            phi_in_type_a(B, k)


def test_unit_dvector_at_source_is_fixed():
    d = (1, 0)
    assert phi_in_type_a(B_A2, 0)[d] == d
    assert phi_in_type_a(B_A2, 0) == mutation_map_inward(PI_A2, B_A2, 0)


def test_inward_update_parity_outside_type_a():
    rng = random.Random(31)
    for label in ("D6", "E6"):
        psi, B = random_walk_basis(label, 40, seed=hash(label) % 1000)
        roots = psi.rs.positive_roots
        for _ in range(150):
            alpha = roots[rng.randrange(len(roots))]
            k = rng.randrange(B.n)
            exact, estimate = inward_update_components(psi, B, k, alpha)
            assert (estimate - exact) % 2 == 0


def test_inward_update_equality_in_type_a(pendant_basis, pendant_quiver):
    for alpha in pendant_basis.rs.positive_roots:
        for k in range(4):
            exact, estimate = inward_update_components(
                pendant_basis, pendant_quiver, k, alpha
            )
            assert exact == estimate


def test_inward_update_components_checks_the_vertex_and_the_basis(
    pendant_basis, pendant_quiver
):
    alpha = (1, 1, 0, 0)
    for k in (-1, 4):
        with pytest.raises(IndexError, match=rf"^vertex {k} out of range for n=4$"):
            inward_update_components(pendant_basis, pendant_quiver, k, alpha)
    d4 = build_root_system(DynkinType("D", 4))
    with pytest.raises(ValueError, match="^invalid companion basis: "):
        inward_update_components(
            CompanionBasis(d4, d4.simple_roots), dynkin_orientation("A4"), 0, alpha
        )



@pytest.mark.parametrize("alpha", [(1, 0, 1, 0), [0, 0, 0, 0], (2, 1, 1, 1)], ids=repr)
def test_inward_update_components_refuses_a_non_root(alpha):
    # a d-vector exists only for a root; (1, 0, 1, 0) was answered (1, 1)
    B = dynkin_orientation("A4")
    psi = companion_basis_for(B)
    message = f"{tuple(alpha)} is not a root"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        inward_update_components(psi, B, 1, alpha)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        psi.d_vector(tuple(alpha))
    assert inward_update_components(psi, B, 1, (1, 1, 1, 0)) == (0, 0)

@settings(max_examples=25, deadline=None)
@given(
    label=st.sampled_from(["A4", "D4", "A6"]),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_random_walks_stay_valid(label, seed):
    rng = random.Random(seed)
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    for _ in range(12):
        k = rng.randrange(B.n)
        op = mutate_inward if rng.random() < 0.5 else mutate_outward
        psi, B = op(psi, B, k)
        assert companion_basis_failure(psi, B) is None


def test_dvector_components_exceed_unit_outside_type_a():
    # in type A every realised d-vector is 0/1; not so in D and E, where
    # already the simple-root expansion of the highest root carries a 2
    for label in ("D4", "E6"):
        B = dynkin_orientation(label)
        psi = initial_companion_basis(B)
        dset = d_vector_set(psi)
        assert len(dset) == len(psi.rs.positive_roots)
        assert max(max(d) for d in dset.vectors) >= 2


def test_serialization_roundtrip(pendant_basis, pendant_quiver):
    text = dumps_companion_basis(pendant_basis, pendant_quiver)
    psi, B = loads_companion_basis(text)
    assert psi == pendant_basis
    assert B == pendant_quiver
    assert dumps_companion_basis(psi, B) == text
    with pytest.raises(ValueError):
        loads_companion_basis("{}")


def test_loads_companion_basis_parses_its_text_once(
    pendant_basis, pendant_quiver, monkeypatch
):
    calls = []
    original = json.loads

    def counting(text, **kwargs):
        calls.append(text)
        return original(text, **kwargs)

    text = dumps_companion_basis(pendant_basis, pendant_quiver)
    monkeypatch.setattr(json, "loads", counting)
    assert loads_companion_basis(text) == (pendant_basis, pendant_quiver)
    assert calls == [text]


def failure_by_inner(psi, B):
    """companion_basis_failure computed from coordinates alone, without handles."""
    n = B.n
    if len(psi.gamma) != n:
        return f"size mismatch: {len(psi.gamma)} roots for {n} vertices"
    if det_bareiss(psi.gamma) not in (1, -1):
        return "not a Z-basis of the root lattice"
    for x in range(n):
        for y in range(x + 1, n):
            if abs(psi.rs.inner(psi.gamma[x], psi.gamma[y])) != abs(B.entries[x][y]):
                return f"form/arrow mismatch at ({x},{y})"
    return None


def mutated_by_reflection(psi, B, k, inward):
    """The basis mutation at k computed with the coordinate reflection."""
    return tuple(
        reflect(psi.rs, g, psi.gamma[k])
        if (B.entries[x][k] if inward else B.entries[k][x]) > 0
        else g
        for x, g in enumerate(psi.gamma)
    )


def corruptions(psi, B, rng):
    """(basis, matrix) pairs near a companion basis, each broken in one way or not."""
    n = B.n
    x = rng.randrange(n)
    yield sign_change(psi, {x}), B
    if n > 1:
        y = rng.choice([v for v in range(n) if v != x])
        for repeat in (psi.gamma[x], tuple(-c for c in psi.gamma[x])):
            gamma = list(psi.gamma)
            gamma[y] = repeat
            yield CompanionBasis(psi.rs, gamma), B
        rows = [list(r) for r in B.entries]
        wrong = rng.choice([0, 2, -1] if rows[x][y] else [1, -1])
        rows[x][y], rows[y][x] = wrong, -wrong
        yield psi, ExchangeMatrix.from_rows(rows)
        yield psi, mutate(B, x)
    yield CompanionBasis(psi.rs, psi.rs.simple_roots), B


WALK_LABELS = ["A1", "A2", "A5", "A8", "A12", "D4", "D5", "D8", "D12", "E6", "E7", "E8"]


@pytest.mark.parametrize("label", WALK_LABELS)
@pytest.mark.parametrize("seed", range(2))
def test_table_checks_and_mutations_match_coordinate_oracles(label, seed):
    rng = random.Random(f"table:{label}:{seed}")
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    seen = set()
    for _ in range(40):
        k = rng.randrange(B.n)
        inward = rng.random() < 0.5
        expected = mutated_by_reflection(psi, B, k, inward)
        psi, B = (mutate_inward if inward else mutate_outward)(psi, B, k)
        assert psi.gamma == expected
        assert psi.ids == tuple(psi.rs.locate(g) for g in psi.gamma)
        assert psi.gram() == tuple(
            tuple(psi.rs.inner(a, b) for b in psi.gamma) for a in psi.gamma
        )
        assert companion_basis_failure(psi, B) is None
        for bad_psi, bad_B in corruptions(psi, B, rng):
            reason = failure_by_inner(bad_psi, bad_B)
            seen.add(reason.split(" at ")[0] if reason else reason)
            assert companion_basis_failure(bad_psi, bad_B) == reason
    if B.n > 1:
        assert seen >= {None, "not a Z-basis of the root lattice", "form/arrow mismatch"}


@pytest.mark.parametrize("label", WALK_LABELS)
def test_constructor_rejects_a_non_root_in_a_walked_basis(label):
    psi, _ = random_walk_basis(label, 20, f"non-root:{label}")
    for x, g in enumerate(psi.gamma):
        for bad in (tuple(2 * c for c in g), tuple(0 for _ in g)):
            gamma = list(psi.gamma)
            gamma[x] = bad
            with pytest.raises(ValueError, match=rf"^{re.escape(str(bad))} is not a root$"):
                CompanionBasis(psi.rs, gamma)


def gram_realization_by_dot_products(rs, A):
    """The realization backtracking on coordinate vectors, one dot product per test."""
    n = rs.rank
    cartan = cartan_matrix(rs.dynkin)
    order = [0]
    seen = {0}
    for v in order:
        for u in range(n):
            if A[v][u] and u not in seen:
                seen.add(u)
                order.append(u)
    positives = list(rs.simple_roots) + [
        alpha for alpha in rs.positive_roots if sum(alpha) > 1
    ]
    candidates = positives + [tuple(-c for c in alpha) for alpha in positives]
    gamma = [()] * n
    images = [()] * n

    def extend(pos):
        if pos == n:
            return True
        v = order[pos]
        targets = [(images[u], A[v][u]) for u in order[:pos]]
        for alpha in candidates if pos else (rs.simple_roots[0],):
            if all(
                sum(a * c for a, c in zip(alpha, image)) == value
                for image, value in targets
            ):
                gamma[v] = alpha
                images[v] = tuple(
                    sum(r * a for r, a in zip(row, alpha)) for row in cartan
                )
                if extend(pos + 1):
                    return True
        return False

    return tuple(gamma) if extend(0) else None


def relabelled(B, perm):
    n = B.n
    return ExchangeMatrix(
        tuple(tuple(B.entries[perm[x]][perm[y]] for y in range(n)) for x in range(n))
    )


def mutated_and_relabelled(label, rng, count):
    """The standard orientation, then seeded mutations of it, each also relabelled."""
    B = dynkin_orientation(label)
    quivers = [B]
    for _ in range(count):
        B = mutate_sequence(B, [rng.randrange(B.n) for _ in range(rng.randrange(1, 40))])
        perm = list(range(B.n))
        rng.shuffle(perm)
        quivers += [B, relabelled(B, perm)]
    return quivers


def assert_realizations_agree(B):
    dynkin, A = dynkin_type_and_companion(B)
    rs = build_root_system(dynkin)
    expected = gram_realization_by_dot_products(rs, A)
    assert expected is not None
    assert tuple(map(rs.root, _gram_realization(rs, A))) == expected


ORACLE_LABELS = (
    [f"A{n}" for n in range(1, 15)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]
)


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_table_realization_matches_dot_product_oracle(label):
    for B in mutated_and_relabelled(label, random.Random(f"oracle:{label}"), 4):
        assert_realizations_agree(B)


@pytest.mark.parametrize("n", range(1, 15))
def test_table_realization_matches_dot_product_oracle_on_triangulations(n):
    rng = random.Random(f"oracle-triangulation:{n}")
    for _ in range(4):
        assert_realizations_agree(quiver_from_triangulation(random_triangulation(n, rng)))


@pytest.mark.parametrize("label", ["A5", "A11", "D6", "D10", "E7", "E8"])
def test_companion_cli_prints_the_oracle_basis(tmp_path, capsys, label):
    path = tmp_path / "quiver.json"
    for B in mutated_and_relabelled(label, random.Random(f"oracle-cli:{label}"), 2):
        dynkin, A = dynkin_type_and_companion(B)
        rs = build_root_system(dynkin)
        expected = CompanionBasis(rs, gram_realization_by_dot_products(rs, A))
        path.write_text(json.dumps({"n": B.n, "b": [list(row) for row in B.entries]}))
        assert main(["companion", "--input", str(path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == dumps_companion_basis(expected, B) + "\n"
        assert captured.err == ""


def count_eliminations(monkeypatch):
    """The list that gets one entry per det_bareiss call made through companion."""
    calls = []
    original = companion.det_bareiss

    def counting(rows):
        calls.append(rows)
        return original(rows)

    monkeypatch.setattr(companion, "det_bareiss", counting)
    return calls


def count_inverses(monkeypatch):
    """The list that gets one entry per lattice_inverse call made through companion."""
    calls = []
    original = companion.lattice_inverse

    def counting(basis):
        calls.append(basis)
        return original(basis)

    monkeypatch.setattr(companion, "lattice_inverse", counting)
    return calls


def count_solves(monkeypatch):
    """The list that gets one entry per solve_unimodular call made through companion."""
    calls = []
    original = companion.solve_unimodular

    def counting(rows, rhs):
        calls.append(rows)
        return original(rows, rhs)

    monkeypatch.setattr(companion, "solve_unimodular", counting)
    return calls


@pytest.mark.parametrize("label", ["A12", "D8", "E8"])
def test_dvectors_eliminates_each_loaded_basis_once(label, tmp_path, capsys, monkeypatch):
    psi, B = random_walk_basis(label, 40, f"one-elimination:{label}")
    moved = transform(sign_change(psi, [0, 2]), word=[psi.rs.positive_roots[-1]])
    path = tmp_path / "basis.json"
    path.write_text(dumps_companion_basis(moved, B))
    solves = count_solves(monkeypatch)
    eliminations = count_eliminations(monkeypatch)
    inverses = count_inverses(monkeypatch)
    assert main(["dvectors", "--input", str(path)]) == 0
    # the d-vector solve proves det = +-1, so the check runs no determinant
    # of its own and no inverse is computed
    assert (len(solves), len(eliminations), len(inverses)) == (1, 0, 0)
    report = json.loads(capsys.readouterr().out)
    assert {tuple(row["d"]) for row in report["vectors"]} == d_vector_set(psi).vectors


@pytest.mark.parametrize("label", ["A8", "D8", "E8"])
def test_a_walk_eliminates_once_per_new_basis(label, monkeypatch):
    rng = random.Random(f"memo-walk:{label}")
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    calls = count_eliminations(monkeypatch)
    steps = 50
    for _ in range(steps):
        k = rng.randrange(B.n)
        op = mutate_inward if rng.random() < 0.5 else mutate_outward
        psi, B = op(psi, B, k)
        assert companion_basis_failure(psi, B) is None
    # the start basis once; each step's output derives its determinant, and
    # the next step's check of that same (basis, matrix) pair is remembered
    assert len(calls) == 1


def test_a_pass_is_remembered_for_the_same_matrix_object_only(monkeypatch):
    psi, B = random_walk_basis("E8", 30, "memo-copy")
    psi = CompanionBasis(psi.rs, psi.gamma)
    calls = count_eliminations(monkeypatch)
    assert companion_basis_failure(psi, B) is None
    assert companion_basis_failure(psi, B) is None
    assert len(calls) == 1
    copy = ExchangeMatrix(B.entries)
    assert copy == B and copy is not B
    assert companion_basis_failure(psi, copy) is None
    assert len(calls) == 2


def test_a_remembered_pass_does_not_cover_a_mutated_matrix(monkeypatch):
    psi, B = random_walk_basis("D8", 30, "memo-mutated")
    psi = CompanionBasis(psi.rs, psi.gamma)
    assert companion_basis_failure(psi, B) is None
    calls = count_eliminations(monkeypatch)
    mismatches = 0
    for k in range(B.n):
        B_k = mutate(B, k)
        expected = failure_by_inner(psi, B_k)
        assert companion_basis_failure(psi, B_k) == expected
        mismatches += expected is not None
    assert mismatches > 0
    assert len(calls) == B.n


def test_a_failure_is_never_remembered(monkeypatch):
    psi, B = random_walk_basis("E7", 30, "memo-failure")
    psi = CompanionBasis(psi.rs, psi.gamma)
    rows = [list(row) for row in B.entries]
    rows[0][3], rows[3][0] = 2, -2
    repeated = CompanionBasis(psi.rs, [psi.gamma[0]] + list(psi.gamma[:-1]))
    calls = count_eliminations(monkeypatch)
    for bad_psi, bad_B, reason in [
        (psi, ExchangeMatrix.from_rows(rows), "form/arrow mismatch at (0,3)"),
        (repeated, B, "not a Z-basis of the root lattice"),
    ]:
        before = len(calls)
        assert companion_basis_failure(bad_psi, bad_B) == reason
        assert companion_basis_failure(bad_psi, bad_B) == reason
        assert len(calls) == before + 2


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_every_walked_basis_has_determinant_plus_or_minus_one(label, monkeypatch):
    rng = random.Random(f"derived-det:{label}")
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    calls = count_eliminations(monkeypatch)
    for _ in range(40):
        k = rng.randrange(B.n)
        op = mutate_inward if rng.random() < 0.5 else mutate_outward
        psi, B = op(psi, B, k)
        # intlinalg's det_bareiss, not the counted one inside companion
        assert det_bareiss(psi.gamma) in (1, -1)
        assert psi.is_z_basis()
        assert companion_basis_failure(psi, B) is None
    assert len(calls) == 1


def assert_realized_unimodular(B):
    psi = companion_basis_for(B)
    # intlinalg's det_bareiss, not the counted one inside companion
    assert det_bareiss(psi.gamma) in (1, -1)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_realized_basis_of_a_triangulation_has_determinant_one(n):
    for T in enumerate_triangulations(n):
        assert_realized_unimodular(quiver_from_triangulation(T))


@pytest.mark.parametrize("label", [label for label in ORACLE_LABELS if label != "A1"])
def test_every_realized_basis_of_a_mutated_quiver_has_determinant_one(label):
    for B in mutated_and_relabelled(label, random.Random(f"realized-det:{label}"), 8):
        assert_realized_unimodular(B)


def test_a_realized_basis_is_checked_without_elimination(monkeypatch):
    rng = random.Random("realized-count")
    quivers = [quiver_from_triangulation(random_triangulation(n, rng)) for n in (3, 8, 12)]
    calls = count_eliminations(monkeypatch)
    for B in quivers:
        psi = companion_basis_for(B)
        assert is_strong_companion_basis(psi, B)
    for label in ("D8", "E8"):
        for B in mutated_and_relabelled(label, rng, 2):
            psi = companion_basis_for(B)
            assert companion_basis_failure(psi, ExchangeMatrix(B.entries)) is None
    assert calls == []
    # a copy built from the same roots is not flagged, so it eliminates once
    copy = CompanionBasis(psi.rs, psi.gamma)
    assert companion_basis_failure(copy, B) is None
    assert companion_basis_failure(copy, B) is None
    assert len(calls) == 1


@pytest.mark.parametrize("label", ["A8", "D8", "E8"])
def test_bases_rebuilt_from_a_walked_basis_eliminate_once(label, monkeypatch):
    psi, B = random_walk_basis(label, 30, f"rebuilt:{label}")
    rs = psi.rs
    assert companion_basis_failure(psi, B) is None
    mirror = rs.positive_roots[len(rs.positive_roots) // 2]
    rebuilt = [
        CompanionBasis(rs, psi.gamma),
        sign_change(psi, [0, B.n - 1]),
        transform(psi, word=[mirror]),
        loads_companion_basis(dumps_companion_basis(psi, B))[0],
    ]
    calls = count_eliminations(monkeypatch)
    for copy in rebuilt:
        before = len(calls)
        assert companion_basis_failure(copy, B) is None
        assert companion_basis_failure(copy, B) is None
        assert len(calls) == before + 1
    # the walked basis itself derives its determinant against any matrix
    assert companion_basis_failure(psi, ExchangeMatrix(B.entries)) is None
    assert len(calls) == len(rebuilt)


@pytest.mark.parametrize("label", ["A8", "D8", "E8"])
def test_a_tampered_copy_of_a_walked_basis_is_eliminated(label, monkeypatch):
    psi, B = random_walk_basis(label, 30, f"tampered:{label}")
    repeated = list(psi.gamma)
    repeated[1] = psi.gamma[0]
    negated = list(psi.gamma)
    negated[1] = tuple(-c for c in psi.gamma[0])
    swapped = list(psi.gamma)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    calls = count_eliminations(monkeypatch)
    for gamma in (repeated, negated):
        before = len(calls)
        assert companion_basis_failure(CompanionBasis(psi.rs, gamma), B) == (
            "not a Z-basis of the root lattice"
        )
        assert len(calls) == before + 1
    copy = CompanionBasis(psi.rs, swapped)
    before = len(calls)
    assert companion_basis_failure(copy, B) == failure_by_inner(copy, B)
    assert len(calls) == before + 1


def mismatch_count(psi, B):
    return sum(
        abs(psi.rs.form(psi.ids[x], psi.ids[y])) != abs(B.entries[x][y])
        for x in range(B.n)
        for y in range(x + 1, B.n)
    )


def several_corruptions(psi, B, rng):
    """(basis, matrix) pairs near a companion basis, each broken in two places."""
    n = B.n
    rs = psi.rs
    x, y, u, v = rng.sample(range(n), 4)
    swapped = list(psi.gamma)
    swapped[x], swapped[y] = swapped[y], swapped[x]
    swapped[u], swapped[v] = swapped[v], swapped[u]
    yield CompanionBasis(rs, swapped), B
    replaced = list(psi.gamma)
    for w in (x, u):
        root = rs.positive_roots[rng.randrange(len(rs.positive_roots))]
        replaced[w] = root if rng.random() < 0.5 else tuple(-c for c in root)
    yield CompanionBasis(rs, replaced), B
    wrong = [list(row) for row in B.entries]
    for a, b in ((x, y), (u, v)):
        value = rng.choice([0, 2, -3] if wrong[a][b] else [1, -1])
        wrong[a][b], wrong[b][a] = value, -value
    yield psi, ExchangeMatrix.from_rows(wrong)
    doubled = [[2 * value for value in row] for row in B.entries]
    yield psi, ExchangeMatrix.from_rows(doubled)
    doubled = [list(row) for row in B.entries]
    for w in range(n):
        doubled[x][w] *= 2
        doubled[w][x] *= 2
    yield psi, ExchangeMatrix.from_rows(doubled)


@pytest.mark.parametrize("label", ["A8", "D8", "E6", "E7", "E8"])
def test_pair_scan_reports_the_first_mismatch_of_several(label):
    rng = random.Random(f"several:{label}")
    several = 0
    for walk in range(4):
        psi, B = random_walk_basis(label, 30, f"several:{label}:{walk}")
        assert companion_basis_failure(psi, B) is None
        for _ in range(5):
            for bad_psi, bad_B in several_corruptions(psi, B, rng):
                expected = failure_by_inner(bad_psi, bad_B)
                assert companion_basis_failure(bad_psi, bad_B) == expected
                if expected and expected.startswith("form/arrow"):
                    several += mismatch_count(bad_psi, bad_B) >= 2
        assert companion_basis_failure(psi, B) is None
    assert several >= 50


@pytest.mark.parametrize("label", ORACLE_LABELS)
def test_mutated_basis_equals_the_basis_built_from_its_roots(label):
    rng = random.Random(f"handles:{label}")
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    for _ in range(60):
        k = rng.randrange(B.n)
        inward = rng.random() < 0.5
        expected = mutated_by_reflection(psi, B, k, inward)
        psi, B = (mutate_inward if inward else mutate_outward)(psi, B, k)
        public = CompanionBasis(psi.rs, expected)
        assert psi.gamma == public.gamma
        assert psi.ids == public.ids
        assert psi == public and hash(psi) == hash(public)
        assert len({psi, public}) == 1
        assert all(type(g) is tuple for g in psi.gamma)


def test_sign_change_rejects_a_vertex_out_of_range(pendant_basis):
    for bad in ([99], {0, 4}, [-1]):
        with pytest.raises(IndexError, match=r"^vertex (99|4|-1) out of range for n=4$"):
            sign_change(pendant_basis, bad)
    assert sign_change(pendant_basis, (v for v in [1, 3])) == sign_change(
        pendant_basis, {1, 3}
    )


def assert_one_root_representation(psi):
    """gamma is derived from the handles on each read, as plain ints."""
    assert psi.gamma == tuple(map(psi.rs.root, psi.ids))
    assert all(type(g) is tuple for g in psi.gamma)
    assert all(type(c) is int for g in psi.gamma for c in g)
    assert all(type(h) is int for h in psi.ids)


@pytest.mark.parametrize("label", ["A5", "D6", "E7"])
def test_every_library_basis_is_its_handles(label):
    rng = random.Random(f"one-representation:{label}")
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    assert_one_root_representation(psi)
    perms = diagram_automorphisms(psi.rs.dynkin)
    roots = psi.rs.positive_roots
    for _ in range(30):
        k = rng.randrange(B.n)
        psi, B = (mutate_inward if rng.random() < 0.5 else mutate_outward)(psi, B, k)
        assert_one_root_representation(psi)
        flipped = sign_change(psi, rng.sample(range(B.n), 2))
        assert_one_root_representation(flipped)
        word = [rng.choice(roots) for _ in range(3)]
        moved = transform(flipped, word=word, perm=rng.choice(perms))
        assert_one_root_representation(moved)
        loaded, _ = loads_companion_basis(dumps_companion_basis(moved, B))
        assert_one_root_representation(loaded)
        rebuilt = CompanionBasis(psi.rs, list(map(psi.rs.root, psi.ids)))
        assert_one_root_representation(rebuilt)
        assert_one_root_representation(companion_basis_for(B))


def test_the_constructor_stores_plain_int_coordinates():
    # the root-vector reader refuses floats and bools, which the constructor
    # once stored as ints, and reads a list or an iterator as a tuple
    for gamma in ([(1.0, 0.0), (0, 1)], [(1, 0), (False, True)]):
        with pytest.raises(ValueError, match="^coordinates must be plain integers$"):
            CompanionBasis(A2, gamma)
    psi = CompanionBasis(A2, [[1, 0], iter((0, 1))])
    assert psi == PI_A2
    assert_one_root_representation(psi)
    assert repr(psi) == "CompanionBasis(A2, [(1, 0), (0, 1)])"
    assert dumps_companion_basis(psi, B_A2) == dumps_companion_basis(PI_A2, B_A2)


@pytest.mark.parametrize("label", ["A8", "D8", "E8"])
def test_a_walk_locates_nothing_once_the_reflection_rows_are_filled(label, monkeypatch):
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    rs = psi.rs
    for p in range(len(rs.positive_roots)):
        rs.reflect_handle(0, p)
    calls = []
    original = RootSystem.locate

    def counting(self, v):
        calls.append(v)
        return original(self, v)

    monkeypatch.setattr(RootSystem, "locate", counting)
    rng = random.Random(f"no-locate:{label}")
    for _ in range(200):
        k = rng.randrange(B.n)
        psi, B = (mutate_inward if rng.random() < 0.5 else mutate_outward)(psi, B, k)
    assert companion_basis_failure(psi, B) is None
    assert calls == []


def test_a_checked_walk_reads_no_coordinates(monkeypatch):
    rng = random.Random("no-coordinates:E8")
    B = dynkin_orientation("E8")
    psi = initial_companion_basis(B)
    # the start basis is the one a walk eliminates, on its coordinates
    assert companion_basis_failure(psi, B) is None
    calls = []
    original = RootSystem.root

    def counting(self, h):
        calls.append(h)
        return original(self, h)

    monkeypatch.setattr(RootSystem, "root", counting)
    for _ in range(50):
        k = rng.randrange(B.n)
        psi, B = (mutate_inward if rng.random() < 0.5 else mutate_outward)(psi, B, k)
        assert companion_basis_failure(psi, B) is None
    assert calls == []
    # the wrapper does see a read of the coordinates
    psi.gamma
    assert len(calls) == B.n
