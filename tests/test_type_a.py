import random
import time
from itertools import combinations, permutations
from math import comb

import pytest

from companion_bases.companion import (
    CompanionBasis,
    companion_basis_failure,
    companion_basis_for,
    root_with_support_string,
    sign_change,
)
from companion_bases.quiver import (
    ExchangeMatrix,
    cartan_counterpart,
    chordless_cycles,
    dynkin_type_of,
    finite_type_failure,
    is_cyclically_oriented,
    mutate,
    satisfies_cycle_sign_condition,
)
from companion_bases.root_system import DynkinType, build_root_system
from companion_bases.type_a import (
    Triangulation,
    _non_crossing,
    almost_positive_root_of_diagonal,
    catalan,
    diagonals_cross,
    dumps_triangulation,
    enumerate_strings,
    enumerate_triangulations,
    indecomposable_dim_vectors,
    is_string,
    is_strong_companion_basis,
    loads_triangulation,
    quiver_from_triangulation,
    random_triangulation,
    relations_of,
    string_dim_vector,
)

from conftest import (
    PENDANT_ARROWS,
    PENDANT_DVECTORS,
    assert_names_a_bad_cycle,
    dynkin_orientation,
    grid_quiver,
)

PENDANT = ExchangeMatrix.from_arrows(4, PENDANT_ARROWS)


def test_diagonal_validation():
    with pytest.raises(ValueError, match="boundary"):
        Triangulation(1, ((1, 2),))
    with pytest.raises(ValueError, match="boundary"):
        Triangulation(1, ((1, 4),))
    with pytest.raises(ValueError, match="corners"):
        Triangulation(1, ((0, 2),))
    with pytest.raises(ValueError, match="cross"):
        Triangulation(2, ((1, 3), (2, 4)))
    with pytest.raises(ValueError, match="distinct"):
        Triangulation(2, ((1, 3), (1, 3)))


def test_diagonals_cross():
    assert diagonals_cross((1, 3), (2, 4))
    assert not diagonals_cross((1, 3), (3, 5))
    assert not diagonals_cross((1, 3), (4, 6))
    assert diagonals_cross((2, 6), (1, 3))


def test_stack_crossing_check_agrees_with_the_pairwise_scan():
    # random diagonal sets up to n = 9: subsets of all diagonals, and
    # triangulations with one diagonal swapped for a random one, so both
    # verdicts and shared endpoints are common
    rng = random.Random(9)
    verdicts, shared = [], 0
    for _ in range(4000):
        n = rng.randint(1, 9)
        corners = n + 3
        everything = [
            (i, j)
            for i in range(1, corners + 1)
            for j in range(i + 2, corners + 1)
            if (i, j) != (1, corners)
        ]
        if rng.random() < 0.5:
            ds = rng.sample(everything, rng.randint(1, min(n, len(everything))))
        else:
            ds = list(random_triangulation(n, rng).diagonals)
            ds[rng.randrange(n)] = rng.choice(everything)
        pairs = list(combinations(sorted(set(ds)), 2))
        crossing = [(d1, d2) for d1, d2 in pairs if diagonals_cross(d1, d2)]
        shared += any(set(d1) & set(d2) for d1, d2 in pairs)
        assert _non_crossing(ds) == (not crossing), ds
        verdicts.append(not crossing)
        if len(set(ds)) == n and crossing:
            # the message names the first crossing pair in sorted order
            d1, d2 = crossing[0]
            with pytest.raises(ValueError) as exc:
                Triangulation(n, tuple(ds))
            assert str(exc.value) == f"diagonals {d1} and {d2} cross"
    assert 1000 < sum(verdicts) < 3000 and shared > 1000


@pytest.mark.parametrize("n,count", [(1, 2), (2, 5), (3, 14), (4, 42), (5, 132)])
def test_enumeration_counts(n, count):
    ts = enumerate_triangulations(n)
    assert len(ts) == count
    assert len(set(ts)) == count


def test_enumeration_matches_catalan_to_seven():
    for n in range(1, 8):
        expected = comb(2 * (n + 1), n + 1) // (n + 2)
        assert len(enumerate_triangulations(n)) == expected == catalan(n + 1)
    with pytest.raises(ValueError, match="cap"):
        enumerate_triangulations(10)


def test_fan_of_hexagon_is_linear_quiver():
    fan = Triangulation(3, ((1, 3), (1, 4), (1, 5)))
    B = quiver_from_triangulation(fan)
    assert B == dynkin_orientation("A3")


def test_heptagon_with_inner_triangle_matches_pendant_shape():
    T = Triangulation(4, ((1, 3), (1, 5), (3, 5), (5, 7)))
    B = quiver_from_triangulation(T)
    # sorted diagonals: (1,3) (1,5) (3,5) (5,7)
    assert B.arrows() == [(0, 1), (1, 2), (2, 0), (3, 1)]
    assert chordless_cycles(B) == [(0, 1, 2)]
    assert dynkin_type_of(B) == DynkinType("A", 4)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_triangulation_quivers_are_well_formed(n):
    for T in enumerate_triangulations(n):
        B = quiver_from_triangulation(T)
        assert B.has_unit_entries()
        assert finite_type_failure(B) is None
        assert dynkin_type_of(B) == DynkinType("A", n)
        for cycle in chordless_cycles(B):
            assert len(cycle) == 3
            assert is_cyclically_oriented(B, cycle)
        for x in range(n):
            valency = sum(1 for y in range(n) if B.entries[x][y] != 0)
            assert valency <= 4


def test_relations():
    assert relations_of(dynkin_orientation("A4")) == frozenset()
    assert relations_of(PENDANT) == frozenset(
        {
            ((1, 2), (2, 3)),
            ((2, 3), (3, 1)),
            ((3, 1), (1, 2)),
        }
    )
    two_triangles = [
        T
        for T in enumerate_triangulations(6)
        if len(chordless_cycles(quiver_from_triangulation(T))) == 2
    ]
    assert two_triangles
    for T in two_triangles[:5]:
        assert len(relations_of(quiver_from_triangulation(T))) == 6
    square = ExchangeMatrix.from_arrows(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError, match="length 4"):
        relations_of(square)


def test_relations_follow_the_arrows_against_the_canonical_rotation():
    # the cycle is walked as (0, 1, 2), but its arrows run 0 -> 2 -> 1 -> 0
    against = ExchangeMatrix.from_arrows(3, [(1, 0), (2, 1), (0, 2)])
    assert relations_of(against) == frozenset(
        {((0, 2), (2, 1)), ((1, 0), (0, 2)), ((2, 1), (1, 0))}
    )


def test_the_cycle_checks_stop_at_the_first_cycle_not_cyclically_oriented():
    # the 7 x 7 grid has 65,772 chordless cycles; the first one walked fails
    B = grid_quiver(7)
    for call in (relations_of, indecomposable_dim_vectors, enumerate_strings):
        start = time.perf_counter()
        with pytest.raises(ValueError) as info:
            call(B)
        assert time.perf_counter() - start < 1.0, call
        assert_names_a_bad_cycle(B, info.value)
    start = time.perf_counter()
    assert not satisfies_cycle_sign_condition(cartan_counterpart(B), B)
    assert time.perf_counter() - start < 1.0


def test_enumerate_strings_smallest():
    B = ExchangeMatrix.from_rows([[0]])
    assert enumerate_strings(B) == [(0,)]


def test_enumerate_strings_on_pendant_quiver():
    walks = enumerate_strings(PENDANT)
    assert len(walks) == 10
    trivial = [w for w in walks if len(w) == 1]
    assert len(trivial) == 4
    endpoints = {(w[0], w[-1]) for w in walks if len(w) > 1}
    assert endpoints == {(a, b) for a in range(4) for b in range(a + 1, 4)}
    by_pair = {(w[0], w[-1]): w for w in walks if len(w) > 1}
    assert by_pair[(0, 3)] == (0, 1, 3)
    assert not any(frozenset(w) == {0, 1, 2, 3} for w in walks)


def test_string_dim_vector(pendant_basis):
    assert string_dim_vector(PENDANT, (2,)) == (0, 0, 1, 0)
    assert string_dim_vector(PENDANT, (1, 2)) == (0, 1, 1, 0)
    assert not is_string(PENDANT, (1, 2, 3))
    with pytest.raises(ValueError, match="not a string"):
        string_dim_vector(PENDANT, (1, 2, 3))


def test_a_walk_needs_one_direction_per_step():
    # B gives each step's direction, so the vertices alone make the walk
    path = dynkin_orientation("A3")  # 0 -> 1 -> 2
    assert is_string(path, (0, 1, 2))
    assert string_dim_vector(path, (0, 1, 2)) == (1, 1, 1)


def test_a_string_visits_at_least_one_vertex_and_none_twice():
    path = dynkin_orientation("A3")  # 0 -> 1 -> 2
    assert not is_string(path, (0, 1, 0))
    assert not is_string(path, ())


def interval_indicators(n):
    return frozenset(
        tuple(1 if i <= x <= j else 0 for x in range(n))
        for i in range(n)
        for j in range(i, n)
    )


def test_indecomposables_linear_quivers():
    for n in (1, 2, 3, 5):
        B = dynkin_orientation(f"A{n}")
        assert indecomposable_dim_vectors(B) == interval_indicators(n)


def test_indecomposables_pendant(pendant_basis):
    assert indecomposable_dim_vectors(PENDANT) == PENDANT_DVECTORS


def test_indecomposables_all_heptagon_quivers():
    for T in enumerate_triangulations(4):
        vectors = indecomposable_dim_vectors(quiver_from_triangulation(T))
        assert len(vectors) == 10
        assert all(set(v) <= {0, 1} for v in vectors)


def test_is_strong_companion_basis(pendant_basis):
    assert is_strong_companion_basis(pendant_basis, PENDANT)
    for T in enumerate_triangulations(2):
        B = quiver_from_triangulation(T)
        assert is_strong_companion_basis(companion_basis_for(B), B)
    path = dynkin_orientation("A4")
    rs = build_root_system(DynkinType("A", 4))
    assert is_strong_companion_basis(CompanionBasis(rs, rs.simple_roots), path)
    with pytest.raises(ValueError, match="invalid companion basis"):
        is_strong_companion_basis(CompanionBasis(rs, rs.simple_roots), PENDANT)


def test_strongness_is_basis_independent(pendant_basis):
    # any companion basis has the same d-vector set, so strongness transfers
    assert is_strong_companion_basis(sign_change(pendant_basis, {1, 3}), PENDANT)


def dim_vectors_from_walks(B):
    """The definition the shared path walk replaces: one checked walk per string."""
    return frozenset(string_dim_vector(B, w) for w in enumerate_strings(B))


@pytest.mark.parametrize("n", range(1, 8))
def test_dim_vectors_match_the_walk_definition_on_every_triangulation(n):
    for T in enumerate_triangulations(n):
        B = quiver_from_triangulation(T)
        assert indecomposable_dim_vectors(B) == dim_vectors_from_walks(B)


def test_dim_vectors_match_the_walk_definition_on_drawn_and_fixed_quivers():
    rng = random.Random(15)
    quivers = [
        quiver_from_triangulation(random_triangulation(n, rng))
        for n in range(10, 15)
        for _ in range(8)
    ]
    quivers += [PENDANT] + [dynkin_orientation(f"A{n}") for n in range(1, 6)]
    for B in quivers:
        assert indecomposable_dim_vectors(B) == dim_vectors_from_walks(B)


# (diagonals, strings as vertex tuples) in enumerate_strings order
PINNED_STRINGS = [
    (
        ((1, 3), (1, 5), (3, 5), (5, 7)),
        [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (1, 3), (0, 1, 3), (2, 1, 3)],
    ),
    (
        ((1, 4), (2, 4), (4, 6), (4, 7), (4, 8)),
        [(0,), (1,), (2,), (3,), (4,), (0, 1), (0, 4), (2, 3), (3, 4), (0, 4, 3),
         (1, 0, 4), (2, 3, 4), (0, 4, 3, 2), (1, 0, 4, 3), (1, 0, 4, 3, 2)],
    ),
    (
        ((1, 3), (1, 5), (1, 7), (3, 5), (5, 7), (7, 9)),
        [(0,), (1,), (2,), (3,), (4,), (5,), (0, 1), (0, 3), (1, 2), (1, 3), (1, 4),
         (2, 4), (2, 5), (0, 1, 2), (0, 1, 4), (1, 2, 5), (2, 1, 3), (3, 1, 4),
         (4, 2, 5), (0, 1, 2, 5), (3, 1, 2, 5)],
    ),
]


@pytest.mark.parametrize("diagonals,strings", PINNED_STRINGS)
def test_enumerate_strings_keeps_its_walks_and_order(diagonals, strings):
    B = quiver_from_triangulation(Triangulation(len(diagonals), diagonals))
    assert enumerate_strings(B) == strings


def root_or_message(psi, walk):
    """root_with_support_string(psi, walk), or the message of its ValueError."""
    try:
        return root_with_support_string(psi, walk)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("n", [4, 5])
def test_the_two_string_readers_agree(n):
    # is_string reads B's arrows, root_with_support_string the basis's form
    # values; every tuple of at most 4 distinct vertices is tried on a basis
    # and on a sign change of it, and each reader takes it also as a list
    # and as an iterator
    forms = (tuple, list, iter)
    for T in enumerate_triangulations(n):
        B = quiver_from_triangulation(T)
        psi = companion_basis_for(B)
        short = [s for s in enumerate_strings(B) if len(s) <= 4]
        for basis in (psi, sign_change(psi, range(0, n, 2))):
            found = 0
            for length in range(1, 5):
                for walk in permutations(range(n), length):
                    strings = {is_string(B, form(walk)) for form in forms}
                    (root,) = {root_or_message(basis, form(walk)) for form in forms}
                    if isinstance(root, str):
                        assert root.startswith("walk is not a string: ")
                        assert strings == {False}, walk
                        continue
                    assert strings == {True}, walk
                    dims = {string_dim_vector(B, form(walk)) for form in forms}
                    assert dims == {basis.d_vector(root)}
                    found += 1
            # each string of two or more vertices is tried in both directions
            assert found == sum(2 if len(s) > 1 else 1 for s in short)


# Two oriented triangles sharing the edge 1-2: gentle by relations_of's test,
# but of type D4, with 11 induced paths where type A4 has 10 strings.
DIAMOND = ExchangeMatrix.from_arrows(4, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 1)])


def test_the_type_check_rejects_two_triangles_sharing_an_edge():
    assert len(relations_of(DIAMOND)) == 6
    for strings in (enumerate_strings, indecomposable_dim_vectors):
        with pytest.raises(ValueError, match=r"^strings need type A, not D4$"):
            strings(DIAMOND)
    psi = companion_basis_for(DIAMOND)
    for basis in (psi, sign_change(psi, {0, 2})):
        with pytest.raises(ValueError, match=r"^strings need type A, not D4$"):
            is_strong_companion_basis(basis, DIAMOND)


def mutation_class_sample(label, count, rng):
    """The standard orientation of label and count quivers reached from it
    by random mutation walks of 1 to 20 steps."""
    quivers = [dynkin_orientation(label)]
    for _ in range(count):
        B = quivers[0]
        for _ in range(rng.randrange(1, 21)):
            B = mutate(B, rng.randrange(B.n))
        quivers.append(B)
    return quivers


@pytest.mark.parametrize("label", ["D4", "D5", "D6", "D7", "D8", "E6", "E7", "E8"])
def test_strings_and_strongness_refuse_types_d_and_e(label):
    # the gentle-relations test and the n(n+1)/2 count alone let about half of
    # these through: on the standard E8 orientation, 36 induced paths against
    # the 120 indecomposables Gabriel's theorem gives
    rng = random.Random(f"{label}:not type A")
    message = rf"^strings need type A, not {label}$"
    for B in mutation_class_sample(label, 12, rng):
        for strings in (enumerate_strings, indecomposable_dim_vectors):
            with pytest.raises(ValueError, match=message):
                strings(B)
        with pytest.raises(ValueError, match=message):
            is_strong_companion_basis(companion_basis_for(B), B)


def test_strongness_refuses_a_quiver_that_is_not_of_its_basis_type():
    # the acyclic triangle 0 -> 1 -> 2, 0 -> 2 has the A3 companion basis
    # e1, e2, e2 + e3, but its chordless cycle is not cyclically oriented
    B = ExchangeMatrix.from_arrows(3, [(0, 1), (1, 2), (0, 2)])
    rs = build_root_system(DynkinType("A", 3))
    psi = CompanionBasis(rs, ((1, 0, 0), (0, 1, 0), (0, 1, 1)))
    assert companion_basis_failure(psi, B) is None
    with pytest.raises(ValueError) as info:
        is_strong_companion_basis(psi, B)
    assert_names_a_bad_cycle(B, info.value)


def test_strings_refuse_a_quiver_that_is_not_connected():
    B = ExchangeMatrix.from_arrows(3, [(0, 1)])
    for strings in (enumerate_strings, indecomposable_dim_vectors):
        with pytest.raises(ValueError, match=r"^matrix is not connected$"):
            strings(B)


def crossing_vectors(T):
    """Caldero-Chapoton-Schiffler: the indecomposables of the cluster-tilted
    algebra of T are one per diagonal not in T, with dimension vector the 0/1
    indicator of the diagonals of T that it crosses (in sorted order)."""
    corners = T.n + 3
    others = [
        (i, j)
        for i in range(1, corners + 1)
        for j in range(i + 2, corners + 1)
        if (i, j) != (1, corners) and (i, j) not in T.diagonals
    ]
    return [tuple(int(diagonals_cross(d, t)) for t in T.diagonals) for d in others]


def test_dim_vectors_are_the_crossing_vectors_of_the_diagonals_not_in_t():
    triangulations = [T for n in range(1, 8) for T in enumerate_triangulations(n)]
    assert len(triangulations) == 2054
    rng = random.Random("crossing vectors")
    triangulations += [random_triangulation(n, rng) for n in range(10, 15) for _ in range(6)]
    for T in triangulations:
        vectors = crossing_vectors(T)
        assert len(set(vectors)) == len(vectors) == T.n * (T.n + 1) // 2
        assert set(vectors) == indecomposable_dim_vectors(quiver_from_triangulation(T)), T


def test_almost_positive_roots_snake():
    for n in (1, 2, 3, 4, 5, 6):
        assert almost_positive_root_of_diagonal(n, (1, n + 2)) == tuple(
            -1 if i == 0 else 0 for i in range(n)
        )
        if n >= 2:
            assert almost_positive_root_of_diagonal(n, (2, n + 2)) == tuple(
                -1 if i == 1 else 0 for i in range(n)
            )
    assert almost_positive_root_of_diagonal(4, (1, 3)) == (0, 1, 1, 0)


def test_almost_positive_roots_bijection():
    for n in (1, 2, 3, 4, 5, 6):
        corners = n + 3
        diagonals = [
            (i, j)
            for i in range(1, corners + 1)
            for j in range(i + 2, corners + 1)
            if (i, j) != (1, corners)
        ]
        assert len(diagonals) == n * (n + 3) // 2
        rs = build_root_system(DynkinType("A", n))
        expected = set(rs.positive_roots) | {
            tuple(-1 if i == m else 0 for i in range(n)) for m in range(n)
        }
        images = {almost_positive_root_of_diagonal(n, d) for d in diagonals}
        assert images == expected
        assert len(images) == len(diagonals)


def test_random_triangulation_reproducible_and_covering():
    assert random_triangulation(5, random.Random(42)) == random_triangulation(
        5, random.Random(42)
    )
    seen = {random_triangulation(2, random.Random(s)) for s in range(60)}
    assert seen == set(enumerate_triangulations(2))


# Reference polygon model, built the long way: every triangle of the polygon
# found by a scan over corner triples, an arrow per pair of diagonal sides
# directed by the anticlockwise rotation about their shared corner, and the
# split bookkeeping that adds each sub-interval after its apex is chosen.


def reference_triangles(n, diagonals):
    corners = n + 3
    edges = set(diagonals) | {(c, c + 1) for c in range(1, corners)} | {(1, corners)}
    return [
        (a, b, c)
        for a in range(1, corners + 1)
        for b in range(a + 1, corners + 1)
        if (a, b) in edges
        for c in range(b + 1, corners + 1)
        if (b, c) in edges and (a, c) in edges
    ]


def reference_quiver(T):
    corners = T.n + 3
    index = {d: i for i, d in enumerate(T.diagonals)}
    rows = [[0] * T.n for _ in range(T.n)]
    for a, b, c in reference_triangles(T.n, T.diagonals):
        sides = [s for s in ((a, b), (b, c), (a, c)) if s in index]
        for s1 in sides:
            for s2 in sides:
                if s1 >= s2:
                    continue
                (p,) = set(s1) & set(s2)
                q1 = s1[0] if s1[1] == p else s1[1]
                q2 = s2[0] if s2[1] == p else s2[1]
                if (q1 - p) % corners < (q2 - p) % corners:
                    src, dst = index[s1], index[s2]
                else:
                    src, dst = index[s2], index[s1]
                rows[src][dst] = 1
                rows[dst][src] = -1
    return tuple(tuple(row) for row in rows)


def reference_interval_triangulations(i, j):
    if j - i < 2:
        return [()]
    out = []
    for apex in range(i + 1, j):
        left = reference_interval_triangulations(i, apex)
        right = reference_interval_triangulations(apex, j)
        extra = []
        if apex - i >= 2:
            extra.append((i, apex))
        if j - apex >= 2:
            extra.append((apex, j))
        for l in left:
            for r in right:
                out.append(l + r + tuple(extra))
    return out


def reference_random_triangulation(n, rng):
    diagonals = []
    stack = [(1, n + 3)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        weights = [catalan(a - i - 1) * catalan(j - a - 1) for a in range(i + 1, j)]
        apex = rng.choices(range(i + 1, j), weights=weights)[0]
        if apex - i >= 2:
            diagonals.append((i, apex))
        if j - apex >= 2:
            diagonals.append((apex, j))
        stack.append((i, apex))
        stack.append((apex, j))
    return Triangulation(n, tuple(diagonals))


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_and_quivers_match_the_reference(n):
    expected = [Triangulation(n, ds) for ds in reference_interval_triangulations(1, n + 3)]
    found = enumerate_triangulations(n)
    assert [T.diagonals for T in found] == [T.diagonals for T in expected]
    for T in found:
        assert quiver_from_triangulation(T).entries == reference_quiver(T)


@pytest.mark.parametrize("n", [1, 2, 5, 12, 40])
def test_random_draws_match_the_reference(n):
    # several draws from one generator, so the number of calls is checked too
    rng, reference_rng = random.Random(n), random.Random(n)
    for _ in range(20):
        T = random_triangulation(n, rng)
        assert T.diagonals == reference_random_triangulation(n, reference_rng).diagonals
        assert quiver_from_triangulation(T).entries == reference_quiver(T)


def test_serialization():
    T = Triangulation(4, ((1, 3), (1, 5), (3, 5), (5, 7)))
    text = dumps_triangulation(T)
    assert loads_triangulation(text) == T
    with pytest.raises(ValueError):
        loads_triangulation('{"n": 2}')


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 1.9, "diagonals": [["1", 3.9]]}',
        '{"n": true, "diagonals": [[true, 3]]}',
        '{"n": 1, "diagonals": [[1.0, 3]]}',
        '{"n": 1, "diagonals": [[1, 3, 5]]}',
        '{"n": 1, "diagonals": [1, 3]}',
        '{"n": 1, "diagonals": [[1, 3], [2, 4]]}',
        '{"n": "1", "diagonals": [[1, 3]]}',
        "[" * 100_000,
        '{"n": 1, "diagonals": ' + "[" * 100_000 + "}",
    ],
)
def test_loads_triangulation_is_strict(text):
    with pytest.raises(ValueError):
        loads_triangulation(text)


def test_loads_triangulation_reads_plain_integers():
    T = loads_triangulation('{"n": 1, "diagonals": [[1, 3]]}')
    assert T == Triangulation(1, ((1, 3),))
