import enum
import itertools
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from companion_bases import quiver
from companion_bases.intlinalg import (
    InconsistentSystemError,
    det_bareiss,
    positive_definite_det,
)
from companion_bases.quiver import (
    CYCLE_NOT_ORIENTED,
    NO_POSITIVE_COMPANION,
    ExchangeMatrix,
    _signed_companion,
    canonical_companion,
    cartan_counterpart,
    chordless_cycles,
    cycle_edges,
    dumps_exchange_matrix,
    dynkin_type_and_companion,
    dynkin_type_of,
    finite_type_failure,
    is_connected,
    is_cyclically_oriented,
    is_positive_quasi_cartan,
    loads_exchange_matrix,
    mutate,
    mutate_entries,
    mutate_sequence,
    recognize,
)
from companion_bases.root_system import MAX_RANK, DynkinType

from conftest import (
    PENDANT_ARROWS,
    assert_names_a_bad_cycle,
    dynkin_orientation,
    grid_quiver,
)
from coordinate_oracles import (
    cartan_matrix,
    satisfies_cycle_sign_condition,
    simultaneous_sign_change,
)

SQUARE = ExchangeMatrix.from_arrows(4, [(0, 1), (1, 2), (3, 2), (0, 3)])


def test_validation():
    with pytest.raises(ValueError, match="skew"):
        ExchangeMatrix.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="diagonal"):
        ExchangeMatrix.from_rows([[1, 1], [-1, 0]])
    with pytest.raises(ValueError, match="square"):
        ExchangeMatrix.from_rows([[0, 1]])


@pytest.mark.parametrize(
    "rows",
    [
        [[0, 1.9], [-1.9, 0]],
        [[0, 1.0], [-1.0, 0]],
        [[0.0, 1], [-1, 0]],
        [[0, True], [-1, 0]],
        [[0, 1], [-1, False]],
        [[0, "1"], ["-1", 0]],
    ],
)
def test_entries_that_are_not_plain_integers_are_rejected(rows):
    with pytest.raises(ValueError, match="^matrix entries must be integers$"):
        ExchangeMatrix.from_rows(rows)
    with pytest.raises(ValueError, match="^matrix entries must be integers$"):
        ExchangeMatrix(tuple(map(tuple, rows)))


def test_int_subclasses_other_than_bool_are_rejected_too():
    class Tagged(int):
        pass

    Colour = enum.IntEnum("Colour", "RED")
    for entry in (Tagged(1), Colour.RED):
        with pytest.raises(ValueError, match="^matrix entries must be integers$"):
            ExchangeMatrix(((0, entry), (-1, 0)))
        with pytest.raises(ValueError, match="^matrix entries must be integers$"):
            ExchangeMatrix.from_rows([[0, entry], [-1, 0]])
    assert ExchangeMatrix(((0, 1), (-1, 0))).entries == ((0, 1), (-1, 0))
    assert ExchangeMatrix(()).n == 0


def test_arrows_roundtrip():
    B = ExchangeMatrix.from_arrows(4, PENDANT_ARROWS)
    assert B.arrows() == sorted(PENDANT_ARROWS)
    assert ExchangeMatrix.from_arrows(4, B.arrows()) == B
    assert ExchangeMatrix.from_rows([[0, 0], [0, 0]]).arrows() == []


def test_from_arrows_builds_the_matrix_the_full_check_accepts():
    # from_arrows checks the arrows, then trusts its rows; an arrow adds +1 at
    # (s, t) and -1 at (t, s), so repeated arrows add up and opposite ones cancel
    rng = random.Random(23)
    for _ in range(400):
        n = rng.randint(2, 12)
        drawn = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3 * n))]
        arrows = drawn + drawn[::3] + [(t, s) for s, t in drawn[::4]]
        rng.shuffle(arrows)
        B = ExchangeMatrix.from_arrows(n, arrows)
        checked = ExchangeMatrix(B.entries)
        assert B == checked and hash(B) == hash(checked)
        assert B.neighbours == checked.neighbours
        assert all(
            B.entries[s][t] == arrows.count((s, t)) - arrows.count((t, s))
            for s in range(n)
            for t in range(n)
        )


def test_mutate_source_sink_flip():
    B = ExchangeMatrix.from_arrows(2, [(0, 1)])
    assert mutate(B, 0).arrows() == [(1, 0)]
    assert mutate(B, 1).arrows() == [(1, 0)]


def test_mutate_path_middle_gives_oriented_triangle():
    path = dynkin_orientation("A3")
    tri = mutate(path, 1)
    # b'_02 = 0 + (|1|*1 + 1*|1|)/2 = 1, incident arrows reversed
    assert tri.entries == ((0, -1, 1), (1, 0, -1), (-1, 1, 0))
    assert is_cyclically_oriented(tri, (0, 1, 2))
    assert mutate(tri, 1) == path


def test_mutate_triangle_anywhere_gives_tree():
    tri = mutate(dynkin_orientation("A3"), 1)
    for k in range(3):
        out = mutate(tri, k)
        assert chordless_cycles(out) == []
        # two edges, each in two neighbour sets
        assert sum(map(len, out.neighbours)) == 4


def test_mutate_index_error():
    B = dynkin_orientation("A3")
    with pytest.raises(IndexError):
        mutate(B, 3)
    with pytest.raises(IndexError):
        mutate(B, -1)


@st.composite
def skew_matrices(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.integers(min_value=-2, max_value=2))
            rows[i][j] = v
            rows[j][i] = -v
    return tuple(tuple(r) for r in rows)


@given(skew_matrices(), st.data())
def test_mutation_is_an_involution(entries, data):
    B = ExchangeMatrix(entries)
    k = data.draw(st.integers(min_value=0, max_value=B.n - 1))
    again = mutate(mutate(B, k), k)
    assert again == B


def test_quiver_arrows_of_pendant_quiver():
    B = ExchangeMatrix.from_arrows(4, PENDANT_ARROWS)
    assert B.arrows() == [(0, 1), (1, 2), (2, 3), (3, 1)]
    flipped = ExchangeMatrix.from_rows([[-v for v in row] for row in B.entries])
    assert sorted((t, s) for s, t in B.arrows()) == flipped.arrows()


def induced_cycle_oracle(B):
    # brute force: a vertex subset is a chordless cycle iff its induced
    # underlying graph is connected with every degree exactly 2
    n = B.n
    adj = {
        (x, y)
        for x in range(n)
        for y in range(n)
        if x != y and B.entries[x][y] != 0
    }
    found = []
    for size in range(3, n + 1):
        for sub in itertools.combinations(range(n), size):
            degs = {v: sum(1 for w in sub if (v, w) in adj) for v in sub}
            if any(d != 2 for d in degs.values()):
                continue
            # walk around to confirm a single cycle and recover the rotation
            start = sub[0]
            walk = [start]
            prev = None
            while True:
                nbrs = [w for w in sub if (walk[-1], w) in adj and w != prev]
                nxt = min(nbrs)
                if nxt == start:
                    break
                prev = walk[-1]
                walk.append(nxt)
            if len(walk) == size:
                found.append(tuple(walk))
    return sorted(found, key=lambda c: (len(c), c))


def test_chordless_cycles():
    assert chordless_cycles(dynkin_orientation("A5")) == []
    assert chordless_cycles(dynkin_orientation("D5")) == []
    pendant = ExchangeMatrix.from_arrows(4, PENDANT_ARROWS)
    assert chordless_cycles(pendant) == [(1, 2, 3)]
    assert chordless_cycles(SQUARE) == [(0, 1, 2, 3)]


def test_chordless_cycles_match_subset_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(3, 7)
        arrows = []
        for x in range(n):
            for y in range(x + 1, n):
                r = rng.random()
                if r < 0.35:
                    arrows.append((x, y))
                elif r < 0.7:
                    arrows.append((y, x))
        B = ExchangeMatrix.from_arrows(n, arrows)
        assert chordless_cycles(B) == induced_cycle_oracle(B)


def test_recognition_stops_at_the_first_cycle_not_cyclically_oriented(monkeypatch):
    B = grid_quiver(7)
    checked = []
    walked = []
    original_check = quiver.is_cyclically_oriented
    original_walk = quiver._block_paths

    def counting_check(B, cycle):
        checked.append(cycle)
        return original_check(B, cycle)

    def counting_walk(*args):
        for path in original_walk(*args):
            walked.append(path)
            yield path

    monkeypatch.setattr(quiver, "is_cyclically_oriented", counting_check)
    monkeypatch.setattr(quiver, "_block_paths", counting_walk)
    assert recognize(B) == (CYCLE_NOT_ORIENTED, None)
    assert checked == [(0, 1, 8, 7)]
    # the walk is abandoned at that cycle; listing all 65,772 cycles of the
    # grid walks every induced path from every vertex
    assert len(walked) < B.n
    with pytest.raises(ValueError, match=CYCLE_NOT_ORIENTED):
        chordless_cycles(B, oriented=True)


def test_oriented_cycles_are_the_sorted_cycles_when_all_pass():
    rng = random.Random(13)
    for label in ("A6", "D7", "E8"):
        B = dynkin_orientation(label)
        for _ in range(30):
            B = mutate(B, rng.randrange(B.n))
            assert chordless_cycles(B, oriented=True) == chordless_cycles(B)
    with pytest.raises(ValueError, match=CYCLE_NOT_ORIENTED):
        chordless_cycles(SQUARE, oriented=True)


def test_is_cyclically_oriented():
    pendant = ExchangeMatrix.from_arrows(4, PENDANT_ARROWS)
    assert is_cyclically_oriented(pendant, (1, 2, 3))
    assert not is_cyclically_oriented(SQUARE, (0, 1, 2, 3))
    assert is_cyclically_oriented(mutate(dynkin_orientation("A3"), 1), (0, 1, 2))
    with pytest.raises(ValueError, match="not present"):
        is_cyclically_oriented(pendant, (0, 2, 3))
    # the first missing edge is named, the closing one checked last
    with pytest.raises(ValueError, match=r"^cycle edge \(0,2\) not present$"):
        is_cyclically_oriented(pendant, (0, 2, 1))
    with pytest.raises(ValueError, match=r"^cycle edge \(2,0\) not present$"):
        is_cyclically_oriented(pendant, (0, 1, 2))


def test_cycle_edges_close_the_cycle_last():
    assert cycle_edges((4, 7, 1)) == [(4, 7), (7, 1), (1, 4)]
    assert cycle_edges([(0, 1), (1, 2)]) == [((0, 1), (1, 2)), ((1, 2), (0, 1))]


def test_cartan_counterpart():
    assert cartan_counterpart(dynkin_orientation("A3")) == cartan_matrix(DynkinType("A", 3))
    assert cartan_counterpart(ExchangeMatrix.from_rows([[0, 0], [0, 0]])) == (
        (2, 0),
        (0, 2),
    )
    pendant = ExchangeMatrix.from_arrows(4, PENDANT_ARROWS)
    counter = cartan_counterpart(pendant)
    for x in range(4):
        for y in range(4):
            if x != y:
                assert counter[x][y] == -abs(pendant.entries[x][y])


def test_cycle_sign_condition():
    tree = dynkin_orientation("D4")
    assert satisfies_cycle_sign_condition(cartan_counterpart(tree), tree)
    tri = mutate(dynkin_orientation("A3"), 1)
    all_minus = cartan_counterpart(tri)
    assert not satisfies_cycle_sign_condition(all_minus, tri)
    one_plus = simultaneous_sign_change(all_minus, {0})
    # flipping row/column 0 makes the two cycle edges at 0 positive: even, still bad
    assert not satisfies_cycle_sign_condition(one_plus, tri)
    # not a companion: |a_02| = 0 where the triangle has an edge
    assert not satisfies_cycle_sign_condition(((2, 1, 0), (1, 2, -1), (0, -1, 2)), tri)
    hand = ((2, 1, -1), (1, 2, -1), (-1, -1, 2))
    assert satisfies_cycle_sign_condition(hand, tri)


def test_canonical_companion_on_tree_is_counterpart():
    for label in ("A4", "D5", "E6"):
        B = dynkin_orientation(label)
        assert canonical_companion(B) == cartan_counterpart(B)


def test_canonical_companion_on_cycles():
    tri = mutate(dynkin_orientation("A3"), 1)
    A = canonical_companion(tri)
    assert satisfies_cycle_sign_condition(A, tri)
    positives = sum(
        1 for x in range(3) for y in range(x + 1, 3) if A[x][y] > 0
    )
    assert positives % 2 == 1
    with pytest.raises(ValueError, match=CYCLE_NOT_ORIENTED):
        canonical_companion(SQUARE)


def canonical_companion_by_sorted_cycles(B):
    """Reference: list and sort every chordless cycle, then check each in order."""
    cycles = chordless_cycles(B)
    for cycle in cycles:
        if not is_cyclically_oriented(B, cycle):
            raise ValueError(f"{CYCLE_NOT_ORIENTED}: {cycle}")
    return _signed_companion(B, cycles)


def test_canonical_companion_stops_at_the_first_cycle_not_cyclically_oriented():
    B = grid_quiver(7)
    start = time.perf_counter()
    with pytest.raises(ValueError, match=CYCLE_NOT_ORIENTED) as info:
        canonical_companion(B)
    assert time.perf_counter() - start < 1.0
    assert_names_a_bad_cycle(B, info.value)


def test_canonical_companion_matches_the_sorted_cycle_reference():
    rng = random.Random(13)
    for label in ("A6", "D7", "E8"):
        B = dynkin_orientation(label)
        for _ in range(30):
            B = mutate(B, rng.randrange(B.n))
            assert canonical_companion(B) == canonical_companion_by_sorted_cycles(B)
    with pytest.raises(ValueError, match=f"{CYCLE_NOT_ORIENTED}: \\(0, 1, 2, 3\\)"):
        canonical_companion(SQUARE)


def test_canonical_companion_of_pendant_matches_known_gram(pendant_quiver, pendant_basis):
    A = canonical_companion(pendant_quiver)
    assert is_positive_quasi_cartan(A)
    gram = pendant_basis.gram()
    sign_classes = [
        simultaneous_sign_change(A, flips)
        for r in range(5)
        for flips in itertools.combinations(range(4), r)
    ]
    assert gram in sign_classes


def positive_definite_oracle(A):
    # rational LDL^T: symmetric positive definite iff all pivots positive
    n = len(A)
    m = [[Fraction(x) for x in row] for row in A]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            factor = m[i][k] / m[k][k]
            for j in range(k, n):
                m[i][j] -= factor * m[k][j]
    return True


def test_is_positive_quasi_cartan():
    a3 = cartan_matrix(DynkinType("A", 3))
    assert is_positive_quasi_cartan(a3)
    all_minus = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    assert not is_positive_quasi_cartan(all_minus)
    assert is_positive_quasi_cartan(((2, 0), (0, 2)))
    with pytest.raises(ValueError):
        is_positive_quasi_cartan(((1, 0), (0, 2)))


def test_positivity_matches_ldl_oracle():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randrange(1, 6)
        A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                A[i][j] = A[j][i] = rng.choice([-1, 0, 0, 1])
        A = tuple(tuple(row) for row in A)
        assert is_positive_quasi_cartan(A) == positive_definite_oracle(A)


def test_simultaneous_sign_change():
    a2 = cartan_matrix(DynkinType("A", 2))
    assert simultaneous_sign_change(a2, set()) == a2
    assert simultaneous_sign_change(a2, {0, 1}) == a2
    flipped = simultaneous_sign_change(a2, {0})
    assert flipped == ((2, 1), (1, 2))
    assert is_positive_quasi_cartan(flipped)
    assert simultaneous_sign_change(flipped, {0}) == a2


def test_finite_type_verdicts():
    for n in range(1, 9):
        assert finite_type_failure(dynkin_orientation(f"A{n}")) is None
    assert finite_type_failure(SQUARE) == CYCLE_NOT_ORIENTED
    double = ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
    assert finite_type_failure(double) == NO_POSITIVE_COMPANION
    assert finite_type_failure(ExchangeMatrix.from_rows([[0]])) is None


def test_dynkin_type_of(pendant_quiver):
    assert dynkin_type_of(pendant_quiver) == DynkinType("A", 4)
    assert dynkin_type_of(dynkin_orientation("A3")) == DynkinType("A", 3)
    for label in ("A6", "D5", "D8", "E6", "E7", "E8"):
        assert dynkin_type_of(dynkin_orientation(label)) == DynkinType.parse(label)
    with pytest.raises(ValueError, match="not finite type"):
        dynkin_type_of(SQUARE)
    two_parts = ExchangeMatrix.from_rows([[0, 0], [0, 0]])
    with pytest.raises(ValueError, match="not connected"):
        dynkin_type_of(two_parts)


def test_type_constant_along_mutation_walks():
    rng = random.Random(3)
    for label in ("A5", "D6", "E6"):
        B = dynkin_orientation(label)
        expected = DynkinType.parse(label)
        for _ in range(60):
            B = mutate(B, rng.randrange(B.n))
            assert B.has_unit_entries()
            assert dynkin_type_of(B) == expected


def test_is_connected():
    assert is_connected(dynkin_orientation("A4"))
    assert not is_connected(ExchangeMatrix.from_rows([[0, 0], [0, 0]]))


def test_from_arrows_rejects_loops_and_out_of_range_vertices():
    for bad in [(0, 0), (0, -1), (0, 3), (0, True), (0,), (0, 1, 2), (0, 1.0), 5, "01"]:
        with pytest.raises(ValueError, match=rf"^bad arrow {re.escape(repr(bad))}$"):
            ExchangeMatrix.from_arrows(3, [(0, 1), bad])
    # opposite arrows cancel
    assert ExchangeMatrix.from_arrows(2, [[0, 1], [1, 0]]) == ExchangeMatrix.from_arrows(2, [])


def test_mutate_sequence_roundtrip():
    B = dynkin_orientation("D5")
    assert mutate_sequence(B, [2, 0, 2, 0]) == B


def test_serialization():
    B = ExchangeMatrix.from_arrows(4, PENDANT_ARROWS)
    text = dumps_exchange_matrix(B)
    assert loads_exchange_matrix(text) == B
    assert dumps_exchange_matrix(loads_exchange_matrix(text)) == text
    via_arrows = loads_exchange_matrix('{"n": 2, "arrows": [[0, 1]]}')
    assert via_arrows.arrows() == [(0, 1)]
    for bad in [
        "[]",
        '{"n": 2}',
        '{"n": 2, "b": [[0, 1]]}',
        '{"n": 2, "b": [[0, 1], [1, 0]]}',
        '{"n": 1, "arrows": [[0, 1]]}',
        '{"n": 3, "arrows": [[0, 0]]}',
    ]:
        with pytest.raises(ValueError):
            loads_exchange_matrix(bad)


@pytest.mark.parametrize("n", [MAX_RANK + 1, 10**12])
@pytest.mark.parametrize("field", ['"b": []', '"arrows": []'])
def test_a_quiver_above_the_cap_is_rejected_on_reading(n, field):
    with pytest.raises(ValueError, match=rf"^'n' is {n}, above the cap of {MAX_RANK} vertices$"):
        loads_exchange_matrix(f'{{"n": {n}, {field}}}')


@pytest.mark.parametrize("rank", [MAX_RANK + 1, 10**12])
def test_a_dynkin_rank_above_the_cap_is_rejected_on_parsing(rank):
    with pytest.raises(ValueError, match=rf"^rank {rank} is above the cap of {MAX_RANK}$"):
        DynkinType.parse(f"A{rank}")
    # the constructor does not check the cap
    assert DynkinType("D", rank).rank == rank


def test_empty_quiver_is_rejected_on_reading():
    with pytest.raises(ValueError, match="positive integer"):
        loads_exchange_matrix('{"n": 0, "b": []}')
    with pytest.raises(ValueError, match="positive integer"):
        loads_exchange_matrix('{"n": 0, "arrows": []}')


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 2, "b": [[0, 1], [-1, 0]], "arrows": [[1, 0]]}',
        '{"n": 2, "b": [[0, 1], [-1, 0]], "arrows": [[0, 1]]}',
        '{"n": 2, "b": "neither read", "arrows": 5}',
    ],
)
def test_a_quiver_with_both_b_and_arrows_is_rejected_on_reading(text):
    with pytest.raises(ValueError, match=r"^expected a 'b' matrix or an 'arrows' list, not both$"):
        loads_exchange_matrix(text)


def test_the_vertex_count_is_checked_before_the_two_fields():
    with pytest.raises(ValueError, match="positive integer"):
        loads_exchange_matrix('{"n": 0, "b": [], "arrows": []}')
    with pytest.raises(ValueError, match="above the cap"):
        loads_exchange_matrix(f'{{"n": {MAX_RANK + 1}, "b": [], "arrows": []}}')


def test_dynkin_type_and_companion(pendant_quiver):
    for B in (pendant_quiver, dynkin_orientation("E7"), mutate(dynkin_orientation("D6"), 2)):
        assert dynkin_type_and_companion(B) == (dynkin_type_of(B), canonical_companion(B))
    with pytest.raises(ValueError, match="not connected"):
        dynkin_type_and_companion(ExchangeMatrix.from_arrows(3, [(0, 1)]))
    with pytest.raises(ValueError, match="not finite type"):
        dynkin_type_and_companion(ExchangeMatrix.from_rows([[0, 2], [-2, 0]]))
    # connectivity is checked first; recognize still reports the failing condition
    two_parts = ExchangeMatrix.from_rows([[0, 2, 0], [-2, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError, match="not connected"):
        dynkin_type_and_companion(two_parts)
    assert recognize(two_parts) == (NO_POSITIVE_COMPANION, None)


def mutate_entries_dense(rows, k):
    """The n^2 mutation formula, entry by entry."""
    n = len(rows)
    return tuple(
        tuple(
            -rows[x][y]
            if k in (x, y)
            else rows[x][y]
            + (abs(rows[x][k]) * rows[k][y] + rows[x][k] * abs(rows[k][y])) // 2
            for y in range(n)
        )
        for x in range(n)
    )


@pytest.mark.parametrize(
    "start",
    [
        dynkin_orientation("A6"),
        dynkin_orientation("D8"),
        dynkin_orientation("E8"),
        SQUARE,
        ExchangeMatrix.from_rows([[0, 2], [-2, 0]]),
        ExchangeMatrix.from_arrows(3, [(0, 1), (0, 1), (1, 2), (2, 0)]),
        ExchangeMatrix.from_arrows(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        ExchangeMatrix.from_arrows(3, [(0, 1), (1, 2), (0, 2)]),
    ],
)
def test_mutate_entries_matches_dense_formula_on_walks(start):
    rng = random.Random(f"dense:{start.entries}")
    rows = start.entries
    largest = 0
    for _ in range(30):
        k = rng.randrange(len(rows))
        sparse = mutate_entries(rows, k)
        assert sparse == mutate_entries_dense(rows, k)
        assert all(type(row) is tuple for row in sparse)
        rows = sparse
        largest = max(largest, max(abs(v) for row in rows for v in row))
    if finite_type_failure(start) is not None:
        assert largest >= 2  # the walk met multiple arrows


def random_skew(n: int, rng: random.Random) -> tuple[tuple[int, ...], ...]:
    rows = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(x + 1, n):
            rows[x][y] = rng.randint(-3, 3)
            rows[y][x] = -rows[x][y]
    return tuple(map(tuple, rows))


def test_mutate_entries_equals_the_dense_formula_on_random_skew_matrices():
    rng = random.Random("mutate-entries")
    for n in range(1, 13):
        for _ in range(12):
            rows = random_skew(n, rng)
            for k in range(n):
                new = mutate_entries(rows, k)
                assert new == mutate_entries_dense(rows, k), (rows, k)
                assert type(new) is tuple and all(type(row) is tuple for row in new)
                # a row off k's neighbourhood is returned as the same object
                for x in range(n):
                    if x != k and rows[k][x] == 0:
                        assert new[x] is rows[x]


def assert_mutation_passes_the_checked_constructor(B):
    for k in range(B.n):
        trusted = mutate(B, k)
        checked = ExchangeMatrix(trusted.entries)
        assert trusted == checked and hash(trusted) == hash(checked)
        assert trusted.neighbours == checked.neighbours
        assert all(type(row) is tuple for row in trusted.entries)


@pytest.mark.parametrize("label", ["A1", "A8", "D8", "E6", "E7", "E8"])
def test_mutate_agrees_with_the_checked_constructor_on_walks(label):
    rng = random.Random(f"trusted:{label}")
    B = dynkin_orientation(label)
    for _ in range(40):
        assert_mutation_passes_the_checked_constructor(B)
        B = mutate(B, rng.randrange(B.n))


def test_mutate_agrees_with_the_checked_constructor_on_random_skew_matrices():
    rng = random.Random("trusted:skew")
    infinite = 0
    for _ in range(200):
        n = rng.randint(1, 8)
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rng.randint(-3, 3)
                rows[j][i] = -rows[i][j]
        B = ExchangeMatrix.from_rows(rows)
        infinite += finite_type_failure(B) is not None
        for _ in range(3):
            assert_mutation_passes_the_checked_constructor(B)
            B = mutate(B, rng.randrange(n))
    assert infinite > 100


def leading_minors_oracle(A):
    """det A when every leading principal minor is positive, else 0."""
    minors = [det_bareiss(tuple(row[:k] for row in A[:k])) for k in range(1, len(A) + 1)]
    return minors[-1] if all(m > 0 for m in minors) else 0


@st.composite
def symmetric_diagonal_two(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    weights = draw(st.sampled_from([[0] * 6 + [-1, 1], [0, 0, -1, 1], [-2, -1, 0, 1, 2]]))
    A = [[2] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            A[i][j] = A[j][i] = draw(st.sampled_from(weights))
    return tuple(tuple(row) for row in A)


@st.composite
def positive_companions(draw):
    label = draw(st.sampled_from(["A3", "A7", "A10", "D4", "D7", "D10", "E6", "E7", "E8"]))
    B = dynkin_orientation(label)
    for k in draw(st.lists(st.integers(min_value=0, max_value=B.n - 1), max_size=12)):
        B = mutate(B, k)
    flips = draw(st.sets(st.integers(min_value=0, max_value=B.n - 1)))
    return simultaneous_sign_change(canonical_companion(B), flips)


@settings(max_examples=300, deadline=None)
@given(st.one_of(symmetric_diagonal_two(), positive_companions()))
def test_positivity_in_one_elimination_matches_per_minor_determinants(A):
    expected = leading_minors_oracle(A)
    assert positive_definite_det(A) == expected
    assert is_positive_quasi_cartan(A) == (expected > 0)


def test_positivity_oracle_cases_cover_both_verdicts():
    rng = random.Random(11)
    verdicts = set()
    for n in range(1, 11):
        for trial in range(20):
            density = 0.05 if trial % 2 else 0.4
            A = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < density:
                        A[i][j] = A[j][i] = rng.choice([-1, 1])
            A = tuple(tuple(row) for row in A)
            expected = leading_minors_oracle(A)
            verdicts.add((n, expected > 0))
            assert positive_definite_det(A) == expected
    assert {(10, True), (10, False)} <= verdicts


def test_recognize_agrees_with_the_separate_functions(pendant_quiver):
    cases = [pendant_quiver, SQUARE, ExchangeMatrix.from_rows([[0, 2], [-2, 0]])]
    cases += [ExchangeMatrix.from_arrows(3, [(0, 1)]), ExchangeMatrix.from_rows([[0]])]
    rng = random.Random(7)
    for label in ("A5", "D6", "E8"):
        B = dynkin_orientation(label)
        for _ in range(10):
            B = mutate(B, rng.randrange(B.n))
            cases.append(B)
    for B in cases:
        failure = finite_type_failure(B)
        dynkin = dynkin_type_of(B) if failure is None and is_connected(B) else None
        assert recognize(B) == (failure, dynkin)


def test_inconsistent_cycle_signs_name_the_cycle_at_fault():
    # the wheel with hub 4 and rim 0-1-2-3: the rim's parity equation is the
    # sum of the four triangles' equations, with the opposite right-hand side
    B = ExchangeMatrix.from_arrows(
        5, [(0, 1), (1, 2), (2, 3), (3, 0), (4, 0), (4, 1), (4, 2), (4, 3)]
    )
    cycles = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4), (0, 1, 2, 3)]
    with pytest.raises(ValueError, match=r"cycle \(0, 1, 2, 3\)$") as info:
        _signed_companion(B, cycles)
    assert isinstance(info.value.__cause__, InconsistentSystemError)
    assert info.value.__cause__.index == 4
