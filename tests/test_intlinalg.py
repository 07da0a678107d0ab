import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from companion_bases.intlinalg import (
    InconsistentSystemError,
    _bareiss_eliminate,
    det_bareiss,
    gf2_solve,
    mat_vec,
    positive_definite_det,
    solve_fractions,
    solve_unimodular,
)


def det_fraction_oracle(rows):
    # plain Gaussian elimination over the rationals
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, n):
            factor = m[i][col] / m[col][col]
            m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    assert det.denominator == 1
    return int(det)


small_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=n, max_size=n),
        min_size=n,
        max_size=n,
    )
)


@given(small_matrices)
def test_det_matches_fraction_elimination(rows):
    assert det_bareiss(rows) == det_fraction_oracle(rows)


def test_det_edge_cases():
    assert det_bareiss([]) == 1
    assert det_bareiss([[7]]) == 7
    assert det_bareiss([[1, 2], [2, 4]]) == 0
    with pytest.raises(ValueError):
        det_bareiss([[1, 2]])


def bareiss_eliminate_by_entry(m, n):
    """Reference: the per-entry form of _bareiss_eliminate, one entry per step."""
    width = len(m[0]) if m else 0
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        row_k = m[k]
        for i in range(k + 1, n):
            row_i = m[i]
            head = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1] if n else 1


def random_square(rng, n, density, bound=4):
    return [
        [rng.randint(-bound, bound) if rng.random() < density else 0 for _ in range(n)]
        for _ in range(n)
    ]


def elimination_cases(seed, count):
    """(label, matrix, n) triples: the square matrix, then it beside I or a random block."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 9)
        rows = random_square(rng, n, rng.choice([0.3, 0.6, 1.0]), rng.choice([1, 4, 30]))
        kind = rng.choice(["plain", "zero leading", "singular"])
        if kind == "zero leading":
            for k in rng.sample(range(n), rng.randint(1, n)):
                rows[k][k] = 0
            rows[0][0] = 0
        elif kind == "singular" and n > 1:
            a, b = rng.sample(range(n), 2)
            c = rng.randint(-3, 3)
            rows[b] = [c * x for x in rows[a]]
        yield kind, rows, n
        identity = [[int(i == j) for j in range(n)] for i in range(n)]
        yield kind, [r + e for r, e in zip(rows, identity)], n
        yield kind, [r + e for r, e in zip(rows, random_square(rng, n, 0.7))], n


def assert_nonzero_multiple(row, reference):
    nonzero = [j for j, x in enumerate(reference) if x]
    if not nonzero:
        assert not any(row)
        return
    c = nonzero[0]
    assert row[c] != 0
    assert all(x * reference[c] == y * row[c] for x, y in zip(row, reference))


def test_row_elimination_matches_the_per_entry_reference():
    kinds = set()
    swaps = singular = 0
    for kind, rows, n in elimination_cases("row-bareiss", 400):
        expected = [list(r) for r in rows]
        got = [list(r) for r in rows]
        det = bareiss_eliminate_by_entry(expected, n)
        assert _bareiss_eliminate(got, n) == det
        if det:
            assert got == expected
        else:
            # both stop at the first pivot column k with no nonzero entry
            # left: the pivot rows agree, and each later row is left at the
            # scale of its last update, a nonzero multiple of the reference
            k = next(i for i in range(n) if expected[i][i] == 0)
            assert got[:k] == expected[:k]
            for g, e in zip(got[k:], expected[k:]):
                assert_nonzero_multiple(g, e)
        kinds.add((kind, len(rows[0]) // n))
        swaps += rows[0][0] == 0 and det != 0
        singular += det == 0
    assert kinds == {(k, w) for k in ("plain", "zero leading", "singular") for w in (1, 2)}
    assert swaps > 50 and singular > 50


def det_by_leading_minors(rows):
    """det when every leading principal minor is positive, else 0.

    The minors come from det_bareiss, each checked against rational
    elimination, so an error in the shared row update cannot cancel out.
    """
    n = len(rows)
    minors = [det_bareiss([row[:k] for row in rows[:k]]) for k in range(1, n + 1)]
    assert minors == [det_fraction_oracle([row[:k] for row in rows[:k]]) for k in range(1, n + 1)]
    return minors[-1] if all(m > 0 for m in minors) else 0


def test_positive_definite_det_matches_leading_minors():
    rng = random.Random("definite-det")
    definite = indefinite = 0
    for _ in range(300):
        n = rng.randint(1, 8)
        m = random_square(rng, n, 0.6, rng.choice([1, 3]))
        kind = rng.randrange(3)
        if kind == 0:
            # M^T M + I is positive definite
            rows = [
                [sum(a * b for a, b in zip(ci, cj)) + (i == j) for j, cj in enumerate(zip(*m))]
                for i, ci in enumerate(zip(*m))
            ]
        else:
            rows = [[m[i][j] + m[j][i] for j in range(n)] for i in range(n)]
            for i in range(n):
                # sparse and diagonally dominant, so definite; or a small diagonal
                dominant = sum(abs(x) for j, x in enumerate(rows[i]) if j != i) + 1
                rows[i][i] = dominant if kind == 1 else rng.randint(-1, 3)
        expected = det_by_leading_minors(rows)
        assert positive_definite_det(rows) == expected
        definite += expected > 0
        indefinite += expected == 0
    assert definite > 100 and indefinite > 50


def test_positive_definite_det_refuses_a_matrix_that_is_not_square():
    for rows in ([[2, 1]], [[2, 1], [1]]):
        with pytest.raises(ValueError, match="^matrix is not square$"):
            positive_definite_det(rows)


def eye(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_inverse_unimodular():
    # the inverse of a matrix with det +-1 is its solve on the identity
    m = ((1, 1), (0, 1))
    inv = solve_unimodular(m, eye(2))
    assert inv == [[1, -1], [0, 1]]
    assert mat_vec(inv, mat_vec(m, (5, -3))) == (5, -3)
    with pytest.raises(ValueError, match="unimodular"):
        solve_unimodular(((2, 0), (0, 1)), eye(2))


def inverse_fraction_oracle(rows):
    # one Fraction solve per column of the identity
    n = len(rows)
    cols = [solve_fractions(rows, [int(i == j) for i in range(n)]) for j in range(n)]
    assert all(x.denominator == 1 for col in cols for x in col)
    return tuple(tuple(int(cols[j][i]) for j in range(n)) for i in range(n))


# (kind, i, j, c): add c times row j to row i, swap rows i and j, or negate row i
row_operations = st.tuples(
    st.sampled_from(["add", "swap", "negate"]),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=0, max_value=11),
    st.integers(min_value=-3, max_value=3),
)

unimodular_matrices = st.integers(min_value=1, max_value=12).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(row_operations, max_size=3 * n))
)


def apply_row_operations(n, operations):
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for kind, i, j, c in operations:
        i, j = i % n, j % n
        if kind == "negate":
            m[i] = [-a for a in m[i]]
        elif i == j:
            continue
        elif kind == "swap":
            m[i], m[j] = m[j], m[i]
        else:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return tuple(tuple(row) for row in m)


@settings(max_examples=150, deadline=None)
@given(unimodular_matrices)
def test_inverse_unimodular_on_elementary_products(case):
    n, operations = case
    m = apply_row_operations(n, operations)
    inv = tuple(map(tuple, solve_unimodular(m, eye(n))))
    identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    product = tuple(
        tuple(sum(m[i][k] * inv[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    assert product == identity
    assert inv == inverse_fraction_oracle(m)


@pytest.mark.parametrize(
    "rows,det",
    [
        (((0, 0), (0, 0)), 0),
        (((1, 2), (2, 4)), 0),
        (((0, 1, 0), (0, 2, 0), (1, 0, 0)), 0),
        (((1, 0, 0), (0, 0, 1), (0, 0, 1)), 0),
        (((2, 0), (0, 1)), 2),
        (((0, 1), (2, 0)), -2),
        (((1, 1, 0), (1, -1, 0), (0, 0, 1)), -2),
    ],
)
def test_inverse_unimodular_rejects_other_determinants(rows, det):
    assert det_bareiss(rows) == det
    with pytest.raises(ValueError, match=f"unimodular \\(determinant {det}\\)"):
        solve_unimodular(rows, eye(len(rows)))


def test_inverse_unimodular_edge_cases():
    assert solve_unimodular((), eye(0)) == []
    assert solve_unimodular(((-1,),), eye(1)) == [[-1]]
    assert solve_unimodular(((0, 1), (1, 0)), eye(2)) == [[0, 1], [1, 0]]
    with pytest.raises(ValueError, match="not square"):
        solve_unimodular(((1, 0),), eye(1))


@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda nv: st.tuples(
            st.just(nv),
            st.lists(
                st.tuples(
                    st.integers(min_value=0, max_value=2**6 - 1),
                    st.integers(min_value=0, max_value=1),
                ),
                max_size=8,
            ),
        )
    )
)
def test_gf2_solutions_satisfy_their_equations(case):
    nvars, equations = case
    equations = [(mask % (1 << nvars), rhs) for mask, rhs in equations]
    try:
        solution = gf2_solve(equations, nvars)
    except ValueError:
        return  # inconsistent systems are allowed to fail
    for mask, rhs in equations:
        acc = 0
        for j in range(nvars):
            if (mask >> j) & 1:
                acc ^= solution[j]
        assert acc == rhs


def test_gf2_reports_inconsistent_row():
    with pytest.raises(ValueError, match="index 2"):
        gf2_solve([(0b01, 0), (0b10, 1), (0b11, 0)], 2)
    assert gf2_solve([(0b11, 1)], 2) == [1, 0]


def test_gf2_inconsistency_is_typed_and_carries_its_index():
    with pytest.raises(InconsistentSystemError) as info:
        gf2_solve([(0b01, 0), (0b10, 1), (0b11, 0)], 2)
    assert info.value.index == 2
    assert str(info.value) == "inconsistent equation at index 2"
    assert isinstance(info.value, ValueError)
    with pytest.raises(InconsistentSystemError) as info:
        gf2_solve([(0, 1)], 1)
    assert info.value.index == 0
    assert str(info.value) == "inconsistent equation at index 0"
