from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from companion_bases.intlinalg import (
    InconsistentSystemError,
    det_bareiss,
    gf2_solve,
    inverse_unimodular,
    mat_vec,
    solve_fractions,
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


def test_inverse_unimodular():
    m = ((1, 1), (0, 1))
    inv = inverse_unimodular(m)
    assert inv == ((1, -1), (0, 1))
    assert mat_vec(inv, mat_vec(m, (5, -3))) == (5, -3)
    with pytest.raises(ValueError, match="unimodular"):
        inverse_unimodular(((2, 0), (0, 1)))


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
    inv = inverse_unimodular(m)
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
        inverse_unimodular(rows)


def test_inverse_unimodular_edge_cases():
    assert inverse_unimodular(()) == ()
    assert inverse_unimodular(((-1,),)) == ((-1,),)
    assert inverse_unimodular(((0, 1), (1, 0))) == ((0, 1), (1, 0))
    with pytest.raises(ValueError, match="not square"):
        inverse_unimodular(((1, 0),))


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
