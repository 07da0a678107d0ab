"""Exact integer linear algebra: determinants, solving, GF(2) systems.

Everything here works on plain Python integers, so results are exact at any
size; there is no overflow path.
"""

from __future__ import annotations


def _bareiss_eliminate(m: list[list[int]], n: int) -> int:
    """Fraction-free forward elimination on the first n columns of m, in place.

    Rows are swapped to find nonzero pivots, and every further column of m is
    carried along.  Returns the determinant of the leading n x n block, or 0
    as soon as a pivot column has no nonzero entry left; the rows from that
    column on are then left at the scale of their last update.
    """
    sign = 1
    prev = 1
    divisors = [1] * n
    for k in range(n):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    divisors[k], divisors[i] = divisors[i], divisors[k]
                    sign = -sign
                    break
            else:
                return 0
        prev = _bareiss_step(m, k, n, prev, divisors)
    return sign * prev


def _bareiss_step(
    m: list[list[int]], k: int, n: int, prev: int, divisors: list[int]
) -> int:
    """One Bareiss step at pivot row k, a row at a time; returns the pivot.

    Row i's entries are exact once multiplied by prev / divisors[i], where
    divisors[i] is the pivot of the step that last updated it (1 before any):
    a row whose column-k entry is 0 is left as it is, since its update would
    only rescale it.  Row k is brought to scale here, so the pivot is the k-th
    leading minor (up to row swaps).  Each row below with a nonzero entry
    head in column k gets (a * pivot - head * b) // divisors[i], b the pivot
    row's entry: the same exact quotient as rescaling first and dividing by
    prev (Bareiss).
    """
    row_k = m[k]
    if divisors[k] != prev:
        d = divisors[k]
        row_k[k:] = [a * prev // d for a in row_k[k:]]
    pivot = row_k[k]
    tail = row_k[k + 1 :]
    for i in range(k + 1, n):
        row_i = m[i]
        head = row_i[k]
        if head:
            d = divisors[i]
            row_i[k + 1 :] = [
                (a * pivot - head * b) // d for a, b in zip(row_i[k + 1 :], tail)
            ]
            row_i[k] = 0
            divisors[i] = pivot
    return pivot


def det_bareiss(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    return _bareiss_eliminate([list(r) for r in rows], n)


def positive_definite_det(rows) -> int:
    """det of a symmetric integer matrix when it is positive definite, else 0.

    Sylvester's criterion in one fraction-free elimination without row
    swaps: its k-th pivot is the k-th leading principal minor, so it stops
    at the first pivot <= 0, and the last pivot is the determinant.
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    m = [list(r) for r in rows]
    prev = 1
    divisors = [1] * n
    for k in range(n):
        prev = _bareiss_step(m, k, n, prev, divisors)
        if prev <= 0:
            return 0
    return prev


def solve_fractions(rows, rhs) -> list[Fraction] | None:
    """Solve a square system exactly; None if the matrix is singular."""
    # imported here: no library code calls this, and fractions brings decimal
    from fractions import Fraction

    n = len(rows)
    if len(rhs) != n or any(len(r) != n for r in rows):
        raise ValueError("shape mismatch")
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot_row is None:
            return None
        m[col], m[pivot_row] = m[pivot_row], m[col]
        pivot = m[col][col]
        for i in range(n):
            if i == col:
                continue
            factor = m[i][col] / pivot
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], m[col])]
    return [m[i][n] / m[i][i] for i in range(n)]


def solve_unimodular(rows, rhs) -> list[int]:
    """The integer solution x of M x = c, as a list, for a matrix M with det +-1.

    The forward elimination of det_bareiss, run once on [M | c], yields the
    determinant and an equivalent triangular system; exact integer
    back-substitution then solves it.  Each step is linear in c and divides
    only exact multiples, so one column may pack many (companion.d_vector_set).
    """
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix is not square")
    m = [[*r, c] for r, c in zip(rows, rhs, strict=True)]
    det = _bareiss_eliminate(m, n)
    if det not in (1, -1):
        raise ValueError(f"matrix is not unimodular (determinant {det})")
    # back-substitute U x = c
    solution = [0] * n
    for i in reversed(range(n)):
        row_i = m[i]
        acc = row_i[n]
        for j in range(i + 1, n):
            coeff = row_i[j]
            if coeff:
                acc -= coeff * solution[j]
        q, r = divmod(acc, row_i[i])
        if r:
            raise RuntimeError("inexact back-substitution: invariant violation")
        solution[i] = q
    return solution


def mat_vec(rows, vec) -> tuple[int, ...]:
    """Integer matrix times integer vector."""
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in rows)


class InconsistentSystemError(ValueError):
    """A GF(2) system with no solution; `index` is the first equation at fault."""

    def __init__(self, index: int):
        super().__init__(f"inconsistent equation at index {index}")
        self.index = index


def gf2_solve(equations: list[tuple[int, int]], nvars: int) -> list[int]:
    """Solve a linear system over GF(2), rows given as (coefficient bitmask, rhs bit).

    Free variables are set to 0.  Raises InconsistentSystemError naming the
    index of the first equation that makes the system inconsistent.
    """
    # (mask, rhs, origin index), reduced to row echelon form
    work: list[tuple[int, int, int]] = []
    pivot_of_col: dict[int, int] = {}
    for idx, (mask, rhs) in enumerate(equations):
        for col, row_pos in pivot_of_col.items():
            if (mask >> col) & 1:
                pmask, prhs, _ = work[row_pos]
                mask ^= pmask
                rhs ^= prhs
        if mask == 0:
            if rhs:
                raise InconsistentSystemError(idx)
            continue
        col = (mask & -mask).bit_length() - 1
        pivot_of_col[col] = len(work)
        work.append((mask, rhs, idx))
    # back-substitute into a bitmask (bit j is variable j), free variables 0
    solution = 0
    for mask, rhs, _ in reversed(work):
        col = (mask & -mask).bit_length() - 1
        solution |= (rhs ^ ((mask & solution).bit_count() & 1)) << col
    return [(solution >> j) & 1 for j in range(nvars)]
