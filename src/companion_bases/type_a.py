"""Independent type-A ground truth from polygon triangulations.

Triangulations of a convex (n+3)-gon give the quivers under study in type A_n;
their gentle relations and strings supply the dimension vectors that d-vectors
are checked against.  Polygon corners are numbered 1..n+3 anticlockwise;
quiver vertices are 0-based positions in the sorted diagonal list.  Strings
and the strongness check raise ValueError on every type but A.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .companion import CompanionBasis, DVector, _require_companion_basis, d_vector_set
from .quiver import ExchangeMatrix, _vertices, chordless_cycles, cycle_edges, dynkin_type_of
from .root_system import DynkinType, Frozen, Root, _read_tuple

Diagonal = tuple[int, int]

ArrowPair = tuple[tuple[int, int], tuple[int, int]]

ENUMERATION_CAP = 9  # largest n that enumerate_triangulations accepts


def _check_n(n) -> None:
    """The polygon size rule: ValueError unless n is a plain int (no bool) >= 1."""
    if type(n) is not int or n < 1:
        raise ValueError("n must be a positive integer")


def _check_pair(d) -> Diagonal:
    """ValueError unless d is a tuple or list of two plain ints (no bool)."""
    if not isinstance(d, (tuple, list)) or len(d) != 2 or not set(map(type, d)) <= {int}:
        raise ValueError(f"diagonal {d!r} is not a pair of plain integers")
    return (d[0], d[1])


def _check_diagonal(n: int, d) -> Diagonal:
    """The diagonal rule: a pair of plain ints (_check_pair) naming a diagonal."""
    corners = n + 3
    i, j = _check_pair(d)
    if not (1 <= i < j <= corners):
        raise ValueError(f"diagonal {d} has corners outside 1..{corners}")
    if j - i < 2 or (i, j) == (1, corners):
        raise ValueError(f"{d} is a boundary edge, not a diagonal")
    return (i, j)


def diagonals_cross(d1: Diagonal, d2: Diagonal) -> bool:
    """Strict interleaving of endpoints; sharing an endpoint does not cross."""
    (a, b), (c, d) = sorted(_check_pair(d1)), sorted(_check_pair(d2))
    return a < c < b < d or c < a < d < b


class Triangulation(Frozen):
    """n pairwise non-crossing diagonals of the (n+3)-gon, stored sorted."""

    n: int
    diagonals: tuple[Diagonal, ...]
    _fields = ("n", "diagonals")

    def __init__(self, n: int, diagonals):
        _check_n(n)
        diagonals = _read_tuple(diagonals, "diagonals")
        diagonals = tuple(sorted(_check_diagonal(n, d) for d in diagonals))
        if len(set(diagonals)) != n:
            raise ValueError(f"expected {n} distinct diagonals")
        if not _non_crossing(diagonals):
            # the pairwise scan names the first crossing pair
            for i, d1 in enumerate(diagonals):
                for d2 in diagonals[i + 1 :]:
                    if diagonals_cross(d1, d2):
                        raise ValueError(f"diagonals {d1} and {d2} cross")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diagonals", diagonals)


def _non_crossing(diagonals) -> bool:
    """Whether no two diagonals (i, j), i < j, cross: as intervals, each pair
    nests or is disjoint (sharing an endpoint allowed), checked in one stack
    pass over the intervals ordered by left end, longest first."""
    open_ends: list[int] = []  # right ends of the enclosing intervals, innermost last
    for i, j in sorted(diagonals, key=lambda d: (d[0], -d[1])):
        while open_ends and open_ends[-1] <= i:
            open_ends.pop()
        if open_ends and open_ends[-1] < j:
            return False
        open_ends.append(j)
    return True


def enumerate_triangulations(n: int) -> list[Triangulation]:
    """All triangulations of the (n+3)-gon; there are Catalan(n+1) of them."""
    _check_n(n)
    if n > ENUMERATION_CAP:
        raise ValueError(f"n={n} above the enumeration cap {ENUMERATION_CAP}")
    corners = n + 3
    # split[i, j]: all triangulations of the sub-polygon on corners i..j, each
    # ending with the split interval (i, j) itself; filled by increasing length
    split: dict[Diagonal, list[tuple[Diagonal, ...]]] = {
        (i, i + 1): [()] for i in range(1, corners)
    }
    for length in range(2, corners):
        for i in range(1, corners - length + 1):
            j = i + length
            split[i, j] = [
                left + right + ((i, j),)
                for apex in range(i + 1, j)
                for left, right in product(split[i, apex], split[apex, j])
            ]
    # the outer interval (1, n+3) is a boundary edge
    return [Triangulation(n, ds[:-1]) for ds in split[1, corners]]


def catalan(m: int) -> int:
    return comb(2 * m, m) // (m + 1)


def random_triangulation(n: int, rng) -> Triangulation:
    """Uniformly random triangulation, drawn by Catalan-weighted apex choices.

    rng is a random.Random; only its choices method is called.
    """
    _check_n(n)
    split: list[Diagonal] = []
    stack = [(1, n + 3)]
    while stack:
        i, j = stack.pop()
        if j - i < 2:
            continue
        split.append((i, j))
        apexes = range(i + 1, j)
        weights = [catalan(a - i - 1) * catalan(j - a - 1) for a in apexes]
        apex = rng.choices(apexes, weights=weights)[0]
        stack += [(i, apex), (apex, j)]
    # the outer interval (1, n+3), split first, is a boundary edge
    return Triangulation(n, tuple(split[1:]))


def quiver_from_triangulation(T: Triangulation) -> ExchangeMatrix:
    """Quiver on the diagonals of T, one vertex per diagonal in sorted order.

    The diagonals at a corner p, in order of anticlockwise offset
    (q - p) mod (n+3) of their other corner q, form a fan with the boundary
    edges at its two ends, so each consecutive pair bounds one triangle; it
    gets an arrow from the smaller offset to the larger.
    """
    corners = T.n + 3
    fans: list[list[tuple[int, int]]] = [[] for _ in range(corners + 1)]
    for v, d in enumerate(T.diagonals):
        for p, q in (d, d[::-1]):
            fans[p].append(((q - p) % corners, v))
    # two diagonals share at most one corner, so each pair arises once
    arrows = []
    for fan in fans:
        fan.sort()
        arrows += [(s, t) for (_, s), (_, t) in zip(fan, fan[1:])]
    return ExchangeMatrix.from_arrows(T.n, arrows)


def relations_of(B: ExchangeMatrix) -> frozenset[ArrowPair]:
    """Forbidden consecutive arrow pairs: both steps of any oriented 3-cycle.

    Each pair is ((s1, t1), (s2, t2)) with t1 == s2.  Raises ValueError
    unless every chordless cycle is cyclically oriented (see chordless_cycles)
    and of length 3.
    """
    pairs = set()
    for cycle in chordless_cycles(B, oriented=True):
        if len(cycle) != 3:
            raise ValueError(f"chordless cycle of length {len(cycle)} found")
        if B.entries[cycle[0]][cycle[1]] < 0:
            cycle = cycle[::-1]
        # the arrows are the cycle's edges; the pairs are the arrows' edges
        pairs.update(cycle_edges(cycle_edges(cycle)))
    return frozenset(pairs)


def is_string(B: ExchangeMatrix, vertices) -> bool:
    """Whether a walk of vertices is an induced path of B: at least one vertex,
    none twice, and two joined by an arrow exactly when consecutive."""
    walk = _vertices(vertices, B.n)
    if not walk or len(set(walk)) != len(walk):
        return False
    return all(
        (B.entries[u][walk[j]] != 0) == (j == i + 1)
        for i, u in enumerate(walk)
        for j in range(i + 1, len(walk))
    )


def _require_type_a(dynkin: DynkinType) -> None:
    if dynkin.family != "A":
        raise ValueError(f"strings need type A, not {dynkin}")


def _strings(B: ExchangeMatrix, first, extend) -> list:
    """One value per string, each from its smaller end, unsorted.

    A type-A quiver comes from a triangulation (Caldero-Chapoton-Schiffler
    2006), so its graph is a tree of triangles, where the induced path
    between two vertices is their unique shortest path.  So one breadth-first
    pass from each vertex u gives every string from u: the value of the
    string to w is extend(value to w's parent, w), from first(u), and the
    strings to w >= u are kept.  Any breadth-first tree has these paths, so
    neighbours are taken in set order, unsorted (unlike breadth_first).
    Callers check that B is of type A.
    """
    adj = B.neighbours
    values = []
    for u in range(B.n):
        value = {u: first(u)}
        order = [u]
        for x in order:
            for y in adj[x]:
                if y not in value:
                    value[y] = extend(value[x], y)
                    order.append(y)
        values += [value[w] for w in order if w >= u]
    return values


def _string_paths(B: ExchangeMatrix) -> list[tuple[int, ...]]:
    """The strings' vertex sequences, each from its smaller end, unsorted."""
    return _strings(B, lambda u: (u,), lambda path, w: path + (w,))


def _string_keys(B: ExchangeMatrix) -> list[bytes]:
    """The strings' 0/1 indicators as n-byte keys (DVectorSet.keys), unsorted.

    Each is built as an int whose byte w is 1 for each vertex w, from its
    parent's, and written out little-endian.
    """
    n = B.n
    unit = [1 << (8 * w) for w in range(n)]
    masks = _strings(B, unit.__getitem__, lambda mask, w: mask | unit[w])
    return [mask.to_bytes(n, "little") for mask in masks]


def enumerate_strings(B: ExchangeMatrix) -> list[tuple[int, ...]]:
    """All strings up to reversal: one per vertex pair plus the trivial ones.

    Each is its vertex tuple, from the smaller endpoint; sorted by length then
    vertex sequence.
    """
    _require_type_a(dynkin_type_of(B))
    return sorted(_string_paths(B), key=lambda path: (len(path), path))


def _indicator(n: int, vertices) -> DVector:
    indicator = [0] * n
    for x in vertices:
        indicator[x] = 1
    return tuple(indicator)


def string_dim_vector(B: ExchangeMatrix, vertices) -> DVector:
    """Dimension vector of the module supported on a string: its 0/1 indicator."""
    walk = _vertices(vertices, B.n)
    if not is_string(B, walk):
        raise ValueError("walk is not a string of this quiver")
    return _indicator(B.n, walk)


def indecomposable_dim_vectors(B: ExchangeMatrix) -> frozenset[DVector]:
    """Dimension vectors of all indecomposables: one 0/1 vector per string."""
    _require_type_a(dynkin_type_of(B))
    return frozenset(map(tuple, _string_keys(B)))


def is_strong_companion_basis(psi: CompanionBasis, B: ExchangeMatrix) -> bool:
    """Whether the d-vectors over psi equal the string-module dimension vectors."""
    _require_companion_basis(psi, B)
    _require_type_a(psi.rs.dynkin)
    # psi's Gram matrix is a positive companion of B, so B is of psi's type
    # exactly when its chordless cycles are cyclically oriented (BGZ 2006);
    # a basis that companion_basis_for built for this very B has walked them
    if psi._recognized is not B:
        chordless_cycles(B, oriented=True)
    return _string_comparison(psi, B)[0]


def _string_comparison(psi: CompanionBasis, B: ExchangeMatrix) -> tuple[bool, int]:
    """(strong, strings walked); callers check psi and that B is of type A."""
    keys = _string_keys(B)
    return d_vector_set(psi).key_set == set(keys), len(keys)


def _snake_diagonals(n: int) -> tuple[Diagonal, ...]:
    snake = []
    for m in range(1, n + 1):
        i = (m + 1) // 2
        if m % 2 == 1:
            snake.append((i, n + 3 - i))
        else:
            snake.append((i + 1, n + 3 - i))
    return tuple(snake)


def almost_positive_root_of_diagonal(n: int, d) -> Root:
    """The almost positive root of a diagonal under the snake identification.

    The m-th snake diagonal carries the negative simple root -alpha_m; any
    other diagonal carries the positive root summing the simple roots whose
    snake diagonals it crosses.
    """
    _check_n(n)
    d = _check_diagonal(n, d)
    snake = _snake_diagonals(n)
    if d in snake:
        m = snake.index(d)
        return tuple(-1 if i == m else 0 for i in range(n))
    crossed = [m for m, s in enumerate(snake) if diagonals_cross(d, s)]
    if not crossed or crossed != list(range(crossed[0], crossed[-1] + 1)):
        # every diagonal off the snake crosses a non-empty run of consecutive ones
        raise RuntimeError(f"diagonal {d} crosses snake positions {crossed}: not one run")
    return tuple(1 if crossed[0] <= i <= crossed[-1] else 0 for i in range(n))
