"""Skew-symmetric exchange matrices, quiver mutation, and finite-type recognition.

A quiver on vertices 0..n-1 is encoded by its skew-symmetric matrix B with an
arrow x -> y exactly when b[x][y] > 0.  Quasi-Cartan companions are plain
symmetric integer matrices (tuples of tuples) with diagonal 2.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain
from math import prod

from .intlinalg import InconsistentSystemError, gf2_solve, positive_definite_det

# bench/test_bench.py checks that tracing wraps det_bareiss here too
from .intlinalg import det_bareiss  # noqa: F401
from .root_system import MAX_RANK, DynkinType, Frozen, _read_tuple, breadth_first, neighbour_sets

SymMatrix = tuple[tuple[int, ...], ...]

CYCLE_NOT_ORIENTED = "chordless cycle not cyclically oriented"
NO_POSITIVE_COMPANION = "no positive quasi-Cartan companion"


class ExchangeMatrix(Frozen):
    """Immutable skew-symmetric matrix of entries of type int exactly (no bools)."""

    entries: tuple[tuple[int, ...], ...]
    _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, ...], ...]):
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise ValueError("matrix is not square")
        if not set(map(type, chain.from_iterable(entries))) <= {int}:
            raise ValueError("matrix entries must be integers")
        for x in range(n):
            if entries[x][x] != 0:
                raise ValueError(f"nonzero diagonal entry at {x}")
            for y in range(x + 1, n):
                if entries[x][y] != -entries[y][x]:
                    raise ValueError(f"not skew-symmetric at ({x},{y})")
        object.__setattr__(self, "entries", entries)

    @classmethod
    def _trusted(cls, entries) -> ExchangeMatrix:
        """A matrix on rows of tuples already known to be square and skew-symmetric.

        Skips __init__'s O(n^2) check; only code that builds plain-int rows
        skew-symmetric by construction may call it: mutate and from_arrows.
        """
        B = object.__new__(cls)
        object.__setattr__(B, "entries", entries)
        return B

    @property
    def n(self) -> int:
        return len(self.entries)

    @classmethod
    def from_rows(cls, rows) -> ExchangeMatrix:
        return cls(tuple(map(tuple, rows)))

    @classmethod
    def from_arrows(cls, n: int, arrows) -> ExchangeMatrix:
        """Arrows (s, t) of distinct plain ints in 0..n-1 add up; opposite ones cancel.

        n must be a plain int >= 0 (no bool).  Every arrow is checked; the rows
        built from them are not, since each arrow adds +1 and -1 off the diagonal.
        """
        if type(n) is not int or n < 0:
            raise ValueError(f"n must be a non-negative integer, not {n!r}")
        rows = [[0] * n for _ in range(n)]
        for pair in arrows:
            if not (
                isinstance(pair, (list, tuple))
                and len(pair) == 2
                and all(type(v) is int and 0 <= v < n for v in pair)
                and pair[0] != pair[1]
            ):
                raise ValueError(f"bad arrow {pair!r}")
            s, t = pair
            rows[s][t] += 1
            rows[t][s] -= 1
        return cls._trusted(tuple(map(tuple, rows)))

    def arrows(self) -> list[tuple[int, int]]:
        """Arrow list (s, t), with multiplicity, sorted by (source, target)."""
        out = []
        for s in range(self.n):
            for t in range(self.n):
                if self.entries[s][t] > 0:
                    out.extend([(s, t)] * self.entries[s][t])
        return out

    def has_unit_entries(self) -> bool:
        return all(v in (-1, 0, 1) for row in self.entries for v in row)

    @cached_property
    def neighbours(self) -> tuple[frozenset[int], ...]:
        """Neighbour sets of the underlying graph, built on first use only."""
        n, rows = self.n, self.entries
        edges = [(x, y) for x in range(n) for y in range(x + 1, n) if rows[x][y]]
        return neighbour_sets(n, edges)


def mutate_entries(rows, k: int):
    """Rows of the mutation at k of a skew-symmetric matrix, as tuples.

    b'_xy = -b_xy when x or y is k, else b_xy + sgn(b_xk) [b_xk b_ky]_+.
    A row with b_xk = 0 is unchanged (its entry k is -0), so only row k and
    the rows of k's neighbours are rebuilt.
    """
    row_k = rows[k]
    new = []
    for x, row in enumerate(rows):
        b_xk = row[k]
        if x == k:
            new.append(tuple([-b for b in row]))
        elif b_xk == 0:
            new.append(tuple(row))
        else:
            # b_kx = -b_xk, so the diagonal entry stays 0
            if b_xk > 0:
                out = [b + b_xk * b_ky if b_ky > 0 else b for b, b_ky in zip(row, row_k)]
            else:
                out = [b - b_xk * b_ky if b_ky < 0 else b for b, b_ky in zip(row, row_k)]
            out[k] = -b_xk
            new.append(tuple(out))
    return tuple(new)


def _check_vertex(v, n: int) -> None:
    """The one vertex rule: IndexError unless v is a plain int (not a bool) in 0..n-1."""
    if type(v) is not int or not 0 <= v < n:
        raise IndexError(f"vertex {v} out of range for n={n}")


def _vertices(vertices, n: int) -> tuple[int, ...]:
    """The one reader of a vertex collection: its tuple, each vertex by _check_vertex."""
    vertices = _read_tuple(vertices, "vertices")
    for v in vertices:
        _check_vertex(v, n)
    return vertices


def mutate(B: ExchangeMatrix, k: int) -> ExchangeMatrix:
    """Matrix mutation at vertex k; an involution preserving skew-symmetry.

    k is checked; the result is not rechecked for skew-symmetry, since
    mutate_entries keeps a skew-symmetric B skew-symmetric by construction.
    """
    _check_vertex(k, B.n)
    return ExchangeMatrix._trusted(mutate_entries(B.entries, k))


def mutate_sequence(B: ExchangeMatrix, ks) -> ExchangeMatrix:
    for k in ks:
        B = mutate(B, k)
    return B


def is_connected(B: ExchangeMatrix) -> bool:
    """Whether the underlying graph is connected; the 0-vertex graph is not."""
    return B.n > 0 and len(breadth_first(B.neighbours, 0)[0]) == B.n


def induced_paths(neighbours, start: int, floor: int):
    """Every induced path from start through vertices above floor, as tuples.

    Two vertices of an induced path are adjacent exactly when consecutive.
    Depth first on an explicit stack, so no recursion limit bounds a path.
    """
    path = [start]
    on_path = {start}
    branches = [iter(neighbours[start])]
    yield (start,)
    while branches:
        last = path[-1]
        for nxt in branches[-1]:
            # the new vertex may touch the path only at its tail
            if nxt > floor and nxt not in on_path and neighbours[nxt] & on_path == {last}:
                path.append(nxt)
                on_path.add(nxt)
                branches.append(iter(neighbours[nxt]))
                yield tuple(path)
                break
        else:
            branches.pop()
            on_path.remove(path.pop())


def _string_failure(walk: tuple[int, ...], joined) -> str | None:
    """The one string rule: why walk is not a string, or None.  A string has at least
    one vertex, none twice, and joined(u, v) exactly when u and v are consecutive."""
    if len(set(walk)) != len(walk):
        return "walk revisits a vertex"
    for i, u in enumerate(walk):
        for j in range(i + 1, len(walk)):
            paired = joined(u, walk[j])
            if paired != (j == i + 1):
                state = "joined" if paired else "not joined"
                return f"walk is not a string: vertices {u},{walk[j]} {state}"
    return None if walk else "walk is empty"


def chordless_cycles(
    B: ExchangeMatrix, *, oriented: bool = False
) -> list[tuple[int, ...]]:
    """Induced cycles of the underlying graph, each in canonical rotation.

    Canonical rotation: smallest vertex first, then its smaller neighbour.
    Sorted by length, then lexicographically.

    With oriented=True each cycle is checked with is_cyclically_oriented as
    the walk finds it, and the first that is not raises ValueError naming it:
    a quiver can have exponentially many cycles, and one suffices to fail.
    """
    cycles = []
    for cycle in _cycle_walk(B):
        if oriented and not is_cyclically_oriented(B, cycle):
            raise ValueError(f"{CYCLE_NOT_ORIENTED}: {cycle}")
        cycles.append(cycle)
    return sorted(cycles, key=lambda c: (len(c), c))


def _cycle_walk(B: ExchangeMatrix):
    """Every chordless cycle of B in canonical rotation, lazily, in walk order.

    Each is an induced path from its smallest vertex v closed by a vertex w
    adjacent to v and the path's end only (w > path[1] keeps one direction).
    """
    adj = B.neighbours
    return (
        path + (w,)
        for v in range(B.n)
        for path in induced_paths(adj, v, v)
        if len(path) > 1
        for w in adj[v] & adj[path[-1]]
        if w > path[1] and adj[w].isdisjoint(path[1:-1])
    )


def cycle_edges(cycle) -> list[tuple]:
    """The consecutive pairs of a cycle, the closing pair (last, first) last."""
    return list(zip(cycle, (*cycle[1:], cycle[0])))


def is_cyclically_oriented(B: ExchangeMatrix, cycle) -> bool:
    """Whether the arrows along a chordless cycle all run one way."""
    cycle = _vertices(cycle, B.n)
    if not cycle:
        raise ValueError("cycle is empty")
    forward = 0
    for u, v in cycle_edges(cycle):
        if B.entries[u][v] == 0:
            raise ValueError(f"cycle edge ({u},{v}) not present")
        forward += B.entries[u][v] > 0
    return forward in (0, len(cycle))


def cartan_counterpart(B: ExchangeMatrix) -> SymMatrix:
    """Diagonal 2 and off-diagonal -|b_xy|: with no cycle, every sign is free, so negative."""
    return _signed_companion(B, ())


def is_quasi_cartan(A) -> bool:
    """Whether A is square and symmetric with diagonal 2, its entries plain ints (int_rows)."""
    n = len(A)
    if any(len(row) != n for row in A) or not set(map(type, chain.from_iterable(A))) <= {int}:
        return False
    return all(A[i][i] == 2 and all(A[i][j] == A[j][i] for j in range(n)) for i in range(n))


def is_companion_of(A, B: ExchangeMatrix) -> bool:
    """Whether |a_xy| matches |b_xy| off the diagonal."""
    if len(A) != B.n or not is_quasi_cartan(A):
        return False
    return all(
        abs(A[x][y]) == abs(B.entries[x][y])
        for x in range(B.n)
        for y in range(B.n)
        if x != y
    )


def satisfies_cycle_sign_condition(A, B: ExchangeMatrix) -> bool:
    """Whether every chordless cycle carries an odd number of positive entries.

    Equivalently, the product of -a_xy over the edges of each chordless cycle
    is negative; a necessary condition for A to be a positive companion.
    """
    if not is_companion_of(A, B):
        raise ValueError("A is not a quasi-Cartan companion of B")
    return all(
        prod(-A[x][y] for x, y in cycle_edges(cycle)) < 0 for cycle in _cycle_walk(B)
    )


def canonical_companion(B: ExchangeMatrix) -> SymMatrix:
    """The companion of B with odd positive sign count on every chordless cycle.

    Signs are one GF(2) variable per underlying edge, one parity equation per
    chordless cycle, solved with free variables negative.  Requires every
    chordless cycle of B to be cyclically oriented (see chordless_cycles).
    """
    return _signed_companion(B, chordless_cycles(B, oriented=True))


def _signed_companion(B: ExchangeMatrix, cycles) -> SymMatrix:
    """canonical_companion for the given cyclically oriented chordless cycles."""
    # ascending (x, y): the order numbers the GF(2) variables, so it fixes the signs
    edges = [(x, y) for x, adj in enumerate(B.neighbours) for y in sorted(adj) if y > x]
    edge_index = {e: i for i, e in enumerate(edges)}
    equations = []
    for cycle in cycles:
        mask = 0
        for x, y in cycle_edges(cycle):
            mask |= 1 << edge_index[(x, y) if x < y else (y, x)]
        equations.append((mask, 1))
    try:
        signs = gf2_solve(equations, len(edges))
    except InconsistentSystemError as exc:
        raise ValueError(
            f"no consistent sign assignment; cycle {cycles[exc.index]}"
        ) from exc
    n = B.n
    rows = [[2 if x == y else 0 for y in range(n)] for x in range(n)]
    for (x, y), i in edge_index.items():
        value = abs(B.entries[x][y]) * (1 if signs[i] else -1)
        rows[x][y] = rows[y][x] = value
    return tuple(tuple(r) for r in rows)


def is_positive_quasi_cartan(A) -> bool:
    """Positive definiteness of a symmetric quasi-Cartan matrix.

    Checked through leading principal minors, all from one exact elimination
    (see positive_definite_det).
    """
    if not is_quasi_cartan(A):
        raise ValueError("matrix is not symmetric with diagonal 2 and plain-int entries")
    return positive_definite_det(A) > 0


def simultaneous_sign_change(A, vertices) -> SymMatrix:
    """Flip the sign of rows and columns in the given vertex set at once."""
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    flip = set(_vertices(vertices, n))
    sign = [-1 if x in flip else 1 for x in range(n)]
    return tuple(
        tuple(sign[x] * sign[y] * A[x][y] for y in range(n)) for x in range(n)
    )


def _companion_or_failure(
    B: ExchangeMatrix,
) -> tuple[SymMatrix | None, int, str | None]:
    """(canonical companion A, det A, None) for finite type, else (None, 0, reason).

    Finds the chordless cycles once, stopping at the first that is not
    cyclically oriented (the reason names it after ": "), and reuses them for
    the companion; the positivity check yields det A as its last leading minor.
    """
    try:
        cycles = chordless_cycles(B, oriented=True)
    except ValueError as exc:
        return None, 0, str(exc)
    A = _signed_companion(B, cycles)
    det = positive_definite_det(A)
    if det == 0:
        return None, 0, NO_POSITIVE_COMPANION
    return A, det, None


def finite_type_failure(B: ExchangeMatrix) -> str | None:
    """None when the mutation class of B is of finite type, else the reason."""
    return recognize(B)[0]


def dynkin_type_and_companion(B: ExchangeMatrix) -> tuple[DynkinType, SymMatrix]:
    """Dynkin type and canonical companion of a connected finite-type matrix.

    The type is read off the pair (rank, |det A|) of the positive companion A,
    which is invariant under both sign changes and mutation: A_n gives n+1,
    D_n gives 4, and E6/E7/E8 give 3/2/1.  Raises ValueError on input that is
    not connected (checked first) or not of finite type, naming a bad cycle.
    """
    if not is_connected(B):
        raise ValueError("matrix is not connected")
    A, det, failure = _companion_or_failure(B)
    if failure is not None:
        raise ValueError(f"not finite type: {failure}")
    return _type_of_companion(B.n, det), A


def _type_of_companion(n: int, det: int) -> DynkinType:
    """The Dynkin type whose positive companions have rank n and determinant det."""
    if det == n + 1:
        return DynkinType("A", n)
    if n >= 4 and det == 4:
        return DynkinType("D", n)
    if n in (6, 7, 8) and det == 9 - n:
        return DynkinType("E", n)
    # BGZ 2006: a connected positive quasi-Cartan matrix is equivalent to a Cartan matrix
    raise RuntimeError(f"unrecognised determinant {det} at rank {n}: not a Dynkin determinant")


def recognize(B: ExchangeMatrix) -> tuple[str | None, DynkinType | None]:
    """(finite_type_failure(B), Dynkin type), from one pass over B.

    The type is None unless B is of finite type and connected.
    """
    _, det, failure = _companion_or_failure(B)
    if failure is not None or not is_connected(B):
        return failure and failure.partition(": ")[0], None
    return None, _type_of_companion(B.n, det)


def dynkin_type_of(B: ExchangeMatrix) -> DynkinType:
    """Dynkin type of a connected finite-type matrix; see dynkin_type_and_companion."""
    return dynkin_type_and_companion(B)[0]


def _matrix_data(B: ExchangeMatrix) -> dict:
    """The JSON object {"n": ..., "b": [[...]]} of B, as every writer emits it."""
    return {"n": B.n, "b": [list(row) for row in B.entries]}


def dumps_exchange_matrix(B: ExchangeMatrix) -> str:
    return dump_json(_matrix_data(B))


def int_rows(value, n_rows: int, n_cols: int, name: str) -> tuple[tuple[int, ...], ...]:
    """A JSON list of n_rows lists of n_cols integers, as a tuple of tuples.

    Anything else raises ValueError: other shapes, and entries that are not
    plain integers (floats, strings and booleans are never coerced).
    """
    if not isinstance(value, list) or len(value) != n_rows:
        raise ValueError(f"'{name}' must be a list of {n_rows} rows")
    message = f"'{name}' rows must be lists of {n_cols} integers"
    for row in value:
        if not isinstance(row, list) or len(row) != n_cols:
            raise ValueError(message)
    # type() is exact: a bool is not an int here
    if not set(map(type, chain.from_iterable(value))) <= {int}:
        raise ValueError(message)
    return tuple(tuple(row) for row in value)


def load_json(text: str):
    """json.loads, raising ValueError also on nesting too deep to parse."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def dump_json(value) -> str:
    """Canonical JSON text: sorted keys and no whitespace, so byte-stable."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _rank_field(data: dict) -> int:
    """data["n"] of a quiver or triangulation document: a positive int up to MAX_RANK."""
    n = data["n"]
    if type(n) is not int or n < 1:
        raise ValueError("'n' must be a positive integer")
    if n > MAX_RANK:
        raise ValueError(f"'n' is {n}, above the cap of {MAX_RANK} vertices")
    return n


def loads_exchange_matrix(text: str) -> ExchangeMatrix:
    """Read {"n": int, "b": [[int]]} or {"n": int, "arrows": [[s,t]]}, not both."""
    return exchange_matrix_from_data(load_json(text))


def exchange_matrix_from_data(data) -> ExchangeMatrix:
    """The exchange matrix of a parsed JSON value; see loads_exchange_matrix."""
    if not isinstance(data, dict) or "n" not in data:
        raise ValueError("expected an object with an 'n' field")
    n = _rank_field(data)
    if "b" in data and "arrows" in data:
        raise ValueError("expected a 'b' matrix or an 'arrows' list, not both")
    if "b" in data:
        return ExchangeMatrix(int_rows(data["b"], n, n, "b"))
    if "arrows" in data:
        if not isinstance(data["arrows"], list):
            raise ValueError("'arrows' must be a list")
        return ExchangeMatrix.from_arrows(n, data["arrows"])
    raise ValueError("expected a 'b' matrix or an 'arrows' list")
