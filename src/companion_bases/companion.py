"""Companion bases: validation, mutation, d-vectors, and the induced map on them.

A companion basis for a quiver assigns a root to every vertex so that the
assignment is a Z-basis of the root lattice and its Gram matrix matches the
exchange matrix entrywise in absolute value.  Mutating the basis inwardly or
outwardly at a vertex tracks matrix mutation, and the family of d-vectors
(absolute expansion coefficients of the positive roots) is an invariant of the
quiver alone.
"""

from __future__ import annotations

from collections import deque

from .intlinalg import det_bareiss, solve_unimodular
from .quiver import (
    ExchangeMatrix,
    _check_vertex,
    _matrix_data,
    _string_failure,
    _vertices,
    dump_json,
    dynkin_type_and_companion,
    dynkin_type_of,
    exchange_matrix_from_data,
    finite_type_failure,
    int_rows,
    is_connected,
    load_json,
    mutate,
    mutate_entries,
)
from .root_system import (
    DynkinType,
    Root,
    RootSystem,
    _read_tuple,
    apply_automorphism,
    breadth_first,
    build_root_system,
    diagram_automorphisms,
    graph_isomorphisms,
    lattice_inverse,
    placements,
)

DVector = tuple[int, ...]


class CompanionBasis:
    """A vertex-indexed tuple of roots, candidate Z-basis of the root lattice.

    The basis is its root handles `ids` (see RootSystem.locate), so form
    values and reflections are table lookups.  `gamma`, the coordinate
    tuples, is derived from the handles on each read, so a mutation step and
    its check never build it.  The constructor locates the vectors it is
    given; library code builds bases from handles with `_from_ids`.
    `_checked` is the ExchangeMatrix the basis last passed
    companion_basis_failure against.

    `_unimodular` records that the basis is known to be a Z-basis without a
    determinant.  It is set only by _mutate_basis, on a basis it derived by
    elementary column operations from one that had passed its check, by
    companion_basis_for, on a basis whose Gram matrix it realized as a
    positive companion of the recognised type's determinant, and by
    `_solve`, the one solve on the basis matrix behind `expand` and
    d_vector_set, which raises unless det = +-1.  `_set` resets it, so every
    constructor yields a basis that does not know it.

    `_recognized` is the ExchangeMatrix object that companion_basis_for
    recognised as of the basis's type; `_set` clears it, so a basis built any
    other way holds None.  is_strong_companion_basis(psi, B) skips its cycle
    walk only when `psi._recognized is B`.
    """

    __slots__ = ("rs", "ids", "_checked", "_unimodular", "_recognized")

    def __init__(self, rs: RootSystem, gamma):
        gamma = _read_tuple(gamma, "gamma")
        if len(gamma) != rs.rank:
            raise ValueError(f"expected {rs.rank} roots, got {len(gamma)}")
        self._set(rs, tuple(map(rs.locate, gamma)))

    @classmethod
    def _from_ids(cls, rs: RootSystem, ids: tuple[int, ...]) -> CompanionBasis:
        """The basis whose elements have the handles ids in rs; locates nothing."""
        psi = cls.__new__(cls)
        psi._set(rs, ids)
        return psi

    def _set(self, rs: RootSystem, ids: tuple[int, ...]) -> None:
        self.rs, self.ids = rs, ids
        self._checked = self._recognized = None
        self._unimodular = False

    @property
    def gamma(self) -> tuple[Root, ...]:
        """The elements' coordinate tuples, derived from `ids` on each read."""
        return tuple(map(self.rs.root, self.ids))

    def __eq__(self, other):
        return (
            isinstance(other, CompanionBasis)
            and self.rs.dynkin == other.rs.dynkin
            and self.ids == other.ids
        )

    def __hash__(self):
        return hash((self.rs.dynkin, self.ids))

    def __repr__(self):
        return f"CompanionBasis({self.rs.dynkin}, {list(self.gamma)})"

    def inverse(self):
        return lattice_inverse(self.gamma)

    def is_z_basis(self) -> bool:
        """Whether det of the basis matrix is +-1.

        True at once for a basis made by _mutate_basis or companion_basis_for,
        whose determinant follows from how it was built, and for a basis that
        expand or d_vector_set has solved over: their one solve (`_solve`)
        raises unless det = +-1.  Any other basis runs one elimination.
        """
        if self._unimodular:
            return True
        # the rows of gamma are the columns of the basis matrix; det M^T = det M
        return det_bareiss(self.gamma) in (1, -1)

    def gram(self) -> tuple[tuple[int, ...], ...]:
        """Matrix of pairwise form values; a quasi-Cartan matrix when valid."""
        form = self.rs.form
        return tuple(tuple(form(h, k) for k in self.ids) for h in self.ids)

    def _solve(self, rhs) -> list[list[int]]:
        """Rows of X in M X = (rhs as a column), M the basis matrix; the one solve.

        It raises ValueError unless det M = +-1, so it flags the basis unimodular.
        """
        rows = solve_unimodular(list(zip(*self.gamma)), [[c] for c in rhs])
        self._unimodular = True
        return rows

    def expand(self, v) -> tuple[int, ...]:
        """Coefficients over this basis of a lattice vector (read by RootSystem._vector)."""
        return tuple(x for (x,) in self._solve(self.rs._vector(v)))

    def d_vector(self, alpha) -> DVector:
        """Componentwise absolute expansion coefficients of a root; equal for -alpha."""
        return tuple(abs(c) for c in self.expand(self.rs.root(self.rs.locate(alpha))))


def companion_basis_failure(psi: CompanionBasis, B: ExchangeMatrix) -> str | None:
    """None when psi is a companion basis for B, else a diagnostic reason.

    The full check (the determinant, then every pair of vertices) runs once
    per (basis, matrix) pair: a pass is remembered on psi, and a later call
    with the same B object (by identity, not equality) returns None at once.
    Both are immutable, so the remembered pass stays exact.  Any other B is
    checked in full, and a failure is never remembered.  The determinant of a
    basis made by mutate_inward, mutate_outward or companion_basis_for, or of
    one that expand or d_vector_set has solved over, is derived, not
    recomputed (see CompanionBasis.is_z_basis); the pair scan always runs.
    The check reads only handles, never the coordinate tuples `gamma`.
    """
    if psi._checked is B:
        return None
    n = B.n
    if len(psi.ids) != n:
        return f"size mismatch: {len(psi.ids)} roots for {n} vertices"
    if not psi.is_z_basis():
        return "not a Z-basis of the root lattice"
    # a root and its negative share a form row up to sign, and only absolute
    # values are compared
    positive = [h if h >= 0 else ~h for h in psi.ids]
    form_row = psi.rs.form_row
    for x in range(n):
        row = form_row(positive[x])
        b_x = B.entries[x]
        for y in range(x + 1, n):
            if abs(row[positive[y]]) != abs(b_x[y]):
                return f"form/arrow mismatch at ({x},{y})"
    psi._checked = B
    return None


def _require_companion_basis(psi: CompanionBasis, B: ExchangeMatrix) -> None:
    """The one basis precondition: ValueError unless psi is a companion basis for B."""
    failure = companion_basis_failure(psi, B)
    if failure is not None:
        raise ValueError(f"invalid companion basis: {failure}")


def initial_companion_basis(B: ExchangeMatrix) -> CompanionBasis:
    """Simple roots placed on a quiver that orients a Dynkin diagram.

    The vertex -> simple-root indexing is the first isomorphism found under a
    deterministic vertex order; any choice yields the same d-vector data.
    """
    n = B.n
    if not B.has_unit_entries():
        raise ValueError("entries outside {0,+-1}")
    # a tree has n - 1 edges, each in two neighbour sets
    if sum(map(len, B.neighbours)) != 2 * (n - 1) or not is_connected(B):
        raise ValueError("underlying graph is not a tree")
    try:
        dynkin = dynkin_type_of(B)
    except ValueError:
        raise ValueError("underlying tree is not a Dynkin diagram") from None
    image = next(graph_isomorphisms(B.neighbours, dynkin.adjacency()), None)
    if image is None:
        # recognition typed this very tree, so it is the Dynkin diagram
        raise RuntimeError("quiver is not an orientation of the Dynkin diagram it was typed as")
    rs = build_root_system(dynkin)
    return CompanionBasis._from_ids(rs, tuple(rs.simple_first[i] for i in image))


def sign_change(psi: CompanionBasis, vertices) -> CompanionBasis:
    """Negate the elements at the given vertices, each in 0..n-1; an involution."""
    flip = set(_vertices(vertices, psi.rs.rank))
    return CompanionBasis._from_ids(
        psi.rs, tuple(~h if x in flip else h for x, h in enumerate(psi.ids))
    )


def transform(psi: CompanionBasis, word=(), perm=None) -> CompanionBasis:
    """Apply a diagram automorphism then a word of reflections to every element.

    Leaves the Gram matrix unchanged, so the result is a companion basis for
    the same quivers psi serves.  A perm of plain ints that is not in
    diagram_automorphisms raises ValueError.
    """
    rs, ids = psi.rs, psi.ids
    if perm is not None:
        perm = _read_tuple(perm, "perm")
        if perm not in diagram_automorphisms(rs.dynkin) or not set(map(type, perm)) <= {int}:
            raise ValueError(f"{perm} is not a diagram automorphism of {rs.dynkin}")
        ids = tuple(rs.locate(apply_automorphism(perm, g)) for g in psi.gamma)
    for letter in map(rs._vector, _read_tuple(word, "word")):
        m = rs._handle(letter)
        if m is None:
            raise ValueError(f"mirror {letter} is not a root")
        ids = tuple(rs.reflect_handle(h, m) for h in ids)
    return CompanionBasis._from_ids(rs, ids)


def mutate_inward(
    psi: CompanionBasis, B: ExchangeMatrix, k: int
) -> tuple[CompanionBasis, ExchangeMatrix]:
    """Reflect the elements at tails of arrows into k; pairs with mutate(B, k)."""
    return _mutate_basis(psi, B, k, inward=True)


def mutate_outward(
    psi: CompanionBasis, B: ExchangeMatrix, k: int
) -> tuple[CompanionBasis, ExchangeMatrix]:
    """Reflect the elements at heads of arrows out of k; pairs with mutate(B, k)."""
    return _mutate_basis(psi, B, k, inward=False)


def _mutate_basis(
    psi: CompanionBasis, B: ExchangeMatrix, k: int, inward: bool
) -> tuple[CompanionBasis, ExchangeMatrix]:
    """mutate_inward or mutate_outward: the pair (mutated psi, mutate(B, k)).

    Checks k (in mutate) before psi, then reflects in gamma_k the elements at
    the tails of arrows into k (inward) or at the heads of arrows out of k
    (outward), on their handles.

    Each reflection gamma_x - (gamma_x, gamma_k) gamma_k with x != k is an
    elementary column operation, so the result keeps psi's determinant +-1
    and is flagged unimodular.  It carries no recognised quiver (see
    CompanionBasis), so a strongness check on it walks mutate(B, k).
    """
    mutated_B = mutate(B, k)
    _require_companion_basis(psi, B)
    rs = psi.rs
    h_k = psi.ids[k]
    # entry x is positive when x is a tail (inward) or a head (outward)
    arrows = [row[k] for row in B.entries] if inward else B.entries[k]
    ids = tuple(rs.reflect_handle(h, h_k) if b > 0 else h for h, b in zip(psi.ids, arrows))
    mutated = CompanionBasis._from_ids(rs, ids)
    mutated._unimodular = True
    return mutated, mutated_B


class DVectorSet:
    """The d-vectors of all positive roots over one companion basis.

    `keys[p]` is positive root p's d-vector as bytes, which compare as tuples
    of 0..255 do; `vectors` and `by_root` are tuple views, built on each read.
    Two roots with one d-vector would break an invariant: RuntimeError.
    """

    def __init__(self, rs: RootSystem, keys):
        self.rs, self.keys = rs, tuple(keys)
        self.key_set = frozenset(self.keys)
        if len(self.key_set) != len(self.keys):
            raise RuntimeError("duplicate d-vector: invariant violation")

    @property
    def vectors(self) -> frozenset[DVector]:
        return frozenset(map(tuple, self.keys))

    @property
    def by_root(self) -> dict[Root, DVector]:
        return dict(zip(self.rs.positive_roots, map(tuple, self.keys)))

    def sorted_items(self) -> list[tuple[DVector, Root]]:
        """(d-vector, root) pairs, the d-vectors in lexicographic order."""
        return [(tuple(k), root) for k, root in sorted(zip(self.keys, self.rs.positive_roots))]

    def __len__(self):
        return len(self.key_set)

    def __eq__(self, other):
        if isinstance(other, DVectorSet):
            return self.key_set == other.key_set
        return NotImplemented

    def __hash__(self):
        return hash(self.key_set)


def d_vector_set(psi: CompanionBasis) -> DVectorSet:
    """d-vectors of every positive root; cardinality always equals their number.

    One solve M X = P (CompanionBasis._solve), M the basis matrix and P the
    packed root coordinates (RootSystem.packed_coordinates), gives each basis
    element's coefficients as one packed row, read back by RootSystem.abs_keys.
    The solve raises ValueError unless det M = +-1, and otherwise flags psi unimodular.
    """
    rs = psi.rs
    return DVectorSet(rs, rs.abs_keys(x for (x,) in psi._solve(rs.packed_coordinates)))


def root_with_support_string(psi: CompanionBasis, walk) -> Root:
    """The positive root supported exactly on a string of vertices.

    The walk is a string when the form joins its elements as quiver._string_failure
    requires.  Computed by reflecting the first element through the rest in
    order, then normalising the sign.
    """
    rs, ids = psi.rs, psi.ids
    walk = _vertices(walk, rs.rank)
    failure = _string_failure(walk, lambda u, v: rs.form(ids[u], ids[v]) != 0)
    if failure is not None:
        raise ValueError(failure)
    beta = ids[walk[0]]
    for x in walk[1:]:
        beta = rs.reflect_handle(beta, ids[x])
    return rs.root(beta if beta >= 0 else ~beta)


def find_mutation_sequence_to_tree(B: ExchangeMatrix, cap: int = 200_000) -> list[int]:
    """Shortest vertex sequence mutating B to a quiver with tree underlying graph.

    Breadth-first over the mutation class with exact-matrix dedup; the search
    stops at the first tree, but its cost still grows exponentially with rank.
    Input that is not of finite type or not connected raises ValueError
    before the search starts; exhausting the cap raises RuntimeError.
    """
    failure = finite_type_failure(B)
    if failure is not None:
        raise ValueError(f"not finite type: {failure}")
    if not is_connected(B):
        raise ValueError("matrix is not connected")
    n = B.n

    # mutation keeps the graph connected (an edge it removes joins two
    # neighbours of k), so a mutated B is a tree exactly when it has n - 1 edges
    def is_tree(entries) -> bool:
        edges = sum(1 for x in range(n) for y in range(x + 1, n) if entries[x][y])
        return edges == n - 1

    start = B.entries
    if is_tree(start):
        return []
    seen = {start}
    queue = deque([(start, ())])
    while queue:
        entries, path = queue.popleft()
        for k in range(n):
            child = mutate_entries(entries, k)
            if child in seen:
                continue
            if is_tree(child):
                return list(path) + [k]
            seen.add(child)
            queue.append((child, path + (k,)))
            if len(seen) > cap:
                raise RuntimeError("mutation search exhausted; matrix is not of finite type")
    raise RuntimeError("mutation class contains no tree")


def _gram_realization(rs: RootSystem, A) -> tuple[int, ...] | None:
    """Handles of roots gamma with (gamma_v, gamma_u) = A[v][u] for all v, u, or None.

    A must be connected.  Backtracks (`placements`) over the vertices in
    breadth-first order from vertex 0 (vertices joined by a nonzero entry are
    neighbours, taken in index order).  Vertex 0 gets the simple root e_0: the
    Weyl group is transitive on the roots of a simply-laced type, so any
    realization can be moved to one that starts there.  Every other vertex
    tries the simple roots in index order, then the other positive roots in
    stored order, then the negatives of all of these, and keeps the first whose
    form value with every root placed so far is the prescribed entry.

    Candidates are root handles, so every test is a form-table lookup: the
    candidates are the roots with the prescribed value against the breadth-first
    parent (RootSystem.with_form_value, in the order above, memoized per root and
    value), and each other placed root removes those whose table entry differs.
    """
    n = rs.rank
    order, parent = breadth_first([[u for u in range(n) if A[v][u]] for v in range(n)], 0)
    with_form_value = rs.with_form_value
    form_row = rs.form_row
    # vertex u holds signs[u] * alpha_p, p = ps[u], form row rows[u]; vertex 0 holds e_0
    ps = [rs.simple_first[0]] * n
    signs = [1] * n
    rows = [form_row(ps[0])] * n

    def placing(pos: int):
        """Place each root s * alpha_p fitting vertex order[pos] in turn, in trial order."""
        v = order[pos]
        if pos == 0:
            yield
            return
        u0 = parent[v]
        a_v = A[v]
        # candidate s * alpha_p fits placed u when row_u[p] * s * s_u == A[v][u],
        # that is row_u[p] == A[v][u] * s_u * s.  The parent's value picks the
        # candidates; the other nonzero targets reject the most of them.
        placed = [u for u in order[:pos] if u != u0]
        targets = [(rows[u], a_v[u] * signs[u]) for u in placed if a_v[u]]
        zeros = [rows[u] for u in placed if not a_v[u]]
        for s in (1, -1):
            found = with_form_value(ps[u0], a_v[u0] * signs[u0] * s)
            for row, w in targets:
                w *= s
                found = [p for p in found if row[p] == w]
            for row in zeros:
                found = [p for p in found if not row[p]]
            for p in found:
                ps[v], signs[v], rows[v] = p, s, form_row(p)
                yield

    for _ in placements(n, placing):
        return tuple(p if s > 0 else ~p for p, s in zip(ps, signs))
    return None


def companion_basis_for(B: ExchangeMatrix) -> CompanionBasis:
    """A companion basis for any connected finite-type matrix.

    Realizes the canonical positive companion A of B directly as the Gram
    matrix of n roots.  The Gram matrix of the basis matrix M is M^T C M = A,
    and |det A| = det C for the recognised type, so det M = +-1 and the roots
    are a Z-basis: the basis is flagged unimodular, and its check runs only
    the pair scan.  Standard orientations of Dynkin diagrams get exactly the
    simple roots.  Raises ValueError on input that is not connected or not of
    finite type; an invariant violation raises RuntimeError.
    """
    dynkin, A = dynkin_type_and_companion(B)
    rs = build_root_system(dynkin)
    ids = _gram_realization(rs, A)
    if ids is None:
        raise RuntimeError(f"no roots of {dynkin} realize the companion")
    psi = CompanionBasis._from_ids(rs, ids)
    # Gram = A entry for entry, and the type was chosen with det C = |det A|
    psi._unimodular = True
    psi._recognized = B
    failure = companion_basis_failure(psi, B)
    if failure is not None:
        raise RuntimeError(f"realized basis is invalid: {failure}")
    return psi


def mutation_map_inward(
    psi: CompanionBasis, B: ExchangeMatrix, k: int
) -> dict[DVector, DVector]:
    """The bijection d-vectors of B -> d-vectors of mutate(B, k).

    Sends the d-vector of each positive root over psi to its d-vector over the
    inward mutation of psi; the same map arises from every companion basis.
    """
    psi_next, _ = mutate_inward(psi, B, k)
    pairs = zip(d_vector_set(psi).keys, d_vector_set(psi_next).keys)
    return {tuple(old): tuple(new) for old, new in pairs}


def inward_update_components(
    psi: CompanionBasis, B: ExchangeMatrix, k: int, alpha
) -> tuple[int, int]:
    """The k-component of a d-vector after inward mutation, two ways.

    Returns (exact, estimate): the true new component, and the value computed
    from absolute coefficients alone.  Their difference is always even; in
    type A the two agree on realised d-vectors.  Raises IndexError unless k
    is a vertex, then ValueError unless psi is a companion basis for B and
    alpha is a root: a d-vector exists only for a root.
    """
    _check_vertex(k, B.n)
    _require_companion_basis(psi, B)
    coeffs = psi.expand(psi.rs.root(psi.rs.locate(alpha)))
    form = psi.rs.form
    h_k = psi.ids[k]
    incoming = [x for x in range(B.n) if B.entries[x][k] > 0]
    exact = abs(coeffs[k] + sum(coeffs[x] * form(psi.ids[x], h_k) for x in incoming))
    estimate = abs(-abs(coeffs[k]) + sum(abs(coeffs[x]) for x in incoming))
    return exact, estimate


def phi_in_type_a(B: ExchangeMatrix, k: int) -> dict[DVector, DVector]:
    """The closed form of mutation_map_inward(psi, B, k) in type A, as {d: d'}.

    Only the k-component of each d-vector d of B moves: it becomes
    |-d_k + sum of d_x over arrows x -> k|.  Builds one companion basis for
    B, whose type must be A.
    """
    _check_vertex(k, B.n)
    psi = companion_basis_for(B)
    if psi.rs.dynkin.family != "A":
        raise ValueError("closed form only holds in type A")
    incoming = [x for x in range(B.n) if B.entries[x][k] > 0]
    return {
        d: d[:k] + (abs(sum(d[x] for x in incoming) - d[k]),) + d[k + 1 :]
        for d in map(tuple, d_vector_set(psi).keys)
    }


def dumps_d_vector_set(dset: DVectorSet) -> str:
    """Lexicographically sorted JSON array of the d-vectors; golden-file stable."""
    return dump_json(list(map(list, sorted(dset.keys))))


def dumps_companion_basis(psi: CompanionBasis, B: ExchangeMatrix) -> str:
    return dump_json(
        {
            "type": str(psi.rs.dynkin),
            "quiver": _matrix_data(B),
            "gamma": [list(g) for g in psi.gamma],
        }
    )


def loads_companion_basis(text: str) -> tuple[CompanionBasis, ExchangeMatrix]:
    """Read {"type": "E8", "quiver": <exchange matrix>, "gamma": [[int]]}.

    Raises ValueError on anything else, including a quiver whose size is not
    the type's rank and a gamma that is not rank lists of rank integers.
    """
    data = load_json(text)
    if not isinstance(data, dict) or not {"type", "quiver", "gamma"} <= set(data):
        raise ValueError("expected an object with type, quiver and gamma fields")
    if not isinstance(data["type"], str):
        raise ValueError("'type' must be a Dynkin label such as \"E8\"")
    dynkin = DynkinType.parse(data["type"])
    B = exchange_matrix_from_data(data["quiver"])
    if B.n != dynkin.rank:
        raise ValueError(
            f"size mismatch: quiver has {B.n} vertices, {dynkin} has rank {dynkin.rank}"
        )
    gamma = int_rows(data["gamma"], dynkin.rank, dynkin.rank, "gamma")
    # int_rows has read every row as rank plain ints, as RootSystem._vector would
    rs = build_root_system(dynkin)
    ids = tuple(map(rs._handle, gamma))
    if None in ids:
        raise ValueError(f"{gamma[ids.index(None)]} is not a root")
    return CompanionBasis._from_ids(rs, ids), B
