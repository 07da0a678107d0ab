"""Coordinate oracles: the reflection, the Cartan matrix and the d-vectors
computed from their definitions, against which the library's table lookups
and its packed solve are tested, and the d-vector set held as tuples, against
which its byte keys and the `dvectors` report written from them are tested.
Also the definitions the library needs no code for: the cycle sign condition,
the simultaneous sign change of a matrix, and the root on a string."""

from math import prod
from operator import add

from companion_bases.quiver import _cycle_walk, cycle_edges, dump_json
from companion_bases.root_system import NOT_ROOT, DynkinType, Root, RootSystem


def reflect(rs: RootSystem, a, mirror) -> Root:
    """Reflection of a in the hyperplane orthogonal to a root."""
    if rs.classify(mirror) == NOT_ROOT:
        raise ValueError(f"mirror {mirror} is not a root")
    a = tuple(a)
    c = rs.inner(a, mirror)
    return tuple(x - c * m for x, m in zip(a, mirror)) if c else a


def cartan_matrix(dynkin: DynkinType) -> tuple[tuple[int, ...], ...]:
    n = dynkin.rank
    cart = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for i, j in dynkin.edges():
        cart[i][j] = cart[j][i] = -1
    return tuple(tuple(row) for row in cart)


def d_vectors_by_parent_chain(psi) -> dict:
    """Root -> d-vector over psi, from the inverse of the basis matrix."""
    # each root is its parent plus e_i, so its coefficients are the parent's
    # plus column i of the inverse
    columns = list(zip(*psi.inverse()))
    coeffs: list[tuple[int, ...]] = []
    for parent, i in psi.rs.positive_parents:
        column = columns[i]
        coeffs.append(column if parent < 0 else tuple(map(add, coeffs[parent], column)))
    return dict(zip(psi.rs.positive_roots, [tuple(map(abs, c)) for c in coeffs]))


class TupleDVectorSet:
    """A d-vector set held as the dict root -> d-vector tuple, and its report
    built as one dict per root and written by dump_json."""

    def __init__(self, by_root: dict):
        self.by_root = by_root
        self.vectors = frozenset(by_root.values())
        if len(self.vectors) != len(by_root):
            raise RuntimeError("duplicate d-vector: invariant violation")

    def sorted_items(self) -> list:
        return sorted(zip(self.by_root.values(), self.by_root))

    def __len__(self):
        return len(self.by_root)

    def __eq__(self, other):
        return self.vectors == other.vectors

    def report(self, dynkin) -> str:
        """The `dvectors` report's text, without its newline."""
        rows = [{"d": d, "root": root} for d, root in self.sorted_items()]
        return dump_json({"type": str(dynkin), "count": len(rows), "vectors": rows})


def tuple_d_vector_set(psi) -> TupleDVectorSet:
    """psi's d-vector set from the parent-chain expansion, held as tuples."""
    return TupleDVectorSet(d_vectors_by_parent_chain(psi))


def satisfies_cycle_sign_condition(A, B) -> bool:
    """Whether A is a companion of B (|a_xy| = |b_xy| off the diagonal) with an
    odd number of positive entries on every chordless cycle: the product of
    -a_xy over each cycle's edges is negative (Barot-Geiss-Zelevinsky 2006).
    The cycles are walked lazily, so the first that fails ends the walk."""
    n = B.n
    if any(abs(A[x][y]) != abs(B.entries[x][y]) for x in range(n) for y in range(n) if x != y):
        return False
    return all(prod(-A[x][y] for x, y in cycle_edges(c)) < 0 for c in _cycle_walk(B))


def simultaneous_sign_change(A, vertices):
    """A with the rows and columns of the given vertices negated at once."""
    flip = set(vertices)
    sign = [-1 if x in flip else 1 for x in range(len(A))]
    return tuple(tuple(sx * sy * a for sy, a in zip(sign, row)) for sx, row in zip(sign, A))


def root_with_support_string(psi, walk) -> Root:
    """The positive root supported exactly on a string of vertices: the first
    vertex's root reflected through the others' in order, sign normalised.

    ValueError unless the basis's form values make the walk a string: at
    least one vertex, none twice, and two joined exactly when consecutive.
    """
    rs, ids, walk = psi.rs, psi.ids, tuple(walk)
    if not walk:
        raise ValueError("walk is empty")
    if len(set(walk)) != len(walk):
        raise ValueError("walk revisits a vertex")
    for i, u in enumerate(walk):
        for j in range(i + 1, len(walk)):
            if (rs.form(ids[u], ids[walk[j]]) != 0) != (j == i + 1):
                raise ValueError(f"walk is not a string: vertices {u},{walk[j]}")
    beta = ids[walk[0]]
    for x in walk[1:]:
        beta = rs.reflect_handle(beta, ids[x])
    return rs.root(beta if beta >= 0 else ~beta)
