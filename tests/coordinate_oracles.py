"""Coordinate oracles: the reflection, the Cartan matrix and the d-vectors
computed from their definitions, against which the library's table lookups
and its packed solve are tested, and the d-vector set held as tuples, against
which its byte keys and the `dvectors` report written from them are tested."""

from operator import add

from companion_bases.quiver import dump_json
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

    def dumps(self) -> str:
        """dumps_d_vector_set's text."""
        return dump_json(sorted(self.vectors))

    def report(self, dynkin) -> str:
        """The `dvectors` report's text, without its newline."""
        rows = [{"d": d, "root": root} for d, root in self.sorted_items()]
        return dump_json({"type": str(dynkin), "count": len(rows), "vectors": rows})


def tuple_d_vector_set(psi) -> TupleDVectorSet:
    """psi's d-vector set from the parent-chain expansion, held as tuples."""
    return TupleDVectorSet(d_vectors_by_parent_chain(psi))
