"""Coordinate oracles: the reflection and the Cartan matrix computed from
their definitions, against which the library's table lookups are tested."""

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
