#!/usr/bin/env python3
"""d-vectors versus string modules on a quiver with an oriented triangle.

The quiver is the A4 quiver 0 -> 1 -> 2 -> 3 -> 1: an oriented 3-cycle with a
pendant arrow.  Expanding every positive root over a companion basis and
taking absolute coefficients reproduces, exactly, the dimension vectors of the
indecomposable string modules.
"""

import sys

from companion_bases import (
    CompanionBasis,
    DynkinType,
    ExchangeMatrix,
    build_root_system,
    companion_basis_for,
    d_vector_set,
    enumerate_strings,
    indecomposable_dim_vectors,
    is_strong_companion_basis,
    relations_of,
    string_dim_vector,
)


def main():
    B = ExchangeMatrix.from_arrows(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    print("quiver arrows:", B.arrows())
    print("gentle relations (forbidden consecutive arrow pairs):")
    for first, second in sorted(relations_of(B)):
        print(f"   {first} then {second}")
    print()

    rs = build_root_system(DynkinType("A", 4))
    a1, a2, a3, a4 = rs.simple_roots
    gamma = (
        tuple(-c for c in a1),
        tuple(-(x + y) for x, y in zip(a2, a3)),
        a3,
        a4,
    )
    psi = CompanionBasis(rs, gamma)
    print("companion basis (simple-root coordinates):")
    for x, g in enumerate(gamma):
        print(f"   vertex {x}: {g}")
    print()

    print("root -> d-vector:")
    dset = d_vector_set(psi)
    for alpha in rs.positive_roots:
        print(f"   {alpha} -> {dset.by_root[alpha]}")
    print()

    print("strings and their dimension vectors:")
    for walk in enumerate_strings(B):
        print(f"   vertices {walk.vertices} -> {string_dim_vector(B, walk)}")
    print()

    print("d-vectors equal string dimension vectors:", is_strong_companion_basis(psi, B))
    if dset.vectors != indecomposable_dim_vectors(B):
        sys.exit("error: the d-vectors differ from the string dimension vectors")

    constructed = companion_basis_for(B)
    print("the basis companion_basis_for constructs gives the same d-vector set:",
          d_vector_set(constructed) == dset)


if __name__ == "__main__":
    main()
