#!/usr/bin/env python3
"""Triangulations of convex polygons and the quivers they carry.

Counts triangulations, builds their quivers, and exhaustively confirms on the
heptagon that every constructed companion basis recovers the string-module
dimension vectors.  Also shows the snake identification between diagonals and
almost positive roots.
"""

import sys

from companion_bases import (
    almost_positive_root_of_diagonal,
    companion_basis_for,
    d_vector_set,
    dynkin_type_of,
    enumerate_triangulations,
    indecomposable_dim_vectors,
    is_strong_companion_basis,
    quiver_from_triangulation,
)


def main():
    for n in range(1, 6):
        print(f"{n + 3}-gon: {len(enumerate_triangulations(n)):4d} triangulations")
    print()

    print("heptagon check (42 triangulations, type A4):")
    strong = 0
    for T in enumerate_triangulations(4):
        B = quiver_from_triangulation(T)
        if dynkin_type_of(B).family != "A":
            sys.exit(f"error: triangulation {T.diagonals} does not give a type-A quiver")
        psi = companion_basis_for(B)
        if is_strong_companion_basis(psi, B):
            strong += 1
    print(f"   strong companion bases: {strong}/42")
    print()

    T = enumerate_triangulations(4)[0]
    B = quiver_from_triangulation(T)
    print("first heptagon triangulation:", T.diagonals)
    print("   quiver arrows:", B.arrows())
    print("   d-vectors == string dimension vectors:",
          d_vector_set(companion_basis_for(B)).vectors == indecomposable_dim_vectors(B))
    print()

    n = 3
    corners = n + 3
    print(f"snake identification for the {corners}-gon (type A{n}):")
    for i in range(1, corners + 1):
        for j in range(i + 2, corners + 1):
            if (i, j) == (1, corners):
                continue
            root = almost_positive_root_of_diagonal(n, (i, j))
            print(f"   diagonal ({i},{j}) -> {root}")


if __name__ == "__main__":
    main()
