"""Labelled mutation classes of Dynkin orientations, built with `mutate` alone.

By Fomin-Zelevinsky (Cluster algebras II, 2003) a connected quiver is of
finite type exactly when it lies in the mutation class of an orientation of a
Dynkin diagram, and then it has that diagram's type.  So the class, found by
breadth-first search, is an oracle for recognition that shares no code with
it but `mutate`.

Run as a script, it recognizes every member of the A6, D6 and E6 classes
(117,480 quivers) and prints the time taken; it exits 1 on a class of the
wrong size or on the first member that does not get its class's type:

    PYTHONPATH=src python tests/mutation_classes.py [A6 D6 E6 ...]
"""

from __future__ import annotations

import sys
import time

from companion_bases.quiver import ExchangeMatrix, mutate, recognize
from companion_bases.root_system import DynkinType

# labelled class sizes, as this search counts them
CLASS_SIZES = {
    "A4": 144,
    "D4": 50,
    "A5": 1980,
    "D5": 2184,
    "A6": 34320,
    "D6": 40320,
    "E6": 42840,
}


def orientation(dynkin: DynkinType) -> ExchangeMatrix:
    """The orientation of the Dynkin diagram with arrows along increasing labels."""
    return ExchangeMatrix.from_arrows(dynkin.rank, dynkin.edges())


def mutation_class(B: ExchangeMatrix) -> list[ExchangeMatrix]:
    """Every quiver reachable from B by mutations, B first, in breadth-first order."""
    seen = {B.entries}
    members = [B]
    for member in members:  # grows as the search finds new quivers
        for k in range(member.n):
            mutated = mutate(member, k)
            if mutated.entries not in seen:
                seen.add(mutated.entries)
                members.append(mutated)
    return members


def main(labels) -> int:
    for label in labels:
        dynkin = DynkinType.parse(label)
        start = time.perf_counter()
        members = mutation_class(orientation(dynkin))
        built = time.perf_counter() - start
        if len(members) != CLASS_SIZES.get(label, len(members)):
            print(f"{label}: {len(members)} quivers, expected {CLASS_SIZES[label]}")
            return 1
        for B in members:
            if recognize(B) != (None, dynkin):
                print(f"{label}: member {B.entries} recognized as {recognize(B)}")
                return 1
        total = time.perf_counter() - start
        print(
            f"{label}: {len(members)} quivers, class built in {built:.2f} s, "
            f"all recognized as {dynkin} in {total:.2f} s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["A6", "D6", "E6"]))
