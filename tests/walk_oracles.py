"""The whole-graph induced-path walk, kept as the oracle for the package's walks.

`quiver._cycle_walk` walks each path only inside the biconnected block of
its first edge, and `type_a._string_paths` takes breadth-first paths; both
must give what this walk over the whole graph gives, cycles in the same
order.

Run as a script, it checks both walks on every member of the given type-A
mutation classes (34,320 quivers for A6) and the cycles of the 7 x 7 grid
(65,772), printing the time taken; it exits 1 on the first mismatch:

    PYTHONPATH=src python tests/walk_oracles.py [A6 ...]
"""

from __future__ import annotations

import sys
import time

from companion_bases.quiver import _cycle_walk
from companion_bases.root_system import DynkinType
from companion_bases.type_a import _string_paths

from conftest import grid_quiver
from mutation_classes import mutation_class, orientation


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


def whole_graph_cycles(B) -> list[tuple[int, ...]]:
    """Every chordless cycle of B in canonical rotation, in the order of a walk
    over induced paths from each smallest vertex v through the whole graph."""
    adj = B.neighbours
    return [
        path + (w,)
        for v in range(B.n)
        for path in induced_paths(adj, v, v)
        if len(path) > 1
        for w in adj[v] & adj[path[-1]]
        if w > path[1] and adj[w].isdisjoint(path[1:-1])
    ]


def induced_path_strings(B) -> list[tuple[int, ...]]:
    """Every induced path of B, once, from its smaller end, in walk order."""
    return [
        path
        for v in range(B.n)
        for path in induced_paths(B.neighbours, v, -1)
        if path[0] <= path[-1]
    ]


def main(labels) -> int:
    for label in labels:
        dynkin = DynkinType.parse(label)
        if dynkin.family != "A":
            print(f"{label}: strings need type A")
            return 1
        start = time.perf_counter()
        members = mutation_class(orientation(dynkin))
        for B in members:
            if sorted(_string_paths(B)) != sorted(induced_path_strings(B)):
                print(f"{label}: member {B.entries}: strings differ")
                return 1
            if list(_cycle_walk(B)) != whole_graph_cycles(B):
                print(f"{label}: member {B.entries}: cycles differ")
                return 1
        elapsed = time.perf_counter() - start
        print(f"{label}: {len(members)} quivers, strings and cycles agree in {elapsed:.2f} s")
    start = time.perf_counter()
    grid = grid_quiver(7)
    cycles = whole_graph_cycles(grid)
    if list(_cycle_walk(grid)) != cycles:
        print("7 x 7 grid: cycles differ")
        return 1
    elapsed = time.perf_counter() - start
    print(f"7 x 7 grid: {len(cycles)} cycles in the same order in {elapsed:.2f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or ["A6"]))
