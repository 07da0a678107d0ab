"""The one walk over a quiver's underlying graph.

Neighbour sets are built once per matrix; chordless cycles and strings come
from one iterative walk over induced paths, so the recursion limit does not
bound them, and strings match a brute-force oracle.
"""

import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from companion_bases import quiver, root_system
from companion_bases.companion import companion_basis_for, initial_companion_basis
from companion_bases.quiver import (
    ExchangeMatrix,
    breadth_first,
    induced_paths,
    is_connected,
    mutate_sequence,
)
from companion_bases.root_system import DynkinType
from companion_bases.type_a import (
    enumerate_strings,
    enumerate_triangulations,
    is_string,
    quiver_from_triangulation,
)

from conftest import PENDANT_ARROWS, dynkin_orientation

SRC = str(Path(quiver.__file__).resolve().parents[1])

PATH_RANK = 200

RECURSION_SCRIPT = f"""
import sys
from companion_bases.quiver import ExchangeMatrix, chordless_cycles, recognize
from companion_bases.root_system import DynkinType
from companion_bases.type_a import enumerate_strings

B = ExchangeMatrix.from_arrows({PATH_RANK}, [(i, i + 1) for i in range({PATH_RANK - 1})])
sys.setrecursionlimit(100)
CALL = sys.argv[1]
if CALL == "chordless_cycles":
    ok = chordless_cycles(B) == []
elif CALL == "recognize":
    ok = recognize(B) == (None, DynkinType("A", {PATH_RANK}))
else:
    ok = len(enumerate_strings(B)) == {PATH_RANK * (PATH_RANK + 1) // 2}
print(ok)
"""


@pytest.mark.parametrize("call", ["chordless_cycles", "recognize", "enumerate_strings"])
def test_walks_finish_on_a_long_path_under_a_low_recursion_limit(call):
    env = dict(os.environ, PYTHONPATH=SRC)
    result = subprocess.run(
        [sys.executable, "-c", RECURSION_SCRIPT, call],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr[-500:]
    assert result.stdout == "True\n"


def induced_path_sets(B):
    """Every vertex set whose induced subgraph is a path: the strings' supports."""
    out = set()
    for size in range(1, B.n + 1):
        for subset in combinations(range(B.n), size):
            edges = [(x, y) for x, y in combinations(subset, 2) if B.entries[x][y]]
            degrees = [sum(v in e for e in edges) for v in subset]
            if len(edges) != size - 1 or max(degrees) > 2:
                continue
            # n - 1 edges and no vertex of degree 3: a path exactly when connected
            seen, stack = {subset[0]}, [subset[0]]
            while stack:
                v = stack.pop()
                for x, y in edges:
                    for a, b in ((x, y), (y, x)):
                        if a == v and b not in seen:
                            seen.add(b)
                            stack.append(b)
            if len(seen) == size:
                out.add(frozenset(subset))
    return out


def triangulation_quivers(max_n):
    for n in range(1, max_n + 1):
        for T in enumerate_triangulations(n):
            yield quiver_from_triangulation(T)


def test_strings_match_the_induced_path_oracle():
    quivers = [*triangulation_quivers(6), ExchangeMatrix.from_arrows(4, PENDANT_ARROWS)]
    assert len(quivers) == 2 + 5 + 14 + 42 + 132 + 429 + 1
    for B in quivers:
        walks = enumerate_strings(B)
        assert all(is_string(B, w) and w.vertices[0] <= w.vertices[-1] for w in walks)
        supports = [w.vertex_set() for w in walks]
        assert len(set(supports)) == len(supports)
        assert set(supports) == induced_path_sets(B)


def test_induced_paths_from_a_vertex():
    # pendant quiver: 0 - 1, and the triangle 1 - 2 - 3
    adj = ExchangeMatrix.from_arrows(4, PENDANT_ARROWS).neighbours
    assert sorted(induced_paths(adj, 0, -1)) == [(0,), (0, 1), (0, 1, 2), (0, 1, 3)]
    assert sorted(induced_paths(adj, 1, 1)) == [(1,), (1, 2), (1, 3)]
    assert sorted(induced_paths(adj, 3, 3)) == [(3,)]


def test_breadth_first_order_and_parents():
    adj = dynkin_orientation("D5").neighbours
    assert breadth_first(adj, 2) == ([2, 1, 3, 4, 0], [1, 2, 2, 2, 2])
    two_parts = ExchangeMatrix.from_arrows(4, [(0, 1), (2, 3)]).neighbours
    assert breadth_first(two_parts, 0) == ([0, 1], [0, 0, -1, -1])
    assert not is_connected(ExchangeMatrix.from_arrows(4, [(0, 1), (2, 3)]))


def test_breadth_first_lives_beside_the_neighbour_sets():
    # the realization order, is_connected and the isomorphism search share it
    assert quiver.breadth_first is root_system.breadth_first
    path = DynkinType("A", 4).adjacency()
    assert root_system.breadth_first(path, 2) == ([2, 1, 3, 0], [1, 2, 2, 2])


def count_neighbour_builds(monkeypatch):
    calls = []
    build = quiver.neighbour_sets

    def counted(n, edges):
        calls.append(n)
        return build(n, edges)

    monkeypatch.setattr(quiver, "neighbour_sets", counted)
    return calls


def test_companion_basis_for_builds_neighbour_sets_once(monkeypatch):
    B = mutate_sequence(dynkin_orientation("E7"), [3, 1, 4, 0, 5, 2])
    calls = count_neighbour_builds(monkeypatch)
    companion_basis_for(ExchangeMatrix(B.entries))
    assert calls == [7]


def test_initial_companion_basis_builds_neighbour_sets_once(monkeypatch):
    # a D6 tree: arms 2, 4 and 5 - 0 - 3 at vertex 1
    B = ExchangeMatrix.from_arrows(6, [(3, 0), (0, 5), (5, 1), (1, 2), (4, 1)])
    calls = count_neighbour_builds(monkeypatch)
    initial_companion_basis(B)
    assert calls == [6]


def test_neighbours_are_not_built_by_the_constructor(monkeypatch):
    calls = count_neighbour_builds(monkeypatch)
    B = quiver.mutate(dynkin_orientation("A5"), 2)
    assert calls == []
    assert B.neighbours is B.neighbours
    assert calls == [5]
