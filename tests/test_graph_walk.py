"""The walks over a quiver's underlying graph.

Neighbour sets are built once per matrix.  Chordless cycles come from an
iterative walk over induced paths inside one biconnected block at a time, and
type-A strings from one breadth-first pass per vertex, so the recursion limit
bounds neither.  Both give what the whole-graph induced-path walk in
walk_oracles.py gives, the cycles in the same order, and strings match a
brute-force oracle.
"""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from companion_bases import quiver, root_system
from companion_bases.companion import companion_basis_for, initial_companion_basis
from companion_bases.quiver import (
    CYCLE_NOT_ORIENTED,
    ExchangeMatrix,
    breadth_first,
    chordless_cycles,
    is_connected,
    is_cyclically_oriented,
    mutate,
    mutate_sequence,
)
from companion_bases.root_system import DynkinType
from companion_bases.type_a import (
    _indicator,
    _string_keys,
    _string_paths,
    enumerate_strings,
    enumerate_triangulations,
    is_string,
    quiver_from_triangulation,
    random_triangulation,
)

from conftest import PENDANT_ARROWS, dynkin_orientation, grid_quiver
from mutation_classes import mutation_class, orientation
from walk_oracles import induced_path_strings, induced_paths, whole_graph_cycles

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
        assert all(is_string(B, w) and w[0] <= w[-1] for w in walks)
        supports = [frozenset(w) for w in walks]
        assert len(set(supports)) == len(supports)
        assert set(supports) == induced_path_sets(B)


def random_graph(rng: random.Random, n: int) -> ExchangeMatrix:
    """A random quiver on n vertices, about d/2 edges per vertex for a drawn d."""
    p = rng.choice((1.5, 2.0, 2.5, 3.0)) / n
    pairs = [(x, y) for x, y in combinations(range(n), 2) if rng.random() < p]
    return ExchangeMatrix.from_arrows(n, [e if rng.random() < 0.5 else e[::-1] for e in pairs])


def assert_walks_agree(B: ExchangeMatrix) -> int:
    """The block walk yields the whole-graph walk's cycles in its order, and the
    oriented walk names the first of them that is not cyclically oriented."""
    expected = whole_graph_cycles(B)
    assert list(quiver._cycle_walk(B)) == expected
    bad = [c for c in expected if not is_cyclically_oriented(B, c)]
    if bad:
        with pytest.raises(ValueError) as error:
            chordless_cycles(B, oriented=True)
        assert str(error.value) == f"{CYCLE_NOT_ORIENTED}: {bad[0]}"
    else:
        assert chordless_cycles(B, oriented=True) == sorted(expected, key=lambda c: (len(c), c))
    return len(expected)


def test_the_block_walk_keeps_the_cycle_order_on_random_graphs():
    rng = random.Random("block-walk")
    ranks = [rng.randint(3, 40) for _ in range(240)]
    # past rank 8 a frozenset no longer iterates in ascending order
    assert sum(n > 8 for n in ranks) > 150
    cycles = [assert_walks_agree(random_graph(rng, n)) for n in ranks]
    assert sum(cycles) > 1000 and sum(map(bool, cycles)) > 100


def test_the_block_walk_keeps_the_cycle_order_on_the_grid():
    # one block: nothing is pruned, and the 3436 cycles come out in walk order;
    # the 7 x 7 grid (65,772 cycles, about 11 s) runs in CI (walk_oracles.py)
    assert assert_walks_agree(grid_quiver(6)) == 3436


@pytest.mark.parametrize("label", ["A12", "D10", "E7", "E8"])
def test_the_block_walk_keeps_the_cycle_order_along_mutation_walks(label):
    rng = random.Random(f"block-walk:{label}")
    B = dynkin_orientation(label)
    for _ in range(60):
        B = mutate(B, rng.randrange(B.n))
        assert_walks_agree(B)


def test_the_block_walk_extends_no_path_past_its_first_edge(monkeypatch):
    walked = []
    original = quiver._block_paths

    def counting(*args):
        for path in original(*args):
            walked.append(path)
            yield path

    monkeypatch.setattr(quiver, "_block_paths", counting)
    # every block of a path is a bridge, so no path is walked at all
    path = ExchangeMatrix.from_arrows(PATH_RANK, [(i, i + 1) for i in range(PATH_RANK - 1)])
    assert chordless_cycles(path) == [] and walked == []
    # the blocks of a triangulation quiver are bridges and triangles, and a
    # path of two triangle edges is not induced: each triangle's three edges
    # are walked once each, from their smaller ends
    rng = random.Random("triangle-blocks")
    triangles = 0
    for n in range(12, 41):
        B = quiver_from_triangulation(random_triangulation(n, rng))
        walked.clear()
        cycles = chordless_cycles(B)
        assert all(len(p) == 2 for p in walked) and len(walked) == 3 * len(cycles)
        triangles += len(cycles)
    assert triangles > 50


def test_breadth_first_strings_are_the_induced_paths_on_the_a1_to_a5_classes():
    count = 0
    for n in range(1, 6):
        for B in mutation_class(orientation(DynkinType("A", n))):
            paths = _string_paths(B)
            assert sorted(paths) == sorted(induced_path_strings(B))
            assert len(paths) == n * (n + 1) // 2
            assert _string_keys(B) == [bytes(_indicator(n, p)) for p in paths]
            count += 1
    assert count == 1 + 2 + 14 + 144 + 1980


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
