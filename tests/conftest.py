import ast
import itertools

import pytest

from companion_bases import ExchangeMatrix
from companion_bases.companion import CompanionBasis
from companion_bases.quiver import CYCLE_NOT_ORIENTED, cycle_edges, is_cyclically_oriented
from companion_bases.root_system import DynkinType, build_root_system

# A4 quiver made of an oriented triangle 1->2->3->1 with a pendant arrow 0->1;
# the smallest quiver whose d-vectors are not plain root coordinates.
PENDANT_ARROWS = [(0, 1), (1, 2), (2, 3), (3, 1)]

# The ten d-vectors of the positive A4 roots over PENDANT_BASIS.
PENDANT_DVECTORS = frozenset(
    {
        (1, 0, 0, 0),
        (0, 1, 1, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
        (1, 1, 1, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 1),
        (1, 1, 0, 0),
        (0, 1, 0, 1),
        (1, 1, 0, 1),
    }
)


def dynkin_orientation(label: str) -> ExchangeMatrix:
    """The orientation of a Dynkin diagram with arrows along increasing labels."""
    dt = DynkinType.parse(label)
    return ExchangeMatrix.from_arrows(dt.rank, dt.edges())


def grid_quiver(side: int) -> ExchangeMatrix:
    """The side x side grid, vertex side * row + column, arrows right and down.

    Not of finite type, with exponentially many chordless cycles: 65,772 at
    side 7.
    """
    arrows = [(v, v + 1) for v in range(side * side) if (v + 1) % side]
    arrows += [(v, v + side) for v in range(side * (side - 1))]
    return ExchangeMatrix.from_arrows(side * side, arrows)


def assert_names_a_bad_cycle(B: ExchangeMatrix, error: ValueError) -> None:
    """The error names a chordless cycle of B in canonical rotation that is
    not cyclically oriented."""
    prefix, _, named = str(error).rpartition(": ")
    assert prefix == CYCLE_NOT_ORIENTED
    named = ast.literal_eval(named)
    edges = {frozenset(e) for e in cycle_edges(named)}
    for x, y in itertools.combinations(named, 2):
        assert (B.entries[x][y] != 0) == (frozenset((x, y)) in edges)
    assert named[0] == min(named) and named[1] < named[-1]
    assert not is_cyclically_oriented(B, named)


@pytest.fixture
def pendant_quiver() -> ExchangeMatrix:
    return ExchangeMatrix.from_arrows(4, PENDANT_ARROWS)


@pytest.fixture
def rs_a4():
    return build_root_system(DynkinType("A", 4))


@pytest.fixture
def pendant_basis(rs_a4) -> CompanionBasis:
    # gamma = (-a1, -a2-a3, a3, a4)
    return CompanionBasis(
        rs_a4,
        (
            (-1, 0, 0, 0),
            (0, -1, -1, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
        ),
    )
