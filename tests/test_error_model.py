"""One error model: one vertex rule, one size rule, one perm rule, one basis
precondition, and RuntimeError for every invariant violation.

A vertex is a plain int in 0..n-1; anything else raises
IndexError("vertex v out of range for n=N") from the one check in
quiver._check_vertex, never an answer for another vertex.
"""

import random
import re

import pytest

from companion_bases import companion, quiver, type_a
from companion_bases.cli import main
from companion_bases.companion import (
    CompanionBasis,
    companion_basis_for,
    find_mutation_sequence_to_tree,
    initial_companion_basis,
    inward_update_components,
    mutate_inward,
    mutate_outward,
    phi_in_type_a,
    root_with_support_string,
    sign_change,
    transform,
)
from companion_bases.quiver import (
    ExchangeMatrix,
    canonical_companion,
    dynkin_type_of,
    is_cyclically_oriented,
    loads_exchange_matrix,
    mutate,
    recognize,
    simultaneous_sign_change,
)
from companion_bases.root_system import DynkinType, build_root_system
from companion_bases.type_a import (
    Triangulation,
    almost_positive_root_of_diagonal,
    enumerate_triangulations,
    is_string,
    loads_triangulation,
    random_triangulation,
    string_dim_vector,
)
from conftest import PACKAGE_MODULES, dynkin_orientation

A4 = dynkin_orientation("A4")
PSI_A4 = initial_companion_basis(A4)
TRIANGLE = ExchangeMatrix.from_arrows(3, [(0, 1), (1, 2), (2, 0)])

# negative vertices would index from the end, bools and floats would be read
# as ints: each of these answered for some vertex before the one rule
BAD_VERTICES = [-1, -4, 4, 7, True, False, 1.0, "1", None]

VERTEX_CALLS = {
    "mutate": lambda v: mutate(A4, v),
    "mutate_inward": lambda v: mutate_inward(PSI_A4, A4, v),
    "mutate_outward": lambda v: mutate_outward(PSI_A4, A4, v),
    "inward_update_components": lambda v: inward_update_components(
        PSI_A4, A4, v, (1, 1, 0, 0)
    ),
    "phi_in_type_a": lambda v: phi_in_type_a(A4, v),
    "sign_change": lambda v: sign_change(PSI_A4, [v]),
    "root_with_support_string": lambda v: root_with_support_string(PSI_A4, [0, v]),
    "is_string": lambda v: is_string(A4, (v,)),
    "string_dim_vector": lambda v: string_dim_vector(A4, (v,)),
    "simultaneous_sign_change": lambda v: simultaneous_sign_change(
        canonical_companion(A4), [v]
    ),
}


def vertex_message(v, n: int) -> str:
    return f"^{re.escape(f'vertex {v} out of range for n={n}')}$"


@pytest.mark.parametrize("name", sorted(VERTEX_CALLS))
@pytest.mark.parametrize("v", BAD_VERTICES, ids=repr)
def test_every_vertex_argument_follows_the_one_rule(name, v):
    with pytest.raises(IndexError, match=vertex_message(v, 4)):
        VERTEX_CALLS[name](v)


@pytest.mark.parametrize("vertices", [None, [0, 1], 0], ids=repr)
def test_a_walk_is_a_tuple(vertices):
    message = f"walk vertices must be a tuple, not {vertices!r}"
    for call in (is_string, string_dim_vector):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call(A4, vertices)
    assert is_string(A4, (0, 1)) and string_dim_vector(A4, (0, 1)) == (1, 1, 0, 0)


@pytest.mark.parametrize("cycle", [(-3, 1, 2), (0, 1, 7), (0, True, 2), (0, 1, 2.0)])
def test_is_cyclically_oriented_follows_the_one_rule(cycle):
    bad = next(v for v in cycle if type(v) is not int or not 0 <= v < 3)
    with pytest.raises(IndexError, match=vertex_message(bad, 3)):
        is_cyclically_oriented(TRIANGLE, cycle)
    assert is_cyclically_oriented(TRIANGLE, (0, 1, 2))


def test_the_vertex_is_checked_before_the_basis():
    d4 = build_root_system(DynkinType("D", 4))
    wrong = CompanionBasis(d4, d4.simple_roots)
    for call in (mutate_inward, mutate_outward):
        with pytest.raises(IndexError, match=vertex_message(-1, 4)):
            call(wrong, A4, -1)
        with pytest.raises(ValueError, match="^invalid companion basis: "):
            call(wrong, A4, 0)


@pytest.mark.parametrize(
    "perm",
    [(-4, -3, -2, -1), (0, 1, 2, 7), (0, 1, 2, 2), (3, 2, 1), (0, 1, 2, 3, 4), (3, 2, 1.0, 0)],
)
def test_a_perm_must_be_a_diagram_automorphism(perm):
    message = f"^{re.escape(str(perm))} is not a diagram automorphism of A4$"
    with pytest.raises(ValueError, match=message):
        transform(PSI_A4, perm=perm)


def test_a_perm_of_bools_is_not_read_as_ints():
    rs = build_root_system(DynkinType("A", 2))
    psi = CompanionBasis(rs, rs.simple_roots)
    assert transform(psi, perm=(1, 0)).gamma == ((0, 1), (1, 0))
    with pytest.raises(ValueError, match=r"^\(True, False\) is not a diagram automorphism"):
        transform(psi, perm=(True, False))


def count_in_package(text: str) -> int:
    return sum(
        path.read_text(encoding="utf-8").count(text) for path in PACKAGE_MODULES
    )


def test_each_precondition_is_raised_in_one_place():
    assert count_in_package("out of range for n=") == 1
    assert count_in_package("invalid companion basis") == 1


def test_invariant_violations_are_runtime_errors(monkeypatch):
    monkeypatch.setattr(companion, "_gram_realization", lambda rs, A: None)
    with pytest.raises(RuntimeError, match="^no roots of A4 realize the companion$") as info:
        companion_basis_for(A4)
    assert type(info.value) is RuntimeError
    square = ExchangeMatrix.from_arrows(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert find_mutation_sequence_to_tree(square) == [0, 1]
    with pytest.raises(RuntimeError, match="^mutation search exhausted") as info:
        find_mutation_sequence_to_tree(square, cap=1)
    assert type(info.value) is RuntimeError


def breaks_the_tree_isomorphism(monkeypatch):
    monkeypatch.setattr(companion, "graph_isomorphisms", lambda *graphs: iter(()))
    return lambda: initial_companion_basis(A4)


def breaks_the_positive_determinant(monkeypatch):
    monkeypatch.setattr(quiver, "positive_definite_det", lambda A: 7)
    return lambda: dynkin_type_of(A4)


def breaks_the_snake_crossings(monkeypatch):
    monkeypatch.setattr(type_a, "diagonals_cross", lambda d1, d2: False)
    return lambda: almost_positive_root_of_diagonal(4, (1, 4))


@pytest.mark.parametrize(
    "breaks, message",
    [
        (
            breaks_the_tree_isomorphism,
            "quiver is not an orientation of the Dynkin diagram it was typed as",
        ),
        (
            breaks_the_positive_determinant,
            "unrecognised determinant 7 at rank 4: not a Dynkin determinant",
        ),
        (breaks_the_snake_crossings, "diagonal (1, 4) crosses snake positions []: not one run"),
    ],
)
def test_theorems_the_library_relies_on_raise_runtime_errors(monkeypatch, breaks, message):
    call = breaks(monkeypatch)
    with pytest.raises(RuntimeError, match=f"^{re.escape(message)}$") as info:
        call()
    assert type(info.value) is RuntimeError


def test_companion_exits_4_on_an_invariant_violation(monkeypatch, capsys):
    monkeypatch.setattr(companion, "_gram_realization", lambda rs, A: None)
    assert main(["companion", "--type", "A3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no roots of A3 realize the companion\n"


@pytest.mark.parametrize("command", ["recognize", "companion"])
def test_every_command_exits_4_on_an_invariant_violation(monkeypatch, capsys, command):
    monkeypatch.setattr(quiver, "positive_definite_det", lambda A: 7)
    assert main([command, "--type", "A3"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    message = "unrecognised determinant 7 at rank 3: not a Dynkin determinant"
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("n", [0, -1])
def test_a_triangulation_has_a_positive_rank(n):
    with pytest.raises(ValueError, match="^n must be positive$"):
        Triangulation(n, ())
    with pytest.raises(ValueError, match="^n must be positive$"):
        random_triangulation(n, random.Random(0))
    assert random_triangulation(1, random.Random(0)).n == 1


@pytest.mark.parametrize("d", [(True, 3), (1.0, 3), ("1", 3), (1.5, 4), (1, 3, 5), 13], ids=repr)
def test_a_diagonal_is_a_pair_of_plain_ints(d):
    # True and 1.0 were taken as corner 1, so a triangulation holding (True, 3)
    # was written as [[true,3]], which loads_triangulation refuses; "1" and 13
    # failed with a bare TypeError, and (1.5, 4) with the snake RuntimeError
    message = f"^{re.escape(f'diagonal {d!r} is not a pair of plain integers')}$"
    for n, diagonals in ((1, [d]), (2, [d, (1, 4)])):
        with pytest.raises(ValueError, match=message):
            Triangulation(n, diagonals)
    with pytest.raises(ValueError, match=message):
        almost_positive_root_of_diagonal(2, d)
    assert Triangulation(2, [(1, 3), (1, 4)]).diagonals == ((1, 3), (1, 4))


@pytest.mark.parametrize("n", [True, 1.0, "1", 0], ids=repr)
def test_the_snake_root_follows_the_polygon_size_rule(n):
    # True was read as n = 1 and answered (-1,)
    with pytest.raises(ValueError, match="^n must be positive$"):
        almost_positive_root_of_diagonal(n, (1, 3))
    assert almost_positive_root_of_diagonal(1, (1, 3)) == (-1,)


@pytest.mark.parametrize(
    "n, message",
    [
        ("0", "'n' must be a positive integer"),
        ("-1", "'n' must be a positive integer"),
        ("true", "'n' must be a positive integer"),
        ("2.0", "'n' must be a positive integer"),
        ('"2"', "'n' must be a positive integer"),
        ("4001", "'n' is 4001, above the cap of 4000 vertices"),
    ],
)
def test_both_readers_share_one_rank_rule(n, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        loads_exchange_matrix(f'{{"n": {n}, "arrows": []}}')
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        loads_triangulation(f'{{"n": {n}, "diagonals": []}}')


# a bool or float size was read as an int (True as 1, 2.0 as 2) or failed
# deep inside with a bare TypeError
BAD_SIZES = [True, False, 2.0, 1.5, "2", None]


class UntouchedRandom(random.Random):
    """A generator that fails if a draw is made from it."""

    def choices(self, *args, **kwargs):
        raise AssertionError("drew from the generator before checking n")


@pytest.mark.parametrize("n", BAD_SIZES)
def test_a_polygon_size_is_a_plain_positive_int(n):
    with pytest.raises(ValueError, match="^n must be positive$"):
        Triangulation(n, [(1, 3)])
    with pytest.raises(ValueError, match="^n must be positive$"):
        enumerate_triangulations(n)
    with pytest.raises(ValueError, match="^n must be positive$"):
        random_triangulation(n, UntouchedRandom(0))


@pytest.mark.parametrize(
    "family, rank",
    [("A", n) for n in BAD_SIZES] + [("D", 4.5), ("D", 5.0), ("E", 6.0), ("E", 8.0)],
)
def test_a_dynkin_rank_is_a_plain_int(family, rank):
    message = f"invalid rank {rank!r} for family {family}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DynkinType(family, rank)


def test_a_refused_rank_is_named_as_it_was_given():
    # the string "2" is refused, and the message says it was not the int 2
    with pytest.raises(ValueError, match="^invalid rank '2' for family A$"):
        DynkinType("A", "2")
    with pytest.raises(ValueError, match="^invalid rank 3 for family D$"):
        DynkinType("D", 3)


@pytest.mark.parametrize("n", [-1, -5, *BAD_SIZES])
def test_from_arrows_takes_a_plain_non_negative_int(n):
    with pytest.raises(ValueError, match="^n must be a non-negative integer"):
        ExchangeMatrix.from_arrows(n, [])
    assert ExchangeMatrix.from_arrows(0, []).n == 0


def test_the_empty_matrix_has_no_dynkin_type():
    empty = ExchangeMatrix(())
    assert recognize(empty) == (None, None)
    for entry in (dynkin_type_of, companion_basis_for):
        with pytest.raises(ValueError, match="^matrix is not connected$"):
            entry(empty)
