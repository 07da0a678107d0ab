"""Acceptance suite: one test per release criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion pins its own tolerance and, where stated, a wall-clock
budget.
"""

import json
import random
import time

from companion_bases.cli import main as cli_main
from companion_bases.companion import (
    companion_basis_failure,
    companion_basis_for,
    d_vector_set,
    initial_companion_basis,
    inward_update_components,
    mutate_inward,
    mutate_outward,
    mutation_map_inward,
    phi_in_type_a,
    sign_change,
    transform,
)
from companion_bases.quiver import (
    CYCLE_NOT_ORIENTED,
    NO_POSITIVE_COMPANION,
    ExchangeMatrix,
    dynkin_type_of,
    finite_type_failure,
    is_positive_quasi_cartan,
    mutate,
)
from companion_bases.root_system import DynkinType, build_root_system, diagram_automorphisms
from companion_bases.type_a import (
    catalan,
    enumerate_strings,
    enumerate_triangulations,
    is_strong_companion_basis,
    quiver_from_triangulation,
)

from conftest import PENDANT_ARROWS, PENDANT_DVECTORS, dynkin_orientation

WALK_TYPES = ("A8", "D8", "E6", "E7", "E8")


def report(num: int, name: str, detail: str) -> None:
    print(f"\ncriterion {num} {name}: PASS ({detail})")


def walk_steps(label: str, walk_index: int, steps: int = 200):
    """Deterministic (k, inward?) choices for one walk of a given type."""
    rng = random.Random(f"{label}:{walk_index}")
    n = DynkinType.parse(label).rank
    return [(rng.randrange(n), rng.random() < 0.5) for _ in range(steps)]


def test_criterion_1_example_table_reproduction(tmp_path):
    start = time.perf_counter()
    basis_file = tmp_path / "basis.json"
    out_file = tmp_path / "dvectors.json"
    basis_file.write_text(
        json.dumps(
            {
                "type": "A4",
                "quiver": {"n": 4, "arrows": [list(a) for a in PENDANT_ARROWS]},
                "gamma": [[-1, 0, 0, 0], [0, -1, -1, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
            }
        )
    )
    code = cli_main(
        ["dvectors", "--input", str(basis_file), "--output", str(out_file)]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads(out_file.read_text())
    got = {tuple(row["d"]) for row in payload["vectors"]}
    assert got == PENDANT_DVECTORS
    assert payload["count"] == 10
    assert elapsed < 1.0
    report(1, "example-table-reproduction", f"10/10 vectors, {elapsed:.2f}s")


def test_criterion_2_strongness_exhaustive_to_octagon():
    start = time.perf_counter()
    checked = 0
    for n, expected in ((2, 5), (3, 14), (4, 42), (5, 132)):
        triangulations = enumerate_triangulations(n)
        assert len(triangulations) == expected
        for T in triangulations:
            B = quiver_from_triangulation(T)
            psi = companion_basis_for(B)
            assert is_strong_companion_basis(psi, B), (n, T)
            checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 193
    assert elapsed < 30.0
    report(2, "strongness-exhaustive", f"193/193 strong, {elapsed:.1f}s")


def test_criterion_3_companion_mutation_soundness():
    start = time.perf_counter()
    checks = 0
    for label in WALK_TYPES:
        for walk in range(100):
            B = dynkin_orientation(label)
            psi = initial_companion_basis(B)
            for k, inward in walk_steps(label, walk):
                op = mutate_inward if inward else mutate_outward
                psi, B = op(psi, B, k)
                failure = companion_basis_failure(psi, B)
                assert failure is None, (label, walk, k, failure)
                checks += 1
    elapsed = time.perf_counter() - start
    assert checks == 100_000
    assert elapsed < 120.0
    report(3, "companion-mutation-soundness", f"{checks} step-checks, {elapsed:.1f}s")


def test_criterion_4_involution_and_entry_bounds():
    start = time.perf_counter()
    checks = 0
    for label in WALK_TYPES:
        for walk in range(100):
            B = dynkin_orientation(label)
            for k, _ in walk_steps(label, walk):
                B_next = mutate(B, k)
                assert mutate(B_next, k) == B, (label, walk, k)
                assert B_next.has_unit_entries(), (label, walk, k)
                B = B_next
                checks += 1
    elapsed = time.perf_counter() - start
    assert checks == 100_000
    report(4, "involution-and-entry-bounds", f"{checks} step-checks, {elapsed:.1f}s")


def random_pair(label: str, seed: int):
    """A (quiver, basis) pair reached by a short random mutation walk."""
    rng = random.Random(f"{label}:{seed}:pair")
    B = dynkin_orientation(label)
    psi = initial_companion_basis(B)
    for _ in range(25):
        k = rng.randrange(B.n)
        op = mutate_inward if rng.random() < 0.5 else mutate_outward
        psi, B = op(psi, B, k)
    return psi, B


def test_criterion_5_dvector_set_invariance_and_distinctness():
    start = time.perf_counter()
    for label in WALK_TYPES:
        rs = build_root_system(DynkinType.parse(label))
        perms = diagram_automorphisms(rs.dynkin)
        n_positive = len(rs.positive_roots)
        for seed in range(50):
            rng = random.Random(f"{label}:{seed}:variants")
            psi, B = random_pair(label, seed)
            base = d_vector_set(psi)
            assert len(base) == n_positive
            for _ in range(10):
                flips = {x for x in range(B.n) if rng.random() < 0.5}
                assert d_vector_set(sign_change(psi, flips)) == base
            for _ in range(10):
                word = tuple(
                    rs.positive_roots[rng.randrange(n_positive)]
                    for _ in range(rng.randrange(1, 4))
                )
                perm = perms[rng.randrange(len(perms))]
                moved = transform(psi, word=word, perm=perm)
                assert d_vector_set(moved) == base
    elapsed = time.perf_counter() - start
    report(5, "dvector-set-invariance", f"250 pairs x 21 bases, {elapsed:.1f}s")


def test_criterion_6_mutation_map_well_defined_in_type_a():
    start = time.perf_counter()
    rng = random.Random(606)
    pool = [T for n in range(2, 7) for T in enumerate_triangulations(n)]
    quivers = [quiver_from_triangulation(T) for T in rng.sample(pool, 20)]
    for B in quivers:
        rs_label = dynkin_type_of(B)
        assert rs_label.family == "A"
        psi1 = companion_basis_for(B)
        rs = psi1.rs
        flips = {x for x in range(B.n) if rng.random() < 0.5} or {0}
        psi2 = sign_change(psi1, flips)
        psi3 = psi1
        while psi3.gamma in (psi1.gamma, psi2.gamma):
            word = tuple(
                rs.positive_roots[rng.randrange(len(rs.positive_roots))]
                for _ in range(2)
            )
            psi3 = transform(psi1, word=word)
        for k in range(B.n):
            maps = [mutation_map_inward(psi, B, k) for psi in (psi1, psi2, psi3)]
            assert maps[0] == maps[1] == maps[2], (B.entries, k)
            assert phi_in_type_a(B, k) == maps[0], (B.entries, k)
    elapsed = time.perf_counter() - start
    report(6, "mutation-map-well-defined", f"20 quivers, all vertices, {elapsed:.1f}s")


def test_criterion_7_parity_outside_type_a():
    start = time.perf_counter()
    for label in ("D6", "E6"):
        rng = random.Random(f"{label}:parity")
        rs = build_root_system(DynkinType.parse(label))
        psi, B = None, None
        for i in range(1000):
            if i % 25 == 0:
                psi, B = random_pair(label, seed=10_000 + i)
            k = rng.randrange(B.n)
            alpha = rs.positive_roots[rng.randrange(len(rs.positive_roots))]
            exact, estimate = inward_update_components(psi, B, k, alpha)
            assert (estimate - exact) % 2 == 0, (label, i, k, alpha)
    elapsed = time.perf_counter() - start
    report(7, "parity-outside-type-a", f"2000 triples, {elapsed:.1f}s")


def test_criterion_8_recognition():
    start = time.perf_counter()
    for n in range(1, 9):
        assert dynkin_type_of(dynkin_orientation(f"A{n}")) == DynkinType("A", n)
    count = 0
    for n in range(1, 7):
        for T in enumerate_triangulations(n):
            B = quiver_from_triangulation(T)
            assert finite_type_failure(B) is None
            assert dynkin_type_of(B) == DynkinType("A", n)
            count += 1
    square = ExchangeMatrix.from_arrows(4, [(0, 1), (1, 2), (3, 2), (0, 3)])
    assert finite_type_failure(square) == CYCLE_NOT_ORIENTED
    all_minus = ((2, -1, -1), (-1, 2, -1), (-1, -1, 2))
    assert not is_positive_quasi_cartan(all_minus)
    double = ExchangeMatrix.from_rows([[0, 2], [-2, 0]])
    assert finite_type_failure(double) == NO_POSITIVE_COMPANION
    elapsed = time.perf_counter() - start
    report(8, "recognition", f"{count + 8} accepted + rejection cases, {elapsed:.1f}s")


def test_criterion_9_string_combinatorics():
    start = time.perf_counter()
    for n in range(1, 7):
        triangulations = enumerate_triangulations(n)
        assert len(triangulations) == catalan(n + 1)
        for T in triangulations:
            B = quiver_from_triangulation(T)
            walks = enumerate_strings(B)
            assert len(walks) == n * (n + 1) // 2
            pairs = {(w[0], w[-1]) for w in walks}
            expected = {(a, b) for a in range(n) for b in range(a, n)}
            assert pairs == expected
    elapsed = time.perf_counter() - start
    report(9, "string-combinatorics", f"n<=6 exhaustive, {elapsed:.1f}s")
