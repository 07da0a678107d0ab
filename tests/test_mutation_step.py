"""The local check of a mutation step, against the full scan it replaces.

`_mutate_basis` remembers its result as checked against mutate(B, k) when
the pairs of k's neighbours with a reflected end match (its docstring gives
the argument).  The oracle is companion_basis_failure on a copy of the
result made with `CompanionBasis._from_ids`, which holds no memo and no
unimodular flag, so it runs the determinant and every pair.  Every step
must agree with it twice: the memo is set exactly when the oracle passes,
and the caller's companion_basis_failure returns the oracle's value.  The
step must also reflect the side of k that the dense column k names.

Run as a script, it walks longer and prints its counts per type; it exits 1
on the first step that disagrees:

    PYTHONPATH=src python tests/test_mutation_step.py [A30 D20 E8 ...] [--steps 20000]
"""

from __future__ import annotations

import random
import sys
import time
from collections import Counter

from companion_bases.companion import (
    CompanionBasis,
    companion_basis_failure,
    initial_companion_basis,
    mutate_inward,
    mutate_outward,
    sign_change,
    transform,
)
from companion_bases.quiver import ExchangeMatrix
from companion_bases.root_system import DynkinType, RootSystem, diagram_automorphisms

TIER1_TYPES = [f"A{n}" for n in range(1, 15)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]
TIER1_STEPS = 300


def orientation(label: str) -> ExchangeMatrix:
    """The orientation of the Dynkin diagram with arrows along increasing labels."""
    dynkin = DynkinType.parse(label)
    return ExchangeMatrix.from_arrows(dynkin.rank, dynkin.edges())


def oracle_walk(label: str, steps: int, seed: int = 0) -> Counter:
    """Counts of one seeded walk of inward and outward steps, each checked by the oracle.

    Before about one step in five the basis is replaced by a sign change or
    a transform (a random reflection, after a random diagram automorphism),
    whose result carries no memo, so the next step's precondition runs the
    full check.  A step the oracle fails is counted and not taken.  Raises
    AssertionError, naming the step, on any disagreement.
    """
    rng = random.Random(f"mutation-step:{label}:{seed}")
    B = orientation(label)
    psi = initial_companion_basis(B)
    rs = psi.rs
    perms = diagram_automorphisms(rs.dynkin)
    counts = Counter()
    for step in range(steps):
        r = rng.random()
        if r < 0.1:
            psi = sign_change(psi, [x for x in range(B.n) if rng.random() < 0.5])
            counts["sign changes"] += 1
        elif r < 0.2:
            mirror = rs.root(rng.randrange(len(rs.positive_roots)))
            psi = transform(psi, word=[mirror], perm=rng.choice(perms))
            counts["transforms"] += 1
        k, inward = rng.randrange(B.n), rng.random() < 0.5
        mutated, mutated_B = (mutate_inward if inward else mutate_outward)(psi, B, k)
        # the reflected side, read from column k: the tails x -> k (b_xk > 0)
        # inward, the heads k -> x (b_xk < 0) outward
        h_k = psi.ids[k]
        expected = tuple(
            rs.reflect_handle(h, h_k) if row[k] and (row[k] > 0) == inward else h
            for h, row in zip(psi.ids, B.entries)
        )
        assert mutated.ids == expected, (label, seed, step, k, inward)
        remembered = mutated._checked is mutated_B
        fresh = companion_basis_failure(CompanionBasis._from_ids(rs, mutated.ids), mutated_B)
        verdict = companion_basis_failure(mutated, mutated_B)
        where = (label, seed, step, k, inward)
        assert remembered == (fresh is None), (*where, remembered, fresh)
        assert verdict == fresh, (*where, verdict, fresh)
        counts["steps"] += 1
        counts["remembered"] += remembered
        if fresh is None:
            psi, B = mutated, mutated_B
        else:
            counts["failed"] += 1
    return counts


def test_the_local_check_agrees_with_the_full_scan_on_every_step():
    total = Counter()
    for label in TIER1_TYPES:
        counts = oracle_walk(label, TIER1_STEPS)
        # the mutation theorem: every step of a true walk is a companion basis
        assert counts["failed"] == 0 and counts["remembered"] == TIER1_STEPS, (label, counts)
        total += counts
    assert total["sign changes"] > 300 and total["transforms"] > 300


def test_a_wrong_reflection_leaves_the_memo_unset_and_the_message_unchanged(monkeypatch):
    # reflect_handle returns the unreflected root: the result is still a
    # Z-basis, and it fails exactly at steps where k has both a tail and a head
    monkeypatch.setattr(RootSystem, "reflect_handle", lambda self, h, m: h)
    total = Counter()
    for label in ["A4", "A9", "D6", "D10", "E6", "E8"]:
        total += oracle_walk(label, 300)
    # both branches ran: the oracle walk asserted memo and message on each
    assert total["failed"] > 100
    assert total["remembered"] > 100


def test_a_failing_step_is_reported_by_the_caller_as_by_a_fresh_scan(monkeypatch):
    # the oriented A3 path 0 -> 1 -> 2 has tail 0 and head 2 at k = 1
    B = orientation("A3")
    psi = initial_companion_basis(B)
    monkeypatch.setattr(RootSystem, "reflect_handle", lambda self, h, m: h)
    for op in (mutate_inward, mutate_outward):
        mutated, mutated_B = op(psi, B, 1)
        assert mutated._checked is None
        fresh = CompanionBasis._from_ids(psi.rs, mutated.ids)
        assert companion_basis_failure(fresh, mutated_B) == "form/arrow mismatch at (0,2)"
        assert companion_basis_failure(mutated, mutated_B) == "form/arrow mismatch at (0,2)"
        assert mutated._checked is None


def main(argv: list[str]) -> int:
    steps = 20_000
    if "--steps" in argv:
        at = argv.index("--steps")
        steps = int(argv[at + 1])
        argv = argv[:at] + argv[at + 2 :]
    for label in argv or ["A30", "D20", "E8"]:
        start = time.perf_counter()
        try:
            counts = oracle_walk(label, steps)
        except AssertionError as error:
            print(f"{label}: the local check disagrees with the full scan at {error}")
            return 1
        if counts["failed"] or counts["remembered"] != steps:
            print(f"{label}: {dict(counts)}: a true walk failed a step")
            return 1
        elapsed = time.perf_counter() - start
        print(f"{label}: {dict(sorted(counts.items()))}, {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
