"""The benchmark's workloads: seeded inputs and the checked items they run.

An item is the unit that is timed and checked: a callable that returns None
when the library's output passed its check and a short reason otherwise.  A
pass is the fixed list of items a workload repeats; every pass does exactly
the same work, so per-pass figures are comparable within a run.

Library functions are looked up through their modules at call time, so the
wrappers of `tracing.install` see every call an item makes.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import random
import sys
from typing import Callable, Optional

from companion_bases import cli, companion, quiver, root_system, type_a

Item = tuple[str, Callable[[], Optional[str]]]

# Seed of the inputs whose cost varies most from one draw to the next; see
# DVECTORS_BASES and CONSTRUCT_TRIANGULATIONS.  --seed still draws the rest.
LIST_SEED = 0

WALK_TYPES = ("A8", "D8", "E6", "E7", "E8")
WALK_STEPS = 200

# Bases per type, each giving one sign change and one transport.  An item's
# cost depends mostly on its basis and, for a transport, on its reflection
# word, so bases and words come from LIST_SEED and --seed draws the sign
# changes and automorphisms, which barely change the cost: seeded bases moved
# p95 by 25 % between seeds, and seeded words left a p95 spread of 0.12 over
# five seeds (the slowest items are rank-12 transports).
# Rank-12 items cost 2-3x the rank-8 ones; with equal counts the median fell
# in the gap between the two groups and moved by a quarter between runs, so
# the rank-8 types get 70 % of the items.
DVECTORS_BASES = {"A12": 15, "D8": 35, "D12": 15, "E8": 35}
DVECTORS_WALK_STEPS = 40

# Items per kind: half triangulations, half mutated D/E quivers, weighted to
# the smaller ranks so that a pass (about 5 s) repeats often enough in a run
# for per-item median times to be steady; A12 and D10 keep the search's heavy
# tail (items up to 0.5-0.9 s).  D12 and A13+ stay out until the search is
# replaced: one D12 item took up to 6 s.  The list comes from LIST_SEED and
# --seed only orders it: search cost is so heavy-tailed (one item can cost
# 60x the median) that a seeded choice of 60 quivers moved a pass's total
# time by 2x between seeds.
CONSTRUCT_TRIANGULATIONS = {10: 60, 11: 30, 12: 12}
CONSTRUCT_MUTATED = {"E7": 60, "E8": 30, "D10": 12}
CONSTRUCT_MUTATION_STEPS = 60


def dynkin(label: str) -> root_system.DynkinType:
    return root_system.DynkinType.parse(label)


def standard_orientation(label: str) -> quiver.ExchangeMatrix:
    dt = dynkin(label)
    return quiver.ExchangeMatrix.from_arrows(dt.rank, dt.edges())


def random_walk(psi, B, steps: int, rng: random.Random):
    """Random inward/outward basis mutations, each vertex and side equally likely."""
    for _ in range(steps):
        k = rng.randrange(B.n)
        op = companion.mutate_inward if rng.random() < 0.5 else companion.mutate_outward
        psi, B = op(psi, B, k)
    return psi, B


class Walk:
    """One seeded mutation walk, replayed from its start every pass."""

    def __init__(self, label: str, rng: random.Random):
        B = standard_orientation(label)
        self.start = (companion.initial_companion_basis(B), B)
        self.steps = [(rng.randrange(B.n), rng.random() < 0.5) for _ in range(WALK_STEPS)]
        self.state = self.start

    def step(self, i: int) -> str | None:
        if i == 0:
            self.state = self.start
        k, inward = self.steps[i]
        op = companion.mutate_inward if inward else companion.mutate_outward
        # a failed step restarts the walk, so the steps after it still run
        psi, B = self.state
        self.state = self.start
        psi, B = op(psi, B, k)
        failure = companion.companion_basis_failure(psi, B)
        if failure is None:
            self.state = (psi, B)
        return failure


def mutation_walk(seed: int) -> list[Item]:
    """Item: one step of a 200-step walk (mutate, then revalidate the basis)."""
    items: list[Item] = []
    for label in WALK_TYPES:
        walk = Walk(label, random.Random(f"mutation_walk:{seed}:{label}"))
        for i in range(WALK_STEPS):
            items.append((f"{label} step {i}", functools.partial(walk.step, i)))
    return items


def run_cli(argv, stdin_text: str) -> tuple[int, str, str]:
    """In-process `companion-bases` call with stdin supplied and output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        saved, sys.stdin = sys.stdin, io.StringIO(stdin_text)
        try:
            code = cli.main(argv)
        finally:
            sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def dvectors_item(text: str, n_positive: int, expected: frozenset) -> str | None:
    code, out, err = run_cli(["dvectors"], text)
    if code != 0:
        return f"exit {code}: {err.strip()}"
    report = json.loads(out)
    if report["count"] != n_positive:
        return f"count {report['count']}, expected {n_positive}"
    if {tuple(row["d"]) for row in report["vectors"]} != expected:
        return "d-vector set differs from the untransformed basis"
    return None


def dvectors_cli(seed: int) -> list[Item]:
    """Item: `dvectors` on a sign change or transport of a walked basis."""
    walks = random.Random(f"dvectors_cli:{LIST_SEED}")
    words = random.Random(f"dvectors_cli:{LIST_SEED}:words")
    rng = random.Random(f"dvectors_cli:{seed}")
    items: list[Item] = []
    for label, bases in DVECTORS_BASES.items():
        rs = root_system.build_root_system(dynkin(label))
        perms = root_system.diagram_automorphisms(rs.dynkin)
        n_positive = len(rs.positive_roots)
        for b in range(bases):
            B = standard_orientation(label)
            psi, B = random_walk(
                companion.initial_companion_basis(B), B, DVECTORS_WALK_STEPS, walks
            )
            expected = companion.d_vector_set(psi).vectors
            word = tuple(
                rs.positive_roots[words.randrange(n_positive)]
                for _ in range(words.randrange(1, 4))
            )
            flips = [x for x in range(B.n) if rng.random() < 0.5]
            moved_flips = [x for x in range(B.n) if rng.random() < 0.5]
            perm = perms[rng.randrange(len(perms))]
            variants = {
                "sign change": companion.sign_change(psi, flips),
                "transport": companion.transform(
                    companion.sign_change(psi, moved_flips), word=word, perm=perm
                ),
            }
            for how, variant in variants.items():
                text = companion.dumps_companion_basis(variant, B)
                items.append(
                    (
                        f"{label} basis {b} {how}",
                        functools.partial(dvectors_item, text, n_positive, expected),
                    )
                )
    return items


def construct_triangulation_item(T) -> str | None:
    B = type_a.quiver_from_triangulation(T)
    psi = companion.companion_basis_for(B)
    if not type_a.is_strong_companion_basis(psi, B):
        return "basis is not strong"
    return None


def construct_mutated_item(B, n_positive: int) -> str | None:
    psi = companion.companion_basis_for(B)
    failure = companion.companion_basis_failure(psi, B)
    if failure is not None:
        return failure
    count = len(companion.d_vector_set(psi))
    if count != n_positive:
        return f"{count} d-vectors, expected {n_positive}"
    return None


def construct(seed: int) -> list[Item]:
    """Item: `companion_basis_for` on one quiver of a fixed list, then its check."""
    rng = random.Random(f"construct:{LIST_SEED}")
    items: list[Item] = []
    for n, count in CONSTRUCT_TRIANGULATIONS.items():
        for i in range(count):
            T = type_a.random_triangulation(n, rng)
            items.append(
                (f"A{n} triangulation {i}", functools.partial(construct_triangulation_item, T))
            )
    for label, count in CONSTRUCT_MUTATED.items():
        n_positive = dynkin(label).positive_root_count()
        for i in range(count):
            B = standard_orientation(label)
            for _ in range(CONSTRUCT_MUTATION_STEPS):
                B = quiver.mutate(B, rng.randrange(B.n))
            items.append(
                (f"{label} mutated {i}", functools.partial(construct_mutated_item, B, n_positive))
            )
    random.Random(f"construct:{seed}").shuffle(items)
    return items


# Workload name -> (Dynkin types it uses, generator of one pass from a seed).
WORKLOADS = {
    "mutation_walk": (WALK_TYPES, mutation_walk),
    "dvectors_cli": (tuple(DVECTORS_BASES), dvectors_cli),
    "construct": (
        tuple(f"A{n}" for n in CONSTRUCT_TRIANGULATIONS) + tuple(CONSTRUCT_MUTATED),
        construct,
    ),
}
