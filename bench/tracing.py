"""Per-layer tracing for the benchmark, installed from outside the library.

Every traced function of `companion_bases` is replaced at run time by a
wrapper that opens a span on entry and closes it on exit.  A span is folded
into per-name totals as soon as it closes, so memory stays flat however many
calls an item makes.  A span's self time is its duration minus the time its
child spans cover.  Nothing under `src/` is edited: `uninstall` puts every
original object back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

PACKAGE = "companion_bases"

# Span name -> (module, attribute).  Span names are "<module>.<function>",
# the layer being the package module the function is defined in.  A dotted
# attribute is a method and is wrapped on its class.  A plain function is
# wrapped in every package module that holds it, because `from .x import f`
# copies the binding into the importing module, where it is looked up.
TARGETS = {
    "root_system.inner": ("root_system", "RootSystem.inner"),
    "root_system.classify": ("root_system", "RootSystem.classify"),
    "root_system.lattice_inverse": ("root_system", "lattice_inverse"),
    "root_system.build_root_system": ("root_system", "build_root_system"),
    "intlinalg.det_bareiss": ("intlinalg", "det_bareiss"),
    "intlinalg.solve_fractions": ("intlinalg", "solve_fractions"),
    "intlinalg.mat_vec": ("intlinalg", "mat_vec"),
    "intlinalg.gf2_solve": ("intlinalg", "gf2_solve"),
    "quiver.mutate": ("quiver", "mutate"),
    "quiver.mutate_entries": ("quiver", "mutate_entries"),
    "quiver.chordless_cycles": ("quiver", "chordless_cycles"),
    "quiver.finite_type_failure": ("quiver", "finite_type_failure"),
    "quiver.canonical_companion": ("quiver", "canonical_companion"),
    "quiver.is_positive_quasi_cartan": ("quiver", "is_positive_quasi_cartan"),
    "quiver.loads_exchange_matrix": ("quiver", "loads_exchange_matrix"),
    "companion.inverse": ("companion", "CompanionBasis.inverse"),
    "companion.d_vector_set": ("companion", "d_vector_set"),
    "companion.companion_basis_failure": ("companion", "companion_basis_failure"),
    "companion.mutate_inward": ("companion", "mutate_inward"),
    "companion.mutate_outward": ("companion", "mutate_outward"),
    "companion.find_mutation_sequence_to_tree": (
        "companion",
        "find_mutation_sequence_to_tree",
    ),
    "companion.companion_basis_for": ("companion", "companion_basis_for"),
    "companion.initial_companion_basis": ("companion", "initial_companion_basis"),
    "companion.loads_companion_basis": ("companion", "loads_companion_basis"),
    "type_a.quiver_from_triangulation": ("type_a", "quiver_from_triangulation"),
    "type_a.relations_of": ("type_a", "relations_of"),
    "type_a.enumerate_strings": ("type_a", "enumerate_strings"),
    "type_a.is_strong_companion_basis": ("type_a", "is_strong_companion_basis"),
    "cli.main": ("cli", "main"),
}

SEARCH = "companion.find_mutation_sequence_to_tree"
SEARCH_STEP = "quiver.mutate_entries"


class Tracer:
    """Stack of open spans plus per-name totals of closed ones.

    `edges[(parent, name)]` counts closed spans by the span that caused them
    (parent None for a top-level span); `self_s[name]` sums self time;
    `top_s` sums the durations of top-level spans; `path_len` sums the
    lengths of the vertex paths the search returned.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self._stack: list[list] = []
        self.edges: Counter = Counter()
        self.self_s: Counter = Counter()
        self.path_len = 0
        self.top_s = 0.0

    def enter(self, name: str) -> None:
        stack = self._stack
        self.edges[(stack[-1][0] if stack else None, name)] += 1
        stack.append([name, self.clock(), 0.0])

    def leave(self) -> None:
        name, start, child_s = self._stack.pop()
        duration = self.clock() - start
        self.self_s[name] += duration - child_s
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_s += duration

    def calls(self) -> Counter:
        out: Counter = Counter()
        for (_, name), count in self.edges.items():
            out[name] += count
        return out


def _wrap(tracer: Tracer, span: str, fn):
    enter, leave = tracer.enter, tracer.leave
    is_search = span == SEARCH

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        enter(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            leave()
        if is_search:
            tracer.path_len += len(result)
        return result

    return wrapper


def package_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every target; returns the (owner, attribute, original) patches made."""
    modules = package_modules()
    patches = []
    for span, (module_name, path) in TARGETS.items():
        module = sys.modules[f"{PACKAGE}.{module_name}"]
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = vars(owner)[attr]
            setattr(owner, attr, _wrap(tracer, span, original))
            patches.append((owner, attr, original))
            continue
        original = vars(module)[attr]
        wrapper = _wrap(tracer, span, original)
        for holder in modules:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    patches.append((holder, key, original))
    return patches


def uninstall(patches) -> list[str]:
    """Restore every patch; returns the attributes not left identical to the original."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)
    return [
        f"{owner.__name__}.{attr}"
        for owner, attr, original in patches
        if vars(owner).get(attr) is not original
    ]


def layer_metrics(tracer: Tracer, items: int) -> dict[str, float]:
    """Per-item calls and self time of every target, plus the search ratios."""
    calls = tracer.calls()
    out: dict[str, float] = {}
    for span in TARGETS:
        out[f"{span}.calls_per_item"] = calls[span] / items
        out[f"{span}.self_ms_per_item"] = tracer.self_s[span] * 1000.0 / items
    inverses = calls["companion.inverse"]
    out["companion.inverse.compute_ratio"] = (
        calls["root_system.lattice_inverse"] / inverses if inverses else 0.0
    )
    states = tracer.edges[(SEARCH, SEARCH_STEP)]
    out["companion.search.states_per_item"] = states / items
    out["companion.search.path_len_per_item"] = tracer.path_len / items
    out["companion.search.useful_ratio"] = tracer.path_len / states if states else 0.0
    return out


def layer_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric the traced run reports, with (unit, better)."""
    units = {}
    for span in TARGETS:
        units[f"{span}.calls_per_item"] = ("calls/item", "lower")
        units[f"{span}.self_ms_per_item"] = ("ms/item", "lower")
    units.update(
        {
            "root_system.build_root_system.self_s": ("s", "lower"),
            "companion.inverse.compute_ratio": ("ratio", "lower"),
            "companion.search.states_per_item": ("states/item", "lower"),
            "companion.search.path_len_per_item": ("steps/item", "lower"),
            "companion.search.useful_ratio": ("ratio", "higher"),
            "trace.overhead_ratio": ("ratio", "lower"),
            "trace.coverage": ("ratio", "higher"),
        }
    )
    return units
