"""Simply-laced root systems with exact integer arithmetic.

Roots are stored as integer coordinate vectors over the simple roots; the
ambient Euclidean space is never materialised.  The bilinear form is given by
the Cartan matrix, normalised so every root has squared length 2.
"""

from __future__ import annotations

import re
from array import array
from functools import cached_property, lru_cache
from operator import attrgetter

from .intlinalg import solve_unimodular

# bench/test_bench.py checks that tracing wraps det_bareiss here too
from .intlinalg import det_bareiss  # noqa: F401

Root = tuple[int, ...]

POSITIVE_ROOT = "positive_root"
NEGATIVE_ROOT = "negative_root"
NOT_ROOT = "not_root"


# The largest rank or vertex count a reader accepts (DynkinType.parse and
# quiver.exchange_matrix_from_data), checked before anything of size n^2 is
# built.  Loading the empty quiver on 4000 vertices took 2.4 s and peaked at
# 260 MB (2-core x86 VM, Python 3.11), and the peak grows as n^2.  The
# constructors do not check it.
MAX_RANK = 4000

# Bits per field of a packed row (RootSystem.packed_coordinates), one byte,
# and |c| of a field holding c + 2^(FIELD_BITS - 1), a bias that keeps it >= 0
FIELD_BITS = 8
_ABS_OF_BIASED = bytes(abs(b - (1 << (FIELD_BITS - 1))) for b in range(1 << FIELD_BITS))


def parse_int(text: str) -> int:
    """An integer written as ASCII -?[0-9]+, with nothing around it.

    int() would also take spaces, underscores, a plus sign and non-ASCII
    digits; those raise ValueError here.
    """
    if not re.fullmatch(r"-?[0-9]+", text):
        raise ValueError(f"not an ASCII integer: {text!r}")
    return int(text)


def _read_tuple(value, what: str) -> tuple:
    """tuple(value), read once; ValueError, not TypeError, when it is not iterable."""
    try:
        return tuple(value)
    except TypeError:
        raise ValueError(f"{what} must be iterable, not {value!r}") from None


class Frozen:
    """Base of the immutable value types: a frozen dataclass's behaviour without
    importing dataclasses.  A subclass names its fields in _fields and sets
    each once in __init__ with object.__setattr__; pickle and copy call __init__."""

    def __init_subclass__(cls):
        # equality and hashing compare the field values, in _fields order
        cls._key = property(attrgetter(*cls._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self._fields)


class DynkinType(Frozen):
    """One of the simply-laced families A (rank >= 1), D (>= 4), E (6, 7, 8)."""

    family: str
    rank: int
    _fields = ("family", "rank")

    def __init__(self, family: str, rank: int):
        # a bool, float or other non-int rank is refused like rank 0
        checked = rank if type(rank) is int else 0
        if family == "A":
            ok = checked >= 1
        elif family == "D":
            ok = checked >= 4
        elif family == "E":
            ok = checked in (6, 7, 8)
        else:
            raise ValueError(f"unknown family {family!r}")
        if not ok:
            raise ValueError(f"invalid rank {rank!r} for family {family}")
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "rank", rank)

    @classmethod
    def parse(cls, text: str) -> DynkinType:
        """Parse a label like "A4", "D5" or "E6"; the rank is read by parse_int.

        A rank above MAX_RANK raises ValueError.
        """
        text = text.strip()
        try:
            rank = parse_int(text[1:])
        except ValueError:
            raise ValueError(f"cannot parse Dynkin type {text!r}") from None
        if rank > MAX_RANK:
            raise ValueError(f"rank {rank} is above the cap of {MAX_RANK}")
        return cls(text[0].upper(), rank)

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges of the Dynkin diagram on vertices 0..rank-1 (Bourbaki shape)."""
        n = self.rank
        if self.family == "A":
            return tuple((i, i + 1) for i in range(n - 1))
        if self.family == "D":
            path = [(i, i + 1) for i in range(n - 3)]
            return tuple(path + [(n - 3, n - 2), (n - 3, n - 1)])
        # E: chain 0-2-3-4-...-(n-1) with the extra node 1 attached to 3
        chain = [(0, 2)] + [(i, i + 1) for i in range(2, n - 1)]
        return tuple(chain + [(1, 3)])

    def adjacency(self) -> tuple[frozenset[int], ...]:
        """Neighbour sets of the Dynkin diagram, indexed by vertex."""
        return neighbour_sets(self.rank, self.edges())

    def positive_root_count(self) -> int:
        if self.family == "A":
            return self.rank * (self.rank + 1) // 2
        if self.family == "D":
            return self.rank * (self.rank - 1)
        return {6: 36, 7: 63, 8: 120}[self.rank]


class RootSystem:
    """The roots of one simply-laced Dynkin type, in simple-root coordinates.

    Positive roots are generated once, height by height from the simple
    roots: alpha + e_i is a root exactly when (alpha, e_i) = -1, entry i of
    C alpha, its parent's plus a column of C, held for one height at a time.
    They are kept in a fixed order: graded by coordinate sum, ties broken
    lexicographically.
    `positive_parents[p]` is (q, i) when positive root p is positive root q
    plus e_i, and (-1, i) when p is e_i itself; parents precede children.

    Every root has an integer handle (`locate`): p for positive root p and
    ~p (that is, -p - 1) for its negative.  `form_row(p)` holds the form
    values of positive root p with every positive root; each row is computed
    on first use and memoized, since it depends on the type alone, so no
    method's result ever changes and every method is pure.
    `simple_first` lists the positive handles, the simple roots first in index
    order, then the rest in stored order; `with_form_value(p, w)` lists those
    with form value w against root p, memoized per pair (p, w) asked.
    `reflect_handle` reflects handles through a memoized int array per positive mirror.
    `packed_coordinates` and `json_fragments` are also built on first use.
    """

    def __init__(self, dynkin: DynkinType):
        self.dynkin = dynkin
        self._neighbours = dynkin.adjacency()
        n = dynkin.rank
        self.simple_roots: tuple[Root, ...] = tuple(
            tuple(1 if i == j else 0 for j in range(n)) for i in range(n)
        )
        roots: list[Root] = []
        parents: list[tuple[int, int]] = []
        # next height: root -> (parent, i, the parent's image C parent)
        zero = [0] * n
        layer = {e: (-1, i, zero) for i, e in enumerate(self.simple_roots)}
        index: dict[Root, int] = {}
        while layer:
            images = []  # C alpha for this height's roots only
            for alpha in sorted(layer):
                parent, i, image = layer[alpha]
                # C (parent + e_i) = C parent + column i of C
                image = image.copy()
                image[i] += 2
                for j in self._neighbours[i]:
                    image[j] -= 1
                index[alpha] = len(roots)
                roots.append(alpha)
                parents.append((parent, i))
                images.append(image)
            layer = {}
            for p, image in enumerate(images, len(roots) - len(images)):
                alpha = roots[p]
                for i, value in enumerate(image):
                    if value == -1:
                        child = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                        layer.setdefault(child, (p, i, image))
        self.positive_roots: tuple[Root, ...] = tuple(roots)
        self.positive_parents: tuple[tuple[int, int], ...] = tuple(parents)
        self._index = index
        # the simple roots are the roots of height 1, stored first
        self.simple_first: tuple[int, ...] = tuple(
            index[e] for e in self.simple_roots
        ) + tuple(range(n, len(roots)))
        self._form_rows: list[tuple[int, ...] | None] = [None] * len(roots)
        self._reflection_rows: list[array | None] = [None] * len(roots)
        self._with_value: dict[tuple[int, int], tuple[int, ...]] = {}

    @property
    def rank(self) -> int:
        return self.dynkin.rank

    def _image(self, alpha) -> list[int]:
        """C alpha: entry i is (alpha, e_i), 2 alpha_i minus alpha over i's neighbours."""
        return [
            2 * a - sum([alpha[j] for j in ns]) for a, ns in zip(alpha, self._neighbours)
        ]

    def _vector(self, v) -> Root:
        """The one reader of a root vector: tuple(v), ValueError unless rank plain ints."""
        t = _read_tuple(v, "a root vector")
        if len(t) != self.rank:
            raise ValueError("dimension mismatch")
        if not set(map(type, t)) <= {int}:
            raise ValueError("coordinates must be plain integers")
        return t

    def inner(self, a, b) -> int:
        """Bilinear form a . C b, C the Cartan matrix; equals 2 on every root."""
        return sum(x * y for x, y in zip(self._vector(a), self._image(self._vector(b))))

    def _handle(self, t: Root) -> int | None:
        """Handle of a vector t read by _vector when it is a root, else None."""
        p = self._index.get(t)
        if p is not None:
            return p
        p = self._index.get(tuple(-c for c in t))
        return None if p is None else ~p

    def locate(self, v) -> int:
        """Handle of a root: p for positive root p, ~p for its negative.

        Raises ValueError on a vector _vector refuses or one that is not a
        root (the zero vector included).
        """
        t = self._vector(v)
        h = self._handle(t)
        if h is None:
            raise ValueError(f"{t} is not a root")
        return h

    def root(self, h: int) -> Root:
        """The root with handle h; the inverse of locate."""
        if h >= 0:
            return self.positive_roots[h]
        return tuple([-c for c in self.positive_roots[~h]])

    def form_row(self, p: int) -> tuple[int, ...]:
        """(alpha_p, alpha_q) for every positive root q, in stored order.

        Computed on first use from the image C alpha_p: the entry of q is its
        parent's entry plus (alpha_p, e_i) = (C alpha_p)_i.
        """
        row = self._form_rows[p]
        if row is None:
            image = self._image(self.positive_roots[p])
            values: list[int] = []
            for parent, i in self.positive_parents:
                values.append(image[i] if parent < 0 else values[parent] + image[i])
            row = self._form_rows[p] = tuple(values)
        return row

    def with_form_value(self, p: int, value: int) -> tuple[int, ...]:
        """Positive handles q with (alpha_p, alpha_q) = value, in simple_first order.

        Filtered from form_row(p) on the first call for (p, value), memoized per pair.
        """
        found = self._with_value.get((p, value))
        if found is None:
            row = self.form_row(p)
            found = tuple(q for q in self.simple_first if row[q] == value)
            self._with_value[p, value] = found
        return found

    def form(self, h: int, k: int) -> int:
        """The bilinear form on two roots given by their handles; a lookup."""
        value = self.form_row(h if h >= 0 else ~h)[k if k >= 0 else ~k]
        return value if (h < 0) == (k < 0) else -value

    def reflect_handle(self, h: int, m: int) -> int:
        """Handle of s_m(h), the reflection of root h in the hyperplane of root m.

        s_-m = s_m and s_m(-alpha) = -s_m(alpha), so one row per positive mirror
        p serves: entry q is the handle of alpha_q - (alpha_q, alpha_p) alpha_p,
        computed on first use and memoized like form_row, as an int array.
        """
        p = m if m >= 0 else ~m
        row = self._reflection_rows[p]
        if row is None:
            mirror = self.positive_roots[p]
            row = self._reflection_rows[p] = array("i", [
                self.locate([a - c * b for a, b in zip(alpha, mirror)]) if c else q
                for q, (alpha, c) in enumerate(zip(self.positive_roots, self.form_row(p)))
            ])
        return row[h] if h >= 0 else ~row[~h]

    @cached_property
    def packed_coordinates(self) -> tuple[int, ...]:
        """P_i = sum_p (alpha_p)_i 2^(FIELD_BITS p) for each simple index i.

        Solving M X = P for a basis matrix M gives one packed row per basis
        element, its coefficient c_p in each positive root p, and `abs_keys`
        reads |c_p| back exactly while |c_p| < 2^(FIELD_BITS - 1).  For every
        Z-basis of the root lattice made of roots it is:
        A_n: |c| <= 1, because the basis is a spanning tree of K_{n+1};
        D_n: |c| <= 2, because it is a connected unicyclic signed graph with an unbalanced cycle;
        E_n: |c| <= sqrt(2^n / det C) <= 16, by Cauchy-Schwarz in the Gram form A,
        where c_x^2 <= 2 (A^-1)_xx, and Hadamard on the minor.
        """
        return tuple(int.from_bytes(bytes(c), "little") for c in zip(*self.positive_roots))

    def abs_keys(self, rows) -> list[bytes]:
        """bytes(|c_0p|, ..., |c_(n-1)p|) for each positive root p, in stored order.

        Packed row i holds c_ip in field p.  Every field plus 2^(FIELD_BITS - 1)
        is nonnegative, so no borrow crosses a field; row i's bytes fill every
        n-th byte of one buffer from byte i, whose n-byte slices are the keys.
        """
        n, count = self.rank, len(self.positive_roots)
        bias = int.from_bytes(bytes([1 << (FIELD_BITS - 1)]) * count, "little")
        buf = bytearray(n * count)
        for i, x in enumerate(rows):
            buf[i::n] = (x + bias).to_bytes(count, "little")
        buf = bytes(buf).translate(_ABS_OF_BIASED)
        return [buf[j : j + n] for j in range(0, len(buf), n)]

    @cached_property
    def json_fragments(self) -> tuple[str, ...]:
        """Each positive root as canonical JSON text, such as "[0,1,1]"."""
        return tuple(f"[{','.join(map(str, r))}]" for r in self.positive_roots)

    def classify(self, v) -> str:
        """Sort a coordinate vector into positive_root / negative_root / not_root."""
        h = self._handle(self._vector(v))
        if h is None:
            return NOT_ROOT
        return POSITIVE_ROOT if h >= 0 else NEGATIVE_ROOT


@lru_cache(maxsize=None)
def build_root_system(dynkin: DynkinType) -> RootSystem:
    """Shared RootSystem for a Dynkin type; its form rows fill in as they are used."""
    return RootSystem(dynkin)


def neighbour_sets(n: int, edges) -> tuple[frozenset[int], ...]:
    """Neighbour sets of the graph on vertices 0..n-1 with the given edges."""
    adjacency = [set() for _ in range(n)]
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)
    return tuple(map(frozenset, adjacency))


def breadth_first(neighbours, root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from root, neighbours in index order, and the parents."""
    parent = [-1] * len(neighbours)
    parent[root] = root
    order = [root]
    for v in order:
        for u in sorted(neighbours[v]):
            if parent[u] < 0:
                parent[u] = v
                order.append(u)
    return order, parent


def placements(n: int, placing):
    """Backtracking over positions 0..n-1 on an explicit stack of generators.

    placing(pos) records in turn each trial for position pos that fits 0..pos-1,
    yielding after each.  Yields whenever all n positions hold a trial.
    """
    trials = [placing(0)]
    while trials:
        for _ in trials[-1]:
            if len(trials) < n:
                trials.append(placing(len(trials)))
                break
            yield
        else:
            trials.pop()


def graph_isomorphisms(source, target):
    """Every bijection v -> image[v] that maps source's edges onto target's, sorted.

    Both graphs are lists of neighbour sets on vertices 0..n-1; source must be
    connected.  Vertices are placed breadth-first from vertex 0, as roots are
    in _gram_realization: vertex 0 tries every target, each later vertex the
    neighbours of its parent's image in index order, keeping a new target of
    its degree whose adjacency to every placed vertex matches.
    """
    n = len(source)
    if n == 0:
        yield ()
        return
    order, parent = breadth_first(source, 0)
    if len(order) < n:
        raise ValueError("source graph is not connected")
    image = [-1] * n

    def placing(pos: int):
        v = order[pos]
        s_v, placed = source[v], order[:pos]
        for c in sorted(target[image[parent[v]]]) if pos else range(n):
            t_c = target[c]
            if len(t_c) == len(s_v) and all(
                image[u] != c and (u in s_v) == (image[u] in t_c) for u in placed
            ):
                image[v] = c
                yield

    yield from sorted(tuple(image) for _ in placements(n, placing))


def diagram_automorphisms(dynkin: DynkinType) -> list[tuple[int, ...]]:
    """Every permutation of the simple-root indices preserving the Cartan matrix, sorted."""
    adjacency = dynkin.adjacency()
    return list(graph_isomorphisms(adjacency, adjacency))


def apply_automorphism(perm, v) -> Root:
    """Permute simple-root coordinates: index i is sent to perm[i]."""
    out = [0] * len(v)
    for i, c in enumerate(v):
        out[perm[i]] = c
    return tuple(out)


def lattice_inverse(basis) -> tuple[tuple[int, ...], ...]:
    """Integer matrix sending simple coordinates to basis coefficients: a solve on I."""
    n = len(basis)
    if any(len(b) != n for b in basis):
        raise ValueError("basis vectors must have length equal to their number")
    identity = [[int(i == j) for j in range(n)] for i in range(n)]
    return tuple(map(tuple, solve_unimodular(list(zip(*basis)), identity)))
