import itertools
import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from companion_bases.root_system import (
    NEGATIVE_ROOT,
    NOT_ROOT,
    POSITIVE_ROOT,
    DynkinType,
    RootSystem,
    apply_automorphism,
    build_root_system,
    diagram_automorphisms,
    graph_isomorphisms,
    lattice_inverse,
    neighbour_sets,
)
from companion_bases.companion import CompanionBasis

A2 = build_root_system(DynkinType("A", 2))
A3 = build_root_system(DynkinType("A", 3))
A4 = build_root_system(DynkinType("A", 4))


def dense_image(cartan, b):
    """C b from the dense Cartan matrix, independent of RootSystem's neighbour sets."""
    return [sum(c * y for c, y in zip(row, b)) for row in cartan]


def dense_form(cartan, a, b):
    """sum of a_i C_ij b_j over every entry of the dense Cartan matrix."""
    return sum(x * y for x, y in zip(a, dense_image(cartan, b)))


def parent_chain_oracle(dynkin):
    """Positive roots, parents and simple_first as RootSystem built them before
    it carried images along the parents: C alpha recomputed for every root."""
    n = dynkin.rank
    neighbours = dynkin.adjacency()
    simple = [tuple(1 if i == j else 0 for j in range(n)) for i in range(n)]
    roots, parents, index = [], [], {}
    layer = {e: (-1, i) for i, e in enumerate(simple)}
    while layer:
        start = len(roots)
        for alpha in sorted(layer):
            index[alpha] = len(roots)
            roots.append(alpha)
            parents.append(layer[alpha])
        layer = {}
        for p in range(start, len(roots)):
            alpha = roots[p]
            image = [2 * a - sum(alpha[j] for j in ns) for a, ns in zip(alpha, neighbours)]
            for i, value in enumerate(image):
                if value == -1:
                    child = alpha[:i] + (alpha[i] + 1,) + alpha[i + 1 :]
                    layer.setdefault(child, (p, i))
    simple_first = tuple(index[e] for e in simple) + tuple(range(n, len(roots)))
    return tuple(roots), tuple(parents), simple_first


@pytest.mark.parametrize(
    "label",
    [f"A{n}" for n in range(1, 41)] + [f"D{n}" for n in range(4, 31)] + ["E6", "E7", "E8"],
)
def test_roots_built_along_the_parent_chain_match_the_per_root_images(label):
    dynkin = DynkinType.parse(label)
    rs = RootSystem(dynkin)
    assert (rs.positive_roots, rs.positive_parents, rs.simple_first) == parent_chain_oracle(
        dynkin
    )
    assert len(rs.positive_roots) == dynkin.positive_root_count()


def norm2_box_oracle(dynkin, bound):
    """All positive-coordinate vectors of squared length 2 in a box.

    In the simply-laced lattices these are exactly the positive roots.
    """
    cartan = dynkin.cartan_matrix()
    n = dynkin.rank
    out = set()
    for v in itertools.product(range(0, bound + 1), repeat=n):
        if any(v) and dense_form(cartan, v, v) == 2:
            out.add(v)
    return out


def test_dynkin_validation():
    with pytest.raises(ValueError):
        DynkinType("A", 0)
    with pytest.raises(ValueError):
        DynkinType("D", 3)
    with pytest.raises(ValueError):
        DynkinType("E", 9)
    with pytest.raises(ValueError):
        DynkinType("B", 2)
    with pytest.raises(ValueError):
        DynkinType.parse("A")


def test_parse_and_str():
    for label in ["A1", "A7", "D4", "D8", "E6", "E7", "E8"]:
        assert str(DynkinType.parse(label)) == label


@pytest.mark.parametrize(
    "label,count",
    [("A1", 1), ("A4", 10), ("A8", 36), ("D4", 12), ("D8", 56), ("E6", 36), ("E7", 63), ("E8", 120)],
)
def test_positive_root_counts(label, count):
    rs = build_root_system(DynkinType.parse(label))
    assert len(rs.positive_roots) == count
    assert len(set(rs.positive_roots)) == count
    assert rs.dynkin.positive_root_count() == count


@pytest.mark.parametrize(
    "label,bound", [("A4", 2), ("A5", 2), ("D4", 3), ("D5", 3), ("E6", 3)]
)
def test_positive_roots_match_norm2_box_oracle(label, bound):
    dynkin = DynkinType.parse(label)
    rs = build_root_system(dynkin)
    assert set(rs.positive_roots) == norm2_box_oracle(dynkin, bound)


def test_root_order_is_graded_then_lexicographic():
    keys = [(sum(v), v) for v in A4.positive_roots]
    assert keys == sorted(keys)


ALL_LABELS = (
    [f"A{n}" for n in range(1, 13)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]
)


def reflection_closure_oracle(rs):
    """Positive roots by closing the simple roots under simple reflections."""
    roots = set(rs.simple_roots)
    frontier = list(roots)
    while frontier:
        fresh = []
        for alpha in frontier:
            for simple in rs.simple_roots:
                image = rs.reflect(alpha, simple)
                if image not in roots:
                    roots.add(image)
                    fresh.append(image)
        frontier = fresh
    return sorted((v for v in roots if min(v) >= 0), key=lambda v: (sum(v), v))


@pytest.mark.parametrize("label", ALL_LABELS)
def test_positive_roots_match_reflection_closure_in_order(label):
    rs = build_root_system(DynkinType.parse(label))
    assert rs.positive_roots == tuple(reflection_closure_oracle(rs))


@pytest.mark.parametrize("label", ALL_LABELS)
def test_positive_parents_link_each_root_to_a_lower_one(label):
    rs = build_root_system(DynkinType.parse(label))
    assert len(rs.positive_parents) == len(rs.positive_roots)
    for p, (parent, i) in enumerate(rs.positive_parents):
        alpha = rs.positive_roots[p]
        if parent == -1:
            assert alpha == rs.simple_roots[i]
            continue
        assert 0 <= parent < p
        beta = rs.positive_roots[parent]
        assert alpha == tuple(b + e for b, e in zip(beta, rs.simple_roots[i]))
        assert rs.inner(beta, rs.simple_roots[i]) == -1
    assert sorted(i for parent, i in rs.positive_parents if parent == -1) == list(
        range(rs.rank)
    )


def test_rank_one():
    rs = build_root_system(DynkinType("A", 1))
    assert rs.positive_roots == ((1,),)


def test_inner_product_examples():
    a1, a2, a3 = A3.simple_roots
    assert A3.inner(a1, a1) == 2
    assert A3.inner(a1, a3) == 0
    b1, b2 = A2.simple_roots
    assert A2.inner((1, 1), b2) == 1
    assert A2.inner(b2, (1, 1)) == 1
    with pytest.raises(ValueError):
        A3.inner((1, 0), (0, 0, 1))


def test_reflect_examples():
    a1, a2 = A2.simple_roots
    assert A2.reflect(a1, a1) == (-1, 0)
    assert A2.reflect(a1, a2) == (1, 1)
    a1, _, a3 = A3.simple_roots
    assert A3.reflect(a1, a3) == a1  # orthogonal mirror fixes
    with pytest.raises(ValueError, match="not a root"):
        A2.reflect(a1, (2, 0))


def test_classify():
    assert A2.classify((1, 1)) == POSITIVE_ROOT
    assert A2.classify((-1, 0)) == NEGATIVE_ROOT
    assert A2.classify((2, 0)) == NOT_ROOT
    assert A2.classify((0, 0)) == NOT_ROOT


def test_reflect_handle_examples():
    h1, h2 = (A2.locate(e) for e in A2.simple_roots)
    assert A2.root(A2.reflect_handle(h1, h2)) == (1, 1)
    assert A2.reflect_handle(A2.reflect_handle(h1, h2), h2) == h1
    assert A2.reflect_handle(h1, h1) == ~h1
    assert A2.reflect_handle(h1, ~h2) == A2.reflect_handle(h1, h2)
    assert A2.reflect_handle(~h1, h2) == ~A2.reflect_handle(h1, h2)


REFLECTION_LABELS = (
    [f"A{n}" for n in range(1, 9)] + [f"D{n}" for n in range(4, 9)] + ["E6", "E7", "E8"]
)


@pytest.mark.parametrize("label", REFLECTION_LABELS)
def test_reflect_handle_matches_reflect_on_every_pair_of_roots(label):
    rs = RootSystem(DynkinType.parse(label))
    handles = range(-len(rs.positive_roots), len(rs.positive_roots))
    for m in handles:
        mirror = rs.root(m)
        for h in handles:
            assert rs.root(rs.reflect_handle(h, m)) == rs.reflect(rs.root(h), mirror)


def test_reflection_rows_fill_lazily_one_per_positive_mirror():
    rs = RootSystem(DynkinType("E", 8))
    assert rs._reflection_rows == [None] * 120
    rs.reflect_handle(5, ~7)
    rs.reflect_handle(~3, 7)
    assert [p for p, row in enumerate(rs._reflection_rows) if row is not None] == [7]
    assert all(type(h) is int for h in rs._reflection_rows[7])
    assert type(rs._reflection_rows[7]) is array and rs._reflection_rows[7].typecode == "i"


def all_roots(rs):
    return [v for v in rs.positive_roots] + [
        tuple(-c for c in v) for v in rs.positive_roots
    ]


@settings(max_examples=60)
@given(data=st.data(), label=st.sampled_from(["A3", "D4", "E6"]))
def test_reflection_involution_and_form_invariance(data, label):
    rs = build_root_system(DynkinType.parse(label))
    roots = all_roots(rs)
    a = data.draw(st.sampled_from(roots))
    b = data.draw(st.sampled_from(roots))
    m = data.draw(st.sampled_from(roots))
    assert rs.reflect(rs.reflect(a, m), m) == a
    assert rs.inner(rs.reflect(a, m), rs.reflect(b, m)) == rs.inner(a, b)


@pytest.mark.parametrize("label", ["A4", "D4", "E6"])
def test_reflections_permute_the_root_set(label):
    rs = build_root_system(DynkinType.parse(label))
    roots = set(all_roots(rs))
    for mirror in list(roots)[:10]:
        assert {rs.reflect(v, mirror) for v in roots} == roots


def automorphism_oracle(dynkin):
    # exhaustive filter over all permutations of the simple indices
    cart = dynkin.cartan_matrix()
    n = dynkin.rank
    keep = []
    for perm in itertools.permutations(range(n)):
        if all(
            cart[perm[i]][perm[j]] == cart[i][j] for i in range(n) for j in range(n)
        ):
            keep.append(perm)
    return sorted(keep)


@pytest.mark.parametrize("label", ["A1", "A2", "A5", "D4", "D5", "E6"])
def test_diagram_automorphisms_match_exhaustive_filter(label):
    dynkin = DynkinType.parse(label)
    assert diagram_automorphisms(dynkin) == automorphism_oracle(dynkin)


def test_diagram_automorphism_counts():
    assert diagram_automorphisms(DynkinType("A", 1)) == [(0,)]
    for n in (2, 3, 6):
        perms = diagram_automorphisms(DynkinType("A", n))
        assert len(perms) == 2
        assert tuple(range(n)) in perms
        assert tuple(reversed(range(n))) in perms
    assert len(diagram_automorphisms(DynkinType("D", 4))) == 6
    assert len(diagram_automorphisms(DynkinType("D", 5))) == 2
    assert len(diagram_automorphisms(DynkinType("E", 6))) == 2
    assert len(diagram_automorphisms(DynkinType("E", 7))) == 1


def recursive_isomorphisms(source, target):
    """graph_isomorphisms as a recursive generator: the reference order."""
    n = len(source)
    image = [-1] * n
    used = [False] * n

    def extend(pos):
        if pos == n:
            yield tuple(image)
            return
        for cand in range(n):
            if used[cand] or len(target[cand]) != len(source[pos]):
                continue
            if all(
                (prev in source[pos]) == (image[prev] in target[cand])
                for prev in range(pos)
            ):
                image[pos] = cand
                used[cand] = True
                yield from extend(pos + 1)
                used[cand] = False

    return extend(0)


ISOMORPHISM_LABELS = (
    [f"A{n}" for n in range(1, 15)] + [f"D{n}" for n in range(4, 13)] + ["E6", "E7", "E8"]
)


@pytest.mark.parametrize("label", ISOMORPHISM_LABELS)
def test_isomorphisms_come_in_the_recursive_order(label):
    dynkin = DynkinType.parse(label)
    adjacency = dynkin.adjacency()
    rng = random.Random(f"isomorphisms:{label}")
    graphs = [adjacency]
    for _ in range(3):
        perm = list(range(dynkin.rank))
        rng.shuffle(perm)
        graphs.append(
            neighbour_sets(dynkin.rank, [(perm[i], perm[j]) for i, j in dynkin.edges()])
        )
    for source in graphs:
        assert list(graph_isomorphisms(source, adjacency)) == list(
            recursive_isomorphisms(source, adjacency)
        )
    assert diagram_automorphisms(dynkin) == list(recursive_isomorphisms(adjacency, adjacency))


def test_isomorphisms_of_unequal_and_empty_graphs():
    path = DynkinType("A", 4).adjacency()
    star = neighbour_sets(4, [(0, 1), (0, 2), (0, 3)])
    assert list(graph_isomorphisms(path, star)) == []
    assert list(graph_isomorphisms(star, star)) == list(recursive_isomorphisms(star, star))
    assert len(list(graph_isomorphisms(star, star))) == 6
    assert list(graph_isomorphisms((), ())) == [()]


def test_isomorphism_search_needs_a_connected_source():
    two_parts = neighbour_sets(4, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="^source graph is not connected$"):
        list(graph_isomorphisms(two_parts, two_parts))
    with pytest.raises(ValueError, match="^source graph is not connected$"):
        list(graph_isomorphisms(neighbour_sets(2, []), DynkinType("A", 2).adjacency()))
    assert list(graph_isomorphisms((), ())) == [()]
    assert list(graph_isomorphisms((frozenset(),), (frozenset(),))) == [(0,)]


class CountingGraph(tuple):
    """Neighbour sets that count their lookups, one per candidate the search checks."""

    def __new__(cls, neighbours):
        graph = super().__new__(cls, neighbours)
        graph.lookups = 0
        return graph

    def __getitem__(self, v):
        self.lookups += 1
        return super().__getitem__(v)


@pytest.mark.parametrize("label", ["A60", "D60"])
def test_isomorphism_search_on_relabelled_trees_checks_quadratically_many_candidates(label):
    # trying every target for every vertex in index order made this exponential
    dynkin = DynkinType.parse(label)
    n = dynkin.rank
    rng = random.Random(f"relabelled:{label}")
    for _ in range(3):
        perm = list(range(n))
        rng.shuffle(perm)
        source = neighbour_sets(n, [(perm[i], perm[j]) for i, j in dynkin.edges()])
        target = CountingGraph(dynkin.adjacency())
        found = list(graph_isomorphisms(source, target))
        assert target.lookups <= 6 * n * n
        # source vertex perm[i] is target vertex i, up to a diagram automorphism
        inverse = sorted(range(n), key=perm.__getitem__)
        assert found == sorted(
            tuple(a[i] for i in inverse) for a in diagram_automorphisms(dynkin)
        )
        assert len(found) == 2


@pytest.mark.parametrize("label", ["A4", "D4", "E6"])
def test_automorphisms_preserve_form_and_roots(label):
    rs = build_root_system(DynkinType.parse(label))
    roots = set(all_roots(rs))
    for perm in diagram_automorphisms(rs.dynkin):
        assert {apply_automorphism(perm, v) for v in roots} == roots
        for a in list(roots)[:6]:
            for b in list(roots)[:6]:
                assert rs.inner(
                    apply_automorphism(perm, a), apply_automorphism(perm, b)
                ) == rs.inner(a, b)


PENDANT_GAMMA = ((-1, 0, 0, 0), (0, -1, -1, 0), (0, 0, 1, 0), (0, 0, 0, 1))
PENDANT = CompanionBasis(A4, PENDANT_GAMMA)
SIMPLE_A4 = CompanionBasis(A4, A4.simple_roots)


def test_expand_examples():
    assert PENDANT.expand((1, 1, 0, 0)) == (-1, -1, -1, 0)
    assert PENDANT.expand((0, 1, 1, 1)) == (0, -1, 0, 1)
    for i, alpha in enumerate(A4.simple_roots):
        expected = tuple(1 if j == i else 0 for j in range(4))
        assert SIMPLE_A4.expand(alpha) == expected


def test_expand_errors():
    with pytest.raises(ValueError, match=r"not unimodular \(determinant 0\)"):
        CompanionBasis(A2, ((1, 0), (-1, 0))).expand((1, 0))
    # (1, -1) is not a root, so this basis only exists as a lattice matrix
    with pytest.raises(ValueError, match=r"not unimodular \(determinant -2\)"):
        lattice_inverse(((1, 1), (1, -1)))
    with pytest.raises(ValueError, match="expected 2"):
        CompanionBasis(A2, ((1, 0),))


def test_is_z_basis():
    assert SIMPLE_A4.is_z_basis()
    assert CompanionBasis(A2, ((1, 0), (1, 1))).is_z_basis()
    assert not CompanionBasis(A2, ((1, 0), (-1, 0))).is_z_basis()
    assert PENDANT.is_z_basis()


def test_height_examples():
    def height(psi, v):
        return sum(abs(c) for c in psi.expand(v))

    assert height(CompanionBasis(A2, A2.simple_roots), (1, 0)) == 1
    assert height(PENDANT, (1, 1, 1, 1)) == 3
    for v in A4.positive_roots:
        assert height(PENDANT, v) >= 1
        assert height(SIMPLE_A4, v) == sum(v)


@given(st.lists(st.integers(min_value=-4, max_value=4), min_size=4, max_size=4))
def test_expand_inverts_linear_combination(coeffs):
    combo = tuple(
        sum(c * g[i] for c, g in zip(coeffs, PENDANT_GAMMA)) for i in range(4)
    )
    assert PENDANT.expand(combo) == tuple(coeffs)


def signed(rs, h):
    """The root with handle h: positive root h, or the negative of ~h."""
    alpha = rs.positive_roots[h if h >= 0 else ~h]
    return alpha if h >= 0 else tuple(-c for c in alpha)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_form_table_matches_inner_on_every_pair_of_roots(label):
    # form, form_row and inner all read RootSystem._image, so each is checked
    # against sum a_i C_ij b_j from the dense Cartan matrix instead
    dynkin = DynkinType.parse(label)
    rs = RootSystem(dynkin)
    cartan = dynkin.cartan_matrix()
    count = len(rs.positive_roots)
    handles = list(range(count)) + [~p for p in range(count)]
    roots = {h: signed(rs, h) for h in handles}
    images = {h: dense_image(cartan, roots[h]) for h in handles}
    for h in handles:
        a = roots[h]
        for k in handles:
            value = sum(x * y for x, y in zip(a, images[k]))
            assert rs.form(h, k) == value
            assert rs.inner(a, roots[k]) == value
    for p in range(count):
        assert rs.form_row(p) == tuple(
            sum(x * y for x, y in zip(roots[p], images[q])) for q in range(count)
        )


def test_inner_takes_any_integer_vectors():
    for label in ["A3", "D5", "E7"]:
        dynkin = DynkinType.parse(label)
        rs = build_root_system(dynkin)
        rng = random.Random(f"inner:{label}")
        for _ in range(50):
            a = [rng.randint(-5, 5) for _ in range(rs.rank)]
            b = [rng.randint(-5, 5) for _ in range(rs.rank)]
            assert rs.inner(a, b) == dense_form(dynkin.cartan_matrix(), a, b)


@pytest.mark.parametrize("label", ALL_LABELS)
def test_locate_round_trips_every_root(label):
    rs = build_root_system(DynkinType.parse(label))
    for p, alpha in enumerate(rs.positive_roots):
        assert rs.locate(alpha) == p
        assert rs.locate(list(alpha)) == p
        assert rs.locate(tuple(-c for c in alpha)) == ~p
    for h in range(-len(rs.positive_roots), len(rs.positive_roots)):
        assert rs.locate(signed(rs, h)) == h


@pytest.mark.parametrize("label", ["A1", "A4", "D4", "D6", "E6", "E8"])
def test_locate_rejects_non_roots(label):
    rs = build_root_system(DynkinType.parse(label))
    n = rs.rank
    zero = (0,) * n
    with pytest.raises(ValueError, match=r"^\(0(, 0)*,?\) is not a root$"):
        rs.locate(zero)
    highest = rs.positive_roots[-1]
    for v in [
        tuple(2 * c for c in rs.simple_roots[0]),
        tuple(a + b for a, b in zip(highest, rs.simple_roots[0])),
        tuple(-2 * c for c in highest),
    ]:
        assert rs.classify(v) == NOT_ROOT
        with pytest.raises(ValueError, match="is not a root"):
            rs.locate(v)
    for bad in [zero[:-1], zero + (0,), rs.simple_roots[0] + (0,), ()]:
        with pytest.raises(ValueError, match="dimension mismatch"):
            rs.locate(bad)


def test_form_rows_fill_lazily():
    rs = RootSystem(DynkinType.parse("E8"))
    assert rs.form(0, 0) == 2
    assert rs.form(~3, 3) == -2
    filled = [p for p in range(len(rs.positive_roots)) if rs._form_rows[p] is not None]
    assert filled == [0, 3]


@pytest.mark.parametrize("label", ALL_LABELS)
def test_root_inverts_locate(label):
    rs = build_root_system(DynkinType.parse(label))
    for h in range(-len(rs.positive_roots), len(rs.positive_roots)):
        assert rs.root(h) == signed(rs, h)
        assert rs.locate(rs.root(h)) == h


@pytest.mark.parametrize("label", ALL_LABELS)
def test_simple_first_lists_simple_roots_by_index_then_the_rest_in_order(label):
    rs = RootSystem(DynkinType.parse(label))
    roots = [rs.positive_roots[p] for p in rs.simple_first]
    n = rs.rank
    assert roots[:n] == list(rs.simple_roots)
    assert roots[n:] == [alpha for alpha in rs.positive_roots if sum(alpha) > 1]


@pytest.mark.parametrize("label", ["A1", "A5", "A12", "D4", "D7", "E6", "E8"])
def test_with_form_value_selects_from_the_form_row_in_order(label):
    rs = RootSystem(DynkinType.parse(label))
    for p in range(len(rs.positive_roots)):
        row = rs.form_row(p)
        for value in (-2, -1, 0, 1, 2, 3):
            assert rs.with_form_value(p, value) == tuple(
                q for q in rs.simple_first if row[q] == value
            )
