"""Diagram bases and composition.

Composition is checked against a reference written here: a union-find over
tagged vertices, whose result goes through the validating constructors.
"""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from cellular_towers.coeff import DV, DELTA, LaurentPoly
from cellular_towers.diagrams import (
    BrauerDiagram,
    DiagramElement,
    SetPartitionDiagram,
    bell_number,
    brauer_basis,
    catalan_number,
    double_factorial_odd,
    half_level_basis,
    partition_basis,
    quotient_to_symmetric,
    symmetric_to_diagrams,
    tl_basis,
)
from cellular_towers.errors import DomainError
from cellular_towers.hecke import perm_len
from cellular_towers.linalg import SpanSolver
from cellular_towers.ratfunc import RationalFunction

D = LaurentPoly.gen(DV, DELTA)


# ---------------------------------------------------------------------------
# reference composition
# ---------------------------------------------------------------------------


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


def _up(v):
    return ("t", v) if v > 0 else ("m", -v)


def _down(v):
    return ("m", v) if v > 0 else ("b", -v)


def _flat(v):
    kind, i = v
    return i if kind == "t" else -i


def reference_compose(d1, d2):
    """Stack d1 over d2: (product, closed middle components), the product
    built by the validating constructor of d1's kind."""
    n = d1.n
    uf = _UnionFind(
        [("t", i) for i in range(1, n + 1)]
        + [("m", i) for i in range(1, n + 1)]
        + [("b", i) for i in range(1, n + 1)]
    )
    for b in d1.blocks:
        for v in b[1:]:
            uf.union(_up(b[0]), _up(v))
    for b in d2.blocks:
        for v in b[1:]:
            uf.union(_down(b[0]), _down(v))
    comp = {}
    for i in range(1, n + 1):
        for v in (("t", i), ("b", i)):
            comp.setdefault(uf.find(v), []).append(v)
    members = [tuple(_flat(v) for v in vs) for vs in comp.values()]
    if isinstance(d1, BrauerDiagram):
        assert all(len(p) == 2 for p in members)
    middles = {uf.find(("m", i)) for i in range(1, n + 1)}
    return type(d1)(n, members), len(middles - set(comp))


def assert_composes_like_reference(d1, d2):
    d, count = d1.compose(d2)
    assert (d, count) == reference_compose(d1, d2)
    # canonical as built: the validating constructor leaves it unchanged
    if isinstance(d, BrauerDiagram):
        assert BrauerDiagram(d.n, d.pairs).pairs == d.pairs
    else:
        assert SetPartitionDiagram(d.n, d.blocks).blocks == d.blocks


def s_el(i, n):
    return DiagramElement.from_diagram(BrauerDiagram.s(i, n))


def e_el(i, n):
    return DiagramElement.from_diagram(BrauerDiagram.e(i, n))


def test_basis_cardinalities():
    assert [len(brauer_basis(n)) for n in range(5)] == [1, 1, 3, 15, 105]
    assert [len(tl_basis(n)) for n in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]
    assert [len(partition_basis(n)) for n in range(4)] == [1, 2, 15, 203]
    assert [len(half_level_basis(n)) for n in range(1, 4)] == [1, 5, 52]
    assert double_factorial_odd(4) == 105 and catalan_number(5) == 42
    assert [bell_number(k) for k in range(7)] == [1, 1, 2, 5, 15, 52, 203]


@pytest.mark.parametrize("n", range(7))
def test_tl_basis_is_the_planar_part_of_the_brauer_basis(n):
    assert tl_basis(n) == tuple(d for d in brauer_basis(n) if d.is_planar())
    assert [d.pairs for d in tl_basis(n)] == [
        d.pairs for d in brauer_basis(n) if d.is_planar()
    ]


@pytest.mark.parametrize("n", range(5))
def test_brauer_compose_matches_reference_on_every_pair(n):
    for d1 in brauer_basis(n):
        for d2 in brauer_basis(n):
            assert_composes_like_reference(d1, d2)


@pytest.mark.parametrize("n", range(4))
def test_partition_compose_matches_reference_on_every_pair(n):
    for d1 in partition_basis(n):
        for d2 in partition_basis(n):
            assert_composes_like_reference(d1, d2)


@st.composite
def brauer_diagrams(draw, n):
    """A perfect matching: a shuffle of the vertices, paired off in turn."""
    verts = draw(st.permutations(list(range(1, n + 1)) + list(range(-n, 0))))
    return BrauerDiagram(n, list(zip(verts[::2], verts[1::2])))


@st.composite
def partition_diagrams(draw, n):
    """A set partition: each vertex gets one of 2n block labels."""
    verts = list(range(1, n + 1)) + list(range(-n, 0))
    labels = draw(st.lists(st.integers(0, 2 * n - 1), min_size=2 * n, max_size=2 * n))
    blocks = {}
    for v, label in zip(verts, labels):
        blocks.setdefault(label, []).append(v)
    return SetPartitionDiagram(n, list(blocks.values()))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_brauer_compose_matches_reference_on_drawn_pairs(data):
    n = data.draw(st.integers(5, 7))
    assert_composes_like_reference(data.draw(brauer_diagrams(n)), data.draw(brauer_diagrams(n)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_partition_compose_matches_reference_on_drawn_pairs(data):
    n = data.draw(st.integers(4, 5))
    assert_composes_like_reference(
        data.draw(partition_diagrams(n)), data.draw(partition_diagrams(n))
    )


def test_propagating_inversions():
    # independent count: the propagating blocks' (min top, min bottom)
    # pairs, compared two by two
    def inversions(d):
        ends = []
        for b in d.blocks:
            tops, bottoms = [v for v in b if v > 0], [-v for v in b if v < 0]
            if tops and bottoms:
                ends.append((min(tops), min(bottoms)))
        return sum(
            1 for (a, x), (b, y) in itertools.combinations(ends, 2) if (a - b) * (x - y) < 0
        )

    for n in range(4):
        for d in partition_basis(n):
            assert d.propagating_inversions() == inversions(d)
            if d.is_permutation():
                assert d.propagating_inversions() == perm_len(d.permutation())
    # blocks of several vertices count by their first top and first bottom
    d = SetPartitionDiagram(3, [(1, -3), (2, 3, -1, -2)])
    assert d.propagating_inversions() == 1


def test_tl_planarity_against_crossing_oracle():
    # independent crossing check: count pairs interleaving on the circle
    def crossings(d):
        order = {i: i for i in range(1, d.n + 1)}
        order.update({-i: 2 * d.n + 1 - i for i in range(1, d.n + 1)})
        c = 0
        for (a1, b1), (a2, b2) in itertools.combinations(d.pairs, 2):
            x1, y1 = sorted((order[a1], order[b1]))
            x2, y2 = sorted((order[a2], order[b2]))
            if x1 < x2 < y1 < y2 or x2 < x1 < y2 < y1:
                c += 1
        return c

    for n in range(5):
        for d in brauer_basis(n):
            assert d.crossings() == crossings(d)
            assert d.is_planar() == (crossings(d) == 0)
            if d.is_permutation():
                assert d.crossings() == perm_len(d.permutation())


def test_identity_and_loop_counting():
    one = DiagramElement.one(2)
    e1 = e_el(1, 2)
    assert one * e1 == e1 and e1 * one == e1
    d, loops = BrauerDiagram.e(1, 2).compose(BrauerDiagram.e(1, 2))
    assert loops == 1 and d == BrauerDiagram.e(1, 2)
    assert e1 * e1 == e1.scale(D)


def test_tangle_relation():
    e1, e2 = e_el(1, 3), e_el(2, 3)
    assert e1 * e2 * e1 == e1
    d, loops = BrauerDiagram.e(1, 3).compose(BrauerDiagram.e(2, 3))
    d, more = d.compose(BrauerDiagram.e(1, 3))
    assert loops == 0 and more == 0


@pytest.mark.parametrize("n", [2, 3, 4])
def test_brauer_presentation(n):
    one = DiagramElement.one(n)
    for i in range(1, n):
        si, ei = s_el(i, n), e_el(i, n)
        assert si * si == one
        assert ei * ei == ei.scale(D)
        assert si * ei == ei and ei * si == ei
        assert si.star() == si and ei.star() == ei
    for i in range(1, n - 1):
        for a, b in ((i, i + 1), (i + 1, i)):
            sa, sb, ea, eb = s_el(a, n), s_el(b, n), e_el(a, n), e_el(b, n)
            assert sa * sb * sa == sb * sa * sb
            assert ea * eb * ea == ea
            assert sa * sb * ea == eb * ea
            assert ea * sb * sa == ea * eb
            assert ea * sb * ea == ea
    for i in range(1, n):
        for j in range(i + 2, n):
            for x, y in ((s_el(i, n), s_el(j, n)), (e_el(i, n), e_el(j, n)),
                         (s_el(i, n), e_el(j, n))):
                assert x * y == y * x


def test_through_strands_never_increase():
    for n in (2, 3):
        for d1 in brauer_basis(n):
            for d2 in brauer_basis(n):
                d, _ = d1.compose(d2)
                assert d.through_count() <= min(d1.through_count(), d2.through_count())


def test_tl_closed_under_multiplication():
    # products of planar diagrams computed in the Brauer algebra stay planar
    # and satisfy the TL presentation
    for n in (2, 3, 4):
        for d1 in tl_basis(n):
            for d2 in tl_basis(n):
                d, _ = d1.compose(d2)
                assert d.is_planar()
    n = 4
    one = DiagramElement.one(n)
    for i in range(1, n):
        ei = e_el(i, n)
        assert ei * ei == ei.scale(D)
        for j in range(1, n):
            ej = e_el(j, n)
            if abs(i - j) == 1:
                assert ei * ej * ei == ei
            elif abs(i - j) >= 2:
                assert ei * ej == ej * ei


def test_involution_is_antiautomorphism():
    rng = random.Random(2)
    bs = brauer_basis(3)
    for _ in range(100):
        a = DiagramElement.from_diagram(rng.choice(bs))
        b = DiagramElement.from_diagram(rng.choice(bs))
        assert (a * b).star() == b.star() * a.star()
    assert e_el(2, 3).star() == e_el(2, 3)
    s12 = s_el(1, 3) * s_el(2, 3)
    assert s12.star() == s_el(2, 3) * s_el(1, 3)


def test_partition_generator_relations():
    def t(i, n):
        return DiagramElement.from_diagram(SetPartitionDiagram.t(i, n))

    def p(i, n):
        return DiagramElement.from_diagram(SetPartitionDiagram.p_int(i, n))

    def ph(i, n):
        return DiagramElement.from_diagram(SetPartitionDiagram.p_half(i, n))

    for n in (2, 3):
        one = DiagramElement.one(n, SetPartitionDiagram)
        for i in range(1, n):
            assert t(i, n) * t(i, n) == one
        for i in range(1, n - 1):
            assert t(i, n) * t(i + 1, n) * t(i, n) == t(i + 1, n) * t(i, n) * t(i + 1, n)
        for i in range(1, n + 1):
            assert p(i, n) * p(i, n) == p(i, n).scale(D)
        for i in range(1, n):
            assert ph(i, n) * ph(i, n) == ph(i, n)
            assert t(i, n) * ph(i, n) == ph(i, n) == ph(i, n) * t(i, n)
            assert t(i, n) * p(i, n) * p(i + 1, n) == p(i, n) * p(i + 1, n)
            assert p(i, n) * p(i + 1, n) * t(i, n) == p(i, n) * p(i + 1, n)
            assert t(i, n) * p(i, n) * t(i, n) == p(i + 1, n)
            for j in (i, i + 1):
                assert ph(i, n) * p(j, n) * ph(i, n) == ph(i, n)
                assert p(j, n) * ph(i, n) * p(j, n) == p(j, n)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert p(i, n) * p(j, n) == p(j, n) * p(i, n)
        # implied relations
        for i in range(1, n):
            assert p(i, n) * ph(i, n) * p(i + 1, n) == p(i, n) * t(i, n)
            assert p(i + 1, n) * ph(i, n) * p(i, n) == p(i + 1, n) * t(i, n)
            assert p(i, n) * t(i, n) * p(i, n) == p(i, n) * p(i + 1, n)


def test_half_level_closure():
    # products of P_{n-1/2} diagrams stay in the span of P_{n-1/2}
    for n in (1, 2):
        keys = set(half_level_basis(n))
        for d1 in keys:
            for d2 in keys:
                d, _ = d1.compose(d2)
                assert d in keys


def test_quotient_to_symmetric():
    e1 = e_el(1, 3)
    assert quotient_to_symmetric(e1).is_zero()
    s12 = s_el(1, 3) * s_el(2, 3)
    g = quotient_to_symmetric(s12)
    assert list(g.coeffs) == [(3, 1, 2)]
    rng = random.Random(4)
    bs = brauer_basis(3)
    for _ in range(100):
        a = DiagramElement.from_diagram(rng.choice(bs))
        b = DiagramElement.from_diagram(rng.choice(bs))
        assert quotient_to_symmetric(a * b) == quotient_to_symmetric(
            a
        ) * quotient_to_symmetric(b)
    # the section splits the quotient on permutation diagrams
    for w in itertools.permutations((1, 2, 3)):
        d = symmetric_to_diagrams(quotient_to_symmetric(
            DiagramElement.from_diagram(BrauerDiagram.from_permutation(w))))
        assert d == DiagramElement.from_diagram(BrauerDiagram.from_permutation(w))


def test_contraction_ideal_property():
    # span of diagrams with fewer than n through strands is an ideal (n <= 3)
    for n in (2, 3):
        low = [d for d in brauer_basis(n) if d.through_count() < n]
        solver = SpanSolver()
        for d in low:
            solver.insert({d: RationalFunction.one(DV)})
        for d in low:
            for g in brauer_basis(n):
                for x in (
                    DiagramElement.from_diagram(d) * DiagramElement.from_diagram(g),
                    DiagramElement.from_diagram(g) * DiagramElement.from_diagram(d),
                ):
                    vec = {k: RationalFunction.from_poly(c) for k, c in x.coeffs.items()}
                    assert solver.contains(vec)


def test_star_is_involutive_and_compatible_with_composition():
    for n in (2, 3):
        for d in brauer_basis(n):
            assert d.star().star() == d
        for d in partition_basis(2):
            assert d.star().star() == d
    # (d1 o d2)* = d2* o d1* with matching loop counts
    for d1 in brauer_basis(3):
        for d2 in brauer_basis(3):
            p, c = d1.compose(d2)
            q, c2 = d2.star().compose(d1.star())
            assert q == p.star() and c == c2


def test_permutation_diagrams_multiply_like_permutations():
    import itertools as it
    from cellular_towers.hecke import perm_mul

    for u in it.permutations((1, 2, 3)):
        for v in it.permutations((1, 2, 3)):
            du = BrauerDiagram.from_permutation(u)
            dv = BrauerDiagram.from_permutation(v)
            d, loops = du.compose(dv)
            assert loops == 0
            assert d == BrauerDiagram.from_permutation(perm_mul(u, v))


def test_pad_is_multiplicative():
    for d1 in brauer_basis(2):
        for d2 in brauer_basis(2):
            p, c = d1.compose(d2)
            p4, c4 = d1.pad(4).compose(d2.pad(4))
            assert (p4, c4) == (p.pad(4), c)


def test_size_mismatch_raises():
    with pytest.raises(DomainError):
        BrauerDiagram.e(1, 2).compose(BrauerDiagram.e(1, 3))


# ---------------------------------------------------------------------------
# validation and the shared diagram core
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", [BrauerDiagram, SetPartitionDiagram])
@pytest.mark.parametrize(
    "blocks",
    [
        [(1, -1)],  # 2 and -2 missing
        [(1, -1), (2, -2), (1, 2)],  # 1 and 2 repeated
        [(1, -1), (3, -2)],  # 3 out of range, 2 missing
        [(1, -1), (2, -2), (3, -3)],  # 3 and -3 out of range
        [(1, 0), (2, -2), (-1,)],  # 0 is no vertex
        [(1, -1), (2, -2), ()],  # an empty block
    ],
)
def test_constructors_reject_bad_vertex_sets(kind, blocks):
    with pytest.raises(DomainError):
        kind(2, blocks)


@pytest.mark.parametrize("n, blocks", [(2, [(1, 2, -1, -2)]), (1, [(1,), (-1,)])])
def test_brauer_constructor_rejects_blocks_that_are_not_pairs(n, blocks):
    assert SetPartitionDiagram(n, blocks).n == n
    with pytest.raises(DomainError):
        BrauerDiagram(n, blocks)


# the per-class methods of the two kinds before they shared one core,
# kept as references for it


def _vkey(v):
    return (0, v) if v > 0 else (1, -v)


def _canon(blocks):
    return tuple(sorted((tuple(sorted(b, key=_vkey)) for b in blocks), key=lambda b: _vkey(b[0])))


def _pname(v):
    return f"p{v}" if v > 0 else f"q{-v}"


def _brauer_reference(d, m):
    """(star, pad to m, through strands, is_permutation, permutation, str)."""
    through = sum(1 for a, b in d.pairs if a > 0 > b)
    img = {a: -b for a, b in d.pairs}
    return (
        _canon([(-a, -b) for a, b in d.pairs]),
        _canon(d.pairs + tuple((i, -i) for i in range(d.n + 1, m + 1))),
        through,
        through == d.n,
        tuple(img[i] for i in range(1, d.n + 1)) if through == d.n else None,
        "|".join(f"{_pname(a)}{_pname(b)}" for a, b in d.pairs),
    )


def _partition_reference(d, m):
    propagating = sum(
        1 for b in d.blocks if any(v > 0 for v in b) and any(v < 0 for v in b)
    )
    is_perm = all(len(b) == 2 for b in d.blocks) and propagating == d.n
    img = {}
    if is_perm:
        for b in d.blocks:
            img[[v for v in b if v > 0][0]] = -[v for v in b if v < 0][0]
    return (
        _canon([tuple(-v for v in b) for b in d.blocks]),
        _canon(d.blocks + tuple((i, -i) for i in range(d.n + 1, m + 1))),
        propagating,
        is_perm,
        tuple(img[i] for i in range(1, d.n + 1)) if is_perm else None,
        "|".join("".join(_pname(v) for v in b) for b in d.blocks),
    )


def _shared_core(d, m, through):
    star, padded = d.star(), d.pad(m)
    assert type(star) is type(d) is type(padded)
    assert hash(d) == hash((d.n, d.blocks))
    return (
        star.blocks,
        padded.blocks,
        through(),
        d.is_permutation(),
        d.permutation() if d.is_permutation() else None,
        str(d),
    )


@pytest.mark.parametrize(
    "basis",
    [lambda: brauer_basis(4), lambda: tl_basis(5), lambda: partition_basis(3),
     lambda: half_level_basis(3)],
    ids=["brauer4", "tl5", "partition3", "half3"],
)
def test_shared_core_matches_the_per_class_references(basis):
    for d in basis():
        m = d.n + 2
        if isinstance(d, BrauerDiagram):
            assert _shared_core(d, m, d.through_count) == _brauer_reference(d, m)
            assert d.pairs is d.blocks
        else:
            assert _shared_core(d, m, d.propagating) == _partition_reference(d, m)
        if not d.is_permutation():
            with pytest.raises(DomainError):
                d.permutation()


@pytest.mark.parametrize("n", range(5))
def test_a_brauer_and_a_partition_diagram_never_compare_equal(n):
    for w in itertools.permutations(range(1, n + 1)):
        b = BrauerDiagram.from_permutation(w)
        p = SetPartitionDiagram.from_permutation(w)
        assert b.blocks == p.blocks and str(b) == str(p) and hash(b) == hash(p)
        assert b != p and p != b and len({b, p}) == 2
    for i in range(1, n):
        blocks = [(k, -k) for k in range(1, n + 1) if k not in (i, i + 1)]
        blocks += [(i, -(i + 1)), (i + 1, -i)]
        assert BrauerDiagram.s(i, n).blocks == SetPartitionDiagram.t(i, n).blocks == _canon(blocks)


def test_diagram_json():
    d = BrauerDiagram.e(1, 3)
    data = d.to_json()
    assert data == {"n": 3, "pairs": [["p1", "p2"], ["p3", "q3"], ["q1", "q2"]]}
    p = SetPartitionDiagram.p_half(1, 2)
    assert p.to_json() == {"n": 2, "blocks": [["p1", "p2", "q1", "q2"]]}
