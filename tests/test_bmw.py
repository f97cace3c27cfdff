"""The BMW algebra.  The rank-n model, built by vector enumeration, is
checked against a reference written here: the cyclic closure of 1 over
rewritten words, modulo the kernel of every relation traced through that
closure."""

import copy
import random
from functools import cache

import pytest

from cellular_towers import bmw
from cellular_towers.bmw import (
    BMWElement,
    _Model,
    _relation_list,
    bmw_model,
    bmw_normal_forms,
    bmw_to_brauer,
    bmw_to_hecke,
    canonical_lift,
    reduce_word,
)
from cellular_towers.coeff import (
    DV,
    QZDV,
    QZV,
    LaurentFraction,
    LaurentPoly,
    delta_as_qz,
    delta_eliminate,
)
from cellular_towers.diagrams import (
    BrauerDiagram,
    DiagramElement,
    brauer_basis,
    double_factorial_odd,
)
from cellular_towers.errors import (
    BoundExceededError,
    DomainError,
    InternalInvariantError,
    SpecializationError,
)
from cellular_towers.hecke import HeckeElement, d_branching
from cellular_towers.combinatorics import addable_nodes, add_node, partitions_of
from cellular_towers.framework import cellular_basis
from cellular_towers.linalg import SpanSolver, acc
from cellular_towers.ratfunc import RationalFunction
from cellular_towers.towers import tower

QP = LaurentPoly.gen(QZDV, "q")
F_ONE = RationalFunction.one(QZV)


# ---------------------------------------------------------------------------
# reference model: closure over words, then the relation kernel
# ---------------------------------------------------------------------------


def _rf(x):
    """x as a RationalFunction, canonicalized on the gcd path: the reference
    stays off the LaurentFraction arithmetic it checks."""
    return RationalFunction(x.num, x.den)


@cache
def _reduce_f(word):
    """reduce_word with delta eliminated into Q(q, z)."""
    out = {}
    for w, c in reduce_word(word).items():
        f = delta_eliminate(c)
        if f:
            out[w] = _rf(f)
    return out


def _step(vec, token):
    out = {}
    for w, c in vec.items():
        for w2, c2 in _reduce_f(w + (token,)).items():
            acc(out, w2, c * c2)
    return out


def _apply_word(vec, word):
    for t in word:
        vec = _step(vec, t)
    return vec


def _trace(vec, relation):
    out = {}
    for word, c in relation:
        c = _rf(c)
        for w, cw in _apply_word(vec, word).items():
            acc(out, w, cw * c)
    return out


def reference_model(n):
    """(rho, star_rows) of the rank-n model: the cyclic closure U of the
    empty word under the rewriting action, modulo the kernel K generated by
    every relation traced through every closure vector and saturated under
    the action; dim(U/K) = (2n-1)!! and the canonical lifts give the basis."""
    forms = bmw_normal_forms(n)
    tokens = [i for i in range(1, n)] + [-i for i in range(1, n)]
    v0 = {(): F_ONE}
    closure = SpanSolver()
    closure.insert(v0)
    basis_vecs, queue = [v0], [v0]
    while queue:
        vec = queue.pop()
        for t in tokens:
            nxt = _step(vec, t)
            if closure.insert(nxt)[0] == "new":
                basis_vecs.append(nxt)
                queue.append(nxt)
    kernel = SpanSolver()
    k_vecs = []
    for u in basis_vecs:
        for rel in _relation_list(n):
            kv = _trace(u, rel)
            if kv and kernel.insert(kv)[0] == "new":
                k_vecs.append(kv)
    k_queue = list(k_vecs)
    while k_queue:
        kv = k_queue.pop()
        for t in tokens:
            nxt = _step(kv, t)
            if nxt and kernel.insert(nxt)[0] == "new":
                k_vecs.append(nxt)
                k_queue.append(nxt)
    assert closure.rank - kernel.rank == double_factorial_odd(n)
    coords = SpanSolver()
    for kv in k_vecs:
        coords.insert(kv)
    nk = coords.n_inserted
    images = [_apply_word(v0, w) for _, w in forms]
    for img in images:
        assert coords.insert(img)[0] == "new"

    def express(vec):
        combo = coords.express(vec)
        return {i - nk: c for i, c in combo.items() if i >= nk}

    rho = {t: [express(_step(img, t)) for img in images] for t in tokens}
    star_rows = [express(_apply_word(v0, tuple(reversed(w)))) for _, w in forms]
    return rho, star_rows


# ---------------------------------------------------------------------------
# matrix references: the relation check and the product, as action matrices
# ---------------------------------------------------------------------------


def _mat_mul(a, b):
    """The product of two matrices given as lists of sparse rows."""
    out = []
    for row in a:
        prod = {}
        for k, c in row.items():
            for j, r in b[k].items():
                acc(prod, j, c * r)
        out.append(prod)
    return out


def matrix_relations_hold(rho, n):
    """Every defining relation checked as an identity of the action
    matrices rho, written out apart from `_relation_list`; its relation set
    generates the same ideal as the relators (the quadratic relator follows
    from g (g − c + c e) = 1 and g e = z⁻¹ e)."""
    one = bmw.F_ONE
    dim = len(rho[1])
    ident = [{i: one} for i in range(dim)]

    def add(a, b, f=one):
        out = []
        for r1, r2 in zip(a, b):
            total = dict(r1)
            for j, c in r2.items():
                acc(total, j, c * f)
            out.append(total)
        return out

    def scale(a, f):
        return [{j: c * f for j, c in r.items()} for r in a]

    mul = _mat_mul
    delta = delta_as_qz()
    ok = True
    for i in range(1, n):
        g, e = rho[i], rho[-i]
        ginv = add(g, add(ident, scale(e, -one)), -bmw.F_TWIST)
        ok &= mul(g, ginv) == ident and mul(ginv, g) == ident
        ok &= mul(e, e) == scale(e, delta)
        ok &= mul(g, e) == scale(e, bmw.F_ZI) and mul(e, g) == scale(e, bmw.F_ZI)
    for i in range(1, n - 1):
        for a, b in ((i, i + 1), (i + 1, i)):
            ga, gb, ea, eb = rho[a], rho[b], rho[-a], rho[-b]
            ok &= mul(mul(ga, gb), ga) == mul(mul(gb, ga), gb)
            ok &= mul(mul(ea, eb), ea) == ea
            ok &= mul(mul(ga, gb), ea) == mul(eb, ea)
            ok &= mul(ea, mul(gb, ga)) == mul(ea, eb)
            ok &= mul(mul(ea, gb), ea) == scale(ea, bmw.F_Z)
    for i in range(1, n):
        for j in range(i + 2, n):
            for s, t in ((i, j), (-i, j), (i, -j), (-i, -j)):
                ok &= mul(rho[s], rho[t]) == mul(rho[t], rho[s])
    return bool(ok)


@cache
def _mult_rows(n, d):
    """Right multiplication by the basis element d, as rows: the matrices
    of the tokens of d's word, multiplied in turn."""
    m = bmw_model(n)
    rows = [{i: bmw.F_ONE} for i in range(len(m.keys))]
    for t in m.words[d]:
        rows = _mat_mul(rows, m.rho[t])
    return rows


def rows_product(x, y):
    """The coordinates of x · y through the rows of each basis diagram in
    y."""
    m = bmw_model(x.n)
    coords = {}
    for i, c in y.coeffs.items():
        rows = _mult_rows(x.n, m.keys[i])
        for j, cj in x.coeffs.items():
            for k, r in rows[j].items():
                acc(coords, k, cj * r * c)
    return coords


def rand_word(rng, n, maxlen=4):
    toks = [i for i in range(1, n)] + [-i for i in range(1, n)]
    return tuple(rng.choice(toks) for _ in range(rng.randint(0, maxlen)))


def test_normal_form_counts():
    assert len(bmw_normal_forms(1)) == 1
    assert len(bmw_normal_forms(2)) == 3
    assert len(bmw_normal_forms(3)) == 15
    assert len(bmw_normal_forms(4)) == 105


def test_normal_form_keys_n2():
    keys = {str(d): w for d, w in bmw_normal_forms(2)}
    assert keys["p1q1|p2q2"] == ()       # identity
    assert keys["p1q2|p2q1"] == (1,)     # g_1
    assert keys["p1p2|q1q2"] == (-1,)    # e_1


def test_bound_exceeded(monkeypatch):
    with pytest.raises(BoundExceededError):
        bmw_normal_forms(7)
    monkeypatch.delenv("CELLULAR_TOWERS_MAX_LEVEL", raising=False)
    n = bmw.DEFAULT_BOUND + 1
    with pytest.raises(BoundExceededError, match=f"rank {n} exceeds the configured bound {n - 1}"):
        bmw_model(n)
    assert tower("bmw").default_bound == bmw.DEFAULT_BOUND


def test_canonical_lift_multiplies_to_its_diagram():
    # the diagram product of the lift word is exactly the diagram, no loops
    for n in (2, 3, 4):
        for d in brauer_basis(n):
            el = DiagramElement.one(n)
            for t in canonical_lift(d):
                gd = BrauerDiagram.s(t, n) if t > 0 else BrauerDiagram.e(-t, n)
                el = el * DiagramElement.from_diagram(gd)
            assert el == DiagramElement.from_diagram(d)


def test_reduce_word_paper_relations():
    one = LaurentPoly.one(QZDV)
    # g g^-1 expands to the identity once the Kauffman relation is used
    assert reduce_word(()) == {(): one}
    out = reduce_word((-1, -1))
    assert out == {(-1,): LaurentPoly.gen(QZDV, "δ")}


def test_defining_relations_via_model():
    assert bmw_model(2).check_relations()
    assert bmw_model(3).check_relations()


@pytest.mark.parametrize("n", [2, 3])
def test_perturbed_action_fails_relations(n):
    # a fresh model (not the cached one) with 1 added to one coefficient of
    # the g_1 action matrix must fail the relation certificate
    m = _Model(n)
    rows = [dict(r) for r in m.rho[1]]
    k = next(iter(rows[0]))
    rows[0][k] = rows[0][k] + F_ONE
    m.rho = {**m.rho, 1: rows}
    m.relations_ok = None
    assert not m.check_relations()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_relation_check_matches_matrix_form(n):
    """The relator check agrees with the matrix form on the model, and on
    copies whose g_1 or e_1 action has one entry, in the first or the last
    row, perturbed by 1."""
    m = bmw_model(n)
    assert m.check_relations() and matrix_relations_hold(m.rho, n)
    for token in (1, -1):
        for r in (0, len(m.keys) - 1):
            rows = [dict(row) for row in m.rho[token]]
            k = next(iter(rows[r]))
            rows[r][k] = rows[r][k] + F_ONE
            bad = copy.copy(m)
            bad.rho = {**m.rho, token: rows}
            bad.relations_ok = None
            assert (bad.check_relations(), matrix_relations_hold(bad.rho, n)) == (False, False)


@pytest.mark.parametrize("n", [2, 3])
def test_enumerated_model_matches_reference(n):
    # the reference runs on RationalFunction, the model on LaurentFraction
    rho, star_rows = reference_model(n)
    m = bmw_model(n)
    assert all(
        type(c) is RationalFunction
        for rows in (*rho.values(), star_rows) for row in rows for c in row.values()
    )
    assert m.rho == rho
    assert m.star_rows == star_rows


@pytest.mark.parametrize("n", [3, 4])
def test_model_stays_in_laurent_fractions(n):
    """Every action and star entry of the rank-3 and rank-4 models is a
    LaurentFraction L / (c · (q² − 1)^k): none fell back to RationalFunction
    and its gcds."""
    m = bmw_model(n)
    for rows in (*m.rho.values(), m.star_rows):
        for row in rows:
            assert all(type(c) is LaurentFraction for c in row.values())


@pytest.mark.parametrize("n", [3, 4])
def test_model_solver_pivots_on_the_newest_vector(n):
    """Each echelon row of the model's coordinate solver pivots on the
    newest enumerated vector it holds, as a coincidence eliminates the
    newest vector of its support."""
    solver = bmw_model(n)._coords
    assert all(pivot == max(row) for (pivot, _), row in zip(solver.pivots, solver.rows))


def test_cellular_basis_stays_in_laurent_fractions():
    datum = cellular_basis("bmw", 3)
    for x in datum.elements.values():
        assert x.coeffs and all(type(c) is LaurentFraction for c in x.coeffs.values())


def test_rank_4_model():
    m = bmw_model(4)
    assert len(m.keys) == 105
    assert m.check_relations()


@pytest.mark.parametrize("m", [3, 4, 5])
def test_enumeration_of_dihedral_group_algebras(m):
    # <a, b | a^2 = b^2 = (ab)^m = 1> has order 2m; HLT order only reaches
    # it if each coincidence passes on the images of the vector it removes
    rels = (
        (((1, 1), F_ONE), ((), -F_ONE)),
        (((2, 2), F_ONE), ((), -F_ONE)),
        (((1, 2) * m, F_ONE), ((), -F_ONE)),
    )
    assert bmw._Enumeration([1, 2], rels, 1000).dim == 2 * m


@pytest.mark.parametrize("n", [2, 3])
def test_wrong_relation_collapses_and_raises(n, monkeypatch):
    # e_1 e_1 = (delta + 1) e_1 in place of delta e_1: the enumeration
    # collapses below (2n-1)!!, and the model must refuse to build
    def perturbed(k):
        rels = list(_relation_list(k))
        i = rels.index((((-1, -1), F_ONE), ((-1,), -delta_as_qz())))
        rels[i] = (((-1, -1), F_ONE), ((-1,), -(delta_as_qz() + F_ONE)))
        return tuple(rels)

    monkeypatch.setattr(bmw, "_relation_list", perturbed)
    with pytest.raises(InternalInvariantError):
        _Model(n)


def test_generator_identities():
    # written out by hand, apart from `_relation_list`, which the model's
    # certificate reads; rank 4 is the first with far commutation
    delta = delta_as_qz()
    z = RationalFunction.gen(QZV, "z")
    zinv = z.inverse()
    for n in (3, 4):
        g = {i: BMWElement.g(n, i) for i in range(1, n)}
        e = {i: BMWElement.e(n, i) for i in range(1, n)}
        for i in range(1, n):
            assert e[i] * e[i] == e[i].scale(delta)
            assert g[i] * BMWElement.g_inv(n, i) == BMWElement.one(n)
            assert BMWElement.g_inv(n, i) * g[i] == BMWElement.one(n)
            assert g[i] * e[i] == e[i].scale(zinv) and e[i] * g[i] == e[i].scale(zinv)
        for i in range(1, n - 1):
            assert g[i] * g[i + 1] * g[i] == g[i + 1] * g[i] * g[i + 1]
            for a, b in ((i, i + 1), (i + 1, i)):
                assert e[a] * e[b] * e[a] == e[a]
                assert g[a] * g[b] * e[a] == e[b] * e[a]
                assert e[a] * g[b] * g[a] == e[a] * e[b]
                assert e[a] * g[b] * e[a] == e[a].scale(z)
    # far commutation, at rank 4 (g and e are the rank-4 generators now);
    # adjacent generators do not commute
    assert g[1] * g[3] == g[3] * g[1]
    assert e[1] * e[3] == e[3] * e[1]
    assert g[1] * e[3] == e[3] * g[1]
    assert e[1] * g[3] == g[3] * e[1]
    assert g[1] * g[2] != g[2] * g[1] and e[1] * e[2] != e[2] * e[1]


def test_product_matches_rows_reference():
    """x · y, acting on x alone, against the rows of each basis diagram of
    y: random elements at ranks 3 and 4, and the dense elements of the
    rank-3 cellular basis, at rank 3 and embedded at rank 4."""
    rng = random.Random(13)
    for n, count in ((3, 30), (4, 10)):
        for _ in range(count):
            x, y = (
                BMWElement.from_word(n, rand_word(rng, n))
                + BMWElement.from_word(n, rand_word(rng, n), QP)
                for _ in range(2)
            )
            assert (x * y).coeffs == rows_product(x, y)
    basis = list(cellular_basis("bmw", 3).elements.values())
    for _ in range(20):
        x, y = rng.choice(basis), rng.choice(basis)
        assert (x * y).coeffs == rows_product(x, y)
        x, y = x.embed(4), y.embed(4)
        assert (x * y).coeffs == rows_product(x, y)


def test_subtraction_rejects_other_operands():
    # an int, or an element of another rank, names the operator it failed
    g = BMWElement.g(3, 1)
    for other in (3, BMWElement.g(2, 1)):
        with pytest.raises(TypeError, match="for -:"):
            g - other


def test_kauffman_skein():
    n = 2
    g = BMWElement.g(n, 1)
    ginv = BMWElement.g_inv(n, 1)
    c = LaurentPoly.gen(QZDV, "q") - LaurentPoly.gen(QZDV, "q", -1)
    rhs = (BMWElement.one(n) - BMWElement.e(n, 1)).scale(c)
    assert g - ginv == rhs


def test_star_is_antiautomorphism():
    rng = random.Random(5)
    n = 3
    for _ in range(50):
        x = BMWElement.from_word(n, rand_word(rng, n))
        y = BMWElement.from_word(n, rand_word(rng, n))
        assert (x * y).star() == y.star() * x.star()
    assert BMWElement.g(3, 1).star() == BMWElement.g(3, 1)
    assert BMWElement.e(3, 2).star() == BMWElement.e(3, 2)


def test_embedding_is_multiplicative():
    rng = random.Random(6)
    for _ in range(20):
        x = BMWElement.from_word(2, rand_word(rng, 2))
        y = BMWElement.from_word(2, rand_word(rng, 2))
        assert (x * y).embed(3) == x.embed(3) * y.embed(3)


def test_word_and_coordinate_representations_agree():
    rng = random.Random(7)
    for n, count in ((3, 30), (4, 10)):
        m = bmw_model(n)
        one = BMWElement.one(n).coeffs
        for _ in range(count):
            wx, wy = rand_word(rng, n), rand_word(rng, n)
            p = BMWElement.from_word(n, wx) * BMWElement.from_word(n, wy)
            acc = {}
            for w, c in _eager_product(reduce_word(wx), reduce_word(wy)).items():
                f = delta_eliminate(c)
                for i, cc in m.apply(one, w).items():
                    s = acc.get(i)
                    s = cc * f if s is None else s + cc * f
                    if s:
                        acc[i] = s
                    else:
                        acc.pop(i, None)
            assert acc == p.coeffs


def test_quotient_to_hecke():
    assert bmw_to_hecke(BMWElement.e(3, 1)).is_zero()
    x = bmw_to_hecke(BMWElement.from_word(3, (1, 2)))
    assert list(x.coeffs) == [(3, 1, 2)]
    rng = random.Random(8)
    for _ in range(60):
        a = BMWElement.from_word(3, rand_word(rng, 3))
        b = BMWElement.from_word(3, rand_word(rng, 3))
        assert bmw_to_hecke(a * b) == bmw_to_hecke(a) * bmw_to_hecke(b)


def test_hecke_quotient_corank():
    # the e-generated ideal has corank n! (n <= 3)
    from cellular_towers.framework import contraction_ideal_rank
    import math

    for n in (2, 3):
        rank = contraction_ideal_rank("bmw", n)
        dims = {2: 3, 3: 15}
        assert dims[n] - rank == math.factorial(n)


def test_brauer_specialization():
    assert bmw_to_brauer(BMWElement.g(3, 1)) == DiagramElement.from_diagram(
        BrauerDiagram.s(1, 3)
    )
    assert bmw_to_brauer(BMWElement.e(3, 2)) == DiagramElement.from_diagram(
        BrauerDiagram.e(2, 3)
    )
    # Kauffman relation image: s1 - s1 = 0 = (q - q^-1)(1 - e1) at q = 1
    g, ginv = BMWElement.g(3, 1), BMWElement.g_inv(3, 1)
    assert bmw_to_brauer(g - ginv).is_zero()
    rng = random.Random(9)
    for _ in range(100):
        a = BMWElement.from_word(3, rand_word(rng, 3))
        b = BMWElement.from_word(3, rand_word(rng, 3))
        assert bmw_to_brauer(a * b) == bmw_to_brauer(a) * bmw_to_brauer(b)


def test_lift_branching():
    t = tower("bmw")
    # a = i case: dbar = 1 (empty word)
    assert t.dbar((1,), (1, 1), 2, 2) == BMWElement.one(2)
    # lam = (1) -> mu = (2): ubar = g_{2,2}(q^0 g_{2,2} + q^1 g_{2,1}) = 1 + q g1
    assert t.ubar((1,), (2,), 2, 2) == BMWElement.one(2) + BMWElement.g(2, 1).scale(QP)
    with pytest.raises(DomainError):
        t.dbar((2,), (2,), 3, 3)


def test_lift_branching_quotients_to_hecke_d():
    # pi(dbar) = T_{a,i} for all edges, levels <= 3 through the machinery
    for i in (1, 2, 3):
        for lam in partitions_of(i - 1):
            for node in addable_nodes(lam):
                mu = add_node(lam, node)
                dbar = tower("bmw").dbar(lam, mu, i, i)
                want = d_branching(lam, mu, i).map_coefficients(delta_eliminate)
                assert bmw_to_hecke(dbar) == want
    # level 4: the lift is a plain g-word, compare word for word
    for lam in partitions_of(3):
        for node in addable_nodes(lam):
            mu = add_node(lam, node)
            j = node[0]
            a = sum(mu[:j])
            dword = tuple(range(a, 4))
            h = HeckeElement.one(4).times_word(dword)
            assert h == d_branching(lam, mu, 4)


def test_times_token_matches_generator_product():
    rng = random.Random(11)
    for _ in range(30):
        x = BMWElement.from_word(3, rand_word(rng, 3))
        for t in (1, 2, -1, -2):
            gen = BMWElement.g(3, t) if t > 0 else BMWElement.e(3, -t)
            assert x.times_token(t) == x * gen


def test_element_json_keyed_by_diagram():
    x = BMWElement.e(2, 1).scale(delta_as_qz())
    data = x.to_json()
    assert data["n"] == 2
    (term,) = data["terms"]
    assert term["diagram"] == {"n": 2, "pairs": [["p1", "p2"], ["q1", "q2"]]}
    assert set(term["coeff"]) == {"num", "den"}


def test_associativity_sample_n3():
    # the full 15^3 sweep runs in the acceptance suite; spot check here
    rng = random.Random(10)
    m = bmw_model(3)
    keys = m.keys
    els = {d: BMWElement.from_word(3, m.words[d]) for d in keys}
    for _ in range(40):
        a, b, c = (els[rng.choice(keys)] for _ in range(3))
        assert (a * b) * c == a * (b * c)


# eager word maps over Z[q^{±1}, z^{±1}, delta], formed by `reduce_word`:
# the reference for the Brauer specialization


def _eager_rewritten(words, change):
    out = {}
    for w, c in words.items():
        for w2, c2 in reduce_word(change(w)).items():
            acc(out, w2, c * c2)
    return out


def _eager_product(w1, w2):
    out = {}
    for u, cu in w1.items():
        for v, cv in w2.items():
            for w, c in reduce_word(u + v).items():
                acc(out, w, cu * cv * c)
    return out


def _eager_sum(w1, w2):
    out = dict(w1)
    for w, c in w2.items():
        acc(out, w, c)
    return out


def _eager_scaled(words, f):
    return {w: p for w, c in words.items() if (p := c * f)}


def _words_to_brauer(n, words):
    """The word map specialized at q = z = 1 term by term: each word's
    diagram product, scaled by its coefficient's value in Z[delta]."""
    out = DiagramElement(n)
    for w, c in words.items():
        k = c.vars.index("δ")
        at_one = {}
        for e, x in c.terms.items():
            at_one[(e[k],)] = at_one.get((e[k],), 0) + x
        el = DiagramElement.one(n)
        for t in w:
            d = BrauerDiagram.s(t, n) if t > 0 else BrauerDiagram.e(-t, n)
            el = el * DiagramElement.from_diagram(d)
        out = out + el.scale(LaurentPoly(DV, at_one))
    return out


def _rand_scalar(rng):
    """A Laurent polynomial in q, z and delta with no negative power of
    delta: an int, a signed monomial, or a sum of two."""
    def monomial():
        exp = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(0, 2))
        return LaurentPoly(QZDV, {exp: rng.choice((-2, -1, 1, 3))})

    kind = rng.randrange(3)
    if kind == 0:
        return LaurentPoly.const(QZDV, rng.choice((-1, 2)))
    return monomial() if kind == 1 else monomial() + monomial()


def _rand_pair(rng, n, depth=2):
    """A random element of rank n with its eager word map: words with
    scalars, g_inv, sums, negated differences, scalings, products, stars,
    tokens and, from rank n - 1, embeddings."""
    kind = rng.randrange(9) if depth else 0
    if kind == 0 or n == 1 and kind in (2, 7):
        w, f = rand_word(rng, n) if n > 1 else (), _rand_scalar(rng)
        return BMWElement.from_word(n, w, f), _eager_scaled(reduce_word(w), f)
    if kind == 1:
        x, wx = _rand_pair(rng, n, depth - 1)
        y, wy = _rand_pair(rng, n, depth - 1)
        return x * y, _eager_product(wx, wy)
    if kind == 2:
        i = rng.randint(1, n - 1)
        tw = LaurentPoly.gen(QZDV, "q") - LaurentPoly.gen(QZDV, "q", -1)
        words = _eager_sum(reduce_word((i,)), {(): -tw})
        return BMWElement.g_inv(n, i), _eager_sum(words, _eager_scaled(reduce_word((-i,)), tw))
    if kind in (3, 4):
        x, wx = _rand_pair(rng, n, depth - 1)
        y, wy = _rand_pair(rng, n, depth - 1)
        if kind == 3:
            return x + y, _eager_sum(wx, wy)
        return -(y - x), _eager_sum(wx, _eager_scaled(wy, -1))
    x, wx = _rand_pair(rng, n if kind != 8 or n == 1 else n - 1, depth - 1)
    if kind == 5:
        f = _rand_scalar(rng)
        return x.scale(f), _eager_scaled(wx, f)
    if kind == 6:
        return x.star(), _eager_rewritten(wx, lambda w: w[::-1])
    if kind == 7:
        t = rng.choice([i for i in range(1, n)] + [-i for i in range(1, n)])
        return x.times_token(t), _eager_rewritten(wx, lambda w: w + (t,))
    return x.embed(n), wx


def test_brauer_specialization_matches_word_reference():
    """bmw_to_brauer, read from the coordinates, against the eager word
    maps specialized at q = z = 1, on random elements of ranks 1-4."""
    rng = random.Random(12)
    for n, count in ((1, 20), (2, 60), (3, 60), (4, 20)):
        for _ in range(count):
            x, words = _rand_pair(rng, n)
            assert bmw_to_brauer(x) == _words_to_brauer(n, words)


def test_brauer_specialization_rejects_values_outside_the_ground_ring():
    """A pole at q = 1, a RationalFunction coordinate, a delta^-1 scalar
    and a non-integral value each raise SpecializationError."""
    one = BMWElement.one(2)
    pole = LaurentFraction(LaurentPoly.one(QZV), 1, 1)  # 1 / (q^2 - 1)
    q, z = LaurentPoly.gen(QZV, "q"), LaurentPoly.gen(QZV, "z")
    rational = RationalFunction(LaurentPoly.one(QZV), q + z)
    half = LaurentFraction(LaurentPoly.one(QZV), 2)
    for f in (pole, rational, LaurentPoly.gen(QZDV, "δ", -1), half):
        with pytest.raises(SpecializationError):
            bmw_to_brauer(one.scale(f))
    assert bmw_to_brauer(one.scale(pole * (q * q - 1))) == DiagramElement.one(2)
