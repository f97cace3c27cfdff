import itertools
import random

import pytest

from cellular_towers import framework
from cellular_towers.coeff import QV, LaurentPoly, Q
from cellular_towers.combinatorics import (
    addable_nodes,
    add_node,
    garnir_tableau,
    partitions_of,
    path_to_tableau,
    remove_node,
    removable_nodes,
    semistandard_tableaux,
    standard_tableaux,
    superstandard_tableau,
    tableau_type_map,
)
from cellular_towers.errors import DomainError, SpecializationError
from cellular_towers.hecke import (
    TWIST,
    HeckeElement,
    apply_perm_to_tableau,
    cell_action,
    d_branching,
    d_cap,
    d_path,
    det_is_unit_monomial,
    express_in_murphy,
    garnir_element,
    m_lambda,
    murphy_basis,
    murphy_element,
    murphy_support_shapes,
    murphy_transition_det,
    perm_from_word,
    perm_id,
    perm_inv,
    perm_len,
    perm_mul,
    perm_s,
    permutation_module_report,
    reduced_word,
    restriction_filtration,
    semistandard_basis_element,
    symmetric_group_specialize,
    tableau_permutation,
    u_branching,
)
from cellular_towers.linalg import acc
from cellular_towers.ratfunc import RationalFunction

QP = LaurentPoly.gen(QV, Q)
QI = LaurentPoly.gen(QV, Q, -1)


def all_perms(n):
    return list(itertools.permutations(range(1, n + 1)))


def test_reduced_words_and_length():
    for n in range(1, 6):
        for w in all_perms(n):
            word = reduced_word(w)
            assert len(word) == perm_len(w)
            assert perm_from_word(word, n) == w
            assert perm_len(w) == perm_len(perm_inv(w))


def test_quadratic_relation():
    t1 = HeckeElement.t_gen(2, 1)
    assert t1.times_gen(1) == HeckeElement.one(2) + t1.scale(QP - QI)


def test_length_additive_product():
    # T_{s1} T_{s2} = T_{s1 s2}
    x = HeckeElement.t_gen(3, 1).times_gen(2)
    assert x == HeckeElement.t_perm(3, perm_mul((2, 1, 3), (1, 3, 2)))


def test_braid_and_commutation_on_basis_n4():
    n = 4
    for w in all_perms(n):
        x = HeckeElement.t_perm(n, w)
        for i in range(1, n - 1):
            assert (
                x.times_gen(i).times_gen(i + 1).times_gen(i)
                == x.times_gen(i + 1).times_gen(i).times_gen(i + 1)
            )
        assert x.times_gen(1).times_gen(3) == x.times_gen(3).times_gen(1)
        for i in range(1, n):
            lhs = x.times_gen(i).times_gen(i)
            assert lhs == x + x.times_gen(i).scale(QP - QI)


def test_associativity_exhaustive_n3():
    els = [HeckeElement.t_perm(3, w) for w in all_perms(3)]
    for a, b, c in itertools.product(els, repeat=3):
        assert (a * b) * c == a * (b * c)


# right multiplication as it was written before it swapped two values in
# place and summed every product into one map: the reference for both


def _times_gen_by_perm_mul(x, i):
    out = {}
    for w, c in x.coeffs.items():
        acc(out, perm_mul(w, perm_s(i, x.n)), c)
        if w.index(i) > w.index(i + 1):
            acc(out, w, c * TWIST)
    return HeckeElement._raw(x.n, out)


def _mul_by_summed_elements(x, y):
    out = HeckeElement(x.n)
    for w, c in y.coeffs.items():
        z = x
        for i in reduced_word(w):
            z = _times_gen_by_perm_mul(z, i)
        out = out + z.scale(c)
    return out


def _random_element(rng, n, terms):
    perms = all_perms(n)
    coeffs = {}
    for _ in range(terms):
        c = {(rng.randint(-2, 2),): rng.randint(-3, 3) for _ in range(2)}
        coeffs[rng.choice(perms)] = LaurentPoly(QV, c)
    return HeckeElement(n, coeffs)


def test_products_match_the_reference_in_key_order():
    """times_gen and the product give the reference's coefficients, in its
    key order, on random elements of ranks 1 to 5; small coefficients make
    some sums cancel."""
    rng = random.Random(24)
    for n in range(1, 6):
        for _ in range(12):
            x, y = _random_element(rng, n, 6), _random_element(rng, n, 4)
            for i in range(1, n):
                got, want = x.times_gen(i), _times_gen_by_perm_mul(x, i)
                assert list(got.coeffs.items()) == list(want.coeffs.items())
            got, want = x * y, _mul_by_summed_elements(x, y)
            assert list(got.coeffs.items()) == list(want.coeffs.items())


def test_involution():
    # T_{s1 s2}* = T_{s2 s1}
    x = HeckeElement.t_perm(3, perm_mul((2, 1, 3), (1, 3, 2)))
    assert x.star() == HeckeElement.t_perm(3, perm_mul((1, 3, 2), (2, 1, 3)))
    rng = random.Random(0)
    els = [HeckeElement.t_perm(3, w) for w in all_perms(3)]
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        assert (a * b).star() == b.star() * a.star()
    for n in range(1, 5):
        for lam in partitions_of(n):
            assert m_lambda(lam, n).star() == m_lambda(lam, n)


def test_m_lambda_examples():
    assert m_lambda((1, 1)) == HeckeElement.one(2)
    assert m_lambda((2,)) == HeckeElement.one(2) + HeckeElement.t_gen(2, 1).scale(QP)
    assert m_lambda((2, 1), 3) == HeckeElement.one(3) + HeckeElement.t_gen(3, 1).scale(QP)


def test_tableau_permutation_paper_example():
    tab = ((1, 4, 6), (2, 3), (5,))
    w = tableau_permutation(tab)
    assert w == (1, 4, 6, 2, 3, 5)  # the cycle form (2,4)(3,6,5)
    assert apply_perm_to_tableau(superstandard_tableau((3, 2, 1)), w) == tab


def test_tableau_permutation_round_trip():
    for n in range(1, 6):
        for lam in partitions_of(n):
            tsup = superstandard_tableau(lam)
            for t in standard_tableaux(lam):
                w = tableau_permutation(t)
                assert apply_perm_to_tableau(tsup, w) == t
            assert tableau_permutation(tsup) == perm_id(n)


def test_murphy_basis_cardinality():
    assert len(murphy_basis(2)) == 2
    assert len(murphy_basis(4)) == 24
    # n = 2 entries: m_(2) and the unit for the column shape
    by_shape = {}
    for lam, s, t, el in murphy_basis(2):
        by_shape[lam] = el
    assert by_shape[(2,)] == m_lambda((2,))
    assert by_shape[(1, 1)] == HeckeElement.one(2)


def test_murphy_basis_order_and_elements():
    # the family read from the cell datum keeps the documented order, and
    # each element is the independently built T_w(s)* m_lam T_w(t)
    for n in range(1, 5):
        labels = [
            (lam, s, t)
            for lam in partitions_of(n)
            for s in standard_tableaux(lam)
            for t in standard_tableaux(lam)
        ]
        family = murphy_basis(n)
        assert [(lam, s, t) for lam, s, t, _ in family] == labels
        for lam, s, t, el in family:
            assert el == murphy_element(lam, s, t, n)


def test_murphy_transition_determinant_unit():
    for n in (2, 3, 4):
        det = murphy_transition_det(n)
        assert det_is_unit_monomial(det)


def test_murphy_outputs_pinned():
    # exact sign and exponent, not just a unit: these are the values the
    # rank-5 benchmark job prints
    for n, (sign, k) in enumerate([(1, 0), (-1, 1), (-1, 7), (1, 50), (1, 380)], 1):
        assert murphy_transition_det(n) == QP**k * sign
    layers = {
        (5,): [((4,), 1)],
        (4, 1): [((4,), 1), ((3, 1), 3)],
        (3, 2): [((3, 1), 3), ((2, 2), 2)],
        (3, 1, 1): [((3, 1), 3), ((2, 1, 1), 3)],
        (2, 2, 1): [((2, 2), 2), ((2, 1, 1), 3)],
        (2, 1, 1, 1): [((2, 1, 1), 3), ((1, 1, 1, 1), 1)],
        (1, 1, 1, 1, 1): [((1, 1, 1, 1), 1)],
    }
    assert sorted(layers) == sorted(partitions_of(5))
    for lam, want in layers.items():
        rep = restriction_filtration(lam, 5)
        assert [(x["shape"], x["rank"]) for x in rep["layers"]] == want
        assert rep["stable"] and rep["subquotients_match"] and rep["order_preserving"]


def test_express_t_s1_against_manual_solve():
    # independent 2x2 solve: a (1 + q T1) + b * 1 = T1
    coords = express_in_murphy(HeckeElement.t_gen(2, 1))
    f = RationalFunction.from_poly
    a = f(QP).inverse()
    sol = {}
    for (lam, s, t), c in coords.items():
        sol[lam] = c
    assert sol[(2,)] == a and sol[(1, 1)] == -a


def test_express_unit_vectors():
    for lam, s, t, el in murphy_basis(3):
        coords = express_in_murphy(el)
        assert coords == {(lam, s, t): RationalFunction.one(QV)}


def test_d_branching_examples():
    # lam = (2,1), added node (2,1): a = 3 = n, so the coefficient is 1
    assert d_branching((2,), (2, 1), 3) == HeckeElement.one(3)
    # added node (1,2): a = 2, coefficient T2
    assert d_branching((1, 1), (2, 1), 3) == HeckeElement.t_gen(3, 2)
    with pytest.raises(DomainError):
        d_branching((2,), (3, 1), 4)


def test_u_branching_examples():
    # mu = (1), beta = (1,2): 1 + q T1
    expect = HeckeElement.one(2) + HeckeElement.t_gen(2, 1).scale(QP)
    assert u_branching((1,), (2,)) == expect
    # lowest addable node: q^{n-a} T_{n+1,a+1} with D = 1, and a = n
    for n in range(1, 4):
        for mu in partitions_of(n):
            omega = addable_nodes(mu)[-1]
            nu = add_node(mu, omega)
            assert u_branching(mu, nu) == HeckeElement.one(n + 1)


def test_u_branching_conjugation_lemma():
    # m_nu = T_{n+1,a+1}^{-1} m_mu T_{n+1,a+1} D(beta) for edges with |nu| <= 4
    for n in range(0, 4):
        for mu in partitions_of(n):
            for node in addable_nodes(mu):
                nu = add_node(mu, node)
                rank = n + 1
                i = node[0]
                a, b = sum(mu[:i]), sum(mu[: i - 1]) + 1
                word = list(range(n, a, -1))  # T_{n+1, a+1}
                x = m_lambda(mu, rank).times_word(word) * d_cap(a, b, rank)
                x = HeckeElement.one(rank).times_word_inv(word) * x
                assert x == m_lambda(nu, rank)


def test_d_path_equals_t_w():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for t in standard_tableaux(lam):
                assert d_path(t) == HeckeElement.t_perm(n, tableau_permutation(t))


def test_murphy_elements_match_path_products():
    # m^lam_{st} = d_s* m_lam d_t reproduces T_{w(s)}* m_lam T_{w(t)}
    for n in range(1, 5):
        for lam in partitions_of(n):
            tabs = standard_tableaux(lam)
            for s in tabs:
                for t in tabs:
                    lhs = d_path(s).star() * m_lambda(lam, n) * d_path(t)
                    assert lhs == murphy_element(lam, s, t, n)


def test_garnir_element_membership():
    # h_g lies in M^lam intersect the strictly-dominant span: its Murphy
    # support uses only shapes strictly above lam
    from cellular_towers.combinatorics import dominance_geq

    # at lam = (1,1) the weighted sum collapses onto m_(2) = 1 + q T1,
    # which spans the dominance ideal there
    assert garnir_element((1, 1), (1, 1)) == m_lambda((2,), 2)
    for n in range(2, 5):
        for lam in partitions_of(n):
            for i in range(1, len(lam)):
                for j in range(1, lam[i] + 1):
                    h = garnir_element(lam, (i, j))
                    for mu in murphy_support_shapes(h):
                        assert mu != lam and dominance_geq(mu, lam)


def test_garnir_span_is_whole_intersection():
    # rank of the span of all h_g T_w equals |M^lam| - (number of standard
    # tableaux), certifying M_0^lam = M^lam cap H^{> lam}, n <= 4
    from cellular_towers.linalg import SpanSolver

    for n in range(2, 5):
        for lam in partitions_of(n):
            strips = [
                (i, j)
                for i in range(1, len(lam))
                for j in range(1, lam[i] + 1)
            ]
            if not strips:
                continue
            # rank of M^lam itself
            ml = m_lambda(lam, n)
            module = SpanSolver()
            queue = [ml]
            module.insert({w: RationalFunction.from_poly(c) for w, c in ml.coeffs.items()})
            while queue:
                el = queue.pop()
                for i in range(1, n):
                    nxt = el.times_gen(i)
                    vec = {w: RationalFunction.from_poly(c) for w, c in nxt.coeffs.items()}
                    if module.insert(vec)[0] == "new":
                        queue.append(nxt)
            inter = SpanSolver()
            queue = [garnir_element(lam, s) for s in strips]
            for el in queue:
                inter.insert({w: RationalFunction.from_poly(c) for w, c in el.coeffs.items()})
            queue = list(queue)
            while queue:
                el = queue.pop()
                for i in range(1, n):
                    nxt = el.times_gen(i)
                    vec = {w: RationalFunction.from_poly(c) for w, c in nxt.coeffs.items()}
                    if inter.insert(vec)[0] == "new":
                        queue.append(nxt)
            assert module.rank - inter.rank == len(standard_tableaux(lam))


def test_restriction_filtration_shapes():
    rep = restriction_filtration((2, 1))
    assert [layer["shape"] for layer in rep["layers"]] == [(2,), (1, 1)]
    assert rep["stable"] and rep["subquotients_match"] and rep["order_preserving"]
    rep = restriction_filtration((3,))
    assert [layer["shape"] for layer in rep["layers"]] == [(2,)]


def test_restriction_filtration_reports_a_broken_datum(monkeypatch):
    # the criterion-10 perturbation of the hecke 3 datum: the framework
    # certificate returns its short failure report, with no layers
    datum = framework.cellular_basis("hecke", 3)
    low = datum.vertices[-1]
    key = next(k for k in datum.index if k[0] != low)
    bad = datum.replaced(key, datum.t.add(datum.elements[key], datum.elements[(low, 0, 0)]))
    real = framework.cellular_basis
    monkeypatch.setattr(
        framework, "cellular_basis", lambda name, n: bad if (name, n) == ("hecke", 3) else real(name, n)
    )
    short = framework.restriction_filtration_a("hecke", ((2, 1), 0), 3)
    assert short == {"pass": False, "reason": "action left the cell ideal"}
    assert restriction_filtration((2, 1), 3) == short


def test_restriction_filtration_all_n4():
    for lam in partitions_of(4):
        rep = restriction_filtration(lam)
        assert rep["stable"] and rep["subquotients_match"] and rep["order_preserving"]
        for layer in rep["layers"]:
            assert layer["rank"] == len(standard_tableaux(layer["shape"]))


def test_semistandard_basis_element():
    for n in range(1, 5):
        for mu in partitions_of(n):
            tmu = tableau_type_map(superstandard_tableau(mu), mu)
            el = semistandard_basis_element(tmu, superstandard_tableau(mu), mu, n)
            assert el == m_lambda(mu, n)


def test_permutation_module_murphy_theorem():
    for n in range(1, 6):
        for mu in partitions_of(n):
            rep = permutation_module_report(mu, n)
            assert rep["free"]
            assert rep["module_rank_matches"]
            assert rep["filtration_stable"]
            assert rep["subquotients_match"]


def test_permutation_module_span_is_compared(monkeypatch):
    # q.1 - T_1 spans the other T_1-stable line of H_2: a free, T_1-closed
    # family with as many members as m_(2) H_2 has dimensions, but another
    # span, so the module certificate must fail
    import cellular_towers.hecke as hecke

    other = HeckeElement.one(2).scale(QP) - HeckeElement.t_gen(2, 1)
    monkeypatch.setattr(hecke, "semistandard_basis_element", lambda *args: other)
    rep = permutation_module_report((2,), 2)
    assert rep["free"] and rep["filtration_stable"]
    assert not rep["module_rank_matches"]


def test_symmetric_group_specialization():
    # T1^2 at q = 1 is the identity, with integer coefficients
    x = HeckeElement.t_gen(3, 1).times_gen(1)
    g = symmetric_group_specialize(x)
    assert g.coeffs == {perm_id(3): 1} and type(g.coeffs[perm_id(3)]) is int
    # m_(2) -> 1 + s1
    g = symmetric_group_specialize(m_lambda((2,)))
    assert g.coeffs == {(1, 2): 1, (2, 1): 1}
    # a coefficient outside Z[q^±1] has no value at q = 1
    pole = RationalFunction(LaurentPoly.one(QV), QP - 1)
    with pytest.raises(SpecializationError):
        symmetric_group_specialize(HeckeElement.one(2).scale(pole))
    # specialization commutes with products on 100 random pairs
    rng = random.Random(13)
    els = [HeckeElement.t_perm(3, w) for w in all_perms(3)]
    for _ in range(100):
        a, b = rng.choice(els), rng.choice(els)
        assert symmetric_group_specialize(a * b) == symmetric_group_specialize(
            a
        ) * symmetric_group_specialize(b)


def test_murphy_basis_json():
    from cellular_towers.hecke import murphy_basis_json

    data = murphy_basis_json(2)
    assert len(data) == 2
    entry = next(e for e in data if e["lambda"] == [2])
    assert entry["s"] == [[1, 2]] and entry["t"] == [[1, 2]]
    assert entry["coeffs"]["1,2"]["terms"] == [{"exp": [0], "coef": "1"}]
    assert entry["coeffs"]["2,1"]["terms"] == [{"exp": [1], "coef": "1"}]


def test_cell_action_reads_the_superstandard_row():
    # cell_action reads row 0 of the cell datum: path 0 is t^lam
    for n in range(1, 6):
        datum = framework.cellular_basis("hecke", n)
        for lam in partitions_of(n):
            path = datum.paths[(lam, 0)][0]
            assert path_to_tableau(tuple(mu for mu, _ in path)) == superstandard_tableau(lam)
    with pytest.raises(DomainError):
        cell_action((2, 1), 3, 3)


def test_cell_action_independence_of_s():
    # r_v(t, T_i) extracted through any s agree: Definition 2.1(3a) shape
    for n in range(2, 5):
        for lam in partitions_of(n):
            tabs = standard_tableaux(lam)
            for i in range(1, n):
                rows = cell_action(lam, n, i)
                for s in tabs:
                    for t in tabs:
                        el = murphy_element(lam, s, t, n).times_gen(i)
                        coords = express_in_murphy(el)
                        got = {
                            v: c
                            for (mu, s2, v), c in coords.items()
                            if mu == lam and s2 == s
                        }
                        assert got == rows[t]


def test_murphy_star_congruence():
    # (m_st)* = m_ts modulo strictly dominant shapes
    from cellular_towers.combinatorics import dominance_geq

    for n in range(2, 5):
        for lam in partitions_of(n):
            tabs = standard_tableaux(lam)
            for s in tabs:
                for t in tabs:
                    diff = murphy_element(lam, s, t, n).star() - murphy_element(
                        lam, t, s, n
                    )
                    for mu in murphy_support_shapes(diff):
                        assert mu != lam and dominance_geq(mu, lam)


def test_garnir_word_support_dominates():
    # m_lam T_w(g) expands over Murphy elements with shapes >= lam only
    from cellular_towers.combinatorics import dominance_geq, garnir_tableau

    for n in range(2, 5):
        for lam in partitions_of(n):
            for i in range(1, len(lam)):
                for j in range(1, lam[i] + 1):
                    g = garnir_tableau(lam, (i, j))
                    x = m_lambda(lam, n).times_word(
                        reduced_word(tableau_permutation(g))
                    )
                    for mu in murphy_support_shapes(x):
                        assert dominance_geq(mu, lam)


def _tail_gt(a, b):
    # strict reverse-lex comparison of equal-length path tails on Young's
    # lattice (larger shape at the last disagreement wins)
    from cellular_towers.combinatorics import dominance_geq

    for j in range(len(a) - 1, -1, -1):
        if a[j] != b[j]:
            return dominance_geq(a[j], b[j]) and a[j] != b[j]
    return False


def test_path_basis_compatibility():
    # acting by x in H_k on m^lam_t is the initial-segment expansion,
    # modulo basis elements whose [k, n] tail is strictly later
    from cellular_towers.combinatorics import (
        shape_of,
        tableau_restrict,
        tableau_to_path,
    )

    for n in (3, 4):
        for lam in partitions_of(n):
            tabs = standard_tableaux(lam)
            paths = {t: tableau_to_path(t) for t in tabs}
            for k in range(2, n):
                for i in range(1, k):
                    act_big = cell_action(lam, n, i)
                    for t in tabs:
                        t_path = paths[t]
                        t1 = tableau_restrict(t, k)
                        mu = shape_of(t1)
                        act_small = cell_action(mu, k, i)
                        small = {
                            tuple(tableau_to_path(s)): c
                            for s, c in act_small[t1].items()
                        }
                        for v, c in act_big[t].items():
                            v_path = paths[v]
                            if v_path[k:] == t_path[k:]:
                                key = v_path[: k + 1]
                                assert small.get(key) == c
                            else:
                                assert _tail_gt(v_path[k:], t_path[k:])
                        for key, c in small.items():
                            got = act_big[t].get(_paste(key, t_path, k))
                            assert got == c


def _paste(prefix_path, t_path, k):
    from cellular_towers.combinatorics import path_to_tableau

    return path_to_tableau(prefix_path + t_path[k + 1 :])


def test_cyclic_generation_of_cell_modules():
    # m^lam_{t^lam} generates each cell module, n <= 5: the closure of the
    # generator row under all T_i has full rank f^lam
    from cellular_towers.linalg import SpanSolver

    for n in range(1, 6):
        for lam in partitions_of(n):
            tabs = standard_tableaux(lam)
            gen = {tabs.index(superstandard_tableau(lam)): RationalFunction.one(QV)}
            actions = [cell_action(lam, n, i) for i in range(1, n)]
            mats = [
                [
                    {tabs.index(v): c for v, c in act[t].items()}
                    for t in tabs
                ]
                for act in actions
            ]
            span = SpanSolver()
            span.insert(gen)
            queue = [gen]
            while queue:
                vec = queue.pop()
                for m in mats:
                    out = {}
                    for i, c in vec.items():
                        for j, r in m[i].items():
                            s = out.get(j)
                            s = c * r if s is None else s + c * r
                            if s:
                                out[j] = s
                            else:
                                out.pop(j, None)
                    if span.insert(out)[0] == "new":
                        queue.append(out)
            assert span.rank == len(tabs)
