"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
All checks are exact (integer Laurent polynomials or their fraction
fields); no tolerances anywhere.
"""

import itertools
import math
import random

from cellular_towers.bmw import BMWElement, bmw_model, bmw_to_brauer
from cellular_towers.coeff import QV
from cellular_towers.combinatorics import (
    addable_nodes,
    add_node,
    partitions_of,
    path_to_tableau,
    standard_tableaux,
)
from cellular_towers.diagrams import bell_number, catalan_number, double_factorial_odd
from cellular_towers.framework import (
    a_hat,
    branching_agreement,
    cellular_basis,
    dimension_identity,
    restriction_filtration_a,
    verify_cell_datum,
    verify_framework_axioms,
)
from cellular_towers.hecke import (
    HeckeElement,
    d_cap,
    det_is_unit_monomial,
    m_lambda,
    murphy_element,
    murphy_transition_det,
    permutation_module_report,
    restriction_filtration,
)
from cellular_towers.ratfunc import RationalFunction


def line(num, ok, text):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num}: {status} - {text}")
    assert ok, f"criterion {num} failed: {text}"


def test_criterion_1_dimension_identities():
    expected = {
        "brauer": {n: double_factorial_odd(n) for n in range(1, 5)},
        "tl": {n: catalan_number(n) for n in range(1, 7)},
        "partition": {n: bell_number(n) for n in range(2, 7)},
        "bmw": {n: double_factorial_odd(n) for n in range(1, 4)},
        "hecke": {n: math.factorial(n) for n in range(1, 6)},
    }
    frozen = {
        "brauer": [1, 3, 15, 105],
        "tl": [1, 2, 5, 14, 42, 132],
        "partition": [2, 5, 15, 52, 203],
        "bmw": [1, 3, 15],
        "hecke": [1, 2, 6, 24, 120],
    }
    ok = True
    for name, dims in expected.items():
        assert list(dims.values()) == frozen[name]
        for n, dim in dims.items():
            match, total, d = dimension_identity(name, n)
            ok &= match and d == dim and total == dim
    line(1, ok, "sum of squared path counts equals algebra dimension "
                "(Brauer 1-4, TL 1-6, partition 2-6, BMW 1-3, Hecke 1-5)")


def test_criterion_2_basis_freeness():
    ok = True
    for name, top in [("brauer", 4), ("tl", 6), ("partition", 5), ("bmw", 3)]:
        for n in range(1, top + 1):
            datum = cellular_basis(name, n)
            ok &= datum.free and datum.det is not None and bool(datum.det)
    for n in range(1, 5):
        datum = cellular_basis("hecke", n)
        ok &= datum.free and det_is_unit_monomial(datum.det)
        ok &= det_is_unit_monomial(murphy_transition_det(n))
    line(2, ok, "cellular-to-native transition determinants nonzero; "
                "Hecke Murphy determinant is a unit +-q^k (n <= 4)")


def test_criterion_3_cell_datum_axioms():
    ok = True
    failures = []
    for name, top in [("hecke", 4), ("brauer", 3), ("tl", 3), ("partition", 4),
                      ("bmw", 3)]:
        for n in range(1, top + 1):
            rep = verify_cell_datum(cellular_basis(name, n))
            ok &= rep["pass"]
            if not rep["pass"]:
                failures.append((name, n, rep["counterexamples"][:1]))
    line(3, ok, "cell-datum axioms (action coefficients independent of s, "
                f"star congruence) hold exactly{'' if ok else ': ' + repr(failures)}")


def test_criterion_4_branching_agreement():
    ok = True
    for name, top in [("brauer", 4), ("tl", 4), ("partition", 5), ("bmw", 3),
                      ("hecke", 4)]:
        agreed, witness = branching_agreement(name, top)
        ok &= agreed
    line(4, ok, "recursive and closed-form branching coefficients coincide "
                "on every edge (both directions)")


def test_criterion_5_framework_axioms():
    ok = True
    for name, ns in [("brauer", (1, 2, 3)), ("tl", (1, 2, 3, 4)),
                     ("partition", (1, 2, 3, 4)), ("bmw", (1, 2))]:
        for n in ns:
            rep = verify_framework_axioms(name, n)
            ok &= rep["pass"]
    line(5, ok, "framework axioms (3)-(6) certified by ranks "
                "(BMW indices capped so products stay within rank 3)")


def test_criterion_6_hecke_restriction_filtrations():
    ok = True
    for n in range(1, 6):
        for lam in partitions_of(n):
            rep = restriction_filtration(lam, n)
            ok &= rep["stable"] and rep["subquotients_match"] and rep["order_preserving"]
            for layer in rep["layers"]:
                ok &= layer["rank"] == len(standard_tableaux(layer["shape"]))
    line(6, ok, "Hecke restriction filtrations H_{n-1}-stable with "
                "subquotient ranks f^mu, order preserving, all shapes n <= 5")


def test_criterion_7_hecke_induction_data():
    ok = True
    # m_nu = T_{n+1,a+1}^{-1} m_mu T_{n+1,a+1} D(beta) for every edge |nu| <= 4
    for n in range(0, 4):
        for mu in partitions_of(n):
            for node in addable_nodes(mu):
                nu = add_node(mu, node)
                rank = n + 1
                i = node[0]
                a, b = sum(mu[:i]), sum(mu[: i - 1]) + 1
                word = list(range(n, a, -1))
                x = m_lambda(mu, rank).times_word(word) * d_cap(a, b, rank)
                x = HeckeElement.one(rank).times_word_inv(word) * x
                ok &= x == m_lambda(nu, rank)
    # Murphy's permutation-module filtration ranks, mu |- n <= 4
    for n in range(1, 5):
        for mu in partitions_of(n):
            rep = permutation_module_report(mu, n)
            ok &= rep["free"] and rep["module_rank_matches"]
            ok &= rep["filtration_stable"] and rep["subquotients_match"]
    line(7, ok, "u-branching conjugation identity and Murphy's "
                "permutation-module filtration (with subquotient "
                "isomorphisms) certified, n <= 4")


def test_criterion_8_bmw_presentation_sweep():
    model = bmw_model(3)
    ok = model.check_relations()
    # associativity on all 15^3 normal-form triples
    keys = model.keys
    els = [BMWElement.from_word(3, model.words[d]) for d in keys]
    pair = {}
    for i, x in enumerate(els):
        for j, y in enumerate(els):
            pair[(i, j)] = x * y
    for (i, j), xy in pair.items():
        for k, z in enumerate(els):
            if (xy * z) != (els[i] * pair[(j, k)]):
                ok = False
                break
    # Brauer specialization commutes with multiplication on 100 random pairs
    rng = random.Random(42)
    toks = [1, 2, -1, -2]
    for _ in range(100):
        w1 = tuple(rng.choice(toks) for _ in range(rng.randint(0, 4)))
        w2 = tuple(rng.choice(toks) for _ in range(rng.randint(0, 4)))
        x, y = BMWElement.from_word(3, w1), BMWElement.from_word(3, w2)
        ok &= bmw_to_brauer(x * y) == bmw_to_brauer(x) * bmw_to_brauer(y)
    line(8, ok, "BMW defining relations, associativity on all 3375 triples "
                "at n = 3, and Brauer specialization on 100 random pairs")


def test_criterion_9_murphy_reproduction():
    ok = True
    for n in range(1, 5):
        datum = cellular_basis("hecke", n)
        for (v, si, ti) in datum.index:
            lam = v[0]
            ps = datum.paths[v]
            s_tab = path_to_tableau(tuple(p[0] for p in ps[si]))
            t_tab = path_to_tableau(tuple(p[0] for p in ps[ti]))
            ok &= datum.elements[(v, si, ti)] == murphy_element(lam, s_tab, t_tab, n)
    line(9, ok, "path-machinery basis d_s* m_lam d_t equals the Murphy basis "
                "element by element, n <= 4")


def test_criterion_10_negative_controls():
    ok = True
    located = True
    for name, n in [("brauer", 2), ("tl", 3), ("hecke", 3)]:
        datum = cellular_basis(name, n)
        # perturb one basis element by a strictly smaller cell
        low_vertex = datum.vertices[-1]
        hi_keys = [k for k in datum.index if k[0] != low_vertex]
        key = hi_keys[0]
        bad = datum.t.add(datum.elements[key], datum.elements[(low_vertex, 0, 0)])
        rep = verify_cell_datum(datum.replaced(key, bad))
        ok &= not rep["pass"]
        located &= bool(rep["counterexamples"])
        # duplicate a basis element: freeness must fail
        rep2 = verify_cell_datum(datum.replaced(key, datum.elements[(low_vertex, 0, 0)]))
        ok &= not rep2["pass"] and not rep2["checks"]["freeness"]
        located &= bool(rep2["counterexamples"])
    line(10, ok and located, "perturbed bases are rejected with located "
                             "counterexamples (no vacuous passes)")
