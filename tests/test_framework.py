import json

import pytest
from hypothesis import given, settings, strategies as st

from cellular_towers import bmw, cli, coeff, framework, linalg, ratfunc
from cellular_towers.coeff import DV, DELTA, LaurentPoly
from cellular_towers.combinatorics import add_node, addable_nodes, partitions_of, path_to_tableau
from cellular_towers.diagrams import BrauerDiagram, DiagramElement, symmetric_to_diagrams
from cellular_towers.errors import DomainError
from cellular_towers.framework import (
    CellDatum,
    a_hat,
    a_hat_diagram,
    branching_agreement,
    branching_closed_form,
    branching_recursive,
    c_lambda_l,
    cell_paths,
    cellular_basis,
    dimension_identity,
    e_power,
    path_element,
    restriction_filtration_a,
    verify_cell_datum,
    verify_framework_axioms,
    vertex_gt,
    vertex_str,
)
from cellular_towers.hecke import (
    added_node,
    d_branching,
    m_lambda,
    murphy_element,
    SymmetricGroupElement,
    symmetric_group_specialize,
    u_branching,
)
from cellular_towers.linalg import SpanSolver
from cellular_towers.towers import tower

D = LaurentPoly.gen(DV, DELTA)


def test_e_power_cases():
    assert e_power("brauer", 5, 0) == tower("brauer").one(5)
    assert e_power("brauer", 3, 2).is_zero()
    e1e3 = DiagramElement.from_diagram(BrauerDiagram.e(1, 4)) * DiagramElement.from_diagram(
        BrauerDiagram.e(3, 4)
    )
    assert e_power("brauer", 4, 2) == e1e3


def test_c_lambda_l():
    assert c_lambda_l("brauer", ((), 1), 2) == DiagramElement.from_diagram(
        BrauerDiagram.e(1, 2)
    )
    lam = (2,)
    el = c_lambda_l("brauer", (lam, 0), 2)
    s1 = DiagramElement.from_diagram(BrauerDiagram.s(1, 2))
    assert el == DiagramElement.one(2) + s1
    with pytest.raises(DomainError):
        c_lambda_l("brauer", ((3,), 1), 2)


def test_a_hat_vertices_and_order():
    vs = a_hat("brauer", 3)
    assert vs == (((1,), 1), ((3,), 0), ((2, 1), 0), ((1, 1, 1), 0))
    # partition tower has half-integer levels: odd level 3 holds ((1),0),((),1)
    assert set(a_hat("partition", 3)) == {((1,), 0), ((), 1)}


def test_dimension_identities():
    for name, levels in [
        ("brauer", range(1, 5)),
        ("tl", range(1, 7)),
        ("partition", range(2, 7)),
        ("bmw", range(1, 4)),
        ("hecke", range(1, 6)),
    ]:
        for n in levels:
            ok, total, dim = dimension_identity(name, n)
            assert ok, (name, n, total, dim)


def test_tl_branching_coefficients_are_ladders():
    # all closed-form d coefficients for TL are contraction ladders e^{(l)}
    for n in range(4):
        diag = a_hat_diagram("tl", n + 1)
        for u in diag.vertices(n):
            for v in diag.successors(n, u):
                el = branching_closed_form("tl", u, v, n, "d")
                l = u[1]
                assert el == e_power("tl", n, l, n + 1)


def test_tl_path_element_oracle():
    # path with j-values (0,1,0,1): composing edge coefficients per the
    # ladder rule gives e_1 * 1 * 1
    path = (((), 0), ((), 0), ((), 1), ((), 1))
    el = path_element("tl", path)
    assert el == DiagramElement.from_diagram(BrauerDiagram.e(1, 3))


def test_partition_odd_even_alternation():
    # d for a repeated partition across an odd step is the pure ladder
    diag = a_hat_diagram("partition", 5)
    for n in (2, 4):
        for u in diag.vertices(n):
            lam, l = u
            v = (lam, l)
            if v in diag.vertices(n + 1) and diag.edge(n, u, v):
                el = branching_closed_form("partition", u, v, n, "d")
                assert el == e_power("partition", n, l, n + 1)


def test_branching_agreement_small():
    for name, top in [("brauer", 3), ("tl", 3), ("partition", 4), ("hecke", 3)]:
        ok, witness = branching_agreement(name, top)
        assert ok, witness


def test_cellular_basis_counts():
    d2 = cellular_basis("brauer", 2)
    assert len(d2.index) == 3 and d2.free
    d3 = cellular_basis("brauer", 3)
    per_vertex = {v: len(d3.paths[v]) ** 2 for v in d3.vertices}
    assert per_vertex == {
        ((1,), 1): 9,
        ((3,), 0): 1,
        ((2, 1), 0): 4,
        ((1, 1, 1), 0): 1,
    }
    assert len(d3.index) == 15
    d4 = cellular_basis("tl", 4)
    assert len(d4.index) == 14 and d4.free


def test_brauer_n2_basis_elements():
    d = cellular_basis("brauer", 2)
    els = {v: d.elements[(v, 0, 0)] for v in d.vertices}
    assert els[((), 1)] == DiagramElement.from_diagram(BrauerDiagram.e(1, 2))
    s1 = DiagramElement.from_diagram(BrauerDiagram.s(1, 2))
    assert els[((2,), 0)] == DiagramElement.one(2) + s1
    assert els[((1, 1), 0)] == DiagramElement.one(2)


def test_verify_cell_datum_passes():
    for name, n in [("brauer", 2), ("brauer", 3), ("tl", 3), ("partition", 3),
                    ("hecke", 3)]:
        rep = verify_cell_datum(cellular_basis(name, n))
        assert rep["pass"], (name, n, rep["checks"], rep["counterexamples"][:2])


def test_verify_cell_datum_frontier(monkeypatch, capsys):
    # the largest cell-datum checks in the suite: hecke 5 (dimension 120)
    # and brauer 5 (945), which is above brauer's default level bound
    assert verify_cell_datum(cellular_basis("hecke", 5))["pass"]
    monkeypatch.setenv("CELLULAR_TOWERS_MAX_LEVEL", "5")
    assert cli.main(["verify", "--algebra", "brauer", "--n", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["checks"]["cell_datum_n5"]


def test_negative_control_detects_corruption():
    datum = cellular_basis("brauer", 2)
    key = (((2,), 0), 0, 0)
    # adding a strictly LARGER cell must remain a valid cellular basis ...
    up = datum.t.add(datum.elements[key], datum.elements[(((), 1), 0, 0)])
    assert verify_cell_datum(datum.replaced(key, up))["pass"]
    # ... but adding a strictly SMALLER cell must be caught with a located
    # counterexample
    down = datum.t.add(datum.elements[key], datum.elements[(((1, 1), 0), 0, 0)])
    rep = verify_cell_datum(datum.replaced(key, down))
    assert not rep["pass"]
    assert rep["counterexamples"], "a located counterexample is required"
    # breaking freeness is also caught
    dup = datum.replaced(key, datum.elements[(((1, 1), 0), 0, 0)])
    rep2 = verify_cell_datum(dup)
    assert not rep2["pass"] and not rep2["checks"]["freeness"]


def test_framework_axioms():
    for name, ns in [("brauer", (1, 2, 3)), ("tl", (1, 2, 3)), ("partition", (1, 2, 3, 4)),
                     ("bmw", (1, 2))]:
        for n in ns:
            rep = verify_framework_axioms(name, n)
            assert rep["pass"], (name, n, rep["checks"])
    with pytest.raises(DomainError):
        verify_framework_axioms("hecke", 2)


def test_quotient_map_certificate_rejects_every_perturbation(monkeypatch):
    # doubling pi's coefficient on one permutation diagram of brauer 4 keeps
    # pi linear but breaks multiplicativity; the certificate must see it at
    # every one of the 24 such diagrams, including those that a sample of
    # basis pairs and their products never reaches
    t = tower("brauer")
    pi = t.pi
    perms = [d for d in t.basis_keys(4) if d.is_permutation()]
    assert len(perms) == 24
    for d in perms:
        def doubled(x, n, d=d):
            out = pi(x, n)
            c = x.coeffs.get(d)
            return out + SymmetricGroupElement(out.n, {d.permutation(): c}) if c else out

        monkeypatch.setattr(t, "pi", doubled)
        rep = verify_framework_axioms("brauer", 4)
        assert not rep["checks"]["axiom3_quotient_map"], str(d)
        assert rep["checks"]["axiom3_corank"]


def test_restriction_filtration_brauer_n2():
    rep = restriction_filtration_a("brauer", ((), 1), 2)
    assert rep["pass"]
    assert [(layer["vertex"], layer["rank"]) for layer in rep["layers"]] == [
        (((1,), 0), 1)
    ]


def test_restriction_filtrations_pass():
    for name, n in [("brauer", 3), ("tl", 4), ("partition", 4), ("hecke", 3)]:
        for v in a_hat(name, n):
            rep = restriction_filtration_a(name, v, n)
            assert rep["pass"], (name, v, rep)


def test_tl_filtration_matches_branching_diagram():
    # subquotient labels of each restriction are exactly the predecessors
    diag = a_hat_diagram("tl", 4)
    for v in a_hat("tl", 4):
        rep = restriction_filtration_a("tl", v, 4)
        assert tuple(layer["vertex"] for layer in rep["layers"]) == diag.predecessors(4, v)


def test_hecke_tower_reproduces_murphy():
    for n in (1, 2, 3):
        datum = cellular_basis("hecke", n)
        for (v, si, ti) in datum.index:
            lam = v[0]
            ps = datum.paths[v]
            s_tab = path_to_tableau(tuple(p[0] for p in ps[si]))
            t_tab = path_to_tableau(tuple(p[0] for p in ps[ti]))
            assert datum.elements[(v, si, ti)] == murphy_element(lam, s_tab, t_tab, n)


def test_restriction_filtration_needs_level_1():
    with pytest.raises(DomainError):
        restriction_filtration_a("brauer", ((), 0), 0)


def _young_edges(i):
    """The Young-lattice edges lam -> mu with mu a partition of i."""
    return [
        (lam, add_node(lam, node))
        for lam in partitions_of(i - 1)
        for node in addable_nodes(lam)
    ]


def _at_q1(x, kind):
    """A Hecke element at q = 1 as permutation diagrams over Z[delta]."""
    g = symmetric_group_specialize(x)
    return symmetric_to_diagrams(g, kind).map_coefficients(lambda c: LaurentPoly.const(DV, c))


@pytest.mark.parametrize("name", ["brauer", "partition"])
def test_diagram_lifts_are_the_hecke_formulas_at_q1(name):
    # on every H-edge up to the default bound, in every level above it
    t = tower(name)
    kind = t.diagram_cls
    halve = 2 if name == "partition" else 1
    for n in range(t.default_bound + 1):
        s = t.strands(n)
        for k in range(n // halve + 1):
            for lam in partitions_of(k):
                assert t.c_lift(lam, n) == _at_q1(m_lambda(lam, s), kind)
        for i in range(1, n + 1):
            if i % halve:
                for lam in partitions_of(i // 2):
                    assert t.dbar(lam, lam, i, n) == t.ubar(lam, lam, i, n) == t.one(n)
                continue
            for lam, mu in _young_edges(i // halve):
                want_d = _at_q1(d_branching(lam, mu).embed(s), kind)
                want_u = _at_q1(u_branching(lam, mu).embed(s), kind)
                assert t.dbar(lam, mu, i, n) == want_d
                assert t.ubar(lam, mu, i, n) == want_u


def test_tl_lifts_are_one():
    t = tower("tl")
    for n in range(t.default_bound + 1):
        assert t.c_lift((), n) == t.one(n)
        for i in range(1, n + 1):
            assert t.dbar((), (), i, n) == t.ubar((), (), i, n) == t.one(n)


def test_hecke_lifts_are_murphys_formulas():
    t = tower("hecke")
    for n in range(t.default_bound + 1):
        for k in range(n + 1):
            for lam in partitions_of(k):
                assert t.c_lift(lam, n) == m_lambda(lam, n)
        for i in range(1, n + 1):
            for lam, mu in _young_edges(i):
                assert t.dbar(lam, mu, i, n) == d_branching(lam, mu).embed(n)
                assert t.ubar(lam, mu, i, n) == u_branching(lam, mu).embed(n)


def test_bmw_lifts_quotient_to_the_hecke_formulas():
    # pi(ubar) differs from Murphy's u_branching by the unit q^(i-a)
    t = tower("bmw")
    for n in range(t.default_bound + 1):
        for k in range(n + 1):
            for lam in partitions_of(k):
                want = m_lambda(lam, n).map_coefficients(coeff.delta_eliminate)
                assert bmw.bmw_to_hecke(t.c_lift(lam, n)) == want
        for i in range(1, n + 1):
            for lam, mu in _young_edges(i):
                j = added_node(lam, mu)[0]
                unit = coeff.delta_eliminate(bmw.P_Q ** (i - sum(mu[:j])))
                want_d = d_branching(lam, mu).embed(n)
                want_u = u_branching(lam, mu).embed(n)
                assert bmw.bmw_to_hecke(t.dbar(lam, mu, i, n)) == want_d.map_coefficients(
                    coeff.delta_eliminate
                )
                assert bmw.bmw_to_hecke(t.ubar(lam, mu, i, n)).scale(
                    unit
                ) == want_u.map_coefficients(coeff.delta_eliminate)


@pytest.mark.parametrize("name", ["brauer", "bmw", "hecke", "partition"])
def test_lift_of_a_non_edge_raises(name):
    t = tower(name)
    i = 4 if name == "partition" else 3
    for lift in (t.dbar, t.ubar):
        with pytest.raises(DomainError):
            lift((2,), (2,), i, i)
    if name == "partition":
        # an odd step repeats the partition
        with pytest.raises(DomainError):
            t.dbar((1,), (2,), 3, 3)


def test_vertex_str():
    assert vertex_str(((2, 1), 1)) == "(2,1;1)"
    assert vertex_str(((), 1)) == "(;1)"


def test_cell_datum_json_is_stable():
    import json

    d = cellular_basis("tl", 3)
    s1 = json.dumps(d.to_json(), sort_keys=True)
    s2 = json.dumps(cellular_basis("tl", 3).to_json(), sort_keys=True)
    assert s1 == s2
    payload = d.to_json()
    assert payload["dimension"] == 5
    assert set(payload["paths"]) == {vertex_str(v) for v in d.vertices}


# the hecke cases keep the bare ids "3" and "4", so their test names stay stable
PIVOT_CASES = {
    "3": ("hecke", 3),
    "4": ("hecke", 4),
    "brauer-3": ("brauer", 3),
    "brauer-4": ("brauer", 4),
    "bmw-3": ("bmw", 3),
    "partition-6": ("partition", 6),
}


@pytest.mark.parametrize("name,n", PIVOT_CASES.values(), ids=PIVOT_CASES.keys())
def test_tower_pivot_order_keeps_coordinates_and_det(name, n, monkeypatch):
    # coordinates over a free basis are unique and the determinant does not
    # depend on the pivots, so the tower's order (leading terms first) and
    # the preference for unit pivots change no answer; against a solver
    # that takes the first residual key, they leave single-term pivots and
    # shorter lower factors
    t = tower(name)
    datum = cellular_basis(name, n)
    assert datum.solver.pivot_key is not None
    monkeypatch.setattr(linalg, "inverts_in_type", lambda x: True)
    plain = SpanSolver()
    for key in datum.index:
        assert plain.insert(t.vector(datum.elements[key]))[0] == "new"
    keys = t.basis_keys(n)
    queries = [t.element_of_key(w, n) for w in keys]
    queries += [t.mul(queries[i], queries[-1 - i]) for i in range(0, len(keys), 5)]
    for x in queries:
        coords = plain.express(t.vector(x))
        assert datum.express(x) == {datum.index[i]: c for i, c in coords.items()}
    assert datum.det == plain.det_unit(sorted(keys, key=t.key_str))
    assert all(len(f.terms) == 1 for _, f in datum.solver.pivots)

    def lower_entries(solver):
        return sum(len(low) for _, _, low in solver._steps)

    assert lower_entries(datum.solver) <= lower_entries(plain)


@pytest.mark.parametrize("name,n", [("hecke", 4), ("brauer", 4), ("bmw", 3), ("bmw", 4)])
def test_bases_and_checks_take_no_polynomial_gcd(name, n, monkeypatch):
    # every value met through bmw 4 lies in LaurentFraction's ring, and the
    # pivots invert there, so no poly_gcd runs and no RationalFunction is
    # built; the BMW model is built afresh, since bmw_model keeps the one
    # built first
    calls, built = [], []
    gcd = ratfunc.poly_gcd
    init = ratfunc.RationalFunction.__init__

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    def counted_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ratfunc, "poly_gcd", counted)
    monkeypatch.setattr(ratfunc.RationalFunction, "__init__", counted_init)
    if name == "bmw":
        bmw._Model(n)
    assert verify_cell_datum(CellDatum(name, n))["pass"]
    assert calls == [] and built == []
    # the probes see a construction and the gcd that reduces it
    q = LaurentPoly.gen(coeff.QV, coeff.Q)
    ratfunc.RationalFunction(q, q + 1)
    assert len(built) == 1 and len(calls) == 1


# ---------------------------------------------------------------------------
# the row certificate of verify_cell_datum against the per-element loops
# ---------------------------------------------------------------------------


def reference_action_ideal(datum):
    """The action and ideal checks run on every basis element c_st and
    generator, as verify_cell_datum ran them before its row certificate:
    (checks, counterexamples), in the order that function reports them."""
    t = datum.t
    out = []
    for v in datum.vertices:
        npaths = len(datum.paths[v])
        for label, a in t.generators(datum.n):
            for ti in range(npaths):
                first = None
                for si in range(npaths):
                    coords = datum.express(t.mul(datum.elements[(v, si, ti)], a))
                    where = {"vertex": v, "s": si, "t": ti, "gen": label}
                    if coords is None:
                        out.append({"check": "action", **where})
                        continue
                    row = {}
                    for (w, sj, tj), c in coords.items():
                        if w == v and sj == si:
                            row[tj] = c
                        elif w == v:
                            out.append({"check": "action", **where, "leak": ("row", sj, tj)})
                        elif not vertex_gt(w, v):
                            out.append({"check": "action", **where, "leak": ("cell", w)})
                    if first is None:
                        first = row
                    elif row != first:
                        out.append(
                            {"check": "action", "vertex": v, "t": ti, "gen": label, "s_mismatch": si}
                        )
            for si in range(npaths):
                for ti in range(npaths):
                    coords = datum.express(t.mul(a, datum.elements[(v, si, ti)]))
                    if coords is None or any(
                        not (w == v or vertex_gt(w, v)) for w, _, _ in coords
                    ):
                        out.append(
                            {"check": "ideal", "vertex": v, "s": si, "t": ti, "gen": label,
                             "side": "left"}
                        )
    checks = {name: not any(c["check"] == name for c in out) for name in ("action", "ideal")}
    return checks, out


def assert_matches_reference(datum):
    rep = verify_cell_datum(datum)
    if not rep["checks"]["freeness"]:
        assert "action" not in rep["checks"]
        return rep
    checks, counterexamples = reference_action_ideal(datum)
    assert {name: rep["checks"][name] for name in checks} == checks
    k = len(counterexamples)
    assert rep["counterexamples"][:k] == counterexamples
    assert all(c["check"] not in checks for c in rep["counterexamples"][k:])
    return rep


DIFFERENTIAL = [("brauer", 2), ("brauer", 3), ("tl", 3), ("tl", 4), ("partition", 3),
                ("partition", 4), ("hecke", 3), ("bmw", 2)]
CASE_IDS = [f"{name}_{n}" for name, n in DIFFERENTIAL]


@pytest.mark.parametrize("name,n", DIFFERENTIAL, ids=CASE_IDS)
def test_row_certificate_matches_element_loops(name, n):
    assert assert_matches_reference(cellular_basis(name, n))["pass"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_row_certificate_matches_element_loops_perturbed(data):
    name, n = data.draw(st.sampled_from(DIFFERENTIAL))
    datum = cellular_basis(name, n)
    key = data.draw(st.sampled_from(datum.index))
    other = data.draw(st.sampled_from(datum.index))
    c = data.draw(st.sampled_from([1, -1, 2]))
    bad = datum.t.add(datum.elements[key], datum.t.scale(datum.elements[other], c))
    assert_matches_reference(datum.replaced(key, bad))


@pytest.mark.parametrize("name,n", DIFFERENTIAL[1:-1], ids=CASE_IDS[1:-1])
def test_row_certificate_reads_the_basis_elements(name, n):
    # c_st gains c_(s',t') of its own cell, s != s': the span of every cell
    # is unchanged, so every support and span test of the certificate still
    # passes, and only its identity step (c_st == L_s d_t) sees that the
    # basis changed (brauer 2 and bmw 2 have no cell with two paths)
    datum = cellular_basis(name, n)
    v = next(v for v in datum.vertices if len(datum.paths[v]) > 1)
    key, other = (v, 1, 0), (v, 0, 0)
    bad = datum.t.add(datum.elements[key], datum.elements[other])
    rep = assert_matches_reference(datum.replaced(key, bad))
    assert not rep["checks"]["action"]


BROKEN_CELLS = [
    ("brauer", 2, ((2,), 0), "one"),
    ("brauer", 3, ((3,), 0), "one"),
    ("partition", 4, ((2,), 0), "one"),
    ("hecke", 3, ((3,), 0), "one"),
    ("bmw", 2, ((), 1), "one"),
    ("brauer", 3, ((1,), 1), "e1"),
    ("tl", 3, ((), 1), "e1"),
]


@pytest.mark.parametrize(
    "name,n,vertex,extra", BROKEN_CELLS, ids=[f"{a}_{n}_{x}" for a, n, _, x in BROKEN_CELLS]
)
def test_row_certificate_on_a_broken_construction(monkeypatch, name, n, vertex, extra):
    # c_(lambda,l) at one vertex gains 1 or e_1, in the datum and in the
    # certificate alike: every c_st is still L_s d_t, so the identity step
    # passes, and only the support tests (cells >= v) or, for e_1, the span
    # test of the action rows can reject the basis
    t = tower(name)
    real = framework.c_lambda_l
    x = t.one(n) if extra == "one" else t.e_elt(1, n)

    def shifted(tower_name, v, m):
        c = real(tower_name, v, m)
        return t.add(c, x) if (tower_name, v, m) == (name, vertex, n) else c

    monkeypatch.setattr(framework, "c_lambda_l", shifted)
    rep = assert_matches_reference(CellDatum(name, n))
    assert rep["checks"]["freeness"] and not rep["checks"]["action"]
