import pytest

from cellular_towers.coeff import DV, DELTA, LaurentPoly
from cellular_towers.combinatorics import path_to_tableau
from cellular_towers.diagrams import BrauerDiagram, DiagramElement
from cellular_towers.errors import DomainError
from cellular_towers.framework import (
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
    vertex_str,
)
from cellular_towers.hecke import murphy_element
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


@pytest.mark.parametrize("n", [3, 4])
def test_tower_pivot_order_keeps_coordinates_and_det(n):
    # coordinates over a free basis are unique, so the tower's pivot order
    # (shortest permutations first at hecke) changes no answer
    t = tower("hecke")
    datum = cellular_basis("hecke", n)
    assert datum.solver.pivot_key is not None
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
