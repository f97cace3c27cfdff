"""SpanSolver against a dense Gauss-Jordan reference written here.

Systems over the constants are also run through the reference as
`fractions.Fraction` matrices, so their ranks, memberships and
determinants do not depend on the package's coefficient arithmetic.  The
reference is field-generic, and over Q(q) and Z[δ] it runs on
RationalFunction entries: the systems' own, or those equal to their
LaurentFraction entries.  Coordinates are unique whenever they exist
(only the vectors that enlarged the span get any), so it is enough that
`express` puts them on those vectors only and rebuilds the vector it was
given.  Reduction is also checked against a rescanning loop, and `express`
against substitution with one `s - c * g` per update, key order included;
the stored rows stay in row-echelon form and are never rewritten.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cellular_towers.coeff import DV, QV, Q, LaurentFraction, LaurentPoly
from cellular_towers.diagrams import DELTA_POLY, BrauerDiagram, DiagramElement
from cellular_towers.errors import DomainError, InternalInvariantError
from cellular_towers.hecke import QONE, HeckeElement, SymmetricGroupElement
from cellular_towers.framework import cellular_basis
from cellular_towers.linalg import SpanSolver
from cellular_towers.ratfunc import RationalFunction

# pivot orders: the first residual key, or the lowest under a sort key
PIVOT_KEYS = [None, lambda k: -k, lambda k: (k % 2, k)]

# constant fractions, Q(q) as RationalFunction, Q(q) as LaurentFraction,
# and the integral LaurentFractions every tower's solver sees: Z[q^±1]
# and Z[δ]
RINGS = ["const", "q", "lf", "zq", "zd"]
RING_VARS = {"const": (), "q": QV, "lf": QV, "zq": QV, "zd": DV}


@st.composite
def elements(draw, ring):
    """A nonzero constant fraction; a nonzero element of Q(q) with up to two
    terms over a denominator of up to two terms; or a nonzero Laurent
    polynomial of up to two terms over an integer, which is 1 in the
    integral rings.  Their two-term pivots are not monomials, so their
    inverses are RationalFunctions (or, over Q(q), fractions with a power
    of q² − 1) and the solver mixes the types."""
    if ring == "const":
        a = draw(st.integers(-9, 9).filter(bool))
        b = draw(st.integers(1, 5))
        return RationalFunction(LaurentPoly((), {(): a}), LaurentPoly((), {(): b}))
    exps = st.tuples(st.integers(-2, 3))
    if ring != "q":
        # one numerator in four has two terms: enough non-monomial pivots to
        # drive the fallback, few enough that the reference's gcds stay cheap
        size = 2 if draw(st.integers(0, 3)) == 0 else 1
        num = draw(st.dictionaries(exps, st.integers(-4, 4).filter(bool), min_size=size, max_size=size))
        c = draw(st.integers(1, 5)) if ring == "lf" else 1
        return LaurentFraction(LaurentPoly(RING_VARS[ring], num), c)
    num = draw(st.dictionaries(exps, st.integers(-4, 4).filter(bool), min_size=1, max_size=2))
    den = draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool), min_size=1, max_size=2))
    return RationalFunction(LaurentPoly(QV, num), LaurentPoly(QV, den))


@st.composite
def vectors(draw, ring, n_keys):
    keys = st.integers(0, n_keys - 1)
    return draw(st.dictionaries(keys, elements(ring), max_size=n_keys))


@st.composite
def combinations(draw, ring, rows):
    """A combination of up to three of the given rows (possibly zero)."""
    vec = {}
    if rows:
        for i in draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3)):
            vec = vec_sub_scaled(vec, rows[i], -draw(elements(ring)))
    return vec


@st.composite
def systems(draw, ring, n_keys, n_rows):
    """Random sparse rows; about half are combinations of earlier rows."""
    rows = []
    for _ in range(n_rows):
        if rows and draw(st.booleans()):
            rows.append(draw(combinations(ring, rows)))
        else:
            rows.append(draw(vectors(ring, n_keys)))
    return rows


# ---------------------------------------------------------------------------
# the reference: dense Gauss-Jordan over any field
# ---------------------------------------------------------------------------


def to_fraction(c):
    return Fraction(c.num.terms.get((), 0), c.den.terms[()])


def dense(rows, n_keys, ring):
    """Dense matrix of the rows, over Fraction for constant systems."""
    if ring == "const":
        return [[to_fraction(r[k]) if k in r else Fraction(0) for k in range(n_keys)] for r in rows]
    zero = RationalFunction.zero(RING_VARS[ring])
    return [[as_rf(r.get(k, zero)) for k in range(n_keys)] for r in rows]


def as_rf(c):
    """The RationalFunction equal to an entry, which may be a LaurentFraction."""
    return c if isinstance(c, RationalFunction) else RationalFunction(c.num, c.den)


def one(ring):
    if ring in ("const", "q"):
        return RationalFunction.one(RING_VARS[ring])
    return LaurentFraction(LaurentPoly.one(RING_VARS[ring]))


def gauss_jordan(matrix):
    """(rank, determinant) by elimination with row swaps; the determinant
    is None unless the matrix is square and of full rank."""
    m = [list(r) for r in matrix]
    rank, sign, pivots = 0, 1, []
    n_cols = len(m[0]) if m else 0
    for col in range(n_cols):
        hit = next((i for i in range(rank, len(m)) if m[i][col]), None)
        if hit is None:
            continue
        if hit != rank:
            m[rank], m[hit] = m[hit], m[rank]
            sign = -sign
        p = m[rank][col]
        pivots.append(p)
        m[rank] = [x / p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    if rank != len(m) or rank != n_cols:
        return rank, None
    det = pivots[0]
    for p in pivots[1:]:
        det = det * p
    return rank, det if sign > 0 else -det


def ref_rank(rows, n_keys, ring):
    return gauss_jordan(dense(rows, n_keys, ring))[0] if rows else 0


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def vec_sub_scaled(a, b, f):
    """a − f·b with the field's own operators, a key dropped when it
    cancels."""
    out = dict(a)
    for k, c in b.items():
        s = out[k] - c * f if k in out else -(c * f)
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def rebuild(coords, rows):
    vec = {}
    for i, c in coords.items():
        vec = vec_sub_scaled(vec, rows[i], -c)
    return vec


def reduce_reference(solver, vec):
    """The residual and multipliers by rescanning: subtract the row of the
    earliest pivot left in the vector until none is left, one copy per
    step, and record each multiplier under the row's position."""
    pos = {k: p for p, (k, _) in enumerate(solver.pivots)}
    lower = {}
    vec = dict(vec)
    while True:
        hits = [pos[k] for k in vec if k in pos]
        if not hits:
            return vec, lower
        p = min(hits)
        f = vec[solver.pivots[p][0]]
        lower[p] = f
        vec = vec_sub_scaled(vec, solver.rows[p], f)


def express_reference(solver, vec):
    """`express` with every update one `s - c * g` on field values, over
    the rescanning reduction, visiting every row from the last one back:
    the same updates in the same order, so the coordinates come in the
    same order."""
    residual, coeffs = reduce_reference(solver, vec)
    if residual:
        return None
    out = []
    for p in reversed(range(solver.rank)):
        s = coeffs.pop(p, None)
        if s is None:
            continue
        idx, inv, low = solver._steps[p]
        x = s * inv
        out.append((idx, x))
        for r, c in low.items():
            t = coeffs[r] - c * x if r in coeffs else -(c * x)
            if t:
                coeffs[r] = t
            else:
                coeffs.pop(r, None)
    return dict(reversed(out))


def check_echelon(solver):
    """The stored rows are in row-echelon form: each is 1 at its own pivot
    and 0 at every earlier one, and each step's lower factor names earlier
    rows only."""
    assert len(solver.rows) == len(solver._steps) == solver.rank
    for p, ((pivot, f), row) in enumerate(zip(solver.pivots, solver.rows)):
        assert solver._pos[pivot] == p
        assert row[pivot] * f == f  # 1 at the pivot, whatever its type
        assert all(solver._pos.get(k, p) >= p for k in row)
        assert all(r < p and c for r, c in solver._steps[p][2].items())


def check_reduce(solver, vec):
    """`_reduce` agrees with the rescanning loop, key order included: the
    residual's order picks the pivot when the solver has no pivot key."""
    residual, lower = solver._reduce(vec)
    ref_residual, ref_lower = reduce_reference(solver, vec)
    assert list(residual.items()) == list(ref_residual.items())
    assert list(lower.items()) == list(ref_lower.items())


def check_query(solver, rows, new, vec, n_keys, ring):
    check_reduce(solver, vec)
    inside = ref_rank(rows + [vec], n_keys, ring) == ref_rank(rows, n_keys, ring)
    coords = solver.express(vec)
    ref = express_reference(solver, vec)
    assert (coords is None) == (ref is None)
    if ref is not None:
        assert list(coords.items()) == list(ref.items())
    if not inside:
        assert coords is None
        assert not solver.contains(vec)
        return
    assert coords is not None
    assert all(c for c in coords.values())
    assert set(coords) <= new
    assert rebuild(coords, rows) == {k: c for k, c in vec.items() if c}
    assert solver.contains(vec)


def insert_all(solver, rows, done, n_keys, ring):
    """Insert rows after the `done` already inserted; check every status
    against the reference and return the indices that were new."""
    new = set()
    for j, vec in enumerate(rows[done:], start=done):
        check_reduce(solver, vec)
        status, payload = solver.insert(vec)
        grew = ref_rank(rows[: j + 1], n_keys, ring) > ref_rank(rows[:j], n_keys, ring)
        assert (status, payload) == (("new", j) if grew else ("dep", None))
        if grew:
            new.add(j)
    assert solver.rank == ref_rank(rows, n_keys, ring)
    assert solver.n_inserted == len(rows)
    check_echelon(solver)
    return new


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_insert_and_coordinates_match_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    n_keys = data.draw(st.integers(1, 5))
    rows = data.draw(systems(ring, n_keys, data.draw(st.integers(0, 7))))
    solver = SpanSolver(pivot_key=data.draw(st.sampled_from(PIVOT_KEYS)))
    new = insert_all(solver, rows, 0, n_keys, ring)
    queries = [data.draw(combinations(ring, rows)), data.draw(vectors(ring, n_keys))]
    queries += [{k: one(ring)} for k in range(n_keys)]
    # each stored row starts the substitution from a single coefficient,
    # so the rows its lower factor brings in must be undone as well
    queries += solver.rows
    for vec in queries:
        check_query(solver, rows, new, vec, n_keys, ring)


def test_row_brought_in_by_a_lower_factor_is_undone():
    """Rows a+b, b, a+c, then the query c: undoing the third step brings in
    the first two rows through its lower factor, and both must be undone
    too, although the query's own reduction touched neither."""
    one = RationalFunction.one(())
    solver = SpanSolver()
    for vec in ({"a": one, "b": one}, {"b": one}, {"a": one, "c": one}):
        solver.insert(vec)
    assert solver.express({"c": one}) == {0: -one, 1: one, 2: one}


def test_reduction_keeps_the_rescanning_order():
    """Rows p+x, x+y and r+z, then the vector r+p.  The first row holds
    the second's pivot x, so the rows go in position order, not in the
    vector's key order: subtracting p+x brings in x, x+y then brings in y,
    and r+z brings in z last.  With no pivot key the first residual key,
    y, becomes the next pivot."""
    one = RationalFunction.one(())
    solver = SpanSolver()
    for vec in ({"p": one, "x": one}, {"x": one, "y": one}, {"r": one, "z": one}):
        solver.insert(vec)
    assert [k for k, _ in solver.pivots] == ["p", "x", "r"]
    vec = {"r": one, "p": one}
    check_reduce(solver, vec)
    residual, lower = solver._reduce(vec)
    assert list(residual) == ["y", "z"] and lower == {0: one, 1: -one, 2: one}
    assert list(lower) == [0, 1, 2]
    solver.insert(vec)
    assert solver.pivots[-1][0] == "y"
    check_echelon(solver)


def test_insert_prefers_a_unit_pivot():
    """Candidates are tried in the pivot key's order, or the residual's key
    order without one; the first whose value inverts in its own type is the
    pivot, and the first candidate when none does."""
    q = LaurentPoly.gen(QV, Q)
    unit = LaurentFraction(3 * q ** -2 * (q - 1) ** 2 * (q + 1))
    other = LaurentFraction(q + 2)
    assert type(unit.inverse()) is LaurentFraction
    assert type(other.inverse()) is RationalFunction
    rf = RationalFunction(q + 2, q + 3)
    for pivot_key, vec, pivot in (
        (None, {"a": other, "b": other, "c": unit, "d": unit}, "c"),
        (lambda k: -ord(k), {"a": unit, "b": unit, "c": other}, "b"),
        (None, {"a": other, "b": rf}, "b"),
        (None, {"a": other, "b": other + 1}, "a"),
        (lambda k: -ord(k), {"a": other, "b": other + 1}, "b"),
    ):
        solver = SpanSolver(pivot_key=pivot_key)
        assert solver.insert(vec) == ("new", 0)
        assert solver.pivots == [(pivot, vec[pivot])]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_express_after_more_inserts_is_fresh(data):
    ring = data.draw(st.sampled_from(RINGS))
    n_keys = data.draw(st.integers(2, 5))
    rows = data.draw(systems(ring, n_keys, data.draw(st.integers(2, 8))))
    cut = data.draw(st.integers(1, len(rows) - 1))
    solver = SpanSolver(pivot_key=data.draw(st.sampled_from(PIVOT_KEYS)))
    new = insert_all(solver, rows[:cut], 0, n_keys, ring)
    early = data.draw(combinations(ring, rows[:cut]))
    check_query(solver, rows[:cut], new, early, n_keys, ring)
    new |= insert_all(solver, rows, cut, n_keys, ring)
    # the steps recorded after the cut substitute back into the rows stored
    # before it, which must read as they did
    check_query(solver, rows, new, early, n_keys, ring)
    check_query(solver, rows, new, data.draw(combinations(ring, rows)), n_keys, ring)


class CopyingSpanSolver(SpanSolver):
    """SpanSolver with `insert` over the rescanning reduction: every update
    one `s - c * g` on field values, each subtraction on a fresh copy.  The
    reference for the solver's state."""

    def _reduce(self, vec):
        return reduce_reference(self, vec)


def ordered_state(solver):
    """Every stored row, pivot and step of a solver, with the key order of
    each map."""
    return (
        [list(r.items()) for r in solver.rows],
        solver.pivots,
        [(idx, inv, list(low.items())) for idx, inv, low in solver._steps],
        solver._pos,
    )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_insert_matches_the_copying_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    n_keys = data.draw(st.integers(1, 5))
    rows = data.draw(systems(ring, n_keys, data.draw(st.integers(0, 8))))
    pivot_key = data.draw(st.sampled_from(PIVOT_KEYS))
    solver, ref = SpanSolver(pivot_key), CopyingSpanSolver(pivot_key)
    for vec in rows:
        assert solver.insert(vec) == ref.insert(vec)
        assert ordered_state(solver) == ordered_state(ref)


def holds_a_later_pivot(solver):
    return any(solver._pos.get(k, p) > p for p, row in enumerate(solver.rows) for k in row)


@pytest.mark.parametrize("name,n", [("hecke", 4), ("brauer", 4), ("partition", 5), ("bmw", 3)])
def test_tower_bases_insert_as_the_copying_reference(name, n):
    """A tower's cellular basis, inserted in its order and pivot key, leaves
    the reference's rows and steps, key order included."""
    datum = cellular_basis(name, n)
    ref = CopyingSpanSolver(datum.t.pivot_key(n))
    for key in datum.index:
        ref.insert(datum.t.vector(datum.elements[key]))
    assert ordered_state(datum.solver) == ordered_state(ref)
    check_echelon(ref)
    # some row holds a later pivot, so reduction must follow row positions
    assert holds_a_later_pivot(ref)


def snapshot(solver):
    """Each stored row, by identity and by its items in order."""
    return [(r, list(r.items())) for r in solver.rows]


def check_rows_unchanged(solver, before):
    assert len(solver.rows) >= len(before)
    for r, (kept, items) in zip(solver.rows, before):
        assert r is kept and list(r.items()) == items


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_stored_rows_are_never_rewritten(data):
    """A row stored by `insert` reads the same, as the same dict, after
    every later insert and express."""
    ring = data.draw(st.sampled_from(RINGS))
    n_keys = data.draw(st.integers(2, 5))
    rows = data.draw(systems(ring, n_keys, data.draw(st.integers(2, 8))))
    solver = SpanSolver(pivot_key=data.draw(st.sampled_from(PIVOT_KEYS)))
    kept = []
    for vec in rows:
        solver.insert(vec)
        check_rows_unchanged(solver, kept)
        kept = snapshot(solver)
        solver.express(data.draw(combinations(ring, rows)))
        check_rows_unchanged(solver, kept)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_det_unit_matches_reference(data):
    ring = data.draw(st.sampled_from(RINGS))
    n = data.draw(st.integers(1, 4))
    rows = [data.draw(vectors(ring, n)) for _ in range(n)]
    order = data.draw(st.permutations(range(n)))
    solver = SpanSolver(pivot_key=data.draw(st.sampled_from(PIVOT_KEYS)))
    for vec in rows:
        solver.insert(vec)
    rank, det = gauss_jordan(dense([{j: r[k] for j, k in enumerate(order) if k in r}
                                    for r in rows], n, ring))
    if rank < n:
        with pytest.raises(InternalInvariantError):
            solver.det_unit(order)
        return
    got = solver.det_unit(order)
    assert (to_fraction(got) if ring == "const" else got) == det


# ---------------------------------------------------------------------------
# the sparse elements of the Hecke, group-algebra and diagram towers
# ---------------------------------------------------------------------------

CYCLE = (2, 3, 1)  # not an involution, so star moves it


def _hecke(n):
    q = LaurentPoly.gen(QV, Q)
    return HeckeElement.t_perm(n, CYCLE + tuple(range(4, n + 1))).scale(q) + HeckeElement.one(n)


def _group(n):
    return SymmetricGroupElement(n, {CYCLE + tuple(range(4, n + 1)): 2}) + (
        SymmetricGroupElement.one(n, QONE)
    )


def _diagram(n):
    cycle = DiagramElement.from_diagram(BrauerDiagram.from_permutation(CYCLE).pad(n))
    return cycle + DiagramElement.from_diagram(BrauerDiagram.e(1, n), DELTA_POLY)


ELEMENTS = {"hecke": _hecke, "group": _group, "diagram": _diagram}


@pytest.mark.parametrize("kind", ELEMENTS)
def test_sparse_element_contract(kind):
    x, y = ELEMENTS[kind](3), ELEMENTS[kind](4)
    with pytest.raises(TypeError):
        x + y
    with pytest.raises(TypeError):
        x - y
    with pytest.raises(DomainError):
        x * y
    for zero in (x - x, x.scale(0), x + (-x)):
        assert zero.is_zero() and zero.coeffs == {} and zero.n == 3
    assert x.star() != x and x.star().star() == x
    assert hash(x.star().star()) == hash(x)
    for other, make in ELEMENTS.items():
        if other != kind:
            assert x != make(3)
    # the same keys and coefficients in another class are another element
    ones = [HeckeElement.one(3), SymmetricGroupElement.one(3, QONE)]
    assert ones[0].coeffs == ones[1].coeffs and ones[0] != ones[1]
