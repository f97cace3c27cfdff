"""SpanSolver against a dense Gauss-Jordan reference written here.

Systems over the constants are also run through the reference as
`fractions.Fraction` matrices, so their ranks, memberships and
determinants do not depend on the package's coefficient arithmetic.  The
reference is field-generic, and over Q(q) it runs on RationalFunction
entries: the systems' own, or those equal to their LaurentFraction entries.  Coordinates are unique whenever they exist (only the
vectors that enlarged the span get any), so it is enough that `express`
puts them on those vectors only and rebuilds the vector it was given.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cellular_towers.coeff import QV, LaurentFraction, LaurentPoly, RationalFunction
from cellular_towers.errors import InternalInvariantError
from cellular_towers.linalg import SpanSolver, vec_sub_scaled

# pivot orders: the first residual key, or the lowest under a sort key
PIVOT_KEYS = [None, lambda k: -k, lambda k: (k % 2, k)]

# constant fractions, Q(q) as RationalFunction, Q(q) as LaurentFraction
RINGS = ["const", "q", "lf"]


@st.composite
def elements(draw, ring):
    """A nonzero constant fraction; a nonzero element of Q(q) with up to two
    terms over a denominator of up to two terms; or a nonzero Laurent
    polynomial of up to two terms over an integer.  The last ring's
    two-term pivots are not monomials, so their inverses are
    RationalFunctions and the solver mixes the two types."""
    if ring == "const":
        a = draw(st.integers(-9, 9).filter(bool))
        b = draw(st.integers(1, 5))
        return RationalFunction(LaurentPoly((), {(): a}), LaurentPoly((), {(): b}))
    exps = st.tuples(st.integers(-2, 3))
    if ring == "lf":
        # one numerator in four has two terms: enough non-monomial pivots to
        # drive the fallback, few enough that the reference's gcds stay cheap
        size = 2 if draw(st.integers(0, 3)) == 0 else 1
        num = draw(st.dictionaries(exps, st.integers(-4, 4).filter(bool), min_size=size, max_size=size))
        return LaurentFraction(LaurentPoly(QV, num), draw(st.integers(1, 5)))
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
    zero = RationalFunction.zero(QV)
    return [[as_rf(r.get(k, zero)) for k in range(n_keys)] for r in rows]


def as_rf(c):
    """The RationalFunction equal to an entry, which may be a LaurentFraction."""
    return c if isinstance(c, RationalFunction) else RationalFunction(c.num, c.den)


def one(ring):
    if ring == "lf":
        return LaurentFraction(LaurentPoly.one(QV))
    return RationalFunction.one(QV if ring == "q" else ())


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


def rebuild(coords, rows):
    vec = {}
    for i, c in coords.items():
        vec = vec_sub_scaled(vec, rows[i], -c)
    return vec


def check_query(solver, rows, new, vec, n_keys, ring):
    inside = ref_rank(rows + [vec], n_keys, ring) == ref_rank(rows, n_keys, ring)
    coords = solver.express(vec)
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
        status, payload = solver.insert(vec)
        grew = ref_rank(rows[: j + 1], n_keys, ring) > ref_rank(rows[:j], n_keys, ring)
        assert (status, payload) == (("new", j) if grew else ("dep", None))
        if grew:
            new.add(j)
    assert solver.rank == ref_rank(rows, n_keys, ring)
    assert solver.n_inserted == len(rows)
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
    queries += list(solver.by_key.values())
    for vec in queries:
        check_query(solver, rows, new, vec, n_keys, ring)


def test_row_brought_in_by_a_lower_factor_is_undone():
    """Rows a+b, b, a+c, then the query c: undoing the third step brings in
    the first row, whose back-reduction by the second must be undone too,
    although the query's own reduction touched neither."""
    one = RationalFunction.one(())
    solver = SpanSolver()
    for vec in ({"a": one, "b": one}, {"b": one}, {"a": one, "c": one}):
        solver.insert(vec)
    assert solver.express({"c": one}) == {0: -one, 1: one, 2: one}


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
    # the rows stored before the cut were reduced against the new pivots,
    # so coordinates must come through the steps recorded after the cut too
    check_query(solver, rows, new, early, n_keys, ring)
    check_query(solver, rows, new, data.draw(combinations(ring, rows)), n_keys, ring)


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
