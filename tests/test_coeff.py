import itertools
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from cellular_towers import coeff, ratfunc
from cellular_towers.coeff import (
    DELTA,
    DV,
    QV,
    QZDV,
    QZV,
    Q,
    Z,
    LaurentFraction,
    LaurentPoly,
    delta_as_qz,
    delta_eliminate,
    inverts_in_type,
    delta_restore,
)
from cellular_towers.errors import CoefficientRingError
from cellular_towers.ratfunc import RationalFunction, divexact, poly_gcd


def rand_poly(rng, vars=QV, terms=4, span=4):
    t = {}
    for _ in range(rng.randint(0, terms)):
        exp = tuple(rng.randint(-span, span) for _ in vars)
        t[exp] = t.get(exp, 0) + rng.randint(-6, 6)
    return LaurentPoly(vars, t)


def test_difference_of_squares():
    q = LaurentPoly.gen(QV, Q)
    qi = LaurentPoly.gen(QV, Q, -1)
    assert (q + qi) * (q - qi) == q ** 2 - qi ** 2


def test_annihilation_and_canonical_zero():
    x = LaurentPoly.gen(QV, Q)
    z = x * 0
    assert z.is_zero() and z.terms == {}
    assert x - x == LaurentPoly.zero(QV)


def test_mismatched_vars_is_structural_error():
    with pytest.raises(CoefficientRingError):
        LaurentPoly.gen(QV, Q) + LaurentPoly.gen(DV, DELTA)


def test_ring_axioms_random_triples():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_poly(rng, QZV) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


@settings(max_examples=60, deadline=None)
@given(st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 30))
def test_rational_constants_reduce(a, b, c):
    # fractions of constants behave like exact rationals
    x = RationalFunction(LaurentPoly.const(QV, a), LaurentPoly.const(QV, c))
    y = RationalFunction(LaurentPoly.const(QV, b), LaurentPoly.const(QV, c))
    s = x + y
    assert s * c == a + b


def test_rational_normalization_sign_and_gcd():
    q = LaurentPoly.gen(QV, Q)
    r = RationalFunction(q ** 2 - 1, -(q + 1))
    # reduced and sign-normalized: (q^2-1)/-(q+1) = -(q-1) = 1 - q
    assert r.den.is_one()
    assert r.num == 1 - q
    # 1/q is stored with an ordinary denominator
    r2 = RationalFunction(LaurentPoly.one(QV), q)
    assert r2.num.is_one() and r2.den == q


def test_rational_field_ops():
    rng = random.Random(3)
    for _ in range(60):
        a = RationalFunction.from_poly(rand_poly(rng, QZV, 3, 2))
        b = RationalFunction.from_poly(rand_poly(rng, QZV, 3, 2))
        c = RationalFunction.from_poly(rand_poly(rng, QZV, 3, 2))
        assert (a + b) * c == a * c + b * c
        if not b.is_zero():
            assert (a / b) * b == a


def test_specialize_q_one_kills_twist():
    # the twist q - q^-1 of the quadratic relation maps to 0 at q := 1, on
    # every standard basis element of H_3; q itself maps to the integer 1
    from cellular_towers.hecke import HeckeElement, symmetric_group_specialize

    q = LaurentPoly.gen(QV, Q)
    qi = LaurentPoly.gen(QV, Q, -1)
    for w in itertools.permutations(range(1, 4)):
        t = HeckeElement.t_perm(3, w)
        assert symmetric_group_specialize(t.scale(q - qi)).is_zero()
        g = symmetric_group_specialize(t.scale(q))
        assert g.coeffs == {w: 1} and type(g.coeffs[w]) is int


def test_delta_eliminate_relation():
    # z^-1 - z - (q^-1 - q)(delta - 1) maps to 0 in Q(q, z)
    z = LaurentPoly.gen(QZDV, Z)
    zi = LaurentPoly.gen(QZDV, Z, -1)
    q = LaurentPoly.gen(QZDV, Q)
    qi = LaurentPoly.gen(QZDV, Q, -1)
    d = LaurentPoly.gen(QZDV, DELTA)
    rel = zi - z - (qi - q) * (d - 1)
    assert delta_eliminate(rel).is_zero()


def test_delta_eliminate_fixes_delta_free():
    p = LaurentPoly.gen(QZV, Q) ** 2 - LaurentPoly.gen(QZV, Z)
    assert delta_eliminate(p) == RationalFunction.from_poly(p)


def test_delta_eliminate_image():
    d = LaurentPoly.gen(QZDV, DELTA)
    assert delta_eliminate(d) == delta_as_qz()


def test_delta_inverse_takes_its_gcd_once(monkeypatch):
    """δ⁻¹ leaves LaurentFraction's ring and is reduced by one gcd when it
    is first needed; later δ⁻¹ scalings reuse it and take none."""
    calls = []
    gcd = ratfunc.poly_gcd

    def counted(a, b):
        calls.append((a, b))
        return gcd(a, b)

    monkeypatch.setattr(ratfunc, "poly_gcd", counted)
    coeff._delta_inverse.cache_clear()
    d_inv = LaurentPoly.gen(QZDV, DELTA, -1)
    taken = []
    for _ in range(3):
        before = len(calls)
        x = delta_eliminate(d_inv)
        taken.append(len(calls) - before)
        assert x * delta_as_qz() == 1
    assert taken == [1, 0, 0]


def test_zero_denominator_raises():
    q = LaurentPoly.gen(QV, Q)
    with pytest.raises(ZeroDivisionError):
        RationalFunction(q, LaurentPoly.zero(QV))


def test_gcd_and_divexact():
    rng = random.Random(23)
    for _ in range(40):
        a = rand_poly(rng, QZV, 3, 2)
        b = rand_poly(rng, QZV, 3, 2)
        if a.is_zero() or b.is_zero():
            continue
        # force ordinary polynomials
        a = LaurentPoly(QZV, {tuple(abs(x) for x in e): c for e, c in a.terms.items()})
        b = LaurentPoly(QZV, {tuple(abs(x) for x in e): c for e, c in b.terms.items()})
        p = a * b
        g = poly_gcd(p, b)
        assert divexact(p, g) * g == p
        assert divexact(p, b) == a or divexact(p, b) * b == p


def test_divexact_raises_when_inexact():
    # q - 1 has a unit lead coefficient, so no integer remainder ever shows
    # the failure: the quotient's exponent bounds must
    q = LaurentPoly.gen(QV, Q)
    with pytest.raises(CoefficientRingError):
        divexact(q ** 2 + 1, q - 1)
    # in two variables the lex bound alone does not stop the last pair: its
    # quotient exponents run (1, -k) for every k, all lex-above (0, 1)
    q2, z = LaurentPoly.gen(QZV, Q), LaurentPoly.gen(QZV, Z)
    for a, b in [(z ** 2 + q2, q2 - z), (q2 ** -1 + z, z - q2), (z + 1, q2 * z - 1),
                 (q2 * (1 + z ** -1) + 1, 1 - z ** -1)]:
        with pytest.raises(CoefficientRingError):
            divexact(a, b)


@st.composite
def laurent_polys(draw, vars):
    exps = st.tuples(*(st.integers(-2, 2) for _ in vars))
    return LaurentPoly(vars, draw(st.dictionaries(exps, st.integers(-3, 3), max_size=3)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_divexact_is_exact_or_raises(data):
    vars = data.draw(st.sampled_from([QV, QZV]))
    a, b, r = (data.draw(laurent_polys(vars)) for _ in range(3))
    if b.is_zero():
        return
    assert divexact(a * b, b) == a
    try:
        quot = divexact(a * b + r, b)
    except CoefficientRingError:
        return
    assert quot * b == a * b + r


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_laurent_poly_hashes_as_the_fraction_it_equals(data):
    """A LaurentPoly equals the LaurentFraction, the RationalFunction and,
    when constant, the int of its value, so it hashes as they do."""
    vars = data.draw(st.sampled_from([QV, QZV, DV]))
    p = data.draw(laurent_polys(vars))
    f, r = LaurentFraction.of(p, vars), RationalFunction.from_poly(p)
    assert p == f and p == r
    assert hash(p) == hash(f) == hash(r)
    assert len({p, f, r}) == 1
    k = data.draw(st.integers(-5, 5))
    const = LaurentPoly.const(vars, k)
    assert const == k and hash(const) == hash(k)


def test_json_round_trip():
    rng = random.Random(29)
    for _ in range(20):
        p = rand_poly(rng, QZDV, 4, 3)
        assert LaurentPoly.from_json(p.to_json()) == p
    r = RationalFunction(
        LaurentPoly.gen(QZV, Q) + 1, LaurentPoly.gen(QZV, Z) ** 2 + 3
    )
    assert RationalFunction.from_json(r.to_json()) == r


def test_json_schema_fields():
    p = LaurentPoly(QZDV, {(1, 0, 0): 1})
    data = p.to_json()
    assert data["vars"] == ["q", "z", DELTA]
    assert data["terms"] == [{"exp": [1, 0, 0], "coef": "1"}]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("e", [-2, -1, 0, 1, 3])
def test_negative_powers_of_signed_monomials(sign, e):
    x = LaurentPoly(QV, {(e,): sign})
    for k in range(-3, 4):
        power = x ** k
        if k < 0:
            assert power == (x ** -1) ** -k
        assert power.terms == {(k * e,): sign ** abs(k)}
        assert power * x ** -k == LaurentPoly.one(QV)


# cofactors that make a monomial denominator non-monomial, so the reference
# goes through the gcd path of the canonicalization
COFACTORS = {
    QV: LaurentPoly(QV, {(1,): 1, (0,): 2}),
    QZV: LaurentPoly(QZV, {(1, 1): 1, (0, 0): 3}),
    DV: LaurentPoly(DV, {(1,): 1, (0,): 2}),
}


@st.composite
def monomial_fractions(draw, vars):
    exps = st.tuples(*(st.integers(-4, 4) for _ in vars))
    terms = draw(st.dictionaries(exps, st.integers(-12, 12), max_size=4))
    c = draw(st.integers(-12, 12).filter(bool))
    return LaurentPoly(vars, terms), LaurentPoly(vars, {draw(exps): c})


def _via_gcd_path(num, den):
    cof = COFACTORS[num.vars]
    return RationalFunction(num * cof, den * cof)


def _same(fast, ref):
    assert fast.num.terms == ref.num.terms
    assert fast.den.terms == ref.den.terms
    assert fast.num.vars == ref.num.vars and fast.den.vars == ref.den.vars


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monomial_denominators_match_gcd_path(data):
    vars = data.draw(st.sampled_from([QV, QZV, DV]))
    n1, d1 = data.draw(monomial_fractions(vars))
    n2, d2 = data.draw(monomial_fractions(vars))
    a, b = RationalFunction(n1, d1), RationalFunction(n2, d2)
    _same(a, _via_gcd_path(n1, d1))
    _same(b, _via_gcd_path(n2, d2))
    _same(a * b, _via_gcd_path(n1 * n2, d1 * d2))
    _same(a + b, _via_gcd_path(n1 * d2 + n2 * d1, d1 * d2))
    _same(a - b, _via_gcd_path(n1 * d2 - n2 * d1, d1 * d2))
    assert a.den.lead_coeff() > 0 and a.num.is_ordinary() and a.den.is_ordinary()


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_unit_factor_matches_full_product(data):
    """x * (+-1) on either side, the factor given as an int or a fraction,
    is the canonical fraction that the product without the shortcut gives."""
    vars = data.draw(st.sampled_from([QV, QZV, DV]))
    n, d = data.draw(monomial_fractions(vars))
    cof = COFACTORS[vars]
    x = RationalFunction(n, d * data.draw(st.sampled_from([LaurentPoly.one(vars), cof])))
    sign = data.draw(st.sampled_from([1, -1]))
    ref = RationalFunction(x.num * cof * LaurentPoly.const(vars, sign), x.den * cof)
    for u in (sign, RationalFunction.const(vars, sign)):
        _same(x * u, ref)
        _same(u * x, ref)


def _gcd_by_prs(a, b):
    """The reference: content split, primitive PRS, sign normalization."""
    ca, cb = a.int_content(), b.int_content()
    a = LaurentPoly(a.vars, {e: c // ca for e, c in a.terms.items()})
    b = LaurentPoly(b.vars, {e: c // cb for e, c in b.terms.items()})
    return ratfunc._pos_normal(ratfunc._poly_gcd_prim(a, b) * gcd(ca, cb))


@st.composite
def ordinary_polys(draw, vars, max_terms, max_deg):
    exps = st.tuples(*(st.integers(0, max_deg) for _ in vars))
    terms = draw(st.dictionaries(exps, st.integers(-9, 9), min_size=1, max_size=max_terms))
    return LaurentPoly(vars, terms)


# degrees stay at 2 per variable: the PRS reference takes seconds on some
# trivariate pairs of degree 3
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_gcd_filter_matches_prs(data):
    vars = data.draw(st.sampled_from([QV, QZV, QZDV]))
    a = data.draw(ordinary_polys(vars, 4, 2))
    b = data.draw(ordinary_polys(vars, 4, 2))
    if data.draw(st.booleans()):
        common = data.draw(ordinary_polys(vars, 3, 2))
        a, b = a * common, b * common
    a = a * data.draw(st.integers(1, 12))
    b = b * data.draw(st.integers(-12, -1) | st.integers(1, 12))
    if a.is_zero() or b.is_zero():
        return
    g = poly_gcd(a, b)
    assert g.vars == vars
    assert g.terms == _gcd_by_prs(a, b).terms


def test_gcd_filter_unlucky_point_falls_through():
    # z - q and z - r map to the same z - r when q goes to its point r, so
    # the images share a root although the polynomials are coprime
    r = ratfunc._FILTER_POINTS[0]
    q, z = LaurentPoly.gen(QZV, Q), LaurentPoly.gen(QZV, Z)
    a, b = z - q, z - r
    assert not ratfunc._coprime_images(a, b)
    assert poly_gcd(a, b) == 1
    assert poly_gcd(2 * a * (z + 1), 6 * b * (z + 1)) == 2 * (z + 1)


def test_gcd_filter_vanishing_leading_coefficient_falls_through():
    # the leading coefficient q - r of a in z vanishes at q's point r
    r = ratfunc._FILTER_POINTS[0]
    q, z = LaurentPoly.gen(QZV, Q), LaurentPoly.gen(QZV, Z)
    a = (q - r) * z ** 2 + 1
    assert ratfunc._image_mod_p(a.terms, 1, 2) is None
    assert not ratfunc._coprime_images(a, z + 5)
    assert poly_gcd(a, z + 5) == 1
    # the common factor (q - r)z + 1 maps to the constant 1, so the images
    # z + 2 and z + 3 are coprime although the polynomials are not
    g = (q - r) * z + 1
    assert poly_gcd(g * (z + 2), g * (z + 3)) == g


# ---------------------------------------------------------------------------
# LaurentFraction against RationalFunction
# ---------------------------------------------------------------------------


@st.composite
def laurent_fractions(draw, vars, max_terms=3):
    """L / (c · (q² − 1)^k) with negative exponents allowed, c up to 12 and,
    when q is among the variables, k up to 3 and L carrying powers of q − 1
    and q + 1 up to 3 (so 1/(q + 1) = (q − 1)/(q² − 1), 1/(q − 1) and values
    that cancel to k = 0 all occur), as the pair (LaurentFraction, the
    equal RationalFunction)."""
    exps = st.tuples(*(st.integers(-4, 4) for _ in vars))
    terms = draw(st.dictionaries(exps, st.integers(-12, 12), max_size=max_terms))
    c = draw(st.integers(-12, 12).filter(bool))
    poly = LaurentPoly(vars, terms)
    k = 0
    den = LaurentPoly.const(vars, c)
    if Q in vars:
        q = LaurentPoly.gen(vars, Q)
        poly = poly * (q - 1) ** draw(st.integers(0, 3)) * (q + 1) ** draw(st.integers(0, 3))
        k = draw(st.integers(0, 3))
        den = den * (q * q - 1) ** k
    return LaurentFraction(poly, c, k), RationalFunction(poly, den)


def _q_pm1_monomial(p):
    """Whether the LaurentPoly p is a monomial times powers of q − 1 and
    q + 1 (just a monomial when q is not among its variables)."""
    if Q in p.vars:
        q = LaurentPoly.gen(p.vars, Q)
        for f in (q - 1, q + 1):
            while len(p.terms) > 1:
                try:
                    p = divexact(p, f)
                except CoefficientRingError:
                    break
    return len(p.terms) == 1


def _agrees(got, ref, kind=LaurentFraction):
    """got has the type `kind`, equals ref both ways, hashes like it, and
    prints and serializes to the same bytes."""
    assert type(got) is kind
    assert got == ref and ref == got
    assert hash(got) == hash(ref)
    assert str(got) == str(ref)
    assert got.to_json() == ref.to_json()
    if kind is LaurentFraction:
        assert got.c >= 1 and (got.terms or (got.c, got.k) == (1, 0))
        assert gcd(got.c, *got.terms.values()) == 1
        if got.k:
            # k is minimal: q² − 1 does not divide L
            q = LaurentPoly.gen(got.vars, Q)
            with pytest.raises(CoefficientRingError):
                divexact(LaurentPoly(got.vars, got.terms), q * q - 1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_laurent_fraction_matches_rational_function(data):
    vars = data.draw(st.sampled_from([QV, DV, QZV]))
    x, rx = data.draw(laurent_fractions(vars))
    y, ry = data.draw(laurent_fractions(vars))
    k = data.draw(st.integers(-5, 5))
    _agrees(x, rx)
    _agrees(x + y, rx + ry)
    _agrees(x - y, rx - ry)
    _agrees(x * y, rx * ry)
    _agrees(-x, -rx)
    _agrees(x ** 2, rx ** 2)
    # int operands on either side
    _agrees(x + k, rx + k)
    _agrees(k + x, k + rx)
    _agrees(x - k, rx - k)
    _agrees(k - x, k - rx)
    _agrees(x * k, rx * k)
    _agrees(k * x, k * rx)
    assert (x == k) == (rx == k)
    if x == k:
        assert hash(x) == hash(k)
    if y:
        # the inverse stays in the type exactly when the reduced numerator
        # is a monomial times powers of q − 1 and q + 1
        kind = LaurentFraction if _q_pm1_monomial(ry.num) else RationalFunction
        _agrees(y.inverse(), ry.inverse(), kind)
        _agrees(y ** -2, ry ** -2, kind)
        _agrees(x / y, rx / ry, kind)
        if k:
            _agrees(k / y, k / ry, kind)
    if k:
        _agrees(x / k, rx / k)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_laurent_fraction_with_rational_function_operand(data):
    """Operations with a RationalFunction operand are computed by it."""
    vars = data.draw(st.sampled_from([QV, DV, QZV]))
    x, rx = data.draw(laurent_fractions(vars))
    cof = COFACTORS[vars]
    f = RationalFunction(LaurentPoly.one(vars), cof)  # not an L / c
    for got, ref in ((x + f, rx + f), (f + x, f + rx), (x - f, rx - f), (f - x, f - rx),
                     (x * f, rx * f), (f * x, f * rx), (x / f, rx / f)):
        _agrees(got, ref, RationalFunction)
    assert (x == f) is False and (f == x) is False


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inverts_in_type_is_the_inverse_staying_in_the_type(data):
    """The pivot test of the solvers answers what `inverse` would return,
    for numerators with planted (q ± 1)^a and k ≤ 3; zero does not invert
    and any other value type passes."""
    vars = data.draw(st.sampled_from([QV, QZV, DV]))
    x, rx = data.draw(laurent_fractions(vars))
    if x:
        assert inverts_in_type(x) == isinstance(x.inverse(), LaurentFraction)
    else:
        assert not inverts_in_type(x)
    assert inverts_in_type(rx)


def _same(got, want):
    """got is want structurally: the same type and the same parts."""
    assert type(got) is type(want)
    if type(want) is LaurentFraction:
        assert (got.vars, got.terms, got.c, got.k) == (want.vars, want.terms, want.c, want.k)
    else:
        assert (got.num, got.den) == (want.num, want.den)


def sub_mul(s, a, b):
    """s − a·b for field elements, s None meaning 0, as one accumulator
    update normalized at once, the way the solvers form each update."""
    return coeff._acc_value(coeff._acc_submul(s, a, b))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_sub_mul_is_s_minus_a_times_b(data):
    """The fused update against `s - a * b` (`-(a * b)` for s None): with
    c up to 12 and k up to 3 on each operand, factors of ±1 on either side,
    a zero operand and s = 0, and a RationalFunction operand anywhere,
    which takes the fallback."""
    vars = data.draw(st.sampled_from([QV, DV, QZV]))
    s, a, b = (data.draw(laurent_fractions(vars))[0] for _ in range(3))
    one = LaurentFraction(LaurentPoly.one(vars))
    zero = LaurentFraction(LaurentPoly.zero(vars))
    f = RationalFunction(LaurentPoly.one(vars), COFACTORS[vars])
    cases = [(s, a, b), (None, a, b), (s, a, a), (zero, a, b), (s, zero, b), (None, a, zero)]
    for u in (one, -one):
        cases += [(s, a, u), (s, u, b), (None, a, u), (None, u, b), (zero, u, b), (s, u, u)]
    cases += [(s, f, b), (s, a, f), (f, a, b), (None, f, b), (None, a, f), (f, one, f)]
    for x, y, w in cases:
        _same(sub_mul(x, y, w), -(y * w) if x is None else x - y * w)


def _working(x, pad):
    """An accumulator equal to x whose denominator is not in normal form:
    0 − x·(−1), then pad·1 − pad·1 over pad's c and k."""
    one = LaurentFraction(LaurentPoly.one(x.vars))
    w = coeff._acc_submul(None, x, -one)
    w = coeff._acc_submul(w, pad, one)
    return coeff._acc_submul(w, -pad, one)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_accumulator_matches_folded_updates(data):
    """Several updates summed into one accumulator and normalized once
    against `s - a * b` folded one update at a time, over DV, QV and QZV:
    c up to 12 and k up to 3 on each operand, factors of ±1, sums that
    cancel to zero, factors that are accumulators themselves, and
    RationalFunction operands, after which the sum is a field value."""
    vars = data.draw(st.sampled_from([QV, DV, QZV]))
    fractions = laurent_fractions(vars).map(lambda pair: pair[0])
    one = LaurentFraction(LaurentPoly.one(vars))
    f = RationalFunction(LaurentPoly.one(vars), COFACTORS[vars])
    s = data.draw(st.one_of(st.none(), fractions))
    kept = None if s is None else dict(s.terms)
    updates = []
    for _ in range(data.draw(st.integers(1, 5))):
        a, b = data.draw(fractions), data.draw(fractions)
        kind = data.draw(st.sampled_from(["plain", "unit", "working", "rational"]))
        if kind == "unit":
            unit = data.draw(st.sampled_from([one, -one]))
            a, b = data.draw(st.sampled_from([(a, unit), (unit, b)]))
        elif kind == "rational" and data.draw(st.integers(0, 3)) == 0:
            a = f
        updates.append((a, b, kind == "working"))
    if data.draw(st.booleans()):
        # cancel every update again, and s too
        updates += [(-a, b, w) for a, b, w in updates]
        if s is not None:
            updates.append((s, one, False))
    ref, work = s, s
    for a, b, working in updates:
        ref = -(a * b) if ref is None else ref - a * b
        factor = _working(a, data.draw(fractions)) if working and type(a) is LaurentFraction else a
        work = coeff._acc_submul(work, factor, b)
        if factor is not a:
            # a factor is read, never spent
            _same(coeff._acc_value(factor), a)
    _same(coeff._acc_value(work), ref)
    if s is not None:
        assert s.terms == kept


def test_sub_mul_brings_operands_to_a_common_denominator():
    """s over 4·(q² − 1), and a·b over 6·(q² − 1)³ until one q² − 1
    cancels: the difference is over 12·(q² − 1)²."""
    q, z = LaurentPoly.gen(QZV, Q), LaurentPoly.gen(QZV, Z)
    s = LaurentFraction(q * z + 3, 4, 1)
    a = LaurentFraction(q - 1, 2, 2)
    b = LaurentFraction((q + 1) * z ** -1, 3, 1)
    got = sub_mul(s, a, b)
    _same(got, s - a * b)
    assert (got.c, got.k) == (12, 2)
    with pytest.raises(CoefficientRingError):
        sub_mul(s, a, LaurentFraction(LaurentPoly.one(QV)))


def test_laurent_fraction_canonical_forms():
    q = LaurentPoly.gen(QV, Q)
    zero = LaurentFraction(LaurentPoly.zero(QV), 6)
    assert zero.terms == {} and zero.c == 1 and not zero
    # sign and content move onto the numerator and cancel with c
    x = LaurentFraction(2 * q ** -2 + 4, -6)
    assert x.terms == {(-2,): -1, (0,): -2} and x.c == 3
    assert str(x) == "(-2*q^2 - 1)/(3*q^2)"
    # the integer gcd cancels after a sum over a common c
    half = LaurentFraction(LaurentPoly.one(QV), 2)
    total = half + half
    assert total.terms == {(0,): 1} and total.c == 1 and total == 1 and hash(total) == hash(1)
    # a tower coefficient enters as L / 1, widened to the field's variables
    of = LaurentFraction.of(LaurentPoly.const((), 3), DV)
    assert of.vars == DV and of == 3
    assert LaurentFraction.of(x, QV) is x
    with pytest.raises(CoefficientRingError):
        x + LaurentFraction.of(LaurentPoly.gen(DV, DELTA), DV)
    with pytest.raises(ZeroDivisionError):
        zero.inverse()


def test_laurent_fraction_powers_of_q_squared_minus_one():
    q = LaurentPoly.gen(QZV, Q)
    z = LaurentPoly.gen(QZV, Z)
    one = LaurentPoly.one(QZV)
    # 1/(q + 1) = (q − 1)/(q² − 1) and 1/(q − 1) = (q + 1)/(q² − 1)
    for f, other in ((q + 1, q - 1), (q - 1, q + 1)):
        x = LaurentFraction(f).inverse()
        assert type(x) is LaurentFraction and x.k == 1 and x.terms == other.terms
        assert x == RationalFunction(one, f) and str(x) == f"(1)/({f})"
        assert x * f == 1 and (x * f).is_one() and not (x - x)
    # q² − 1 dividing L cancels down to k = 0
    x = LaurentFraction((q * q - 1) ** 2 * z, 3, 2)
    assert x.k == 0 and x.c == 3 and x.terms == z.terms
    # a sum over the larger k, then q² − 1 divided out
    half = LaurentFraction(q + 1, 2, 1)  # 1/(2(q − 1))
    other = LaurentFraction(q - 1, 2, 1)  # 1/(2(q + 1))
    assert half + other == RationalFunction(q, q * q - 1)
    assert (half - other).terms == one.terms and (half - other).k == 1
    assert half - half == 0 and (half - half).k == 0
    # 2(q − 1)²·q⁻¹ inverts in the type; q + z does not
    y = LaurentFraction(2 * (q - 1) ** 2 * q ** -1)
    assert type(y.inverse()) is LaurentFraction and y.inverse() * y == 1
    assert type(LaurentFraction(q + z).inverse()) is RationalFunction
    # the factor exists only over q
    with pytest.raises(CoefficientRingError):
        LaurentFraction(LaurentPoly.one(DV), 1, 1)


def _delta_rf():
    """δ's image built on the RationalFunction path, as the reference."""
    zi = LaurentPoly.gen(QZV, Z, -1) - LaurentPoly.gen(QZV, Z)
    qi = LaurentPoly.gen(QZV, Q, -1) - LaurentPoly.gen(QZV, Q)
    return RationalFunction(zi, qi) + RationalFunction.one(QZV)


def _substitute_delta(p):
    """p with `_delta_rf()` substituted for δ, summed term by term in
    RationalFunction arithmetic over (q, z)."""
    delta = _delta_rf()
    out = RationalFunction.zero(QZV)
    for e, c in p.terms.items():
        x = dict(zip(p.vars, e))
        qz = LaurentPoly(QZV, {(x.get(Q, 0), x.get(Z, 0)): c})
        out = out + RationalFunction.from_poly(qz) * delta ** x.get(DELTA, 0)
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_delta_eliminate_matches_specialize(data):
    """delta_eliminate against substitution of the RationalFunction δ; a
    negative power of δ (δ⁻¹ lies outside the LaurentFraction ring) takes
    the fallback."""
    vars = data.draw(st.sampled_from([QZDV, DV, (Z, DELTA), QZV]))
    exps = st.tuples(*(st.integers(-2, 2) if v == DELTA else st.integers(-3, 3) for v in vars))
    p = LaurentPoly(vars, data.draw(st.dictionaries(exps, st.integers(-6, 6), max_size=3)))
    ref = _substitute_delta(p)
    got = delta_eliminate(p)
    negative = DELTA in vars and any(e[vars.index(DELTA)] < 0 for e in p.terms)
    if negative:
        assert type(got) is RationalFunction
        assert got == ref and ref == got and str(got) == str(ref)
    else:
        _agrees(got, ref)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(0, 3)),
    st.integers(-6, 6),
    max_size=5,
))
def test_delta_restore_inverts_delta_eliminate_at_q_z_one(terms):
    """delta_restore reads delta_eliminate(p) back as p at q = z = 1 with δ
    free, for p in Z[q^±1, z^±1, δ]; well defined, since R's relation
    (δ − 1)(q² − 1) − q(z − z⁻¹) vanishes at q = z = 1."""
    p = LaurentPoly(QZDV, terms)
    at_one = {}
    for (_, _, d), c in p.terms.items():
        at_one[(d,)] = at_one.get((d,), 0) + c
    assert delta_restore(delta_eliminate(p)) == LaurentPoly(DV, at_one)
