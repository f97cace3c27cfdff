"""The fallback field: reduced fractions of Laurent polynomials.

:class:`RationalFunction` holds a value of Q(q), Q(q, z) or Q(δ) that
`coeff.LaurentFraction` cannot: the inverse of an L that is not a monomial
times powers of q − 1 and q + 1.  Only `LaurentFraction.inverse` builds one
outside this module, so a process loads it only when a pivot or a δ⁻¹
leaves LaurentFraction's ring.  It keeps the polynomial gcd over Z that
canonicalizes such fractions: a modular coprimality filter, then the
primitive PRS.
"""

from __future__ import annotations

from math import gcd as int_gcd

from ._kernel import terms_mul_monomial, terms_sub
from .coeff import (
    LaurentFraction,
    LaurentPoly,
    _fraction_hash,
    _fraction_json,
    _fraction_str,
    _monomial_fraction,
)
from .errors import CoefficientRingError


# ---------------------------------------------------------------------------
# polynomial gcd machinery (ordinary polynomials, integer coefficients)
# ---------------------------------------------------------------------------


def _to_univar(p, k):
    """View p as univariate in variable index k: dict degree -> LaurentPoly."""
    out = {}
    for exp, c in p.terms.items():
        d = exp[k]
        rest = exp[:k] + (0,) + exp[k + 1 :]
        coeff = out.setdefault(d, {})
        coeff[rest] = coeff.get(rest, 0) + c
    return {
        d: LaurentPoly._raw(p.vars, {e: c for e, c in t.items() if c})
        for d, t in out.items()
        if any(t.values())
    }


def _from_univar(u, vars, k):
    terms = {}
    for d, coeff in u.items():
        for exp, c in coeff.terms.items():
            e = exp[:k] + (d,) + exp[k + 1 :]
            terms[e] = terms.get(e, 0) + c
    return LaurentPoly._raw(tuple(vars), {e: c for e, c in terms.items() if c})


def _uni_deg(u):
    return max(u) if u else -1


def _uni_scale(u, f):
    return {d: c * f for d, c in u.items() if not (c * f).is_zero()}


def _uni_sub(a, b):
    out = dict(a)
    for d, c in b.items():
        s = out.get(d)
        s = c.__neg__() if s is None else s - c
        if s.is_zero():
            out.pop(d, None)
        else:
            out[d] = s
    return out


def _uni_shift_mul(u, s, f):
    """u * f * x^s in the main variable."""
    return {d + s: c * f for d, c in u.items()}


def _pseudo_rem(a, b):
    """Pseudo-remainder of a by b (univariate with LaurentPoly coefficients)."""
    da, db = _uni_deg(a), _uni_deg(b)
    lb = b[db]
    r = dict(a)
    while r and _uni_deg(r) >= db:
        dr = _uni_deg(r)
        lr = r[dr]
        r = _uni_sub(_uni_scale(r, lb), _uni_shift_mul(b, dr - db, lr))
    return r


def poly_content_pp(p, k):
    """Content (gcd of coefficients) and primitive part of p in main variable k."""
    u = _to_univar(p, k)
    coeffs = sorted(u.values(), key=lambda c: len(c.terms))
    cont = coeffs[0]
    for c in coeffs[1:]:
        if cont.is_one():
            break
        cont = poly_gcd(cont, c)
    cont = _pos_normal(cont)
    return cont, divexact(p, cont)


def poly_gcd(a, b):
    """gcd of two ordinary (non-negative exponent) polynomials over Z.

    Normalized so the lex-leading coefficient is positive.  The integer
    contents are split off first.  Then, for each variable x_k in which both
    primitive parts have positive degree, a modular image tests them for a
    common factor: reduce modulo the prime `_FILTER_PRIME`, send every other
    variable to its residue in `_FILTER_POINTS`, and take the gcd in
    Z_p[x_k].  The image of the true gcd divides both images, and it keeps
    its x_k-degree when the images keep theirs; so if both leading
    coefficients survive and the images are coprime, the true gcd has degree
    0 in x_k.  When that holds for every such variable, the gcd is the gcd
    of the contents.  Otherwise (an image lost its degree, or the images
    share a factor, which an unlucky prime or point can also cause) the
    primitive PRS computes the gcd, so the answer never depends on the
    filter.  (Brown 1971; Zippel 1979.)
    """
    if a.vars != b.vars:
        raise CoefficientRingError("gcd across different rings")
    if a.is_zero():
        return _pos_normal(b)
    if b.is_zero():
        return _pos_normal(a)
    ca, cb = a.int_content(), b.int_content()
    cg = int_gcd(abs(ca), abs(cb))
    a = LaurentPoly._raw(a.vars, {e: c // ca for e, c in a.terms.items()})
    b = LaurentPoly._raw(b.vars, {e: c // cb for e, c in b.terms.items()})
    if _coprime_images(a, b):
        return LaurentPoly.const(a.vars, cg)
    g = _poly_gcd_prim(a, b)
    return _pos_normal(g * cg)


#: modulus and evaluation points of the coprimality filter in `poly_gcd`.
#: They are fixed, not random, so that runs repeat exactly; any choice keeps
#: the filter exact, and a bad one only sends more pairs to the PRS.
#: Variable j goes to _FILTER_POINTS[j % len(_FILTER_POINTS)].
_FILTER_PRIME = 2**31 - 1
_FILTER_POINTS = (1_234_567_891, 987_654_321, 1_357_913_579)


def _coprime_images(a, b):
    """True when modular images prove gcd(a, b) has degree 0 in every variable."""
    for k, (da, db) in enumerate(zip(a.max_exponents(), b.max_exponents())):
        if da and db:
            fa = _image_mod_p(a.terms, k, da)
            if fa is None:
                return False
            fb = _image_mod_p(b.terms, k, db)
            if fb is None or not _coprime_mod_p(fa, fb):
                return False
    return True


def _image_mod_p(terms, k, deg):
    """Dense image of an ordinary term map in Z_p[x_k], lowest degree first.

    Every other variable goes to its filter point.  None when the leading
    coefficient in x_k vanishes, i.e. the image has degree below `deg`.
    """
    p = _FILTER_PRIME
    points = _FILTER_POINTS
    out = [0] * (deg + 1)
    for exp, c in terms.items():
        for j, x in enumerate(exp):
            if x and j != k:
                c = c * pow(points[j % len(points)], x, p) % p
        out[exp[k]] += c
    out = [c % p for c in out]
    return out if out[deg] else None


def _coprime_mod_p(f, g):
    """Whether two dense polynomials of positive degree are coprime in Z_p[x].

    Euclid's algorithm; it consumes both lists.
    """
    p = _FILTER_PRIME
    if len(f) < len(g):
        f, g = g, f
    while len(g) > 1:
        # f <- f mod g, in place
        inv = pow(g[-1], -1, p)
        dg = len(g) - 1
        while len(f) > dg:
            c = f.pop() * inv % p
            s = len(f) - dg
            for i in range(dg):
                f[s + i] = (f[s + i] - c * g[i]) % p
            while f and not f[-1]:
                f.pop()
        if not f:
            return False
        f, g = g, f
    return True


def _active_var(a, b):
    ma, mb = a.max_exponents(), b.max_exponents()
    for k in range(len(a.vars) - 1, -1, -1):
        if ma[k] > 0 or mb[k] > 0:
            return k
    return None


def _poly_gcd_prim(a, b):
    k = _active_var(a, b)
    if k is None:
        return LaurentPoly.one(a.vars)
    conta, ppa = poly_content_pp(a, k)
    contb, ppb = poly_content_pp(b, k)
    cont = poly_gcd(conta, contb)
    ua, ub = _to_univar(ppa, k), _to_univar(ppb, k)
    if _uni_deg(ua) < _uni_deg(ub):
        ua, ub = ub, ua
    # primitive PRS in the main variable
    while True:
        r = _pseudo_rem(ua, ub)
        if not r:
            g_uni = ub
            break
        rp = _from_univar(r, a.vars, k)
        _, rp = poly_content_pp(rp, k)
        ua, ub = ub, _to_univar(rp, k)
    g = _from_univar(g_uni, a.vars, k)
    _, g = poly_content_pp(g, k)
    return cont * g


def _pos_normal(p):
    if p.lead_coeff() < 0:
        return -p
    return p


def divexact(a, b):
    """Exact division a / b for LaurentPoly; raises if not exact."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    u = b.as_unit()
    if u is not None:
        exp, c = u
        out = {}
        nexp = tuple(-x for x in exp)
        for e, k in a.terms.items():
            q, r = divmod(k, c)
            if r:
                raise CoefficientRingError(f"{a} not divisible by {b}")
            out[tuple(x + y for x, y in zip(e, nexp))] = q
        return LaurentPoly._raw(a.vars, out)
    if not a.terms:
        return a
    # Quotient exponents come out in strictly decreasing lex order, and an
    # exact quotient's lowest is lexmin(a) - lexmin(b); in each variable its
    # exponents lie between the differences of the minimum and of the
    # maximum exponents of a and b (Newton polytopes add).  Leaving these
    # bounds proves the division inexact, and the box makes the loop finite
    # in several variables.  It is built only for a second quotient term:
    # most quotients have one.
    lowest = tuple(x - y for x, y in zip(min(a.terms), min(b.terms)))
    box = None
    rem = a
    quot = {}
    lb = b.lead_exp()
    cb = b.terms[lb]
    while rem.terms:
        la = rem.lead_exp()
        q, r = divmod(rem.terms[la], cb)
        e = tuple(x - y for x, y in zip(la, lb))
        if quot and box is None:
            box = list(zip(
                (x - y for x, y in zip(a.min_exponents(), b.min_exponents())),
                (x - y for x, y in zip(a.max_exponents(), b.max_exponents())),
            ))
        if r or e < lowest or (box and any(not lo <= x <= hi for x, (lo, hi) in zip(e, box))):
            raise CoefficientRingError(f"{a} not divisible by {b}")
        quot[e] = quot.get(e, 0) + q
        rem = LaurentPoly._raw(
            rem.vars, terms_sub(rem.terms, terms_mul_monomial(b.terms, e, q))
        )
    return LaurentPoly(a.vars, quot)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """A reduced fraction of Laurent polynomials over a fixed variable tuple.

    Canonical form: numerator and denominator are ordinary polynomials with
    no common (polynomial or monomial) factor, integer contents coprime, and
    the denominator's lex-leading coefficient positive.  Equal values are
    structurally equal.  A monomial denominator (see `_monomial_fraction`)
    skips the gcd path; LaurentFraction values convert to this form when
    they meet a RationalFunction operand.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None, _reduced=False):
        if isinstance(num, int):
            if den is None:
                raise CoefficientRingError("integer numerator needs an explicit denominator")
            num = LaurentPoly.const(den.vars, num)
        if den is None:
            den = LaurentPoly.one(num.vars)
        if num.vars != den.vars:
            raise CoefficientRingError(
                f"mismatched indeterminates {num.vars} vs {den.vars}"
            )
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            num, den = _reduce_fraction(num, den)
        self.num = num
        self.den = den
        self._hash = None

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_poly(cls, p):
        n, d = _reduce_fraction(p, LaurentPoly.one(p.vars))
        return cls(n, d, _reduced=True)

    @classmethod
    def zero(cls, vars):
        return cls.from_poly(LaurentPoly.zero(vars))

    @classmethod
    def one(cls, vars):
        return cls.from_poly(LaurentPoly.one(vars))

    @classmethod
    def const(cls, vars, k):
        return cls.from_poly(LaurentPoly.const(vars, k))

    @classmethod
    def gen(cls, vars, name, power=1):
        return cls.from_poly(LaurentPoly.gen(vars, name, power))

    @property
    def vars(self):
        return self.num.vars

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RationalFunction):
            if other.vars != self.vars:
                raise CoefficientRingError(
                    f"mismatched indeterminates {self.vars} vs {other.vars}"
                )
            return other
        if isinstance(other, LaurentFraction):
            if other.vars != self.vars:
                raise CoefficientRingError(
                    f"mismatched indeterminates {self.vars} vs {other.vars}"
                )
            return RationalFunction(*other._num_den(), _reduced=True)
        if isinstance(other, LaurentPoly):
            return RationalFunction.from_poly(other.extend_vars(self.vars)
                                              if other.vars != self.vars else other)
        if isinstance(other, int):
            return RationalFunction.const(self.vars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RationalFunction(self.num - o.num, self.den)
        return RationalFunction(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _reduced=True)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.num.terms or not o.num.terms:
            return RationalFunction.zero(self.vars)
        # a factor of +-1 needs no arithmetic (the other is already canonical)
        u = _unit_sign(o)
        if u:
            return self if u > 0 else -self
        u = _unit_sign(self)
        if u:
            return o if u > 0 else -o
        # cross-reduce first; keeps intermediate gcds small
        a, b = _reduce_fraction(self.num, o.den)
        c, d = _reduce_fraction(o.num, self.den)
        return RationalFunction(a * c, b * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = RationalFunction.one(self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def inverse(self):
        if self.num.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(self.den, self.num)

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num == self.den

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, RationalFunction):
            o = other
        else:
            try:
                o = self._coerce(other)
            except CoefficientRingError:
                return False
            if o is None:
                return NotImplemented
        return self.vars == o.vars and self.num == o.num and self.den == o.den

    def __hash__(self):
        if self._hash is None:
            self._hash = _fraction_hash(self.num, self.den)
        return self._hash

    def __str__(self):
        return _fraction_str(self.num, self.den)

    def __repr__(self):
        return f"RationalFunction({self})"

    def to_json(self):
        return _fraction_json(self.num, self.den)

    @classmethod
    def from_json(cls, data):
        return cls(LaurentPoly.from_json(data["num"]), LaurentPoly.from_json(data["den"]))


def _unit_sign(f):
    """1 or -1 when the fraction f equals +-1, else 0."""
    if len(f.num.terms) == 1 and len(f.den.terms) == 1:
        (e, c), = f.num.terms.items()
        if (c == 1 or c == -1) and not any(e) and f.den.terms.get(e) == 1:
            return c
    return 0


def _reduce_fraction(num, den):
    """Canonicalize a Laurent fraction; see RationalFunction docstring."""
    if len(den.terms) == 1:
        (exp, c), = den.terms.items()
        return _monomial_fraction(num.vars, num.terms, exp, c)
    if num.is_zero():
        return num, LaurentPoly.one(num.vars)
    mn, md = num.min_exponents(), den.min_exponents()
    shift = tuple(-min(a, b) for a, b in zip(mn, md))
    if any(shift):
        num = LaurentPoly._raw(num.vars, terms_mul_monomial(num.terms, shift, 1))
        den = LaurentPoly._raw(den.vars, terms_mul_monomial(den.terms, shift, 1))
    cn, cd = num.int_content(), den.int_content()
    cg = int_gcd(abs(cn), abs(cd))
    if cg > 1:
        num = LaurentPoly._raw(num.vars, {e: c // cg for e, c in num.terms.items()})
        den = LaurentPoly._raw(den.vars, {e: c // cg for e, c in den.terms.items()})
    g = poly_gcd(num, den)
    if not g.is_one():
        num = divexact(num, g)
        den = divexact(den, g)
    if den.lead_coeff() < 0:
        num, den = -num, -den
    return num, den
