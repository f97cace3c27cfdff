"""Exact coefficient arithmetic.

Three types cover every algebra in the package:

* :class:`LaurentPoly` -- multivariate Laurent polynomials with arbitrary
  precision integer coefficients, in canonical form (no zero terms, fixed
  indeterminate order).
* :class:`LaurentFraction` -- L / c for a Laurent polynomial L and a
  positive integer c.  The Hecke and diagram towers live over Z[q, q⁻¹]
  and Z[δ], so nearly every value their solvers meet has this form; the
  type keeps it without a second polynomial and falls back to
  RationalFunction only when it inverts a non-monomial L.
* :class:`RationalFunction` -- reduced fractions of Laurent polynomials,
  normalized so equal values compare structurally equal.  It covers
  Q(q, z), where the BMW tower lives, and every value LaurentFraction
  cannot hold.

The indeterminates used in practice are q, z and δ, always in this order
when they appear together.  `delta_eliminate` is the quotient map onto
Q(q, z) that sends δ to (z⁻¹ − z)/(q⁻¹ − q) + 1.
"""

from __future__ import annotations

import json
from functools import cache, reduce
from math import gcd as int_gcd
from operator import add, sub

from ._kernel import (
    terms_add,
    terms_mul,
    terms_mul_monomial,
    terms_neg,
    terms_scale,
    terms_sub,
)
from .errors import CoefficientRingError, SpecializationError

Q = "q"
Z = "z"
DELTA = "δ"

#: canonical global ordering of the symbols (design decision: fixed order
#: makes term maps canonical, so structural equality works as an oracle)
SYMBOL_ORDER = (Q, Z, DELTA)

QV = (Q,)
DV = (DELTA,)
QZV = (Q, Z)
QZDV = (Q, Z, DELTA)


def ordered_vars(names):
    extra = [v for v in names if v not in SYMBOL_ORDER]
    return tuple(v for v in SYMBOL_ORDER if v in names) + tuple(sorted(extra))


class LaurentPoly:
    """A Laurent polynomial as a map exponent-vector -> integer coefficient."""

    __slots__ = ("vars", "terms", "_hash")

    def __init__(self, vars, terms=None):
        self.vars = tuple(vars)
        t = {}
        if terms:
            for exp, c in terms.items():
                if c:
                    e = tuple(exp)
                    if len(e) != len(self.vars):
                        raise CoefficientRingError(
                            f"exponent vector {e} does not match vars {self.vars}"
                        )
                    t[e] = t.get(e, 0) + c
                    if not t[e]:
                        del t[e]
        self.terms = t
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars):
        return cls(vars)

    @classmethod
    def one(cls, vars):
        return cls.const(vars, 1)

    @classmethod
    def const(cls, vars, k):
        vars = tuple(vars)
        if not k:
            return cls(vars)
        return cls(vars, {(0,) * len(vars): k})

    @classmethod
    def gen(cls, vars, name, power=1):
        """The monomial name**power."""
        vars = tuple(vars)
        if name not in vars:
            raise CoefficientRingError(f"{name!r} is not among vars {vars}")
        exp = tuple(power if v == name else 0 for v in vars)
        return cls(vars, {exp: 1})

    # -- ring structure ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentPoly):
            if other.vars != self.vars:
                raise CoefficientRingError(
                    f"mismatched indeterminates {self.vars} vs {other.vars}"
                )
            return other
        if isinstance(other, int):
            return LaurentPoly.const(self.vars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly._raw(self.vars, terms_add(self.terms, o.terms))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly._raw(self.vars, terms_sub(self.terms, o.terms))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return LaurentPoly._raw(self.vars, terms_sub(o.terms, self.terms))

    def __neg__(self):
        return LaurentPoly._raw(self.vars, terms_neg(self.terms))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(other, int):
            return LaurentPoly._raw(self.vars, terms_scale(self.terms, other))
        return LaurentPoly._raw(self.vars, terms_mul(self.terms, o.terms))

    __rmul__ = __mul__

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            u = self.as_unit()
            if u is None:
                raise CoefficientRingError(f"negative power of non-unit {self}")
            exp, c = u
            if c not in (1, -1):
                raise CoefficientRingError(f"negative power of non-unit {self}")
            # c is ±1, so c**(-k) is c for odd k and 1 for even k
            return LaurentPoly._raw(
                self.vars, {tuple(k * x for x in exp): c if k % 2 else 1}
            )
        out = LaurentPoly.one(self.vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    @classmethod
    def _raw(cls, vars, terms):
        self = object.__new__(cls)
        self.vars = vars
        self.terms = terms
        self._hash = None
        return self

    # -- predicates & inspection -------------------------------------------

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {(0,) * len(self.vars): 1}

    def as_unit(self):
        """Return (exp, coef) if this is a single monomial, else None."""
        if len(self.terms) != 1:
            return None
        return next(iter(self.terms.items()))

    def is_ordinary(self):
        return all(x >= 0 for exp in self.terms for x in exp)

    def min_exponents(self):
        n = len(self.vars)
        if not self.terms:
            return (0,) * n
        return tuple(min(exp[i] for exp in self.terms) for i in range(n))

    def max_exponents(self):
        n = len(self.vars)
        if not self.terms:
            return (0,) * n
        return tuple(max(exp[i] for exp in self.terms) for i in range(n))

    def int_content(self):
        """gcd of the integer coefficients, with the sign of the lex-leading one."""
        if not self.terms:
            return 0
        g = reduce(int_gcd, (abs(c) for c in self.terms.values()))
        return g if self.lead_coeff() > 0 else -g

    def lead_exp(self):
        return max(self.terms) if self.terms else None

    def lead_coeff(self):
        return self.terms[max(self.terms)] if self.terms else 0

    def extend_vars(self, vars):
        """Reinterpret over a larger variable tuple (must contain self.vars)."""
        vars = tuple(vars)
        if vars == self.vars:
            return self
        pos = []
        for v in self.vars:
            if v not in vars:
                raise CoefficientRingError(f"{v!r} missing from target vars {vars}")
            pos.append(vars.index(v))
        n = len(vars)
        terms = {}
        for exp, c in self.terms.items():
            e = [0] * n
            for p, x in zip(pos, exp):
                e[p] = x
            terms[tuple(e)] = c
        return LaurentPoly._raw(vars, terms)

    # -- comparisons, hashing, display -------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(self.vars, other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.vars, tuple(sorted(self.terms.items()))))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for exp in sorted(self.terms, reverse=True):
            c = self.terms[exp]
            mono = "*".join(
                f"{v}^{x}" if x != 1 else v for v, x in zip(self.vars, exp) if x
            )
            if mono:
                lead = {1: "", -1: "-"}.get(c, f"{c}*")
                bits.append(f"{lead}{mono}")
            else:
                bits.append(str(c))
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    def __repr__(self):
        return f"LaurentPoly({self})"

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "vars": list(self.vars),
            "terms": [
                {"exp": list(exp), "coef": str(self.terms[exp])}
                for exp in sorted(self.terms)
            ],
        }

    @classmethod
    def from_json(cls, data):
        vars = tuple(data["vars"])
        return cls(vars, {tuple(t["exp"]): int(t["coef"]) for t in data["terms"]})

    def dumps(self):
        return json.dumps(self.to_json(), ensure_ascii=False, sort_keys=True)


# ---------------------------------------------------------------------------
# polynomial gcd machinery (ordinary polynomials, integer coefficients)
# ---------------------------------------------------------------------------


def _to_univar(p, k):
    """View p as univariate in variable index k: dict degree -> LaurentPoly."""
    n = len(p.vars)
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
    rem = a
    quot = {}
    lb = b.lead_exp()
    cb = b.terms[lb]
    while rem.terms:
        la = rem.lead_exp()
        q, r = divmod(rem.terms[la], cb)
        e = tuple(x - y for x, y in zip(la, lb))
        if r:
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
        if len(self.den.terms) == 1 and len(o.den.terms) == 1:
            return _monomial_sum(self, o, terms_add)
        if self.den == o.den:
            return RationalFunction(self.num + o.num, self.den)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if len(self.den.terms) == 1 and len(o.den.terms) == 1:
            return _monomial_sum(self, o, terms_sub)
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
        if len(self.den.terms) == 1 and len(o.den.terms) == 1:
            # monomial denominators: no cross-reduction, one canonicalization
            (e1, c1), = self.den.terms.items()
            (e2, c2), = o.den.terms.items()
            return RationalFunction(
                *_monomial_fraction(
                    self.vars,
                    terms_mul(self.num.terms, o.num.terms),
                    tuple(map(add, e1, e2)),
                    c1 * c2,
                ),
                _reduced=True,
            )
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


def _fraction_hash(num, den):
    """The hash of a canonical fraction; an integer's own hash when it is one,
    since fractions compare equal to ints."""
    if den.is_one() and not any(e for t in num.terms for e in t):
        return hash(num.terms.get((0,) * len(num.vars), 0))
    return hash((num, den))


def _fraction_str(num, den):
    if den.is_one():
        return str(num)
    return f"({num})/({den})"


def _fraction_json(num, den):
    return {"num": num.to_json(), "den": den.to_json()}


def _monomial_fraction(vars, terms, exp, c):
    """Canonical (num, den) of terms / (c·x^exp).

    For a value L / c with L a Laurent polynomial and c a positive integer,
    the denominator is the monomial c·x^s with c coprime to the content of
    L and s minimal, i.e. s_i = max(0, -min_i L); the numerator is the
    ordinary polynomial L·x^s.  One pass finds the numerator's minimum
    exponents, an integer gcd is taken only when |c| > 1, and one new term
    map applies the exponent shift and the content division together.
    """
    if not terms:
        return LaurentPoly._raw(vars, {}), LaurentPoly.one(vars)
    lo = map(min, zip(*terms))
    # the denominator keeps x^s with s_i = max(0, exp_i - lo_i); the
    # numerator moves by s - exp
    shift = tuple(-min(e, m) for e, m in zip(exp, lo))
    g = int_gcd(c, *terms.values()) if c > 1 or c < -1 else 1
    if c < 0:
        g = -g
    den = LaurentPoly._raw(vars, {tuple(map(add, exp, shift)): c // g})
    # always a fresh map: a kernel result that had cancellations keeps an
    # oversized table, and canonical fractions are what the solvers store
    if any(shift):
        terms = {tuple(map(add, e, shift)): k // g for e, k in terms.items()}
    else:
        terms = {e: k // g for e, k in terms.items()}
    return LaurentPoly._raw(vars, terms), den


def _monomial_sum(a, b, combine):
    """a ± b for two canonical fractions with monomial denominators.

    `combine` is `terms_add` or `terms_sub`; it is applied over the least
    common monomial denominator.
    """
    (ea, ca), = a.den.terms.items()
    (eb, cb), = b.den.terms.items()
    exp = tuple(map(max, ea, eb))
    c = ca // int_gcd(ca, cb) * cb
    ta, tb = a.num.terms, b.num.terms
    if ea != exp or ca != c:
        ta = terms_mul_monomial(ta, tuple(map(sub, exp, ea)), c // ca)
    if eb != exp or cb != c:
        tb = terms_mul_monomial(tb, tuple(map(sub, exp, eb)), c // cb)
    return RationalFunction(
        *_monomial_fraction(a.vars, combine(ta, tb), exp, c), _reduced=True
    )


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


# ---------------------------------------------------------------------------
# Laurent polynomials over an integer
# ---------------------------------------------------------------------------


class LaurentFraction:
    """L / c: a Laurent polynomial L over a positive integer c.

    The Murphy-type bases live over Z[q, q⁻¹] and Z[δ] (Murphy 1995), and
    with the towers' pivot orders nearly every value their solvers touch
    has this form.  `terms` is L's term map, shared and never mutated; `c`
    is an int with c ≥ 1 and gcd(content(L), c) = 1, and zero is
    ({}, 1), so equal values are structurally equal.  Arithmetic calls the
    term-map kernel directly: an integer gcd is taken only when c > 1, no
    exponent shift is made, and a factor of ±1 costs no kernel call.

    Inverting ±k·x^e stays in the type; inverting any other L gives the
    RationalFunction c / L.  An operation with a RationalFunction operand
    returns NotImplemented, so RationalFunction computes it.  `num`, `den`,
    `str` and `to_json` are those of the equal RationalFunction, which also
    compares and hashes equal.
    """

    __slots__ = ("vars", "terms", "c")

    def __new__(cls, poly, c=1):
        """poly / c for a LaurentPoly and a nonzero int."""
        if not c:
            raise ZeroDivisionError("Laurent fraction with zero denominator")
        if c < 0:
            return _lf(poly.vars, terms_neg(poly.terms), -c)
        return _lf(poly.vars, poly.terms, c)

    @classmethod
    def of(cls, x, vars):
        """A tower coefficient as a field element over `vars`: a LaurentPoly
        (widened to `vars`) or an int becomes L / 1; a LaurentFraction or a
        RationalFunction is returned as it is."""
        if isinstance(x, LaurentPoly):
            if x.vars != vars:
                x = x.extend_vars(vars)
            return _lf_raw(vars, x.terms, 1)
        if isinstance(x, int):
            return _lf_raw(vars, {(0,) * len(vars): x} if x else {}, 1)
        return x

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentFraction):
            if other.vars != self.vars:
                raise CoefficientRingError(
                    f"mismatched indeterminates {self.vars} vs {other.vars}"
                )
            return other
        if isinstance(other, (LaurentPoly, int)):
            return LaurentFraction.of(other, self.vars)
        return None

    def __add__(self, other):
        o = other if other.__class__ is LaurentFraction else self._coerce(other)
        if o is None:
            return NotImplemented
        return _lf_sum(self, o, terms_add)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is LaurentFraction else self._coerce(other)
        if o is None:
            return NotImplemented
        return _lf_sum(self, o, terms_sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _lf_sum(o, self, terms_sub)

    def __neg__(self):
        return _lf_raw(self.vars, terms_neg(self.terms), self.c)

    def __mul__(self, other):
        o = other if other.__class__ is LaurentFraction else self._coerce(other)
        if o is None:
            return NotImplemented
        if o.vars != self.vars:
            raise CoefficientRingError(f"mismatched indeterminates {self.vars} vs {o.vars}")
        if not self.terms or not o.terms:
            return _lf_raw(self.vars, {}, 1)
        # a factor of +-1 needs no arithmetic (the other is already canonical)
        u = _lf_sign(o)
        if u:
            return self if u > 0 else -self
        u = _lf_sign(self)
        if u:
            return o if u > 0 else -o
        return _lf(self.vars, terms_mul(self.terms, o.terms), self.c * o.c)

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

    def inverse(self):
        terms = self.terms
        if len(terms) == 1:
            # c / (k x^e) = (±c x^-e) / |k|, already coprime
            (e, k), = terms.items()
            e = tuple(-x for x in e)
            return _lf_raw(self.vars, {e: self.c if k > 0 else -self.c}, abs(k))
        if not terms:
            raise ZeroDivisionError("inverse of zero")
        return RationalFunction(
            LaurentPoly.const(self.vars, self.c), LaurentPoly._raw(self.vars, terms)
        )

    def __bool__(self):
        return bool(self.terms)

    # -- comparisons, hashing, display ----------------------------------------

    def __eq__(self, other):
        if other.__class__ is LaurentFraction:
            return (
                self.c == other.c and self.terms == other.terms and self.vars == other.vars
            )
        if isinstance(other, RationalFunction):
            return other == self
        try:
            o = self._coerce(other)
        except CoefficientRingError:
            return False
        if o is None:
            return NotImplemented
        return self == o

    def __hash__(self):
        return _fraction_hash(*self._num_den())

    def _num_den(self):
        """The canonical (num, den) of the equal RationalFunction."""
        return _monomial_fraction(self.vars, self.terms, (0,) * len(self.vars), self.c)

    @property
    def num(self):
        return self._num_den()[0]

    @property
    def den(self):
        return self._num_den()[1]

    def __str__(self):
        return _fraction_str(*self._num_den())

    def __repr__(self):
        return f"LaurentFraction({self})"

    def to_json(self):
        return _fraction_json(*self._num_den())


_new = object.__new__


def _lf_raw(vars, terms, c):
    """A LaurentFraction from parts already in canonical form."""
    x = _new(LaurentFraction)
    x.vars = vars
    x.terms = terms
    x.c = c
    return x


def _lf(vars, terms, c):
    """terms / c for c ≥ 1, content and denominator made coprime."""
    if c > 1:
        if not terms:
            c = 1
        else:
            g = int_gcd(c, *terms.values())
            if g > 1:
                c //= g
                terms = {e: k // g for e, k in terms.items()}
    return _lf_raw(vars, terms, c)


def _lf_sign(x):
    """1 or -1 when the LaurentFraction x equals +-1, else 0."""
    if x.c == 1 and len(x.terms) == 1:
        (e, k), = x.terms.items()
        if (k == 1 or k == -1) and not any(e):
            return k
    return 0


def _lf_sum(a, b, combine):
    """a ± b over the least common denominator; `combine` is `terms_add` or
    `terms_sub`."""
    if a.vars != b.vars:
        raise CoefficientRingError(f"mismatched indeterminates {a.vars} vs {b.vars}")
    ta, tb = a.terms, b.terms
    if not tb:
        return a
    if not ta:
        return b if combine is terms_add else -b
    ca, cb = a.c, b.c
    c = ca
    if ca != cb:
        c = ca // int_gcd(ca, cb) * cb
        if ca != c:
            ta = terms_scale(ta, c // ca)
        if cb != c:
            tb = terms_scale(tb, c // cb)
    return _lf(a.vars, combine(ta, tb), c)


# ---------------------------------------------------------------------------
# specialization
# ---------------------------------------------------------------------------


def specialize(p, assignment, target_vars=None):
    """Substitute RationalFunction values for some indeterminates of p.

    `assignment` maps symbol names to RationalFunction (or LaurentPoly/int)
    values over a common target variable tuple; unassigned symbols are
    retained and must appear among the target variables.  Substitution is a
    ring homomorphism; a zero denominator raises SpecializationError.
    """
    if isinstance(p, LaurentFraction):
        p = RationalFunction(*p._num_den(), _reduced=True)
    if isinstance(p, RationalFunction):
        den = specialize(p.den, assignment, target_vars)
        if den.is_zero():
            raise SpecializationError(f"denominator {p.den} vanishes under {assignment}")
        return specialize(p.num, assignment, target_vars) / den
    if target_vars is None:
        names = set()
        for v in assignment.values():
            if isinstance(v, (LaurentPoly, RationalFunction)):
                names.update(v.vars)
        names.update(v for v in p.vars if v not in assignment)
        target_vars = ordered_vars(names)
    target_vars = tuple(target_vars)
    values = []
    for v in p.vars:
        if v in assignment:
            val = assignment[v]
            if isinstance(val, int):
                val = RationalFunction.const(target_vars, val)
            elif isinstance(val, LaurentPoly):
                val = RationalFunction.from_poly(val.extend_vars(target_vars))
            elif val.vars != target_vars:
                raise CoefficientRingError(
                    f"assignment for {v} is over {val.vars}, expected {target_vars}"
                )
        else:
            if v not in target_vars:
                raise CoefficientRingError(f"retained symbol {v} missing from target")
            val = RationalFunction.gen(target_vars, v)
        values.append(val)
    out = RationalFunction.zero(target_vars)
    for exp, c in p.terms.items():
        term = RationalFunction.const(target_vars, c)
        for val, x in zip(values, exp):
            if x:
                if x < 0 and val.is_zero():
                    raise SpecializationError("negative power of zero under specialization")
                term = term * val ** x
        out = out + term
    return out


@cache
def delta_as_qz():
    """δ's image (z⁻¹ − z)/(q⁻¹ − q) + 1 in Q(q, z); built once, shared."""
    zi = LaurentPoly.gen(QZV, Z, -1) - LaurentPoly.gen(QZV, Z)
    qi = LaurentPoly.gen(QZV, Q, -1) - LaurentPoly.gen(QZV, Q)
    return RationalFunction(zi, qi) + RationalFunction.one(QZV)


def delta_eliminate(p):
    """Image of p (over any subset of {q, z, δ}) in Q(q, z) with δ eliminated."""
    if isinstance(p, RationalFunction):
        den = delta_eliminate(p.den)
        if den.is_zero():
            raise SpecializationError("denominator vanishes under delta elimination")
        return delta_eliminate(p.num) / den
    if DELTA not in p.vars:
        return specialize(p, {}, QZV)
    return specialize(p, {DELTA: delta_as_qz()}, QZV)
