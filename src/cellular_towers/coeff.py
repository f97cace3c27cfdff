"""Exact coefficient arithmetic.

Two types cover every value the towers meet:

* :class:`LaurentPoly` -- multivariate Laurent polynomials with arbitrary
  precision integer coefficients, in canonical form (no zero terms, fixed
  indeterminate order).
* :class:`LaurentFraction` -- L / (c · (q² − 1)^k) for a Laurent
  polynomial L, a positive integer c and k ≥ 0.  The Hecke and diagram
  towers live over Z[q, q⁻¹] and Z[δ], so nearly every value their solvers
  meet has the form L / c (k = 0); the BMW tower, over Q(q, z) with δ
  eliminated, needs the powers of q² − 1 as well.  The type keeps these
  values without a second polynomial or a gcd.

The fallback field, `ratfunc.RationalFunction` (reduced fractions with
their polynomial gcd), lives in its own module, which only
`LaurentFraction.inverse` imports: when it inverts an L that is not a
monomial times powers of q − 1 and q + 1, as a pivot of a non-integral
basis or a negative power of δ in `delta_eliminate` does.  A process that
never leaves LaurentFraction's ring never loads it.

The indeterminates used in practice are q, z and δ, always in this order
when they appear together.  `delta_eliminate` is the quotient map onto
Q(q, z) that sends δ to (z⁻¹ − z)/(q⁻¹ − q) + 1 = (q·z − q·z⁻¹ + q² − 1)/(q² − 1);
`delta_restore` reads its image back at q = z = 1, with δ free, in Z[δ].
"""

from __future__ import annotations

import json
from functools import cache, reduce
from math import factorial, gcd as int_gcd
from operator import add

from ._kernel import (
    _add_shifted,
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

QV = (Q,)
DV = (DELTA,)
QZV = (Q, Z)
QZDV = (Q, Z, DELTA)


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
        # equal to an int, a LaurentFraction and a RationalFunction of the
        # same value, so it hashes as the fraction it equals
        if self._hash is None:
            zero = (0,) * len(self.vars)
            self._hash = _fraction_hash(*_monomial_fraction(self.vars, self.terms, zero, 1))
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
# canonical fractions, shared with ratfunc.RationalFunction
# ---------------------------------------------------------------------------


def _fraction_hash(num, den):
    """The hash of a canonical fraction; an integer's own hash when it is one,
    since fractions compare equal to ints.  It reads the term maps, so
    LaurentPoly can hash through it."""
    if den.is_one() and not any(e for t in num.terms for e in t):
        return hash(num.terms.get((0,) * len(num.vars), 0))
    return hash((num.vars, frozenset(num.terms.items()), frozenset(den.terms.items())))


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


# ---------------------------------------------------------------------------
# Laurent polynomials over an integer and a power of q² − 1
# ---------------------------------------------------------------------------


class LaurentFraction:
    """L / (c · (q² − 1)^k): a Laurent polynomial L over a positive integer c
    and a power of q² − 1.

    The Murphy-type bases live over Z[q, q⁻¹] and Z[δ] (Murphy 1995), and
    with the towers' pivot orders nearly every value their solvers touch
    has the form L / c, with k = 0.  The BMW tower lives over Q(q, z) with δ
    eliminated; δ's image has the denominator q² − 1 (`delta_as_qz`), and
    through rank 5, with the solvers pivoting on values that invert in the
    type (`inverts_in_type`), every value it meets lies in
    Z[q^±1, z^±1][1/(q² − 1)] ⊗ Q.

    `terms` is L's term map, shared and never mutated; `c` is an int with
    c ≥ 1 and gcd(content(L), c) = 1; `k` ≥ 0 is minimal, i.e. q² − 1 does
    not divide L when k > 0, and k > 0 only when q is among the variables.
    Zero is ({}, 1, 0), so equal values are structurally equal.  Arithmetic
    calls the term-map kernel directly: an integer gcd is taken only when
    c > 1, no exponent shift is made, a factor of ±1 costs no kernel call,
    and q² − 1 is divided out exactly (L vanishing at q = ±1 in every
    column of the other variables, then synthetic division), never through
    a polynomial gcd.  The solvers sum their updates s − a·b into an
    accumulator (`_acc_submul`) that keeps L and the denominator apart and
    normalizes once, with the same result.

    Inverting L stays in the type when L is a monomial times
    (q − 1)^a (q + 1)^b, since 1/(q ∓ 1) = (q ± 1)/(q² − 1); inverting any
    other L gives the RationalFunction c·(q² − 1)^k / L, the one way into
    the fallback field, whose module `ratfunc` is imported only there.  An
    operation with a RationalFunction operand, comparison included,
    returns NotImplemented, so RationalFunction computes it.  `num`, `den`,
    `str` and `to_json` are those of the equal RationalFunction, which
    also compares and hashes equal.
    """

    __slots__ = ("vars", "terms", "c", "k")

    def __new__(cls, poly, c=1, k=0):
        """poly / (c · (q² − 1)^k) for a LaurentPoly, a nonzero int and an
        int k ≥ 0 (k > 0 needs q among poly's variables)."""
        if not c:
            raise ZeroDivisionError("Laurent fraction with zero denominator")
        if k < 0 or (k and Q not in poly.vars):
            raise CoefficientRingError(f"no denominator (q² − 1)^{k} over {poly.vars}")
        if c < 0:
            return _lf(poly.vars, terms_neg(poly.terms), -c, k)
        return _lf(poly.vars, poly.terms, c, k)

    @classmethod
    def of(cls, x, vars):
        """A tower coefficient as a field element over `vars`: a LaurentPoly
        (widened to `vars`) or an int becomes L / 1; a LaurentFraction or a
        RationalFunction is returned as it is."""
        if isinstance(x, LaurentPoly):
            if x.vars != vars:
                x = x.extend_vars(vars)
            return _lf_raw(vars, x.terms, 1, 0)
        if isinstance(x, int):
            return _lf_raw(vars, {(0,) * len(vars): x} if x else {}, 1, 0)
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
        return _lf_raw(self.vars, terms_neg(self.terms), self.c, self.k)

    def __mul__(self, other):
        o = other if other.__class__ is LaurentFraction else self._coerce(other)
        if o is None:
            return NotImplemented
        if o.vars != self.vars:
            raise CoefficientRingError(f"mismatched indeterminates {self.vars} vs {o.vars}")
        if not self.terms or not o.terms:
            return _lf_raw(self.vars, {}, 1, 0)
        # a factor of +-1 needs no arithmetic (the other is already canonical)
        u = _lf_sign(o)
        if u:
            return self if u > 0 else -self
        u = _lf_sign(self)
        if u:
            return o if u > 0 else -o
        return _lf(
            self.vars, terms_mul(self.terms, o.terms), self.c * o.c, self.k + o.k
        )

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
        terms, vars, c, k = self.terms, self.vars, self.c, self.k
        if len(terms) == 1 and not k:
            # c / (m x^e) = (±c x^-e) / |m|, already coprime
            (e, m), = terms.items()
            e = tuple(-x for x in e)
            return _lf_raw(vars, {e: c if m > 0 else -c}, abs(m), 0)
        if not terms:
            raise ZeroDivisionError("inverse of zero")
        if Q not in vars:
            from .ratfunc import RationalFunction

            return RationalFunction(LaurentPoly.const(vars, c), LaurentPoly._raw(vars, terms))
        # L = m x^e (q − 1)^a (q + 1)^b inverts to
        # (±c x^-e (q − 1)^b (q + 1)^a (q² − 1)^k) / (|m| (q² − 1)^(a + b))
        rest, a, b = _split_q_pm1(terms, vars.index(Q))
        factor = _q_factor(vars, k, k)
        if len(rest) == 1:
            (e, m), = rest.items()
            e = tuple(-x for x in e)
            num = terms_mul_monomial(
                terms_mul(factor, _q_factor(vars, b, a)), e, c if m > 0 else -c
            )
            return _lf(vars, num, abs(m), a + b)
        from .ratfunc import RationalFunction

        return RationalFunction(
            LaurentPoly._raw(vars, terms_scale(factor, c)), LaurentPoly._raw(vars, terms)
        )

    def __pow__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inverse() ** (-k)
        out = _lf_raw(self.vars, {(0,) * len(self.vars): 1}, 1, 0)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return _lf_sign(self) == 1

    def __bool__(self):
        return bool(self.terms)

    # -- comparisons, hashing, display ----------------------------------------

    def __eq__(self, other):
        if other.__class__ is LaurentFraction:
            return (
                self.c == other.c
                and self.k == other.k
                and self.terms == other.terms
                and self.vars == other.vars
            )
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
        vars, terms, k = self.vars, self.terms, self.k
        zero = (0,) * len(vars)
        if not k:
            return _monomial_fraction(vars, terms, zero, self.c)
        # cancel the factors q − 1 and q + 1 that L shares with (q² − 1)^k
        qi = vars.index(Q)
        i = j = k
        while i and _q_roots(terms, qi)[0]:
            terms, i = _divide_q(terms, qi, 1, 1), i - 1
        while j and _q_roots(terms, qi)[1]:
            terms, j = _divide_q(terms, qi, 1, -1), j - 1
        num, den = _monomial_fraction(vars, terms, zero, self.c)
        (s, c), = den.terms.items()
        return num, LaurentPoly._raw(vars, terms_mul_monomial(_q_factor(vars, i, j), s, c))

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


def _lf_raw(vars, terms, c, k):
    """A LaurentFraction from parts already in canonical form."""
    x = _new(LaurentFraction)
    x.vars = vars
    x.terms = terms
    x.c = c
    x.k = k
    return x


def _lf(vars, terms, c, k):
    """terms / (c·(q² − 1)^k) for c ≥ 1 and k ≥ 0, with q² − 1 divided out
    while it divides and the content made coprime to c."""
    if k:
        if not terms:
            k = 0
        else:
            qi = vars.index(Q)
            while k and all(_q_roots(terms, qi)):
                terms, k = _divide_q(terms, qi, 2, 1), k - 1
    if c > 1:
        if not terms:
            c = 1
        else:
            g = int_gcd(c, *terms.values())
            if g > 1:
                c //= g
                terms = {e: x // g for e, x in terms.items()}
    return _lf_raw(vars, terms, c, k)


def _lf_sign(x):
    """1 or -1 when the LaurentFraction x equals +-1, else 0."""
    if x.c == 1 and len(x.terms) == 1 and not x.k:
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
    k = a.k
    if k != b.k:
        # over the larger power of q² − 1
        if k < b.k:
            ta = terms_mul(ta, _q_factor(a.vars, b.k - k, b.k - k))
            k = b.k
        else:
            tb = terms_mul(tb, _q_factor(a.vars, k - b.k, k - b.k))
    return _lf(a.vars, combine(ta, tb), c, k)


class _Acc:
    """A LaurentFraction being summed in place: `terms` / (c·(q² − 1)^k)
    with no normal form kept between updates.  The accumulator owns
    `terms` and mutates it; it is true while `terms` is nonempty, so it
    tests for zero like a field value."""

    __slots__ = ("vars", "terms", "c", "k")

    def __bool__(self):
        return bool(self.terms)


def _acc_submul(s, a, b):
    """s − a·b as a working value, s None meaning 0: the update of every
    solver step.

    When a and b are LaurentFractions or accumulators (a factor is only
    read) and s is None, a LaurentFraction or an accumulator, the result is
    an accumulator: s itself, updated in place, or a new one that copies
    s's terms.  The accumulator moves to the least common integer and the
    larger power of q² − 1 of itself and a·b, then each term of the smaller
    factor adds its shift of the other into the numerator through
    `_add_shifted` (Monagan & Pearce, CASC 2007); a·b is never built and
    nothing is normalized.  Any other operand (a RationalFunction) makes the
    result the field value `s - a * b`.  s must not be one of the factors.
    """
    ca, cb, cs = a.__class__, b.__class__, s.__class__
    if not (
        (ca is LaurentFraction or ca is _Acc)
        and (cb is LaurentFraction or cb is _Acc)
        and (cs is _Acc or cs is LaurentFraction or s is None)
    ):
        s, a, b = _acc_value(s), _acc_peek(a), _acc_peek(b)
        return -(a * b) if s is None else s - a * b
    vars = a.vars
    if b.vars != vars or (s is not None and s.vars != vars):
        raise CoefficientRingError(f"mismatched indeterminates {a.vars} vs {b.vars}")
    ta, tb = a.terms, b.terms
    c, k = a.c * b.c, a.k + b.k
    if cs is _Acc:
        acc = s
        if not acc.terms:
            # an empty accumulator takes a·b's denominator
            acc.c, acc.k = c, k
    else:
        acc = _new(_Acc)
        acc.vars = vars
        if s is None or not s.terms:
            acc.terms, acc.c, acc.k = {}, c, k
        elif not ta or not tb:
            return s
        else:
            acc.terms, acc.c, acc.k = dict(s.terms), s.c, s.k
    if not ta or not tb:
        return acc
    if len(ta) > len(tb):
        ta, tb = tb, ta
    m = -1  # a·b's numerator enters times m
    d = acc.c
    if d != c:
        lcm = d // int_gcd(d, c) * c
        if d != lcm:
            f = lcm // d
            terms = acc.terms
            for e in terms:
                terms[e] *= f
            acc.c = lcm
        m = -(lcm // c)
    if acc.k != k:
        # over the larger power of q² − 1
        d = acc.k - k
        if d < 0:
            acc.terms = terms_mul(acc.terms, _q_factor(vars, -d, -d))
            acc.k = k
        else:
            ta = terms_mul(ta, _q_factor(vars, d, d))
    terms = acc.terms
    for e, x in ta.items():
        _add_shifted(terms, tb, e, m * x)
    return acc


def _acc_value(s):
    """The field value of a working value, normalized once by `_lf` when it
    is an accumulator, which is spent; any other value as it is."""
    if s.__class__ is _Acc:
        return _lf(s.vars, s.terms, s.c, s.k)
    return s


def _acc_peek(s):
    """`_acc_value` for an accumulator that stays in use."""
    if s.__class__ is _Acc:
        return _lf(s.vars, dict(s.terms), s.c, s.k)
    return s


def inverts_in_type(x):
    """Whether x.inverse() has x's own type: for a nonzero LaurentFraction,
    whether L is a monomial times (q − 1)^a (q + 1)^b, the test `inverse`
    makes, without building the RationalFunction it would return
    otherwise; zero does not invert, and any other value passes."""
    if x.__class__ is not LaurentFraction:
        return True
    terms = x.terms
    if len(terms) == 1:
        return True
    if not terms or Q not in x.vars:
        return False
    return len(_split_q_pm1(terms, x.vars.index(Q))[0]) == 1


def _split_q_pm1(terms, qi):
    """(rest, a, b) with terms = rest · (q − 1)^a (q + 1)^b, q being
    variable qi, dividing while rest has more than one term and vanishes
    at q = 1 or q = −1."""
    rest, a, b = terms, 0, 0
    while len(rest) > 1:
        at_one, at_minus_one = _q_roots(rest, qi)
        if at_one:
            rest, a = _divide_q(rest, qi, 1, 1), a + 1
        elif at_minus_one:
            rest, b = _divide_q(rest, qi, 1, -1), b + 1
        else:
            break
    return rest, a, b


def _q_roots(terms, qi):
    """Whether a term map vanishes at q = 1 and at q = -1, q being variable
    qi: every column of the other variables must sum to zero."""
    at_one, at_minus_one = {}, {}
    for e, c in terms.items():
        r = e[:qi] + e[qi + 1 :]
        at_one[r] = at_one.get(r, 0) + c
        at_minus_one[r] = at_minus_one.get(r, 0) + (-c if e[qi] & 1 else c)
    return not any(at_one.values()), not any(at_minus_one.values())


def _divide_q(terms, qi, t, s):
    """terms / (q^t − s) by synthetic division in each column of the other
    variables, q being variable qi; the division must be exact.

    From (q^t − s)·Q = P, the coefficients satisfy Q_(d−t) = P_d + s·Q_d,
    computed from the top degree down."""
    cols = {}
    for e, c in terms.items():
        cols.setdefault(e[:qi] + e[qi + 1 :], {})[e[qi]] = c
    out = {}
    for r, col in cols.items():
        lo = min(col)
        quot = {}
        for d in range(max(col), lo - 1, -1):
            x = col.get(d, 0) + s * quot.get(d, 0)
            if d < lo + t:
                if x:
                    raise CoefficientRingError(f"q^{t} - {s} does not divide the terms")
            elif x:
                quot[d - t] = x
        for d, x in quot.items():
            out[r[:qi] + (d,) + r[qi:]] = x
    return out


@cache
def _q_factor(vars, i, j):
    """(q − 1)^i (q + 1)^j as a term map over vars; shared, never mutated."""
    n = len(vars)
    qi = vars.index(Q)
    one = (0,) * n
    q = tuple(int(m == qi) for m in range(n))
    out = {one: 1}
    for s, times in ((-1, i), (1, j)):
        for _ in range(times):
            out = terms_mul(out, {q: 1, one: s})
    return out


# ---------------------------------------------------------------------------
# δ-elimination and its inverse at q = z = 1
# ---------------------------------------------------------------------------


@cache
def delta_as_qz():
    """δ's image (z⁻¹ − z)/(q⁻¹ − q) + 1 = (q·z − q·z⁻¹ + q² − 1)/(q² − 1)
    in Q(q, z), a LaurentFraction with k = 1; built once, shared."""
    return LaurentFraction(
        LaurentPoly(QZV, {(1, 1): 1, (1, -1): -1, (2, 0): 1, (0, 0): -1}), 1, 1
    )


@cache
def _delta_inverse():
    """δ⁻¹ in Q(q, z), the RationalFunction (q² − 1)/(q·z − q·z⁻¹ + q² − 1);
    its gcd is taken once, shared."""
    return delta_as_qz().inverse()


def delta_eliminate(p):
    """Image of the Laurent polynomial p (over any subset of {q, z, δ}) in
    Q(q, z) with δ eliminated.

    With δ = L_δ / (q² − 1), p = Σ_d P_d δ^d, m its top power of δ and lo
    its lowest, or 0 if none is negative, δ^(−lo)·p maps to
    Σ_d P_d L_δ^(d − lo) (q² − 1)^(m − d) / (q² − 1)^(m − lo) in the
    LaurentFraction ring, summed by Horner's rule.  δ is not a unit of R,
    so a negative lo leaves the ring: the sum is multiplied by δ⁻¹, the
    RationalFunction that `LaurentFraction.inverse` gives (built once), to
    the power −lo.
    """
    if DELTA not in p.vars:
        return LaurentFraction.of(p, QZV)
    p = p.extend_vars(QZDV)
    parts = {}  # power of δ -> term map over (q, z)
    for e, c in p.terms.items():
        parts.setdefault(e[2], {})[e[:2]] = c
    if not parts:
        return _lf_raw(QZV, {}, 1, 0)
    lo, m = min(min(parts), 0), max(parts)
    lifted = delta_as_qz().terms
    acc = parts[m]
    for d in range(m - 1, lo - 1, -1):
        acc = terms_mul(acc, lifted)
        if d in parts:
            acc = terms_add(acc, terms_mul(parts[d], _q_factor(QZV, m - d, m - d)))
    x = _lf(QZV, acc, 1, m - lo)
    return x * _delta_inverse() ** -lo if lo else x


def delta_restore(x):
    """The value at q = z = 1, in Z[δ], of the element of
    R = Z[q^±1, z^±1, δ] / ((δ − 1)(q² − 1) − q(z − z⁻¹)) that
    `delta_eliminate` sends to the LaurentFraction x over (q, z).

    Along z = q^a, δ's image tends to a + 1 as q → 1, so for
    x = Σ_e l_e q^e_q z^e_z / (c·(q² − 1)^k) the value at δ is the limit of
    x there: the k-th Taylor coefficient at q = 1 of the numerator over
    c·2^k, Σ_e l_e·binom(e_q + (δ − 1)·e_z, k) / (c·2^k).  The j-th sums
    for j < k must vanish identically in δ.  Each sum is taken times j!, as
    falling factorials in δ, so the only division is the exact one by
    k!·c·2^k.  Raises SpecializationError when x is not such a
    LaurentFraction, when a lower sum does not vanish (a pole) or when the
    division is inexact: x then lies outside R.
    """
    if x.__class__ is not LaurentFraction or x.vars != QZV:
        raise SpecializationError(f"{x} is not the image of an element of R")
    k = x.k
    sums = [[0] * (j + 1) for j in range(k + 1)]  # j!·(j-th sum), δ^0 first
    for (eq, ez), l in x.terms.items():
        # ff = l·m(m − 1)…(m − j + 1) for m = e_q − e_z + e_z·δ
        ff = [l]
        for j, s in enumerate(sums):
            for i, c in enumerate(ff):
                s[i] += c
            b = eq - ez - j
            ff = [b * c + ez * d for c, d in zip(ff + [0], [0] + ff)]
    if any(any(s) for s in sums[:-1]):
        raise SpecializationError(f"{x} has a pole at q = z = 1")
    den = factorial(k) * x.c << k
    if any(c % den for c in sums[k]):
        raise SpecializationError(f"{x} does not specialize into Z[δ]")
    return LaurentPoly(DV, {(i,): c // den for i, c in enumerate(sums[k]) if c})
