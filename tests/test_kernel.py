"""The term-map kernels against naive references written here.

Each reference sums coefficients exponent by exponent in a fresh dict and
drops zeros at the end, the plainest reading of Laurent-polynomial
arithmetic.  Inputs have one, two or three variables and negative
exponents, and some are built to cancel to zero.  Every kernel must store
no zero coefficient and leave its inputs as they were: term maps are
shared between values; only `_add_shifted` adds into a map, the one it
is given to fill.
"""

from copy import deepcopy

from hypothesis import given, settings, strategies as st

from cellular_towers._kernel import (
    _add_shifted,
    terms_add,
    terms_mul,
    terms_mul_monomial,
    terms_neg,
    terms_scale,
    terms_sub,
)


def term_maps(n, max_size=6):
    exps = st.tuples(*(st.integers(-3, 3) for _ in range(n)))
    return st.dictionaries(exps, st.integers(-5, 5).filter(bool), max_size=max_size)


def arity_and_maps(count):
    """An arity from 1 to 3 and `count` term maps over it."""
    return st.integers(1, 3).flatmap(lambda n: st.tuples(st.just(n), *(term_maps(n) for _ in range(count))))


def clean(acc):
    return {e: c for e, c in acc.items() if c}


def ref_lin(a, b, k):
    """a + k*b."""
    acc = dict(a)
    for e, c in b.items():
        acc[e] = acc.get(e, 0) + k * c
    return clean(acc)


def ref_mul(a, b):
    acc = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            acc[e] = acc.get(e, 0) + ca * cb
    return clean(acc)


def terms_submul(acc, a, b):
    """acc − a·b summed into a copy of acc by `_add_shifted`, one shift per
    term of a, as the solvers' accumulator does in place."""
    out = dict(acc)
    for exp, k in a.items():
        _add_shifted(out, b, exp, -k)
    return out


def checked(fn, *maps_and_args):
    """fn's result, asserting it stores no zero and mutates no argument."""
    before = deepcopy(maps_and_args)
    out = fn(*maps_and_args)
    assert maps_and_args == before
    assert all(out.values())
    assert all(out is not m for m in maps_and_args)
    return out


@settings(max_examples=200, deadline=None)
@given(arity_and_maps(3), st.integers(-4, 4))
def test_kernels_match_reference(maps, k):
    _, a, b, acc = maps
    assert checked(terms_add, a, b) == ref_lin(a, b, 1)
    assert checked(terms_sub, a, b) == ref_lin(a, b, -1)
    assert checked(terms_neg, a) == ref_lin({}, a, -1)
    assert checked(terms_scale, a, k) == ref_lin({}, a, k)
    assert checked(terms_mul, a, b) == ref_mul(a, b)
    assert checked(terms_submul, acc, a, b) == ref_lin(acc, ref_mul(a, b), -1)


@settings(max_examples=200, deadline=None)
@given(arity_and_maps(2), st.data())
def test_monomial_operands_match_reference(maps, data):
    """One-term operands take the shift path, on either side and with an
    empty or a nonempty accumulator."""
    n, a, acc = maps
    exp = data.draw(st.tuples(*(st.integers(-3, 3) for _ in range(n))))
    k = data.draw(st.integers(-5, 5).filter(bool))
    mono = {exp: k}
    assert checked(terms_mul_monomial, a, exp, k) == ref_mul(a, mono)
    assert checked(terms_mul, mono, a) == ref_mul(mono, a)
    assert checked(terms_mul, a, mono) == ref_mul(a, mono)
    for start in (acc, {}):
        assert checked(terms_submul, start, mono, a) == ref_lin(start, ref_mul(mono, a), -1)
        assert checked(terms_submul, start, a, mono) == ref_lin(start, ref_mul(a, mono), -1)


@settings(max_examples=100, deadline=None)
@given(arity_and_maps(3))
def test_cancellation_to_zero(maps):
    _, a, b, c = maps
    assert checked(terms_sub, a, a) == {}
    assert checked(terms_add, a, terms_neg(a)) == {}
    assert checked(terms_submul, terms_mul(a, b), a, b) == {}
    assert checked(terms_submul, terms_mul(b, a), a, b) == {}
    # (a + c)(a − c) − a² + c² vanishes, with cancellation inside the product
    diff = checked(terms_mul, terms_add(a, c), terms_sub(a, c))
    assert checked(terms_submul, checked(terms_submul, diff, a, a), terms_neg(c), c) == {}
