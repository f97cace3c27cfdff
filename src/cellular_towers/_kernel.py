"""Term-map kernels for exact Laurent-polynomial arithmetic.

A term map is a dict sending exponent vectors (tuples of ints, possibly
negative) to nonzero Python ints.  These functions are the hot inner loop
of every algebra computation in the package.  Zero coefficients are never
stored, and no `terms_*` function mutates a map it is given: term maps
are shared.

Products build their exponent tuples directly for one and two variables
(Z[δ] and Q(q) have one, Q(q, z) has two); other arities add exponents
through `zip`.  A one-term operand is an injective shift, so its product
is a single comprehension with no cancellation test; a longer one adds
its terms' shifts of the other operand one by one.  `_add_shifted` adds
one such shift into a map in place; the solvers' accumulator
(`coeff._acc_submul`) sums every update s − a·b through it without
building a·b: the sparse saxpy of Monagan & Pearce, "Polynomial division
using dynamic arrays, heaps, and packed exponent vectors", CASC 2007.
"""

KERNEL = "python"


def terms_add(a, b):
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp, 0) + c
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return out


def terms_sub(a, b):
    out = dict(a)
    for exp, c in b.items():
        s = out.get(exp, 0) - c
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return out


def terms_neg(a):
    return {exp: -c for exp, c in a.items()}


def terms_scale(a, k):
    if k == 0:
        return {}
    if k == 1:
        return dict(a)
    return {exp: c * k for exp, c in a.items()}


def _shift(a, exp, k):
    """a * k*x^exp: exponents move injectively, so no term cancels."""
    n = len(exp)
    if n == 1:
        (e,) = exp
        return {(x + e,): c * k for (x,), c in a.items()}
    if n == 2:
        e0, e1 = exp
        return {(x0 + e0, x1 + e1): c * k for (x0, x1), c in a.items()}
    return {tuple(x + y for x, y in zip(e, exp)): c * k for e, c in a.items()}


def _add_shifted(out, b, exp, k):
    """Add k*x^exp·b into out, in place (out is the caller's own map)."""
    n = len(exp)
    if n == 1:
        (e,) = exp
        for (y,), cb in b.items():
            key = (y + e,)
            s = out.get(key, 0) + k * cb
            if s:
                out[key] = s
            else:
                del out[key]
    elif n == 2:
        e0, e1 = exp
        for (y0, y1), cb in b.items():
            key = (y0 + e0, y1 + e1)
            s = out.get(key, 0) + k * cb
            if s:
                out[key] = s
            else:
                del out[key]
    else:
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(exp, eb))
            s = out.get(key, 0) + k * cb
            if s:
                out[key] = s
            else:
                del out[key]


def terms_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        ((exp, k),) = a.items()
        return _shift(b, exp, k)
    out = {}
    for exp, k in a.items():
        _add_shifted(out, b, exp, k)
    return out


def terms_mul_monomial(a, exp, k):
    """a * k*x^exp; exp is an exponent tuple, k a nonzero int."""
    return _shift(a, exp, k)
