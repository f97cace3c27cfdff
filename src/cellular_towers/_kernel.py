"""Term-map kernels for exact Laurent-polynomial arithmetic.

A term map is a dict sending exponent vectors (tuples of ints, possibly
negative) to nonzero Python ints.  These functions are the hot inner loop
of every algebra computation in the package.  Zero coefficients are never
stored.
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


def terms_mul(a, b):
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            key = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(key, 0) + ca * cb
            if s:
                out[key] = s
            else:
                del out[key]
    return out


def terms_mul_monomial(a, exp, k):
    """a * k*x^exp; exp is an exponent tuple, k a nonzero int."""
    return {tuple(x + y for x, y in zip(e, exp)): c * k for e, c in a.items()}
