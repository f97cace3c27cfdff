"""Sparse exact linear algebra over a fraction field.

Vectors are dicts mapping hashable keys to field elements (anything with
+, -, *, /, inverse and truthiness, e.g. RationalFunction).  SpanSolver
tracks a row space incrementally and can express later vectors as
combinations of the inserted generators -- the single reduction path used
for every "rank certificate" in the package.
"""

from .errors import InternalInvariantError


def vec_sub_scaled(a, b, f):
    """a - f*b."""
    out = dict(a)
    for k, c in b.items():
        s = out.get(k)
        t = c * f
        s = -t if s is None else s - t
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def vec_scale(a, f):
    if not f:
        return {}
    return {k: c * f for k, c in a.items()}


class SpanSolver:
    """Incremental row space with coordinate recovery.

    insert(vec) returns ("new", pivot_index) when vec enlarges the span or
    ("dep", coords) when it is a combination of previously *inserted*
    vectors; express(vec) answers the same question without inserting.
    """

    def __init__(self, pivot_key=None):
        self.pivots = []  # (key, reduced row, expression over inserted vectors)
        self.by_key = {}
        self.n_inserted = 0
        self.pivot_key = pivot_key  # optional sort key; low values picked first

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, vec):
        combo = {}
        vec = dict(vec)
        while vec:
            hit = None
            for k in vec:
                if k in self.by_key:
                    hit = k
                    break
            if hit is None:
                break
            row, expr = self.by_key[hit]
            f = vec[hit]
            vec = vec_sub_scaled(vec, row, f)
            for i, c in expr.items():
                s = combo.get(i)
                s = c * f if s is None else s + c * f
                if s:
                    combo[i] = s
                else:
                    combo.pop(i, None)
        return vec, combo

    def insert(self, vec):
        residual, combo = self._reduce(vec)
        idx = self.n_inserted
        self.n_inserted += 1
        if not residual:
            return "dep", combo
        if self.pivot_key is not None:
            pivot = min(residual, key=self.pivot_key)
        else:
            pivot = next(iter(residual))
        f = residual[pivot]
        inv = f.inverse()
        row = vec_scale(residual, inv)
        expr = {i: -c * inv for i, c in combo.items()}
        expr[idx] = inv
        # keep stored rows fully reduced against the new pivot
        for k, (r, e) in list(self.by_key.items()):
            if pivot in r:
                g = r[pivot]
                self.by_key[k] = (vec_sub_scaled(r, row, g), _expr_sub(e, expr, g))
        self.by_key[pivot] = (row, expr)
        self.pivots.append((pivot, f))
        return "new", idx

    def express(self, vec):
        """Coordinates of vec over the inserted vectors, or None if outside."""
        residual, combo = self._reduce(vec)
        if residual:
            return None
        return combo

    def contains(self, vec):
        residual, _ = self._reduce(vec)
        return not residual

    def det_unit(self, key_order):
        """For a square full-rank insertion history: the determinant of the
        matrix whose rows are the inserted vectors over key_order columns."""
        if self.rank != self.n_inserted or self.rank != len(key_order):
            raise InternalInvariantError("det of a non-square or deficient system")
        det = None
        for _, f in self.pivots:
            det = f if det is None else det * f
        pos = {k: i for i, k in enumerate(key_order)}
        perm = [pos[k] for k, _ in self.pivots]
        if _perm_sign(perm) < 0:
            det = -det
        return det


def _expr_sub(e, expr, g):
    out = dict(e)
    for i, c in expr.items():
        s = out.get(i)
        t = c * g
        s = -t if s is None else s - t
        if s:
            out[i] = s
        else:
            out.pop(i, None)
    return out


def _perm_sign(perm):
    seen = [False] * len(perm)
    sign = 1
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign
