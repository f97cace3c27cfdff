"""Sparse exact linear algebra over a fraction field.

Vectors are dicts mapping hashable keys to field elements (anything with
+, -, *, /, inverse and truthiness, e.g. LaurentFraction or
RationalFunction, which may meet in one vector).  SpanSolver
tracks a row space incrementally -- the single reduction path used for
every "rank certificate" in the package.

Its stored rows are kept fully reduced, so pivots, ranks and determinants
come straight from them.  Coordinates over the inserted vectors are not
tracked row by row: each insertion records its elimination factors
(Golub & Van Loan, Matrix Computations, sec. 3.1), and express substitutes
back through them on every call, visiting only the steps that touch the
coefficients it carries.  The inverse of the transition matrix, whose fill
can be many times that of the factors, is never formed.  Coordinates are
unique, since only the inserted vectors that enlarged the span receive
any.
"""

from bisect import bisect_left
from heapq import heapify, heappop, heappush

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

    insert(vec) returns ("new", index) when vec enlarges the span and
    ("dep", None) when it is a combination of previously inserted vectors;
    index counts every insertion, dependent ones included.

    Each stored row has a 1 at its pivot and 0 at every other pivot.  A new
    row's insertion records, as one step, its lower factor (the multiplier
    of each stored row subtracted while reducing the vector) and its upper
    factor (the multiplier with which the new row was subtracted from each
    older row holding its pivot).  express(vec) substitutes back through
    those steps and returns the coordinates of vec over the inserted
    vectors, or None when vec lies outside the span.
    """

    def __init__(self, pivot_key=None):
        self.pivots = []  # (key, pivot entry before normalization), one per row
        self.by_key = {}  # pivot key -> fully reduced row
        self.n_inserted = 0
        self.pivot_key = pivot_key  # optional sort key; low values picked first
        # the factors, one step per row, rows named by their position in
        # pivots: (index, 1/pivot entry, lower, upper) with lower and upper
        # mapping row positions to multipliers
        self._steps = []
        self._pos = {}  # pivot key -> row position
        self._users = []  # row position -> later steps with it in upper

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, vec):
        """The residual of vec against the stored rows and the multiplier of
        each row subtracted, in the order subtracted."""
        lower = {}
        vec = dict(vec)
        while vec:
            hit = None
            for k in vec:
                if k in self.by_key:
                    hit = k
                    break
            if hit is None:
                break
            f = vec[hit]
            lower[hit] = f
            vec = vec_sub_scaled(vec, self.by_key[hit], f)
        return vec, lower

    def insert(self, vec):
        residual, lower = self._reduce(vec)
        idx = self.n_inserted
        self.n_inserted += 1
        if not residual:
            return "dep", None
        if self.pivot_key is not None:
            pivot = min(residual, key=self.pivot_key)
        else:
            pivot = next(iter(residual))
        f = residual[pivot]
        inv = f.inverse()
        row = vec_scale(residual, inv)
        pos, users = self._pos, self._users
        here = len(self.pivots)
        # keep stored rows fully reduced against the new pivot
        upper = {}
        for k, r in list(self.by_key.items()):
            g = r.get(pivot)
            if g is not None:
                self.by_key[k] = vec_sub_scaled(r, row, g)
                upper[pos[k]] = g
                users[pos[k]].append(here)
        self.by_key[pivot] = row
        self.pivots.append((pivot, f))
        self._steps.append((idx, inv, {pos[k]: c for k, c in lower.items()}, upper))
        pos[pivot] = here
        users.append([])
        return "new", idx

    def express(self, vec):
        """Coordinates of vec over the inserted vectors, or None if outside;
        substituted back through the factors, last step first."""
        residual, lower = self._reduce(vec)
        if residual:
            return None
        steps, users = self._steps, self._users
        # coeffs holds vec's coefficients over the rows as they stand after
        # the step being undone; undoing it rewrites them over the rows
        # before it plus the vector that step inserted, and changes them
        # only if they include its row or a row of its upper factor
        coeffs = {self._pos[k]: c for k, c in lower.items()}
        due = set(coeffs)
        for p in coeffs:
            due.update(users[p])
        heap = [-p for p in due]
        heapify(heap)
        out = []
        while heap:
            here = -heappop(heap)
            idx, inv, low, upper = steps[here]
            s = coeffs.pop(here, None)
            # the rows both in upper and in coeffs, found from the smaller
            if len(upper) <= len(coeffs):
                terms = ((coeffs.get(p), g) for p, g in upper.items())
            else:
                terms = ((c, upper.get(p)) for p, c in coeffs.items())
            for c, g in terms:
                if c is not None and g is not None:
                    t = c * g
                    s = -t if s is None else s - t
            if not s:
                continue
            x = s * inv
            out.append((idx, x))
            for p, c in low.items():
                t = c * x
                r = coeffs.get(p)
                if r is None:
                    # a row new to coeffs makes its own and earlier steps due
                    coeffs[p] = -t
                    later = users[p]
                    for q in (p, *later[: bisect_left(later, here)]):
                        if q not in due:
                            due.add(q)
                            heappush(heap, -q)
                    continue
                r = r - t
                if r:
                    coeffs[p] = r
                else:
                    del coeffs[p]
        return dict(reversed(out))

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
