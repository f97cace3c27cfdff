"""Sparse exact linear algebra over a fraction field.

Vectors are dicts mapping hashable keys to field elements (anything with
+, -, *, /, inverse and truthiness): LaurentFraction values, joined by
`ratfunc.RationalFunction` values only where a pivot does not invert in
LaurentFraction's ring (a non-integral basis; see SpanSolver.insert).
SpanSolver tracks a row space incrementally -- the single reduction path
used for every "rank certificate" in the package.

Its stored rows are kept fully reduced, so pivots, ranks and determinants
come straight from them.  Coordinates over the inserted vectors are not
tracked row by row: each insertion records its elimination factors
(Golub & Van Loan, Matrix Computations, sec. 3.1), and express substitutes
back through them on every call, visiting only the steps that touch the
coefficients it carries.  The inverse of the transition matrix, whose fill
can be many times that of the factors, is never formed.  Coordinates are
unique, since only the inserted vectors that enlarged the span receive
any.

Reduction and substitution sum their updates s − c·g, the saxpy of
Golub & Van Loan sec. 1.1, into working values (`coeff._acc_submul`): a
LaurentFraction coefficient becomes a term map over a running common
denominator, updated in place and normalized once, when it becomes a
residual entry or a step's value; any other field element computes
`s - c * g`, so the solver stays generic.  A stored row's own pivot entry
always cancels, so it is never computed.  A new row is subtracted from
each stored row that holds its pivot in place, touching only the new
row's keys.

The algebra elements of the Hecke, group-algebra, diagram and BMW towers
are the same kind of sparse map, key to nonzero coefficient: `SparseElement`
holds one, and `acc` is the single accumulate step every element product
and sum goes through.
"""

from bisect import bisect_left
from heapq import heapify, heappop, heappush

from .coeff import LaurentFraction, _acc_submul, _acc_value, inverts_in_type
from .errors import InternalInvariantError


def _eliminate(out, subtractions):
    """out − f·row for each (row, pivot, f) of `subtractions` in turn, in
    a new dict; the working copy `out` is consumed.

    Each row is 1 at `pivot`, the very key object under which the row holds
    that entry, and out must not hold the key: its entry f − f·1 cancels
    exactly, so it is dropped instead of computed.  Every other entry
    is updated in place through `_acc_submul` and normalized once at the
    end.  An entry that cancels is dropped when it does, so the keys keep
    the order that subtracting the rows one by one gives them."""
    for row, pivot, f in subtractions:
        for key, c in row.items():
            if key is pivot:
                continue
            s = out.get(key)
            r = _acc_submul(s, c, f)
            if not r:
                if s is not None:
                    del out[key]
            elif r is not s:
                out[key] = r
    return {key: _acc_value(s) for key, s in out.items()}


def _back_reduce(r, row, pivot, g):
    """r − g·row in place, for a stored row r that held g at the new row's
    `pivot`, already popped: only the keys of `row` are touched, each
    normalized once, in row's key order.  The values and the key order are
    those `_eliminate` gives on a copy of r."""
    for key, c in row.items():
        if key is pivot:
            continue
        s = r.get(key)
        t = _acc_value(_acc_submul(s, c, g))
        if t:
            r[key] = t
        elif s is not None:
            del r[key]


def vec_scale(a, f):
    if not f:
        return {}
    return {k: c * f for k, c in a.items()}


def acc(out, key, c):
    """out[key] += c, dropping the key when the sum is 0."""
    s = out.get(key)
    s = c if s is None else s + c
    if s:
        out[key] = s
    else:
        out.pop(key, None)


class SparseElement:
    """A finitely supported map key -> nonzero coefficient, an element of a
    rank-n algebra.  Subclasses give the keys their meaning and define the
    product; sums, scalar multiples, equality and hashing are shared.  Only
    elements of one class and one rank add or compare equal.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {k: c for k, c in coeffs.items() if c} if coeffs else {}

    @classmethod
    def _raw(cls, n, coeffs):
        """Trusted constructor: `coeffs` is a fresh map of nonzero values."""
        self = object.__new__(cls)
        self.n = n
        self.coeffs = coeffs
        return self

    def _same_algebra(self, other):
        return other.__class__ is self.__class__ and other.n == self.n

    def __add__(self, other):
        if not self._same_algebra(other):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc(out, k, c)
        return self._raw(self.n, out)

    def __sub__(self, other):
        if not self._same_algebra(other):
            return NotImplemented
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            acc(out, k, -c)
        return self._raw(self.n, out)

    def __neg__(self):
        return self._raw(self.n, {k: -c for k, c in self.coeffs.items()})

    def scale(self, f):
        if not f:
            return self._raw(self.n, {})
        return self._raw(self.n, {k: c * f for k, c in self.coeffs.items()})

    def __rmul__(self, other):
        if isinstance(other, SparseElement):
            return NotImplemented
        return self.scale(other)

    def map_coefficients(self, f):
        """The element with coefficients f(c); zeros are dropped."""
        return self.__class__(self.n, {k: f(c) for k, c in self.coeffs.items()})

    def map_keys(self, f, n=None):
        """The element with keys f(k), at rank n (default: this rank);
        f must be injective on the support."""
        return self._raw(
            self.n if n is None else n, {f(k): c for k, c in self.coeffs.items()}
        )

    def is_zero(self):
        return not self.coeffs

    def vector(self, vars):
        """The coefficients as field elements over `vars`, for the solvers."""
        of = LaurentFraction.of
        return {k: of(c, vars) for k, c in self.coeffs.items()}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __repr__(self):
        return str(self)


class SpanSolver:
    """Incremental row space with coordinate recovery.

    insert(vec) returns ("new", index) when vec enlarges the span and
    ("dep", None) when it is a combination of previously inserted vectors;
    index counts every insertion, dependent ones included.

    A new row's pivot is the first residual key, in `pivot_key` order when
    one is given and in the residual's key order otherwise, whose value
    inverts inside its own type (`coeff.inverts_in_type`), so that a
    LaurentFraction pivot keeps the row in its ring; the first key when no
    value does, as on a non-integral basis, and the row then holds the
    RationalFunctions of that pivot's inverse.  Coordinates over the inserted vectors
    are unique and the determinant does not depend on the pivots, so the
    choice changes no answer, only the work.

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
        self.pivot_key = pivot_key  # optional sort key; low values tried first
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
        each row subtracted, in the order subtracted.

        A stored row is 0 at every other pivot, so subtracting it leaves
        vec's entries at the other pivot keys as they are: the multipliers
        are those entries, taken in vec's key order, and one working copy
        of the rest takes every subtraction, or is the residual itself
        when vec holds no pivot key."""
        by_key, pos, pivots = self.by_key, self._pos, self.pivots
        lower, out = {}, {}
        for k, f in vec.items():
            if k in by_key:
                lower[k] = f
            else:
                out[k] = f
        if not lower:
            return out, lower
        rows = ((by_key[k], pivots[pos[k]][0], f) for k, f in lower.items())
        return _eliminate(out, rows), lower

    def insert(self, vec):
        residual, lower = self._reduce(vec)
        idx = self.n_inserted
        self.n_inserted += 1
        if not residual:
            return "dep", None
        keys = residual if self.pivot_key is None else sorted(residual, key=self.pivot_key)
        pivot = next((k for k in keys if inverts_in_type(residual[k])), None)
        if pivot is None:
            pivot = next(iter(keys))
        f = residual[pivot]
        inv = f.inverse()
        row = vec_scale(residual, inv)
        pos, users = self._pos, self._users
        here = len(self.pivots)
        # keep stored rows fully reduced against the new pivot, in place
        upper = {}
        for k, r in self.by_key.items():
            g = r.pop(pivot, None)
            if g is not None:
                _back_reduce(r, row, pivot, g)
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
                for p, g in upper.items():
                    c = coeffs.get(p)
                    if c is not None:
                        s = _acc_submul(s, c, g)
            else:
                for p, c in coeffs.items():
                    g = upper.get(p)
                    if g is not None:
                        s = _acc_submul(s, c, g)
            if not s:
                continue
            x = _acc_value(s) * inv
            out.append((idx, x))
            for p, c in low.items():
                r = coeffs.get(p)
                if r is None:
                    # a row new to coeffs makes its own and earlier steps due
                    coeffs[p] = _acc_submul(None, c, x)
                    later = users[p]
                    for q in (p, *later[: bisect_left(later, here)]):
                        if q not in due:
                            due.add(q)
                            heappush(heap, -q)
                    continue
                t = _acc_submul(r, c, x)
                if not t:
                    del coeffs[p]
                elif t is not r:
                    coeffs[p] = t
        return dict(reversed(out))

    def contains(self, vec):
        residual, _ = self._reduce(vec)
        return not residual

    def det_unit(self, key_order):
        """For a square full-rank insertion history: the determinant of the
        matrix whose rows are the inserted vectors over key_order columns,
        i.e. the product of the pivot entries signed by the permutation of
        the pivot columns.  Any full-rank system qualifies, and despite the
        name the result need not be a unit (a Gram matrix's determinant,
        say).  Raises on a dependent or non-square history."""
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
