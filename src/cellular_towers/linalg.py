"""Sparse exact linear algebra over a fraction field.

Vectors are dicts mapping hashable keys to field elements (anything with
+, -, *, /, inverse and truthiness): LaurentFraction values, joined by
`ratfunc.RationalFunction` values only where a pivot does not invert in
LaurentFraction's ring (a non-integral basis; see SpanSolver.insert).
SpanSolver tracks a row space incrementally -- the single reduction path
used for every "rank certificate" in the package.

Its stored rows are kept in row-echelon form (Golub & Van Loan, Matrix
Computations, sec. 3.2): each is 1 at its pivot and 0 at every earlier
pivot, and is never rewritten once stored, so pivots, ranks and
determinants come straight from them.  Coordinates over the inserted
vectors are not tracked row by row: each insertion records its lower
elimination factor (sec. 3.1), and express substitutes back through those
factors on every call, last row first, visiting only the rows that carry a
coefficient.  The inverse of the transition matrix, whose fill can be many
times that of the factors, is never formed.  Coordinates are unique, since
only the inserted vectors that enlarged the span receive any.

Reduction and substitution sum their updates s − c·g, the saxpy of
Golub & Van Loan sec. 1.1, into working values (`coeff._acc_submul`): a
LaurentFraction coefficient becomes a term map over a running common
denominator, updated in place and normalized once, when it becomes a
residual entry, a multiplier or a coordinate; any other field element
computes `s - c * g`, so the solver stays generic.  A stored row's own
pivot entry always cancels, so it is never computed.

The algebra elements of the Hecke, group-algebra, diagram and BMW towers
are the same kind of sparse map, key to nonzero coefficient: `SparseElement`
holds one, and `acc` is the single accumulate step every element product
and sum goes through.
"""

from heapq import heapify, heappop, heappush

from .coeff import LaurentFraction, _acc_submul, _acc_value, inverts_in_type
from .errors import InternalInvariantError


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
    one is given and in the residual's key order otherwise (see `_reduce`),
    whose value inverts inside its own type (`coeff.inverts_in_type`), so
    that a LaurentFraction pivot keeps the row in its ring; the first key
    when no value does, as on a non-integral basis, and the row then holds
    the RationalFunctions of that pivot's inverse.  Coordinates over the
    inserted vectors are unique and the determinant does not depend on the
    pivots, so the choice changes no answer, only the work.

    The rows are kept in row-echelon form, in insertion order: each is the
    new vector's residual scaled to 1 at its pivot, so it is 0 at every
    earlier pivot, and it is never touched again.  A new row's insertion
    records, as one step, its lower factor: the multiplier of each earlier
    row subtracted while reducing the vector.  express(vec) reduces vec the
    same way and substitutes back through those steps, last row first, and
    returns the coordinates of vec over the inserted vectors, or None when
    vec lies outside the span.
    """

    def __init__(self, pivot_key=None):
        self.pivots = []  # (key, pivot entry before normalization), one per row
        self.rows = []  # the echelon rows, by row position
        self.n_inserted = 0
        self.pivot_key = pivot_key  # optional sort key; low values tried first
        # one step per row: (index, 1/pivot entry, lower), lower mapping the
        # positions of earlier rows to their multipliers
        self._steps = []
        self._pos = {}  # pivot key -> row position

    @property
    def rank(self):
        return len(self.pivots)

    def _reduce(self, vec):
        """The residual of vec against the stored rows and the multiplier of
        each row subtracted, by row position, in the order subtracted.

        A row may hold later pivots but no earlier one, so the rows are
        subtracted in position order, through a heap of the positions whose
        pivot the working copy holds: a subtraction can bring in a later
        pivot, never undo an earlier one.  Each multiplier is the working
        entry at the row's pivot, normalized once; that entry cancels
        exactly and is dropped instead of computed.  Every other entry is
        updated through `_acc_submul` and normalized once in the residual.

        The residual's keys come in the order the subtractions leave them:
        vec's own keys in vec's order, then each key a subtraction brings
        in, in the order the rows are subtracted and in each row's key
        order.  An entry that cancels is dropped when it does, and goes to
        the end if a later row brings it back.  With no pivot key, this
        order picks the next pivot."""
        pos = self._pos
        out = dict(vec)
        heap = [pos[k] for k in vec if k in pos]
        if not heap:
            return out, {}
        heapify(heap)
        pivots, rows, lower = self.pivots, self.rows, {}
        while heap:
            p = heappop(heap)
            pivot = pivots[p][0]
            f = out.pop(pivot, None)
            if f is None:
                # cancelled, or already subtracted under a second push
                continue
            f = lower[p] = _acc_value(f)
            for key, c in rows[p].items():
                if key is pivot:
                    continue
                s = out.get(key)
                r = _acc_submul(s, c, f)
                if not r:
                    if s is not None:
                        del out[key]
                elif r is not s:
                    out[key] = r
                    if s is None and key in pos:
                        heappush(heap, pos[key])
        return {key: _acc_value(s) for key, s in out.items()}, lower

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
        self._pos[pivot] = len(self.pivots)
        self.pivots.append((pivot, f))
        self.rows.append(vec_scale(residual, inv))
        self._steps.append((idx, inv, lower))
        return "new", idx

    def express(self, vec):
        """Coordinates of vec over the inserted vectors, or None if outside;
        substituted back through the steps, last row first.

        coeffs holds vec's coefficients over the rows not yet undone.  Row
        p is inv·(its inserted vector − Σ lower[r]·row r) over earlier rows
        r only, so once every later row is undone, p's coefficient s is
        final: the inserted vector gets x = s·inv, and each row r of the
        lower factor gets −lower[r]·x."""
        residual, coeffs = self._reduce(vec)
        if residual:
            return None
        steps = self._steps
        heap = [-p for p in coeffs]
        heapify(heap)
        out = []
        while heap:
            p = -heappop(heap)
            s = coeffs.pop(p, None)
            if s is None:
                # cancelled, or already undone under a second push
                continue
            idx, inv, low = steps[p]
            x = _acc_value(s) * inv
            out.append((idx, x))
            for r, c in low.items():
                t = coeffs.get(r)
                u = _acc_submul(t, c, x)
                if not u:
                    if t is not None:
                        del coeffs[r]
                elif u is not t:
                    coeffs[r] = u
                    if t is None:
                        heappush(heap, -r)
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
