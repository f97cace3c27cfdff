"""The Birman-Murakami-Wenzl algebra over Q(q, z).

Elements are coordinates over a fixed normal-form set in bijection with
the (n, n)-Brauer diagrams: each diagram is lifted to a canonical word
(top-arc permutation) . (e_1 e_3 ... e_{2f-1}) . (bottom-arc permutation),
with positive crossings along our canonical reduced words.

The rank-n model is built by vector enumeration (Linton 1991, 1993): the
right regular module is enumerated from b_0 = 1 straight from the tokens
(g_i, e_i) and the defining relators, with coefficients in Q(q, z), where
delta is eliminated.  Coefficients are LaurentFraction values
L / (c (q^2 - 1)^k): delta's image has the denominator q^2 - 1, and
with the solvers pivoting on values that invert in that ring, no value
through rank 5 needs another, so no polynomial gcd is taken; a value
outside the ring (a delta^-1 scalar, say) is the RationalFunction that
LaurentFraction.inverse builds.
The certificate:

- The enumerated module is cyclic, generated by b_0, and every
  coincidence is a consequence of the relations; once every relator
  vanishes at every basis vector, the module is the regular
  representation of the presented algebra.
- Its dimension must equal (2n-1)!!.
- The image b_0 . w of each canonical lift w is computed without defining
  new vectors, and these images must be independent; they are the basis in
  which the token action (rho) and the anti-involution are read.
- check_relations() applies every relator of `_relation_list(n)` to every
  basis vector through rho, the token action in the lift basis, and each
  image must vanish.

No confluence of any rewriting system is assumed.  `reduce_word` rewrites
a g/e word into the span of words in which each generator index occurs at
most once at the top level (the classical inductive spanning set), using a
twelve-case local relation table, with coefficients polynomial in
Z[q^{±1}, z^{±1}, delta].  No element operation calls it: it is the
independent rewriting reference against which the enumerated model is
tested.
"""

from __future__ import annotations

from functools import cache, partial
from operator import neg

from .coeff import (
    DELTA,
    Q,
    QZDV,
    QZV,
    Z,
    LaurentFraction,
    LaurentPoly,
    delta_as_qz,
    delta_eliminate,
    delta_restore,
)
from .diagrams import BrauerDiagram, DiagramElement, brauer_basis, double_factorial_odd
from .errors import BoundExceededError, DomainError, InternalInvariantError, max_level
from .hecke import HeckeElement, reduced_word
from .linalg import SpanSolver, SparseElement, acc

# tokens: +i is g_i, -i is e_i
P_ONE = LaurentPoly.one(QZDV)
P_Q = LaurentPoly.gen(QZDV, Q)
P_QI = LaurentPoly.gen(QZDV, Q, -1)
P_Z = LaurentPoly.gen(QZDV, Z)
P_ZI = LaurentPoly.gen(QZDV, Z, -1)
P_D = LaurentPoly.gen(QZDV, DELTA)
P_TWIST = P_Q - P_QI

F_ONE = LaurentFraction.of(1, QZV)
F_TWIST = LaurentFraction(LaurentPoly.gen(QZV, Q) - LaurentPoly.gen(QZV, Q, -1))
F_Z = LaurentFraction(LaurentPoly.gen(QZV, Z))
F_ZI = F_Z.inverse()

DEFAULT_BOUND = 4


def rank_bound():
    return max_level(DEFAULT_BOUND)


# ---------------------------------------------------------------------------
# the local relation table
# ---------------------------------------------------------------------------
# Template tokens are relative: +2/-2 mean g/e at the doubled index m,
# +1/-1 mean g/e at index m-1.  Each entry rewrites  chi_m . mid . chi'_m
# into words containing the index m at most once.

_GINV_L = [((1,), P_ONE), ((), -P_TWIST), ((-1,), P_TWIST)]  # g_{m-1}^{-1}


def _concat(*factor_lists):
    out = [((), P_ONE)]
    for factors in factor_lists:
        nxt = []
        for w1, c1 in out:
            for w2, c2 in factors:
                nxt.append((w1 + w2, c1 * c2))
        out = nxt
    return out


_EM = [((-2,), P_ONE)]

LOCAL_TABLE = {
    ("g", None, "g"): [((), P_ONE), ((2,), P_TWIST), ((-2,), -P_TWIST * P_ZI)],
    ("g", None, "e"): [((-2,), P_ZI)],
    ("e", None, "g"): [((-2,), P_ZI)],
    ("e", None, "e"): [((-2,), P_D)],
    ("g", "gL", "g"): [((1, 2, 1), P_ONE)],
    ("g", "gL", "e"): [((-1, -2), P_ONE)],
    ("e", "gL", "g"): [((-2, -1), P_ONE)],
    ("e", "gL", "e"): [((-2,), P_Z)],
    ("g", "eL", "g"): _concat(_GINV_L, _EM, _GINV_L),
    ("g", "eL", "e"): _concat(_GINV_L, _EM),
    ("e", "eL", "g"): _concat(_EM, _GINV_L),
    ("e", "eL", "e"): _EM,
}


def _instantiate(tmpl, m):
    out = []
    for t in tmpl:
        idx = m if abs(t) == 2 else m - 1
        out.append(idx if t > 0 else -idx)
    return tuple(out)


_REDUCE_MEMO = {}
_REDUCE_BUDGET = 5_000_000


def reduce_word(word):
    """Rewrite a g/e word into the inductive spanning set.

    Returns {word: coefficient in Z[q^{±1}, z^{±1}, delta]}; the output
    words have each generator index occurring at most once above all
    smaller indices (recursively).  Deterministic; terminates by induction
    on (max index, its multiplicity).
    """
    return _reduce(tuple(word), [0])


def _reduce(word, budget):
    hit = _REDUCE_MEMO.get(word)
    if hit is not None:
        return hit
    budget[0] += 1
    if budget[0] > _REDUCE_BUDGET:
        raise InternalInvariantError(f"rewriting budget exhausted at {word}")
    if not word:
        out = {(): P_ONE}
        _REDUCE_MEMO[word] = out
        return out
    m = max(abs(t) for t in word)
    pos = [k for k, t in enumerate(word) if abs(t) == m]
    out = {}
    if len(pos) == 1:
        p = pos[0]
        left = _reduce(word[:p], budget)
        right = _reduce(word[p + 1 :], budget)
        for u, cu in left.items():
            for v, cv in right.items():
                acc(out, u + (word[p],) + v, cu * cv)
        _REDUCE_MEMO[word] = out
        return out
    p1, p2 = pos[0], pos[1]
    a, b = word[p1], word[p2]
    seg = _reduce(word[p1 + 1 : p2], budget)
    akind = "g" if a > 0 else "e"
    bkind = "g" if b > 0 else "e"
    for sw, c in seg.items():
        mids = [k for k, t in enumerate(sw) if abs(t) == m - 1]
        if len(mids) > 1:
            raise InternalInvariantError(f"segment {sw} not in reduced form")
        if mids:
            k = mids[0]
            u, v = sw[:k], sw[k + 1 :]
            mid = "gL" if sw[k] > 0 else "eL"
        else:
            u, v = sw, ()
            mid = None
        for tmpl, c2 in LOCAL_TABLE[(akind, mid, bkind)]:
            w2 = word[:p1] + u + _instantiate(tmpl, m) + v + word[p2 + 1 :]
            for w3, c3 in _reduce(w2, budget).items():
                acc(out, w3, c * c2 * c3)
    _REDUCE_MEMO[word] = out
    return out


# ---------------------------------------------------------------------------
# canonical lifts of Brauer diagrams
# ---------------------------------------------------------------------------


def canonical_lift(d):
    """The canonical word of a Brauer diagram: g-word(sigma), e_1 e_3 ...,
    g-word(tau), where sigma carries the top arcs onto (1,2), (3,4), ...,
    tau carries (1,2), ... onto the bottom arcs, and through strands are
    kept in order.  The diagram product of the word is exactly d (no loops).
    """
    n = d.n
    top_arcs = sorted([p for p in d.pairs if p[0] > 0 and p[1] > 0])
    bot_arcs = sorted(
        [tuple(sorted((-a, -b))) for a, b in d.pairs if a < 0 and b < 0]
    )
    through = sorted([(a, -b) for a, b in d.pairs if a > 0 > b])
    f = len(top_arcs)
    sigma = [0] * n
    for j, (a, b) in enumerate(top_arcs):
        sigma[a - 1] = 2 * j + 1
        sigma[b - 1] = 2 * j + 2
    for k, (t, _) in enumerate(through):
        sigma[t - 1] = 2 * f + k + 1
    tau = [0] * n
    for j, (c, e) in enumerate(bot_arcs):
        tau[2 * j] = c
        tau[2 * j + 1] = e
    for k, (_, bot) in enumerate(through):
        tau[2 * f + k] = bot
    word = [i for i in reduced_word(tuple(sigma))]
    word += [-(2 * j + 1) for j in range(f)]
    word += [i for i in reduced_word(tuple(tau))]
    return tuple(word)


@cache
def bmw_normal_forms(n):
    """Normal-form keys at rank n: (diagram, canonical word) pairs, in the
    canonical diagram order; cardinality (2n-1)!!."""
    if n > rank_bound():
        raise BoundExceededError(
            f"rank {n} exceeds the configured bound {rank_bound()}"
        )
    out = tuple((d, canonical_lift(d)) for d in brauer_basis(n))
    if len(out) != double_factorial_odd(n):
        raise InternalInvariantError("normal-form count mismatch")
    return out


# ---------------------------------------------------------------------------
# the rank-n model
# ---------------------------------------------------------------------------

# vectors the enumeration may define per dimension of the algebra before it
# gives up (rank 3 defines 67 for 15, rank 4 717 for 105)
_ENUM_BUDGET = 50


class _Enumeration:
    """Linear (vector) enumeration of the right regular module from 1
    (Linton 1991, J. Symbolic Comput. 12; Linton 1993, Linear Algebra Appl.
    192), over Q(q, z).

    Vector 0 is b_0 = 1.  table[v] maps each token to the image of v, a
    sparse combination of vectors; it is None once v has been eliminated,
    and elim[v] then holds v as a combination of older vectors.  Vectors
    are visited in the order they were defined (the HLT order of coset
    enumeration): a visit defines every missing token image as a new vector
    and applies every relator at v.  A relator image that is not zero is a
    coincidence: the newest vector in its support is eliminated, and for
    each token image it had, the image of its combination minus the stored
    image is processed the same way.  Eliminated indices are substituted
    lazily, when a table entry is read.
    """

    def __init__(self, tokens, relators, budget):
        self.tokens = tokens
        self.table = [{}]
        self.elim = {}  # one entry per coincidence
        v = 0
        while v < len(self.table):
            if len(self.table) > budget:
                raise InternalInvariantError(
                    f"vector enumeration defined more than {budget} vectors"
                )
            if self.table[v] is not None:
                self._visit(v, relators)
            v += 1
        self.dim = len(self.table) - len(self.elim)

    def _new(self):
        self.table.append({})
        return len(self.table) - 1

    def _visit(self, v, relators):
        row = self.table[v]
        for t in self.tokens:
            if t not in row:
                row[t] = {self._new(): F_ONE}
        act = partial(self._act, define=True)
        memo = {(): {v: F_ONE}}
        for rel in relators:
            out = {}
            for word, c in rel:
                for u, x in _prefix_image(memo, word, act).items():
                    acc(out, u, x * c)
            if out:
                self._coincide(out)
                if self.table[v] is None:
                    return
                memo = {(): {v: F_ONE}}

    def _norm(self, vec):
        """vec with every eliminated vector substituted away."""
        elim = self.elim
        dead = [k for k in vec if k in elim]
        if not dead:
            return vec
        out = dict(vec)
        while dead:
            for k in dead:
                c = out.pop(k, None)
                if c is not None:
                    for j, y in elim[k].items():
                        acc(out, j, c * y)
            dead = [k for k in out if k in elim]
        return out

    def _act(self, vec, token, define=False):
        """The image of a combination of live vectors under a token; a
        missing image becomes a new vector only when define is set."""
        out = {}
        for u, c in vec.items():
            row = self.table[u]
            img = row.get(token)
            if img is None:
                if not define:
                    raise InternalInvariantError(f"image of vector {u} under {token} undefined")
                img = row[token] = {self._new(): F_ONE}
            else:
                normed = self._norm(img)
                if normed is not img:
                    img = row[token] = normed
            for w, x in img.items():
                acc(out, w, c * x)
        return out

    def _apply(self, vec, word):
        for t in word:
            vec = self._act(vec, t)
        return vec

    def _coincide(self, vec):
        """Quotient by vec = 0 and by every consequence it forces."""
        queue = [vec]
        while queue:
            vec = self._norm(queue.pop())
            if not vec:
                continue
            h = max(vec)
            f = -vec.pop(h).inverse()
            combo = {k: c * f for k, c in vec.items()}
            self.elim[h] = combo
            row = self.table[h]
            self.table[h] = None
            for t, img in row.items():
                diff = self._act(combo, t, True)
                for k, c in img.items():
                    acc(diff, k, -c)
                queue.append(diff)


class _Model:
    """Coordinates for W_n over the diagram-indexed normal forms, read from
    the vector enumeration of the right regular module in the basis of the
    canonical lifts' images; the module docstring gives the certificate.
    """

    def __init__(self, n):
        self.n = n
        forms = bmw_normal_forms(n)
        self.keys = tuple(d for d, _ in forms)
        self.words = {d: w for d, w in forms}
        self.index = {d: i for i, d in enumerate(self.keys)}
        self.tokens = [i for i in range(1, n)] + [-i for i in range(1, n)]
        self.relations_ok = None
        self._build()
        if not self.check_relations():
            raise InternalInvariantError(f"defining relations fail on the rank-{n} model")

    def _build(self):
        n = self.n
        dim = double_factorial_odd(n)
        enum = _Enumeration(self.tokens, _relation_list(n), _ENUM_BUDGET * dim)
        if enum.dim != dim:
            raise InternalInvariantError(
                f"enumerated dimension {enum.dim} != {dim} at rank {n}"
            )
        b0 = {0: F_ONE}  # never eliminated in a module of positive dimension
        # pivot on the newest vector of a residual first, as a coincidence
        # eliminates the newest vector of its support: the echelon rows and
        # lower factors stay short (rank 5: 82,111 updates over the 8,505
        # expresses below, against 312,481 on the residual's key order)
        coords = SpanSolver(pivot_key=neg)
        images = []
        for d in self.keys:
            img = enum._apply(b0, self.words[d])
            if coords.insert(img)[0] != "new":
                raise InternalInvariantError(
                    f"canonical lift of {d} is dependent at rank {n}"
                )
            images.append(img)
        self._coords = coords
        self.rho = {
            t: [self._express(enum._act(img, t)) for img in images] for t in self.tokens
        }
        self.star_rows = [
            self._express(enum._apply(b0, reversed(self.words[d]))) for d in self.keys
        ]

    def _express(self, vec):
        """Coordinates over the diagram keys."""
        combo = self._coords.express(vec)
        if combo is None:
            raise InternalInvariantError("vector left the enumerated module")
        return combo

    # -- coordinate operations ------------------------------------------------

    def times_token(self, coords, token):
        return _times_rows(coords, self.rho[token])

    def apply(self, coords, word):
        """coords acted on by each token of word in turn."""
        for t in word:
            coords = self.times_token(coords, t)
        return coords

    def star(self, coords):
        return _times_rows(coords, self.star_rows)

    # -- relation certificate ---------------------------------------------------

    def check_relations(self):
        """Whether every relator of `_relation_list(n)` vanishes at every
        basis vector under the token action.  The relators at one vector
        share the images of their word prefixes, as in `_Enumeration`."""
        def vanishes(i):
            memo = {(): {i: F_ONE}}
            for rel in _relation_list(self.n):
                image = {}
                for word, c in rel:
                    for j, x in _prefix_image(memo, word, self.times_token).items():
                        acc(image, j, x * c)
                if image:
                    return False
            return True

        if self.relations_ok is None:
            self.relations_ok = all(vanishes(i) for i in range(len(self.keys)))
        return self.relations_ok


def _prefix_image(memo, word, act):
    """The image of word at the vector memo[()] under act(vec, token), one
    token at a time; memo keeps the image of every prefix, which the
    relators applied at one vector share."""
    img = memo.get(word)
    if img is None:
        img = memo[word] = act(_prefix_image(memo, word[:-1], act), word[-1])
    return img


def _times_rows(coords, rows):
    """A coordinate vector times the matrix whose i-th row is rows[i]."""
    out = {}
    for i, c in coords.items():
        for j, r in rows[i].items():
            acc(out, j, c * r)
    return out


@cache
def _relation_list(n):
    """The defining relations as zero-sums of (word, coefficient) pairs."""
    c = F_TWIST
    delta = delta_as_qz()
    one = F_ONE
    rels = []
    for i in range(1, n):
        g, e = i, -i
        # g_i (g_i - c + c e_i) = 1 and the reversed product
        rels.append([((g, g), one), ((g,), -c), ((g, e), c), ((), -one)])
        rels.append([((g, g), one), ((g,), -c), ((e, g), c), ((), -one)])
        # quadratic consequence of the Kauffman skein relation
        rels.append([((g, g), one), ((g,), -c), ((e,), c * F_ZI), ((), -one)])
        rels.append([((e, e), one), ((e,), -delta)])
        rels.append([((g, e), one), ((e,), -F_ZI)])
        rels.append([((e, g), one), ((e,), -F_ZI)])
    for i in range(1, n - 1):
        gi, gj, ei, ej = i, i + 1, -i, -(i + 1)
        rels.append([((gi, gj, gi), one), ((gj, gi, gj), -one)])
        for a, b in ((i, i + 1), (i + 1, i)):
            ga, gb, ea, eb = a, b, -a, -b
            rels.append([((ea, eb, ea), one), ((ea,), -one)])
            rels.append([((ga, gb, ea), one), ((eb, ea), -one)])
            rels.append([((ea, gb, ga), one), ((ea, eb), -one)])
            rels.append([((ea, gb, ea), one), ((ea,), -F_Z)])
    for i in range(1, n):
        for j in range(i + 2, n):
            for s, t in ((i, j), (-i, j), (i, -j), (-i, -j)):
                rels.append([((s, t), one), ((t, s), -one)])
    return tuple(tuple(r) for r in rels)


@cache
def bmw_model(n):
    """The certified rank-n model; built once and shared read-only.  Past
    the rank bound, `bmw_normal_forms` raises `BoundExceededError`."""
    return _Model(n)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class BMWElement(SparseElement):
    """Coordinates over the rank-n normal forms: a map from a diagram's
    index in `bmw_model(n).keys` to a nonzero Q(q, z) coefficient, the
    coefficient of that diagram's canonical lift.  Over the generic ground
    ring R the lifts are an R-basis (Morton & Wassermann, arXiv:1012.3116),
    so the coordinates of an element of the R-form lie in R's image, and
    `bmw_to_brauer` reads the Brauer specialization from them."""

    __slots__ = ()

    # -- constructors ----------------------------------------------------------

    @classmethod
    def one(cls, n):
        m = bmw_model(n)
        return cls._raw(n, {m.index[BrauerDiagram.identity(n)]: F_ONE})

    @classmethod
    def from_word(cls, n, word, coeff=P_ONE):
        """The product of generators along word, scaled by coeff (tokens:
        +i for g_i, -i for e_i)."""
        word = tuple(word)
        for t in word:
            if not 1 <= abs(t) <= n - 1:
                raise DomainError(f"token {t} out of range at rank {n}")
        m = bmw_model(n)
        one = {m.index[BrauerDiagram.identity(n)]: F_ONE}
        return cls._raw(n, m.apply(one, word)).scale(coeff)

    @classmethod
    def g(cls, n, i):
        return cls.from_word(n, (i,))

    @classmethod
    def e(cls, n, i):
        return cls.from_word(n, (-i,))

    @classmethod
    def g_inv(cls, n, i):
        """g_i^{-1} = g_i - (q - q^{-1})(1 - e_i)."""
        return cls.g(n, i) - cls.one(n).scale(P_TWIST) + cls.e(n, i).scale(P_TWIST)

    def basis_keys(self):
        m = bmw_model(self.n)
        return {m.keys[i]: c for i, c in self.coeffs.items()}

    # -- ring operations ---------------------------------------------------------

    def scale(self, f):
        """Scalar multiply; f may be an int, a Laurent polynomial in q, z,
        delta (sent through `delta_eliminate`), or an element of Q(q, z)."""
        if isinstance(f, LaurentPoly):
            f = delta_eliminate(f)
        return SparseElement.scale(self, f)

    def times_token(self, token):
        return self._raw(self.n, bmw_model(self.n).times_token(self.coeffs, token))

    def __mul__(self, other):
        if not isinstance(other, BMWElement):
            return self.scale(other)
        if other.n != self.n:
            raise DomainError("rank mismatch")
        m = bmw_model(self.n)
        coeffs = {}
        for i, c in other.coeffs.items():
            for k, r in m.apply(self.coeffs, m.words[m.keys[i]]).items():
                acc(coeffs, k, r * c)
        return self._raw(self.n, coeffs)

    def star(self):
        return self._raw(self.n, bmw_model(self.n).star(self.coeffs))

    def embed(self, n):
        """Tower inclusion W_self.n -> W_n (canonical lifts are compatible)."""
        if n == self.n:
            return self
        if n < self.n:
            raise DomainError("cannot embed downward")
        keys, index = bmw_model(self.n).keys, bmw_model(n).index
        return self.map_keys(lambda i: index[keys[i].pad(n)], n)

    def __str__(self):
        if not self.coeffs:
            return "0"
        m = bmw_model(self.n)
        return " + ".join(
            f"({c})*[{m.keys[i]}]" for i, c in sorted(self.coeffs.items())
        )

    def to_json(self):
        m = bmw_model(self.n)
        return {
            "n": self.n,
            "terms": [
                {"diagram": m.keys[i].to_json(), "coeff": c.to_json()}
                for i, c in sorted(self.coeffs.items())
            ],
        }


# ---------------------------------------------------------------------------
# the two specializations
# ---------------------------------------------------------------------------


def bmw_to_hecke(x):
    """The quotient map killing the e-generated ideal: g_v + (e) -> T_v.

    A lift that is not a permutation diagram contains some e_i, and a
    permutation's lift is g along a reduced word, so the coordinates map
    term by term.  Coefficients land in Q(q, z) (the Hecke algebra over the
    same ground field)."""
    m = bmw_model(x.n)
    return HeckeElement(x.n, {
        m.keys[i].permutation(): c
        for i, c in x.coeffs.items()
        if m.keys[i].is_permutation()
    })


def bmw_to_brauer(x):
    """Specialize q = 1, z = 1 keeping delta free; lands in the Brauer
    algebra over Z[delta].  A canonical lift specializes to its own diagram,
    so each coordinate maps through `delta_restore`, which raises
    SpecializationError on a coordinate outside the ground ring."""
    m = bmw_model(x.n)
    return DiagramElement(x.n, {m.keys[i]: delta_restore(c) for i, c in x.coeffs.items()})
