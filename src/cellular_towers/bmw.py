"""The Birman-Murakami-Wenzl algebra over Q(q, z).

Elements are coordinates over a fixed normal-form set in bijection with
the (n, n)-Brauer diagrams: each diagram is lifted to a canonical word
(top-arc permutation) . (e_1 e_3 ... e_{2f-1}) . (bottom-arc permutation),
with positive crossings along our canonical reduced words.

Multiplication is by generator rewriting.  `reduce_word` rewrites any g/e
word into the span of words in which each generator index occurs at most
once at the top level (the classical inductive spanning set), using a
twelve-case local relation table; coefficients stay polynomial in
Z[q^0.., z^.., delta].  A rank-n model is then certified by linear algebra:
the cyclic closure of 1 under the rewriting action must have dimension
exactly (2n-1)!!, and the defining relations are checked on the restricted
matrices; this pins the model to the abstract algebra without assuming the
rewriting system is confluent.  delta never appears in stored coordinates:
it is eliminated into Q(q, z).
"""

from __future__ import annotations

from functools import cache

from .coeff import (
    DELTA,
    Q,
    QZDV,
    QZV,
    Z,
    LaurentPoly,
    RationalFunction,
    delta_as_qz,
    delta_eliminate,
    specialize,
)
from .diagrams import BrauerDiagram, DiagramElement, brauer_basis, double_factorial_odd
from .errors import BoundExceededError, DomainError, InternalInvariantError, max_level
from .hecke import HeckeElement, reduced_word
from .linalg import SpanSolver

# tokens: +i is g_i, -i is e_i
P_ONE = LaurentPoly.one(QZDV)
P_Q = LaurentPoly.gen(QZDV, Q)
P_QI = LaurentPoly.gen(QZDV, Q, -1)
P_Z = LaurentPoly.gen(QZDV, Z)
P_ZI = LaurentPoly.gen(QZDV, Z, -1)
P_D = LaurentPoly.gen(QZDV, DELTA)
P_TWIST = P_Q - P_QI

F_ONE = RationalFunction.one(QZV)
F_TWIST = RationalFunction.from_poly(LaurentPoly.gen(QZV, Q) - LaurentPoly.gen(QZV, Q, -1))
F_Z = RationalFunction.gen(QZV, Z)
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


def _acc(d, k, c):
    s = d.get(k)
    s = c if s is None else s + c
    if s:
        d[k] = s
    else:
        d.pop(k, None)


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
                _acc(out, u + (word[p],) + v, cu * cv)
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
                _acc(out, w3, c * c2 * c3)
    _REDUCE_MEMO[word] = out
    return out


@cache
def _reduce_f(word):
    """reduce_word with delta eliminated into Q(q, z)."""
    out = {}
    for w, c in reduce_word(word).items():
        f = delta_eliminate(c)
        if f:
            out[w] = f
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


class _Model:
    """Coordinates for W_n over the diagram-indexed normal forms.

    Construction: the free token action on the span of reduced words is
    closed up from the vector of the empty word (the spanning set is
    redundant, so this closure U over-counts); the kernel K is generated
    by tracing every defining relation through every closure basis vector
    and saturating under the action.  U/K is then a cyclic module over the
    presented algebra, so dim(U/K) = (2n-1)!! certifies U/K = W_n, with the
    canonical diagram lifts as a basis.
    """

    def __init__(self, n):
        self.n = n
        forms = bmw_normal_forms(n)
        self.keys = tuple(d for d, _ in forms)
        self.words = {d: w for d, w in forms}
        self.index = {d: i for i, d in enumerate(self.keys)}
        self.tokens = [i for i in range(1, n)] + [-i for i in range(1, n)]
        self._build()
        self._mult_rows = {}
        self.relations_ok = None

    # the right action of a token on a vector over reduced words
    def _step(self, vec, token):
        out = {}
        for w, c in vec.items():
            for w2, c2 in _reduce_f(w + (token,)).items():
                _acc(out, w2, c * c2)
        return out

    def _apply_word(self, vec, word):
        for t in word:
            vec = self._step(vec, t)
        return vec

    def _trace(self, vec, relation):
        """Image of vec under a relation sum_w c_w * (right action of w)."""
        out = {}
        for word, c in relation:
            img = self._apply_word(vec, word)
            for w, cw in img.items():
                _acc(out, w, cw * c)
        return out

    def _build(self):
        n = self.n
        dim = double_factorial_odd(n)
        v0 = {(): F_ONE}
        closure = SpanSolver()
        closure.insert(v0)
        basis_vecs = [v0]
        queue = [v0]
        while queue:
            vec = queue.pop()
            for t in self.tokens:
                nxt = self._step(vec, t)
                status, _ = closure.insert(nxt)
                if status == "new":
                    basis_vecs.append(nxt)
                    queue.append(nxt)
        # kernel: relation traces from every basis vector, closed under the action
        relations = _relation_list(n)
        kernel = SpanSolver()
        k_vecs = []
        k_queue = []
        for u in basis_vecs:
            for rel in relations:
                kv = self._trace(u, rel)
                if kv and kernel.insert(kv)[0] == "new":
                    k_vecs.append(kv)
                    k_queue.append(kv)
        while k_queue:
            kv = k_queue.pop()
            for t in self.tokens:
                nxt = self._step(kv, t)
                if nxt and kernel.insert(nxt)[0] == "new":
                    k_vecs.append(nxt)
                    k_queue.append(nxt)
        if closure.rank - kernel.rank != dim:
            raise InternalInvariantError(
                f"certified dimension {closure.rank - kernel.rank} != {dim} at rank {n}"
            )
        # coordinates modulo the kernel: insert kernel generators first
        coords = SpanSolver()
        for kv in k_vecs:
            coords.insert(kv)
        self._n_kernel = coords.n_inserted
        images = {}
        for d in self.keys:
            images[d] = self._apply_word(v0, self.words[d])
            status, _ = coords.insert(images[d])
            if status != "new":
                raise InternalInvariantError(
                    f"canonical lift of {d} is dependent at rank {n}"
                )
        self._coords = coords
        rho = {}
        for t in self.tokens:
            rows = []
            for d in self.keys:
                rows.append(self._express(self._step(images[d], t)))
            rho[t] = rows
        self.rho = rho
        self.star_rows = [
            self._express(self._apply_word(v0, tuple(reversed(self.words[d]))))
            for d in self.keys
        ]

    def _express(self, vec):
        """Coordinates over the diagram keys, modulo the kernel."""
        combo = self._coords.express(vec)
        if combo is None:
            raise InternalInvariantError("vector left the certified span")
        nk = self._n_kernel
        return {i - nk: c for i, c in combo.items() if i >= nk}

    # -- coordinate operations ------------------------------------------------

    def times_token(self, coords, token):
        rows = self.rho[token]
        out = {}
        for i, c in coords.items():
            for j, r in rows[i].items():
                _acc(out, j, c * r)
        return out

    def mult_rows(self, d):
        """Right multiplication by the basis element d, as rows."""
        rows = self._mult_rows.get(d)
        if rows is None:
            word = self.words[d]
            rows = []
            for i in range(len(self.keys)):
                vec = {i: F_ONE}
                for t in word:
                    vec = self.times_token(vec, t)
                rows.append(vec)
            self._mult_rows[d] = rows
        return rows

    def star(self, coords):
        out = {}
        for i, c in coords.items():
            for j, r in self.star_rows[i].items():
                _acc(out, j, c * r)
        return out

    def word_coords(self, word):
        vec = {self.index[BrauerDiagram.identity(self.n)]: F_ONE}
        for t in word:
            vec = self.times_token(vec, t)
        return vec

    # -- relation certificate ---------------------------------------------------

    def check_relations(self):
        """Verify every defining relation on the restricted action matrices."""
        if self.relations_ok is not None:
            return self.relations_ok
        n = self.n
        dim = len(self.keys)
        ident = [{i: F_ONE} for i in range(dim)]

        def mat(token):
            return self.rho[token]

        def mul(a, b):
            out = []
            for row in a:
                acc = {}
                for k, c in row.items():
                    for j, r in b[k].items():
                        _acc(acc, j, c * r)
                out.append(acc)
            return out

        def add(a, b, f=F_ONE):
            out = []
            for r1, r2 in zip(a, b):
                acc = dict(r1)
                for j, c in r2.items():
                    _acc(acc, j, c * f)
                out.append(acc)
            return out

        def scale(a, f):
            return [{j: c * f for j, c in r.items()} for r in a]

        delta = delta_as_qz()
        ok = True
        for i in range(1, n):
            g, e = mat(i), mat(-i)
            ginv = add(g, add(ident, scale(e, -F_ONE)), -F_TWIST)
            ok &= mul(g, ginv) == ident and mul(ginv, g) == ident
            ok &= mul(e, e) == scale(e, delta)
            ok &= mul(g, e) == scale(e, F_ZI) and mul(e, g) == scale(e, F_ZI)
        for i in range(1, n - 1):
            for a, b in ((i, i + 1), (i + 1, i)):
                ga, gb, ea, eb = mat(a), mat(b), mat(-a), mat(-b)
                ok &= mul(mul(ga, gb), ga) == mul(mul(gb, ga), gb)
                ok &= mul(mul(ea, eb), ea) == ea
                ok &= mul(mul(ga, gb), ea) == mul(eb, ea)
                ok &= mul(ea, mul(gb, ga)) == mul(ea, eb)
                ok &= mul(mul(ea, gb), ea) == scale(ea, F_Z)
        for i in range(1, n):
            for j in range(i + 2, n):
                for s, t in ((i, j), (-i, j), (i, -j), (-i, -j)):
                    ok &= mul(mat(s), mat(t)) == mul(mat(t), mat(s))
        self.relations_ok = bool(ok)
        return self.relations_ok


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
    """The certified rank-n model; built once and shared read-only."""
    if n > rank_bound():
        raise BoundExceededError(f"rank {n} exceeds the configured bound {rank_bound()}")
    return _Model(n)


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class BMWElement:
    """Coordinates over the rank-n normal forms, with an optional parallel
    word representation carrying exact Z[q^{±1}, z^{±1}, delta]
    coefficients (used by the specialization maps)."""

    __slots__ = ("n", "coords", "words")

    def __init__(self, n, coords=None, words=None):
        self.n = n
        self.coords = {i: c for i, c in (coords or {}).items() if c}
        self.words = words

    # -- constructors ----------------------------------------------------------

    @classmethod
    def one(cls, n):
        m = bmw_model(n)
        return cls(n, {m.index[BrauerDiagram.identity(n)]: F_ONE}, {(): P_ONE})

    @classmethod
    def from_word(cls, n, word, coeff=P_ONE):
        """The product of generators along word, scaled by coeff (tokens:
        +i for g_i, -i for e_i)."""
        word = tuple(word)
        for t in word:
            if not 1 <= abs(t) <= n - 1:
                raise DomainError(f"token {t} out of range at rank {n}")
        m = bmw_model(n)
        f = delta_eliminate(coeff)
        coords = {i: c * f for i, c in m.word_coords(word).items() if c * f}
        words = {}
        for w, c in reduce_word(word).items():
            _acc(words, w, c * coeff)
        return cls(n, coords, words)

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
        return {m.keys[i]: c for i, c in self.coords.items()}

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BMWElement) or other.n != self.n:
            return NotImplemented
        coords = dict(self.coords)
        for i, c in other.coords.items():
            _acc(coords, i, c)
        words = None
        if self.words is not None and other.words is not None:
            words = dict(self.words)
            for w, c in other.words.items():
                _acc(words, w, c)
        return BMWElement(self.n, coords, words)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, f):
        """Scalar multiply; f may be an int, a polynomial in q, z, delta, or
        an element of Q(q, z)."""
        if isinstance(f, int):
            f = LaurentPoly.const(QZDV, f)
        if isinstance(f, LaurentPoly):
            fp = f.extend_vars(QZDV) if f.vars != QZDV else f
            ff = delta_eliminate(fp)
            words = (
                None
                if self.words is None
                else {w: c * fp for w, c in self.words.items() if c * fp}
            )
        else:
            ff = f
            words = None
        coords = {i: c * ff for i, c in self.coords.items() if c * ff}
        return BMWElement(self.n, coords, words)

    def times_token(self, token):
        m = bmw_model(self.n)
        words = None
        if self.words is not None:
            words = {}
            for w, c in self.words.items():
                for w2, c2 in reduce_word(w + (token,)).items():
                    _acc(words, w2, c * c2)
        return BMWElement(self.n, m.times_token(self.coords, token), words)

    def __mul__(self, other):
        if not isinstance(other, BMWElement):
            return self.scale(other)
        if other.n != self.n:
            raise DomainError("rank mismatch")
        m = bmw_model(self.n)
        coords = {}
        for i, c in other.coords.items():
            rows = m.mult_rows(m.keys[i])
            for j, cj in self.coords.items():
                for k, r in rows[j].items():
                    _acc(coords, k, cj * r * c)
        words = None
        if self.words is not None and other.words is not None:
            words = {}
            for w1, c1 in self.words.items():
                for w2, c2 in other.words.items():
                    for w3, c3 in reduce_word(w1 + w2).items():
                        _acc(words, w3, c1 * c2 * c3)
        return BMWElement(self.n, coords, words)

    def __rmul__(self, other):
        if isinstance(other, BMWElement):
            return NotImplemented
        return self.scale(other)

    def star(self):
        m = bmw_model(self.n)
        words = None
        if self.words is not None:
            words = {}
            for w, c in self.words.items():
                for w2, c2 in reduce_word(tuple(reversed(w))).items():
                    _acc(words, w2, c * c2)
        return BMWElement(self.n, m.star(self.coords), words)

    def embed(self, n):
        """Tower inclusion W_self.n -> W_n (canonical lifts are compatible)."""
        if n == self.n:
            return self
        if n < self.n:
            raise DomainError("cannot embed downward")
        m_lo, m_hi = bmw_model(self.n), bmw_model(n)
        coords = {
            m_hi.index[m_lo.keys[i].pad(n)]: c for i, c in self.coords.items()
        }
        return BMWElement(n, coords, self.words)

    def is_zero(self):
        return not self.coords

    def __eq__(self, other):
        return (
            isinstance(other, BMWElement)
            and self.n == other.n
            and self.coords == other.coords
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coords.items()))))

    def __str__(self):
        if not self.coords:
            return "0"
        m = bmw_model(self.n)
        return " + ".join(
            f"({c})*[{m.keys[i]}]" for i, c in sorted(self.coords.items())
        )

    __repr__ = __str__

    def to_json(self):
        m = bmw_model(self.n)
        return {
            "n": self.n,
            "terms": [
                {"diagram": m.keys[i].to_json(), "coeff": c.to_json()}
                for i, c in sorted(self.coords.items())
            ],
        }


# ---------------------------------------------------------------------------
# branching lifts and the two specializations
# ---------------------------------------------------------------------------


def bmw_lift_branching(lam, mu, i, n=None):
    """Lifts (dbar, ubar) in W_n for the Young-lattice edge lam -> mu at
    level i: dbar = g_{a,i} and ubar = g_{i,a} sum_r q^r g_{a,a-r}."""
    from .hecke import added_node

    if n is None:
        n = i
    node = added_node(lam, mu)
    j = node[0]
    a = sum(mu[:j])
    lam_j = lam[j - 1] if j <= len(lam) else 0
    dbar = BMWElement.from_word(n, range(a, i))  # g_{a,i}
    up = BMWElement(n)
    for r in range(lam_j + 1):
        up = up + BMWElement.from_word(n, range(a - 1, a - r - 1, -1), P_Q ** r)
    ubar = BMWElement.from_word(n, range(i - 1, a - 1, -1)) * up  # g_{i,a} * sum
    return dbar, ubar


def bmw_to_hecke(x):
    """The quotient map killing the e-generated ideal: g_v + (e) -> T_v.

    Coefficients land in Q(q, z) (the Hecke algebra over the same ground
    field)."""
    out = HeckeElement(x.n)
    if x.words is not None:
        for w, c in x.words.items():
            if any(t < 0 for t in w):
                continue
            el = HeckeElement.one(x.n).times_word([t for t in w])
            out = out + el.map_coefficients(
                lambda p: delta_eliminate(p) * delta_eliminate(c)
            )
        return out
    m = bmw_model(x.n)
    for i, c in x.coords.items():
        d = m.keys[i]
        if d.is_permutation():
            out = out + HeckeElement(x.n, {d.permutation(): c})
    return out


def bmw_to_brauer(x):
    """Specialize q = 1, z = 1 keeping delta free; lands in the Brauer
    algebra over Z[delta].  Raises SpecializationError on a pole."""
    from .coeff import DV

    one_d = RationalFunction.one(DV)
    d_free = RationalFunction.gen(DV, DELTA)
    out = DiagramElement(x.n)
    if x.words is not None:
        for w, c in x.words.items():
            val = specialize(c, {Q: one_d, Z: one_d}, DV)
            if not val:
                continue
            el = DiagramElement.one(x.n)
            for t in w:
                d = BrauerDiagram.s(t, x.n) if t > 0 else BrauerDiagram.e(-t, x.n)
                el = el * DiagramElement.from_diagram(d)
            out = out + el.scale(_as_delta_poly(val))
        return out
    m = bmw_model(x.n)
    for i, c in x.coords.items():
        val = specialize(c, {Q: one_d, Z: one_d}, DV)
        if val:
            out = out + DiagramElement.from_diagram(m.keys[i]).scale(_as_delta_poly(val))
    return out


def _as_delta_poly(rf):
    if rf.den.is_one():
        return rf.num
    return rf
