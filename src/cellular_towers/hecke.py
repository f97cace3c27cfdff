"""The Iwahori-Hecke algebra of the symmetric group in the T basis.

Murphy cellular basis machinery: m_lambda sums, the basis T_w(s)* m_lambda
T_w(t), branching coefficients for restriction and induction, Garnir
elements, the restriction filtration of cell modules, and the q = 1
specialization onto the group algebra.

Straightening is always done by a global linear solve against the Murphy
basis (cached per rank); no rewriting mod the ideal is ever trusted.
"""

from __future__ import annotations

import itertools
from functools import cache

from .coeff import Q, QV, LaurentFraction, LaurentPoly, RationalFunction, specialize
from .combinatorics import (
    addable_nodes,
    dominance_geq,
    partitions_of,
    remove_node,
    removable_nodes,
    semistandard_tableaux,
    shape_of,
    standard_tableaux,
    superstandard_tableau,
    tableau_dominance_gt,
    tableau_entries,
    tableau_restrict,
    tableau_type_map,
    is_standard,
)
from .errors import DomainError, InternalInvariantError
from .linalg import SpanSolver

QPOLY = LaurentPoly.gen(QV, Q)
QINV = LaurentPoly.gen(QV, Q, -1)
QONE = LaurentPoly.one(QV)
TWIST = QPOLY - QINV  # q - q^-1, the quadratic-relation defect


# ---------------------------------------------------------------------------
# permutations (one-line tuples)
# ---------------------------------------------------------------------------


def perm_id(n):
    return tuple(range(1, n + 1))


def perm_mul(u, v):
    """Apply u, then v (right action composition)."""
    return tuple(v[u[i] - 1] for i in range(len(u)))


def perm_inv(u):
    out = [0] * len(u)
    for i, x in enumerate(u):
        out[x - 1] = i + 1
    return tuple(out)


def perm_len(w):
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def perm_s(i, n):
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def reduced_word(w):
    """Canonical reduced word: peel off where n sits, recursively.

    reduced_word of the cycle (n,...,a) is [a, a+1, ..., n-1], and the word
    of w(t) is the concatenation of its branching-path pieces.
    """
    word = []
    w = list(w)
    n = len(w)
    while n > 1:
        a = w.index(n) + 1
        word.extend(range(a, n))
        del w[a - 1]
        n -= 1
    return tuple(word)


def perm_from_word(word, n):
    w = perm_id(n)
    for i in word:
        w = perm_mul(w, perm_s(i, n))
    return w


def tableau_permutation(tab):
    """The unique w with t^shape . w = tab (acting on entry labels)."""
    lam = shape_of(tab)
    pos = tableau_entries(superstandard_tableau(lam))
    entry = {}
    for i, row in enumerate(tab):
        for j, v in enumerate(row):
            entry[(i + 1, j + 1)] = v
    return tuple(entry[pos[k]] for k in range(1, sum(lam) + 1))


def apply_perm_to_tableau(tab, w):
    return tuple(tuple(w[v - 1] for v in row) for row in tab)


# ---------------------------------------------------------------------------
# algebra elements
# ---------------------------------------------------------------------------


class HeckeElement:
    """Finitely supported map permutation -> coefficient, in the T basis.

    Coefficients may live in Z[q, q^-1] or any fraction field coercing with
    it; all stored coefficients are nonzero.
    """

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {}
        if coeffs:
            for w, c in coeffs.items():
                if c:
                    self.coeffs[w] = c

    @classmethod
    def one(cls, n):
        return cls(n, {perm_id(n): QONE})

    @classmethod
    def t_gen(cls, n, i):
        if not 1 <= i <= n - 1:
            raise DomainError(f"generator index {i} out of range for rank {n}")
        return cls(n, {perm_s(i, n): QONE})

    @classmethod
    def t_word(cls, n, word):
        return cls.one(n).times_word(word)

    @classmethod
    def t_perm(cls, n, w):
        return cls(n, {tuple(w): QONE})

    def __add__(self, other):
        if not isinstance(other, HeckeElement) or other.n != self.n:
            return NotImplemented
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            s = out.get(w)
            s = c if s is None else s + c
            if s:
                out[w] = s
            else:
                out.pop(w, None)
        return HeckeElement(self.n, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return HeckeElement(self.n, {w: -c for w, c in self.coeffs.items()})

    def scale(self, f):
        if not f:
            return HeckeElement(self.n)
        return HeckeElement(self.n, {w: c * f for w, c in self.coeffs.items()})

    def times_gen(self, i):
        """Right multiplication by T_i."""
        if not 1 <= i <= self.n - 1:
            raise DomainError(f"generator index {i} out of range for rank {self.n}")
        out = {}
        for w, c in self.coeffs.items():
            ws = perm_mul(w, perm_s(i, self.n))
            # l(w s_i) > l(w) iff the value i appears before the value i+1
            if w.index(i) < w.index(i + 1):
                _acc(out, ws, c)
            else:
                _acc(out, ws, c)
                _acc(out, w, c * TWIST)
        return HeckeElement(self.n, out)

    def times_gen_inv(self, i):
        """Right multiplication by T_i^{-1} = T_i - (q - q^{-1})."""
        return self.times_gen(i) - self.scale(TWIST)

    def times_word(self, word):
        x = self
        for i in word:
            x = x.times_gen(i)
        return x

    def times_word_inv(self, word):
        """Right multiplication by (T_{i_1} ... T_{i_k})^{-1}."""
        x = self
        for i in reversed(word):
            x = x.times_gen_inv(i)
        return x

    def __mul__(self, other):
        if isinstance(other, HeckeElement):
            if other.n != self.n:
                raise DomainError("rank mismatch")
            out = HeckeElement(self.n)
            for w, c in other.coeffs.items():
                out = out + self.times_word(reduced_word(w)).scale(c)
            return out
        return self.scale(other)

    def __rmul__(self, other):
        if isinstance(other, HeckeElement):
            return NotImplemented
        return self.scale(other)

    def star(self):
        """The involution T_v -> T_{v^{-1}}."""
        return HeckeElement(self.n, {perm_inv(w): c for w, c in self.coeffs.items()})

    def embed(self, n):
        """Image under the tower inclusion H_self.n -> H_n."""
        if n < self.n:
            raise DomainError("cannot embed downward")
        pad = tuple(range(self.n + 1, n + 1))
        return HeckeElement(n, {w + pad: c for w, c in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.n == other.n and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coeffs.items()))))

    def map_coefficients(self, f):
        return HeckeElement(self.n, {w: f(c) for w, c in self.coeffs.items()})

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*T{list(w)}" for w, c in sorted(self.coeffs.items()))

    __repr__ = __str__

    def to_json(self):
        return {
            "n": self.n,
            "coeffs": {
                ",".join(map(str, w)): _coeff_json(c)
                for w, c in sorted(self.coeffs.items())
            },
        }


def _acc(d, k, c):
    s = d.get(k)
    s = c if s is None else s + c
    if s:
        d[k] = s
    else:
        d.pop(k, None)


def _coeff_json(c):
    return c.to_json()


# ---------------------------------------------------------------------------
# Murphy basis
# ---------------------------------------------------------------------------


def young_subgroup(lam, n):
    """Elements of the Young subgroup S_lam inside S_n."""
    blocks = []
    k = 1
    for p in lam:
        blocks.append(list(range(k, k + p)))
        k += p
    perms = [perm_id(n)]
    for block in blocks:
        new = []
        for base in perms:
            for img in itertools.permutations(block):
                w = list(base)
                for src, dst in zip(block, img):
                    w[src - 1] = dst
                new.append(tuple(w))
        perms = new
    return perms


def m_lambda(lam, n=None):
    """m_lam = sum over v in S_lam of q^len(v) T_v."""
    if n is None:
        n = sum(lam)
    if sum(lam) > n:
        raise DomainError(f"{lam} does not fit in rank {n}")
    coeffs = {}
    for v in young_subgroup(lam, n):
        coeffs[v] = QPOLY ** perm_len(v)
    return HeckeElement(n, coeffs)


def murphy_element(lam, s, t, n=None):
    """m^lam_{s t} = T_{w(s)}^* m_lam T_{w(t)}."""
    if n is None:
        n = sum(lam)
    ws, wt = tableau_permutation(s), tableau_permutation(t)
    left = HeckeElement.t_perm(n, perm_id(n))
    left = left.times_word(reduced_word(ws)).star()
    return (left * m_lambda(lam, n)).times_word(reduced_word(wt))


@cache
def murphy_basis(n):
    """The full Murphy family at rank n: tuples (lam, s, t, element).

    Ordered by partitions_of(n) then by the path order on tableaux; the
    family has cardinality n!.
    """
    out = []
    for lam in partitions_of(n):
        tabs = standard_tableaux(lam)
        mlam = m_lambda(lam, n)
        cache_left = {}
        for s in tabs:
            ws = reduced_word(tableau_permutation(s))
            left = cache_left.get(ws)
            if left is None:
                left = HeckeElement.one(n).times_word(ws).star() * mlam
                cache_left[ws] = left
            for t in tabs:
                wt = reduced_word(tableau_permutation(t))
                out.append((lam, s, t, left.times_word(wt)))
    return tuple(out)


def _vector(x):
    """The T-basis coefficients of x as field elements, for the solvers."""
    of = LaurentFraction.of
    return {w: of(c, QV) for w, c in x.coeffs.items()}


def murphy_basis_json(n):
    """The Murphy family as JSON: (lam, s, t as entry arrays) plus the
    T-basis coefficient map of each element."""
    return [
        {
            "lambda": list(lam),
            "s": [list(row) for row in s],
            "t": [list(row) for row in t],
            "coeffs": {
                ",".join(map(str, w)): c.to_json()
                for w, c in sorted(el.coeffs.items())
            },
        }
        for lam, s, t, el in murphy_basis(n)
    ]


@cache
def _murphy_solver(n):
    # built once per rank and then shared read-only, pivoting in the
    # tower's order
    from .towers import tower

    solver = SpanSolver(pivot_key=tower("hecke").pivot_key(n))
    index = []
    for lam, s, t, el in murphy_basis(n):
        status, _ = solver.insert(_vector(el))
        if status != "new":
            raise InternalInvariantError("Murphy family is linearly dependent")
        index.append((lam, s, t))
    return solver, tuple(index)


def murphy_transition_det(n):
    """det of the change of basis Murphy -> T, over Q(q)."""
    solver, _ = _murphy_solver(n)
    keys = sorted(solver.by_key)  # all n! permutations in a fixed order
    return solver.det_unit(keys)


def det_is_unit_monomial(det):
    """True when det = ± q^k."""
    nu, du = det.num.as_unit(), det.den.as_unit()
    return nu is not None and du is not None and abs(nu[1]) == 1 and abs(du[1]) == 1


def express_in_murphy(x):
    """Coordinates of x over the Murphy basis of rank x.n (exact, unique)."""
    solver, index = _murphy_solver(x.n)
    coords = solver.express(_vector(x))
    if coords is None:
        raise InternalInvariantError("element outside the Murphy span")
    return {index[i]: c for i, c in coords.items()}


# ---------------------------------------------------------------------------
# branching coefficients
# ---------------------------------------------------------------------------


def added_node(mu, lam):
    """The node lam \\ mu, requiring mu -> lam in Young's lattice."""
    if sum(lam) != sum(mu) + 1:
        raise DomainError(f"{mu} -> {lam} is not a branching edge")
    for node in removable_nodes(lam):
        if remove_node(lam, node) == mu:
            return node
    raise DomainError(f"{mu} -> {lam} is not a branching edge")


def d_branching(mu, lam, n=None):
    """T_{a(alpha), n} for the restriction edge mu -> lam at level n = |lam|."""
    if n is None:
        n = sum(lam)
    i, j = added_node(mu, lam)
    a = sum(lam[:i])
    return HeckeElement.t_word(n, range(a, n))


def d_word(mu, lam):
    i, j = added_node(mu, lam)
    a = sum(lam[:i])
    return tuple(range(a, sum(lam)))


def u_branching(mu, nu, n=None):
    """q^{n-a} T_{n+1, a+1} D(beta) for the induction edge mu -> nu, |mu| = n."""
    if n is None:
        n = sum(mu)
    rank = n + 1
    i, j = added_node(mu, nu)
    a = sum(mu[:i])
    b = sum(mu[: i - 1]) + 1
    x = HeckeElement.t_word(rank, range(n, a, -1))  # T_{n+1, a+1}
    return x.scale(QPOLY ** (n - a)) * d_cap(a, b, rank)


def d_cap(a, b, n):
    """D(beta) = 1 + q T_a + q^2 T_a T_{a-1} + ... + q^{a+1-b} T_a ... T_b."""
    out = HeckeElement.one(n)
    word = []
    for r, i in enumerate(range(a, b - 1, -1), start=1):
        word.append(i)
        out = out + HeckeElement.t_word(n, word).scale(QPOLY ** r)
    return out


def d_path(tab):
    """d_t as a product of edge coefficients; equals T_{w(t)} exactly."""
    lam = shape_of(tab)
    n = sum(lam)
    path = [tableau_restrict(tab, k) for k in range(n + 1)]
    x = HeckeElement.one(n)
    word = []
    for k in range(n, 0, -1):
        word.extend(d_word(shape_of(path[k - 1]), shape_of(path[k])))
    return x.times_word(word)


# ---------------------------------------------------------------------------
# Garnir elements and the straightening certificate
# ---------------------------------------------------------------------------


def garnir_element(lam, node):
    """h_g = q^l(w(g)) m_lam T_w(g) + sum over standard tau |> g of
    q^l(w(tau)) m_lam T_w(tau).

    The q-weights translate the straightening relation into this T
    normalization (T_i - q)(T_i + q^-1) = 0; without them the element does
    not lie in the dominance ideal (visible already at lam = (1,1)).
    Membership h_g in M^lam cap H^{> lam} is certified by express_in_murphy.
    """
    from .combinatorics import garnir_tableau

    n = sum(lam)
    g = garnir_tableau(lam, node)
    wg = tableau_permutation(g)
    out = m_lambda(lam, n).times_word(reduced_word(wg)).scale(QPOLY ** perm_len(wg))
    for tau in standard_tableaux(lam):
        if tableau_dominance_gt(tau, g):
            wt = tableau_permutation(tau)
            out = out + m_lambda(lam, n).times_word(reduced_word(wt)).scale(
                QPOLY ** perm_len(wt)
            )
    return out


def murphy_support_shapes(x):
    """Shapes carrying nonzero coordinates of x over the Murphy basis."""
    return {lam for (lam, s, t), c in express_in_murphy(x).items() if c}


# ---------------------------------------------------------------------------
# cell module action and restriction filtration
# ---------------------------------------------------------------------------


def cell_action(lam, n, i):
    """Action matrix of T_i on the cell module of shape lam.

    Returns {t: {v: r_v(t, T_i)}} read off from express_in_murphy of
    m^lam_{t^lam, t} T_i; raises if any coordinate violates cellularity
    (support outside the lam cell must sit strictly higher in dominance).
    """
    tabs = standard_tableaux(lam)
    tsup = superstandard_tableau(lam)
    rows = {}
    for t in tabs:
        el = murphy_element(lam, tsup, t, n).times_gen(i)
        coords = express_in_murphy(el)
        row = {}
        for (mu, s, v), c in coords.items():
            if mu == lam:
                if s != tsup:
                    raise InternalInvariantError("cell action leaked across rows")
                row[v] = c
            elif not (dominance_geq(mu, lam) and mu != lam):
                raise InternalInvariantError("cell action left the dominance ideal")
        rows[t] = row
    return rows


def restriction_filtration(lam, n=None):
    """Order-preserving cell filtration of Res H_{n-1} of the lam cell module.

    Returns a report dict with the node order, the layer bases, and booleans
    for H_{n-1}-stability, subquotient action match, and rank counts.
    """
    if n is None:
        n = sum(lam)
    if n != sum(lam):
        raise DomainError("rank must equal |lam|")
    tabs = standard_tableaux(lam)
    nodes = removable_nodes(lam)
    groups = {node: [] for node in nodes}
    for t in tabs:
        pos = tableau_entries(t)[n]
        groups[pos].append(t)
    actions = {i: cell_action(lam, n, i) for i in range(1, n - 1)}
    report = {
        "shape": lam,
        "nodes": nodes,
        "layers": [],
        "stable": True,
        "subquotients_match": True,
        "order_preserving": True,
    }
    allowed = set()
    prev_mu = None
    for node in nodes:
        mu = remove_node(lam, node)
        layer = groups[node]
        allowed |= set(layer)
        stable = all(
            set(actions[i][t]) <= allowed for i in actions for t in layer
        )
        # the subquotient action must match the mu cell module under s -> s u node
        match = True
        sub_actions = {i: cell_action(mu, n - 1, i) for i in range(1, n - 1)}
        strictly_lower = allowed - set(layer)
        for i in actions:
            for t in layer:
                t_small = tableau_restrict(t, n - 1)
                expected = sub_actions[i][t_small]
                got = {
                    v: c
                    for v, c in actions[i][t].items()
                    if v not in strictly_lower
                }
                want = {}
                for v_small, c in expected.items():
                    want[_adjoin(v_small, node, n)] = c
                if got != want:
                    match = False
        if prev_mu is not None and not (dominance_geq(prev_mu, mu) and prev_mu != mu):
            report["order_preserving"] = False
        prev_mu = mu
        report["stable"] &= stable
        report["subquotients_match"] &= match
        report["layers"].append(
            {"node": node, "shape": mu, "rank": len(layer), "tableaux": tuple(layer)}
        )
    return report


def _adjoin(tab, node, entry):
    i, j = node
    rows = [list(r) for r in tab]
    if i - 1 == len(rows):
        rows.append([])
    rows[i - 1].append(entry)
    return tuple(tuple(r) for r in rows)


# ---------------------------------------------------------------------------
# semistandard basis and the permutation module filtration
# ---------------------------------------------------------------------------


def semistandard_basis_element(S, t, mu, n=None):
    """m_{S t} = sum over standard s with mu(s) = S of q^{l(w(s))} m^lam_{s t}."""
    lam = shape_of(S)
    if n is None:
        n = sum(lam)
    if shape_of(t) != lam:
        raise DomainError("shape mismatch between S and t")
    out = HeckeElement(n)
    for s in standard_tableaux(lam):
        if tableau_type_map(s, mu) == S:
            out = out + murphy_element(lam, s, t, n).scale(
                QPOLY ** perm_len(tableau_permutation(s))
            )
    return out


def permutation_module_report(mu, n=None):
    """Murphy's permutation-module theorem as rank certificates.

    Checks that the m_{S t} span m_mu H_n freely, that the dominance-ordered
    partial spans M_i are H_n-stable, and that each subquotient carries the
    cell-module action through m_{S_j t} + M_{j-1} -> m^{lam(j)}_t.
    """
    if n is None:
        n = sum(mu)
    layers = []
    for lam in partitions_of(n):
        for S in semistandard_tableaux(lam, mu):
            layers.append((lam, S))
    # dominance-compatible global order has the largest shape first; the
    # filtration is built from the top layer down
    basis = []
    for j, (lam, S) in enumerate(layers):
        for t in standard_tableaux(lam):
            basis.append((j, lam, S, t, semistandard_basis_element(S, t, mu, n)))
    solver = SpanSolver()
    key_index = []
    for j, lam, S, t, el in basis:
        status, _ = solver.insert(_vector(el))
        if status != "new":
            return {"free": False}
        key_index.append((j, lam, t))
    # rank of m_mu H_n by closure
    module = SpanSolver()
    mmu = m_lambda(mu, n)
    queue = [mmu]
    module.insert(_vector(mmu))
    while queue:
        el = queue.pop()
        for i in range(1, n):
            nxt = el.times_gen(i)
            status, _ = module.insert(_vector(nxt))
            if status == "new":
                queue.append(nxt)
    free_rank_matches = module.rank == len(basis)
    # stability of M_i and the subquotient isomorphisms in one pass:
    # expanding m_{S_j t} T_i over the family must stay within layers <= j,
    # and the layer-j coefficients must equal the cell-module action
    stable = True
    subquotients_match = True
    actions = {
        lam: {i: cell_action(lam, n, i) for i in range(1, n)}
        for lam in {lam for _, lam, _, _, _ in basis}
    }
    for j, lam, S, t, el in basis:
        for i in range(1, n):
            coords = solver.express(_vector(el.times_gen(i)))
            if coords is None:
                return {"free": True, "module_rank_matches": free_rank_matches,
                        "filtration_stable": False, "subquotients_match": False}
            got = {}
            for idx, c in coords.items():
                j2, lam2, t2 = key_index[idx]
                if j2 > j:
                    stable = False
                elif j2 == j:
                    got[t2] = c
            if got != actions[lam][i][t]:
                subquotients_match = False
    return {
        "free": True,
        "rank": len(basis),
        "module_rank_matches": free_rank_matches,
        "filtration_stable": stable,
        "subquotients_match": subquotients_match,
        "layers": [(lam, S) for lam, S in layers],
    }


# ---------------------------------------------------------------------------
# the q = 1 specialization
# ---------------------------------------------------------------------------


class SymmetricGroupElement:
    """An element of the group algebra of S_n (exact coefficients)."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n, coeffs=None):
        self.n = n
        self.coeffs = {w: c for w, c in (coeffs or {}).items() if c}

    @classmethod
    def one(cls, n, unit):
        return cls(n, {perm_id(n): unit})

    def __add__(self, other):
        out = dict(self.coeffs)
        for w, c in other.coeffs.items():
            _acc(out, w, c)
        return SymmetricGroupElement(self.n, out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, f):
        return SymmetricGroupElement(self.n, {w: c * f for w, c in self.coeffs.items()})

    def __mul__(self, other):
        if not isinstance(other, SymmetricGroupElement):
            return self.scale(other)
        out = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                _acc(out, perm_mul(w1, w2), c1 * c2)
        return SymmetricGroupElement(self.n, out)

    def star(self):
        return SymmetricGroupElement(self.n, {perm_inv(w): c for w, c in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (
            isinstance(other, SymmetricGroupElement)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, tuple(sorted(self.coeffs.items()))))

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*{list(w)}" for w, c in sorted(self.coeffs.items()))

    __repr__ = __str__


def symmetric_group_specialize(x):
    """Set q := 1; lands in the group algebra with rational coefficients."""
    one = RationalFunction.one(())
    out = {}
    for w, c in x.coeffs.items():
        val = specialize(c, {Q: one}, ())
        if val:
            _acc(out, w, val)
    return SymmetricGroupElement(x.n, out)
