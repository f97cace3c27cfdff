"""The Iwahori-Hecke algebra of the symmetric group in the T basis.

Its elements, and those of the group algebra of S_n at q = 1, are
`linalg.SparseElement` maps permutation -> coefficient; this module adds
their products, the involution and the tower inclusion.

Murphy cellular basis machinery: m_lambda sums, the basis T_w(s)* m_lambda
T_w(t), branching coefficients for restriction and induction, Garnir
elements, the restriction filtration of cell modules, and the q = 1
specialization onto the group algebra.

The Murphy basis is the Hecke tower's cell datum: the path basis
d_s* m_lambda d_t of `framework.cellular_basis("hecke", n)`, labelled by
tableaux. Straightening is always done by that datum's linear solve; no
rewriting mod the ideal is ever trusted. Cell-module actions are the rows
`CellDatum.cell_row` reads off that datum, and the permutation-module
report proves that the semistandard family spans m_mu H_n by comparing it
with the m_mu T_d over distinguished coset representatives d.
"""

from __future__ import annotations

import itertools
from functools import cache

from .coeff import Q, QV, LaurentPoly
from .combinatorics import (
    garnir_tableau,
    partitions_of,
    path_to_tableau,
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
)
from .errors import DomainError, InternalInvariantError, SpecializationError
from .linalg import SparseElement, SpanSolver, acc

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


class HeckeElement(SparseElement):
    """Finitely supported map permutation -> coefficient, in the T basis.

    Coefficients may live in Z[q, q^-1] or any fraction field coercing with
    it; all stored coefficients are nonzero.
    """

    __slots__ = ()

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

    def times_gen(self, i):
        """Right multiplication by T_i."""
        if not 1 <= i <= self.n - 1:
            raise DomainError(f"generator index {i} out of range for rank {self.n}")
        out = {}
        for w, c in self.coeffs.items():
            # w s_i swaps the values i and i+1 of w
            a, b = w.index(i), w.index(i + 1)
            ws = list(w)
            ws[a], ws[b] = i + 1, i
            acc(out, tuple(ws), c)
            # l(w s_i) < l(w) iff the value i+1 appears before the value i
            if a > b:
                acc(out, w, c * TWIST)
        return HeckeElement._raw(self.n, out)

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
            # self·(Σ c·T_w) = Σ (self·T_w)·c, summed into one map
            out = {}
            for w, c in other.coeffs.items():
                for v, x in self.times_word(reduced_word(w)).coeffs.items():
                    acc(out, v, x * c)
            return HeckeElement._raw(self.n, out)
        return self.scale(other)

    def star(self):
        """The involution T_v -> T_{v^{-1}}."""
        return self.map_keys(perm_inv)

    def embed(self, n):
        """Image under the tower inclusion H_self.n -> H_n."""
        if n < self.n:
            raise DomainError("cannot embed downward")
        pad = tuple(range(self.n + 1, n + 1))
        return self.map_keys(lambda w: w + pad, n)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*T{list(w)}" for w, c in sorted(self.coeffs.items()))

    def to_json(self):
        return {
            "n": self.n,
            "coeffs": {
                ",".join(map(str, w)): c.to_json()
                for w, c in sorted(self.coeffs.items())
            },
        }


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


def _datum(n):
    # framework imports this module through towers, so it is imported here
    from .framework import cellular_basis

    return cellular_basis("hecke", n)


@cache
def _tableau_labels(n):
    """Each key (vertex, si, ti) of the Hecke cell datum at rank n, as the
    Murphy label (lam, s, t) of its two branching paths."""
    datum = _datum(n)
    tabs = {
        v: [path_to_tableau(tuple(lam for lam, _ in p)) for p in datum.paths[v]]
        for v in datum.vertices
    }
    return {(v, si, ti): (v[0], tabs[v][si], tabs[v][ti]) for v, si, ti in datum.index}


def murphy_basis(n):
    """The full Murphy family at rank n: tuples (lam, s, t, element).

    This is the path basis d_s* m_lam d_t of the Hecke cell datum, ordered
    by partitions_of(n) then by the path order on tableaux; the family has
    cardinality n!.
    """
    datum = _datum(n)
    labels = _tableau_labels(n)
    return tuple((*labels[k], datum.elements[k]) for k in datum.index)


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


def murphy_transition_det(n):
    """det of the change of basis Murphy -> T, over Q(q)."""
    return _datum(n).det


def det_is_unit_monomial(det):
    """True when det = ± q^k."""
    nu, du = det.num.as_unit(), det.den.as_unit()
    return nu is not None and du is not None and abs(nu[1]) == 1 and abs(du[1]) == 1


def express_in_murphy(x):
    """Coordinates of x over the Murphy basis of rank x.n (exact, unique)."""
    coords = _datum(x.n).express(x)
    if coords is None:
        raise InternalInvariantError("element outside the Murphy span")
    labels = _tableau_labels(x.n)
    return {labels[k]: c for k, c in coords.items()}


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

    Returns {t: {v: r_v(t, T_i)}}: the rows `CellDatum.action_rows` reads
    off the Hecke cell datum for m^lam_{t^lam, t} T_i (the datum's first
    path is the superstandard tableau t^lam), relabelled by tableaux;
    raises if any product leaves the cell ideal (support on another row of
    the lam cell, or on a shape not strictly dominating lam).
    """
    if not 1 <= i <= n - 1:
        raise DomainError(f"generator index {i} out of range for rank {n}")
    datum = _datum(n)
    v = (lam, 0)
    action = datum.action_rows(v)
    if action is None:
        raise InternalInvariantError(f"cell action at {lam} left the cell ideal")
    tab = [_tableau_labels(n)[(v, 0, ti)][2] for ti in range(len(datum.paths[v]))]
    return {
        tab[ti]: {tab[tj]: c for tj, c in row.items()}
        for ti, row in enumerate(action[f"T{i}"])
    }


def restriction_filtration(lam, n=None):
    """Order-preserving cell filtration of Res H_{n-1} of the lam cell module.

    The certificate of `framework.restriction_filtration_a` at the vertex
    (lam, 0), with each layer's partition added as "shape": booleans for
    H_{n-1}-stability, subquotient action match and order preservation, and
    the rank of each layer.  A short failure report of that certificate
    (no layers) is returned unchanged.
    """
    from .framework import restriction_filtration_a

    if n is None:
        n = sum(lam)
    if n != sum(lam):
        raise DomainError("rank must equal |lam|")
    report = restriction_filtration_a("hecke", (lam, 0), n)
    for layer in report.get("layers", ()):
        layer["shape"] = layer["vertex"][0]
    return report


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
    """Murphy's permutation-module theorem as exact certificates.

    Checks that the m_{S t} are free, that they span m_mu H_n, that the
    dominance-ordered partial spans M_i are H_n-stable, and that each
    subquotient carries the cell-module action through
    m_{S_j t} + M_{j-1} -> m^{lam(j)}_t.

    The span certificate: expressing every m_{S t} T_i over the family shows
    its span is T_i-closed, so with m_mu inside it, m_mu H_n lies inside too.
    The m_mu T_d, d a distinguished right coset representative of S_mu, lie
    in m_mu H_n; as many independent ones as the family has members make the
    two spans equal.
    """
    from .towers import tower  # towers imports this module

    if n is None:
        n = sum(mu)
    pivot_key = tower("hecke").pivot_key(n)
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
    solver = SpanSolver(pivot_key=pivot_key)
    key_index = []
    for j, lam, S, t, el in basis:
        status, _ = solver.insert(el.vector(QV))
        if status != "new":
            return {"free": False}
        key_index.append((j, lam, t))
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
            coords = solver.express(el.times_gen(i).vector(QV))
            if coords is None:
                return {"free": True, "module_rank_matches": False,
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
    # the span is T_i-closed; compare it with m_mu H_n.  The d are the
    # permutations increasing on each block of mu (k + 1 not a block end).
    mmu = m_lambda(mu, n)
    ends = set(itertools.accumulate(mu))
    reps = [
        d for d in itertools.permutations(range(1, n + 1))
        if all(d[k] < d[k + 1] for k in range(n - 1) if k + 1 not in ends)
    ]
    cosets = SpanSolver(pivot_key=pivot_key)
    module_rank_matches = (
        solver.express(mmu.vector(QV)) is not None
        and len(reps) == len(basis)
        and all(
            cosets.insert(mmu.times_word(reduced_word(d)).vector(QV))[0] == "new"
            for d in reps
        )
    )
    return {
        "free": True,
        "rank": len(basis),
        "module_rank_matches": module_rank_matches,
        "filtration_stable": stable,
        "subquotients_match": subquotients_match,
        "layers": [(lam, S) for lam, S in layers],
    }


# ---------------------------------------------------------------------------
# the q = 1 specialization
# ---------------------------------------------------------------------------


class SymmetricGroupElement(SparseElement):
    """An element of the group algebra of S_n (exact coefficients)."""

    __slots__ = ()

    @classmethod
    def one(cls, n, unit):
        return cls(n, {perm_id(n): unit})

    def __mul__(self, other):
        if not isinstance(other, SymmetricGroupElement):
            return self.scale(other)
        if other.n != self.n:
            raise DomainError("rank mismatch")
        out = {}
        for w1, c1 in self.coeffs.items():
            for w2, c2 in other.coeffs.items():
                acc(out, perm_mul(w1, w2), c1 * c2)
        return SymmetricGroupElement._raw(self.n, out)

    def star(self):
        return self.map_keys(perm_inv)

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*{list(w)}" for w, c in sorted(self.coeffs.items()))


def symmetric_group_specialize(x):
    """Set q := 1: the group-algebra element whose coefficient at w sums the
    integers of x's coefficient at w, a LaurentPoly over (q,) as the
    HeckeElement operations keep it; any other raises SpecializationError."""
    out = {}
    for w, c in x.coeffs.items():
        if not isinstance(c, LaurentPoly) or c.vars != QV:
            raise SpecializationError(f"coefficient {c} is not a LaurentPoly in Z[q^±1]")
        acc(out, w, sum(c.terms.values()))
    return SymmetricGroupElement._raw(x.n, out)
