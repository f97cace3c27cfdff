"""Concrete tower specifications consumed by the framework engine.

Each tower bundles, per level n: the algebra arithmetic over its generic
ground ring, the essential idempotents e_i, the quotient map onto the
H-tower, the H-side branching diagram, and the chosen lifts of branching
coefficients and of the cell-module generators c_(lambda,0).  The engine
never invents these choices.  The lifts are one formula, written once in
`_TowerBase` over a per-tower lift `braid` of reduced positive words: a
permutation diagram on the diagram towers (q = 1), a g-word at BMW and
T_w at Hecke, whose induction coefficient keeps Murphy's power of q.

Levels: for Brauer/TL/BMW, level n is the algebra on n strands.  For the
partition tower, level 2i is the whole partition algebra on i strands and
level 2i+1 is the half-integer subalgebra inside i+1 strands.

`diagrams` and `bmw` load on first use (see the package `__init__`), so
this module reads them only inside methods and properties, never at
import: a Hecke run executes neither.
"""

from __future__ import annotations

import itertools
import math
from functools import cache

from . import bmw, diagrams
from .coeff import DV, QV, QZV
from .combinatorics import partition_half_levels, singleton_chain, young_lattice
from .errors import DomainError
from .hecke import (
    QPOLY,
    HeckeElement,
    SymmetricGroupElement,
    added_node,
    perm_from_word,
    perm_len,
    reduced_word,
    young_subgroup,
)


class _TowerBase:
    """Plumbing shared by every tower: the element classes carry their own
    arithmetic, and level n has n strands.  The lifts of the H-tower data
    are one formula over each tower's `braid(s, word, power)`: the lift of
    the reduced positive word `word` on s strands times q^power."""

    def mul(self, x, y):
        return x * y

    def star(self, x):
        return x.star()

    def add(self, x, y):
        return x + y

    def scale(self, x, f):
        return x.scale(f)

    def is_zero(self, x):
        return x.is_zero()

    def include(self, x, from_level, to_level):
        return x.embed(to_level)

    def vector(self, x):
        return x.vector(self.field_vars)

    def strands(self, n):
        return n

    def pivot_key(self, n):
        """Sort key for the basis solver's pivot candidates, low values
        first; None tries them in the residual's key order.  A tower whose
        basis elements have one leading term, as the Murphy-type bases do,
        puts it first (see `_lead_first`).  TL keeps None: its cellular
        basis is its diagram basis, so its factors are empty in any order."""
        return None

    def key_str(self, key):
        return str(key)

    def c_lift(self, lam, n):
        """c_(lam,0): the sum over v in S_lam of q^l(v) times the lift of v."""
        s = self.strands(n)
        out = self.zero(n)
        for v in young_subgroup(lam, s):
            out = out + self.braid(s, reduced_word(v), perm_len(v))
        return out

    def dbar(self, lam, mu, i, n):
        """The lift of s_{a,i} = s_a s_{a+1} ... s_{i-1} for the edge lam -> mu
        at level i, in level n."""
        a, _ = _edge(lam, mu)
        return self.braid(self.strands(n), range(a, i), 0)

    def ubar(self, lam, mu, i, n):
        """The lift of s_{i,a} times sum_{r=0..lam_j} q^r s_{a,a-r}, where
        s_{b,c} = s_{b-1} s_{b-2} ... s_c for b > c."""
        s = self.strands(n)
        a, lam_j = _edge(lam, mu)
        up = self.zero(n)
        for r in range(lam_j + 1):
            up = up + self.braid(s, range(a - 1, a - r - 1, -1), r)
        return self.mul(self.braid(s, range(i - 1, a - 1, -1), 0), up)


class _DiagramTowerBase(_TowerBase):
    """Shared plumbing for the three diagram towers over Z[delta].  Their
    keys are diagrams; the diagram kind, `diagram_cls`, is read on use, so
    importing the towers runs no diagram code."""

    field_vars = DV
    has_contractions = True

    @property
    def diagram_cls(self):
        return diagrams.BrauerDiagram

    def one(self, n):
        return diagrams.DiagramElement.one(self.strands(n), self.diagram_cls)

    def zero(self, n):
        return diagrams.DiagramElement(self.strands(n))

    def include(self, x, from_level, to_level):
        if to_level < from_level:
            raise DomainError("cannot include downward")
        s = self.strands(to_level)
        if x.n == s:
            return x
        return x.map_keys(lambda d: d.pad(s), s)

    def element_of_key(self, key, n):
        return diagrams.DiagramElement.from_diagram(key)

    def braid(self, s, word, power):
        """The permutation diagram of word: q = 1 over Z[delta]."""
        return diagrams.DiagramElement.from_diagram(
            self.diagram_cls.from_permutation(perm_from_word(word, s))
        )


class BrauerTower(_DiagramTowerBase):
    name = "brauer"
    default_bound = 4
    axiom_bound = 3

    def dim(self, n):
        return diagrams.double_factorial_odd(n)

    def h_dim(self, n):
        return math.factorial(n)

    def basis_keys(self, n):
        return diagrams.brauer_basis(n)

    def e_elt(self, i, n):
        return self.element_of_key(diagrams.BrauerDiagram.e(i, n), n)

    def generators(self, n):
        out = []
        for i in range(1, n):
            out.append((f"s{i}", self.element_of_key(diagrams.BrauerDiagram.s(i, n), n)))
            out.append((f"e{i}", self.e_elt(i, n)))
        return out

    def h_diagram(self, depth):
        return young_lattice(depth)

    def pivot_key(self, n):
        return _most_crossings_first(n)

    def pi(self, x, n):
        return diagrams.quotient_to_symmetric(x)


class TemperleyLiebTower(_DiagramTowerBase):
    name = "tl"
    default_bound = 6
    axiom_bound = 4

    def dim(self, n):
        return diagrams.catalan_number(n)

    def h_dim(self, n):
        return 1

    def basis_keys(self, n):
        return diagrams.tl_basis(n)

    def e_elt(self, i, n):
        return self.element_of_key(diagrams.BrauerDiagram.e(i, n), n)

    def generators(self, n):
        return [(f"e{i}", self.e_elt(i, n)) for i in range(1, n)]

    def h_diagram(self, depth):
        return singleton_chain(depth)

    def dbar(self, lam, mu, i, n):
        return self.one(n)

    ubar = dbar

    def pi(self, x, n):
        ident = diagrams.BrauerDiagram.identity(x.n)
        c = x.coeffs.get(ident)
        return SymmetricGroupElement(0, {(): c} if c else {})


class PartitionTower(_DiagramTowerBase):
    """The tower A_0, A_1/2, A_1, ... with half-integer levels interleaved."""

    name = "partition"
    default_bound = 6
    axiom_bound = 4

    @property
    def diagram_cls(self):
        return diagrams.SetPartitionDiagram

    def strands(self, n):
        return (n + 1) // 2

    def dim(self, n):
        return diagrams.bell_number(n)

    def h_dim(self, n):
        return math.factorial(n // 2)

    def basis_keys(self, n):
        if n % 2 == 0:
            return diagrams.partition_basis(n // 2)
        return diagrams.half_level_basis((n + 1) // 2)

    def e_elt(self, i, n):
        s = self.strands(n)
        if i % 2 == 1:  # e_{2k-1} = p_k
            return self.element_of_key(diagrams.SetPartitionDiagram.p_int((i + 1) // 2, s), n)
        return self.element_of_key(diagrams.SetPartitionDiagram.p_half(i // 2, s), n)

    def generators(self, n):
        s = self.strands(n)
        out = []
        m = n // 2  # symmetric-group size at this level
        for i in range(1, m):
            out.append((f"t{i}", self.element_of_key(diagrams.SetPartitionDiagram.t(i, s), n)))
        for i in range(1, n):
            out.append((f"e{i}", self.e_elt(i, n)))
        return out

    def h_diagram(self, depth):
        return partition_half_levels(depth)

    def pivot_key(self, n):
        return _most_inversions_first(self.strands(n))

    def dbar(self, lam, mu, i, n):
        """Level-i H-branching lift, included into level n: 1 on an odd
        step, else the symmetric-group lift on i // 2 strands."""
        return self._odd_step(lam, mu, n) if i % 2 else super().dbar(lam, mu, i // 2, n)

    def ubar(self, lam, mu, i, n):
        return self._odd_step(lam, mu, n) if i % 2 else super().ubar(lam, mu, i // 2, n)

    def _odd_step(self, lam, mu, n):
        if lam != mu:
            raise DomainError("odd-level H edges repeat the partition")
        return self.one(n)

    def pi(self, x, n):
        g = diagrams.quotient_to_symmetric(x)
        m = n // 2
        out = {}
        for w, c in g.coeffs.items():
            if all(w[k] == k + 1 for k in range(m, len(w))):
                out[w[:m]] = c
        return SymmetricGroupElement(m, out)


class BMWTower(_TowerBase):
    name = "bmw"
    field_vars = QZV
    has_contractions = True
    # products for axiom checks at index n live in rank n+1; the rank-4
    # model takes about 0.35 s to build and certify (2 vCPUs), so the
    # default sweep stops at n = 2 and a rank-3 verify never builds rank 4
    axiom_bound = 2

    @property
    def default_bound(self):
        # read on use: importing the towers runs no BMW code
        return bmw.DEFAULT_BOUND

    def dim(self, n):
        return diagrams.double_factorial_odd(n)

    def h_dim(self, n):
        return math.factorial(n)

    def basis_keys(self, n):
        return tuple(d for d, _ in bmw.bmw_normal_forms(n))

    def element_of_key(self, key, n):
        model = bmw.bmw_model(n)
        return bmw.BMWElement.from_word(n, model.words[key])

    def one(self, n):
        return bmw.BMWElement.one(n)

    def zero(self, n):
        return bmw.BMWElement(n)

    def e_elt(self, i, n):
        return bmw.BMWElement.e(n, i)

    def generators(self, n):
        out = []
        for i in range(1, n):
            out.append((f"g{i}", bmw.BMWElement.g(n, i)))
            out.append((f"e{i}", bmw.BMWElement.e(n, i)))
        return out

    def vector(self, x):
        return dict(x.basis_keys())

    def pivot_key(self, n):
        return _most_crossings_first(n)

    def h_diagram(self, depth):
        return young_lattice(depth)

    def braid(self, s, word, power):
        return bmw.BMWElement.from_word(s, word, bmw.P_Q ** power)

    def pi(self, x, n):
        return bmw.bmw_to_hecke(x)


class HeckeTower(_TowerBase):
    """The degenerate tower A_n = H_n: no contractions, the path basis is
    the Murphy basis."""

    name = "hecke"
    field_vars = QV
    has_contractions = False
    default_bound = 5

    def dim(self, n):
        return math.factorial(n)

    def h_dim(self, n):
        return math.factorial(n)

    def pivot_key(self, n):
        return _longest_first(n)

    def basis_keys(self, n):
        return tuple(sorted(itertools.permutations(range(1, n + 1))))

    def element_of_key(self, key, n):
        return HeckeElement.t_perm(n, key)

    def one(self, n):
        return HeckeElement.one(n)

    def zero(self, n):
        return HeckeElement(n)

    def generators(self, n):
        return [(f"T{i}", HeckeElement.t_gen(n, i)) for i in range(1, n)]

    def key_str(self, key):
        return ",".join(map(str, key))

    def h_diagram(self, depth):
        return young_lattice(depth)

    def braid(self, s, word, power):
        return HeckeElement(s, {perm_from_word(word, s): QPOLY ** power})

    def ubar(self, lam, mu, i, n):
        """Murphy's `hecke.u_branching`: the shared lift times q^(i-a)."""
        a, _ = _edge(lam, mu)
        return super().ubar(lam, mu, i, n).scale(QPOLY ** (i - a))

    def pi(self, x, n):
        return x


def _edge(lam, mu):
    """(a, lam_j) for the Young-lattice edge lam -> mu that adds a node in
    row j: a = mu_1 + ... + mu_j is the node's place in row reading order."""
    j = added_node(lam, mu)[0]
    return sum(mu[:j]), mu[j - 1] - 1


def _lead_first(keys, order):
    """A pivot key that tries the leading term of a Murphy-type basis
    element first: the rank of a key in `order`, one dict lookup.

    d_s* c_(lambda,l) d_t has one leading term, T_(d(s)^-1 w_lambda d(t))
    at Hecke (Murphy 1995, J. Algebra 173) and the diagram with the most
    crossings at Brauer and BMW.  A basis element rarely holds the leading
    term of another, so a vector meets few pivots and the lower factors
    that `express` substitutes through stay short; and each pivot entry
    is a single term, which inverts without a gcd."""
    return {k: i for i, k in enumerate(sorted(keys, key=order))}.__getitem__


@cache
def _longest_first(n):
    """The Hecke pivot key at rank n: longest permutations first."""
    return _lead_first(itertools.permutations(range(1, n + 1)), lambda w: (-perm_len(w), w))


@cache
def _most_crossings_first(n):
    """The Brauer and BMW pivot key at rank n: most crossings first, ties
    in basis order."""
    return _lead_first(diagrams.brauer_basis(n), lambda d: -d.crossings())


@cache
def _most_inversions_first(s):
    """The partition pivot key on s strands, for the whole level and the
    half level below it: most inversions among the propagating blocks
    first, ties in basis order.  It is the permutation part of a
    diagram's length, not a proven leading term; at partition 7 it cut
    the lower factors from 629 to 275 entries."""
    return _lead_first(diagrams.partition_basis(s), lambda d: -d.propagating_inversions())


TOWERS = {
    "brauer": BrauerTower,
    "tl": TemperleyLiebTower,
    "partition": PartitionTower,
    "bmw": BMWTower,
    "hecke": HeckeTower,
}


@cache
def tower(name):
    if name not in TOWERS:
        raise DomainError(f"unknown algebra {name!r}; choose from {sorted(TOWERS)}")
    return TOWERS[name]()
