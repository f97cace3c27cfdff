"""Concrete tower specifications consumed by the framework engine.

Each tower bundles, per level n: the algebra arithmetic over its generic
ground ring, the essential idempotents e_i, the quotient map onto the
H-tower, the H-side branching diagram, and the chosen lifts of branching
coefficients and of the cell-module generators c_(lambda,0).  The engine
never invents these choices; they are pinned here to the explicit
per-algebra formulas.

Levels: for Brauer/TL/BMW, level n is the algebra on n strands.  For the
partition tower, level 2i is the whole partition algebra on i strands and
level 2i+1 is the half-integer subalgebra inside i+1 strands.
"""

from __future__ import annotations

import math
from functools import cache

from .coeff import DV, QV, QZV, LaurentFraction
from .combinatorics import partition_half_levels, singleton_chain, young_lattice
from .diagrams import (
    BrauerDiagram,
    DiagramElement,
    SetPartitionDiagram,
    bell_number,
    brauer_basis,
    catalan_number,
    double_factorial_odd,
    half_level_basis,
    partition_basis,
    quotient_to_symmetric,
    tl_basis,
)
from .errors import DomainError
from .hecke import (
    HeckeElement,
    SymmetricGroupElement,
    _vector as _hecke_vector,
    added_node,
    d_branching,
    m_lambda,
    perm_len,
    u_branching,
    young_subgroup,
)
from . import bmw as _bmw


class _DiagramTowerBase:
    """Shared plumbing for the three diagram towers over Z[delta]."""

    field_vars = DV
    has_contractions = True

    def one(self, n):
        return DiagramElement.one(self.strands(n), self.diagram_cls)

    def zero(self, n):
        return DiagramElement(self.strands(n))

    def mul(self, x, y):
        return x * y

    def star(self, x):
        return x.star()

    def add(self, x, y):
        return x + y

    def scale(self, x, f):
        return x.scale(f)

    def include(self, x, from_level, to_level):
        if to_level < from_level:
            raise DomainError("cannot include downward")
        s = self.strands(to_level)
        if x.n == s:
            return x
        return DiagramElement(s, {d.pad(s): c for d, c in x.coeffs.items()})

    def strands(self, n):
        return n

    def pivot_key(self, n):
        """Sort key for the basis solver's pivots; None takes the first
        residual key (no other order has been measured to help here)."""
        return None

    def vector(self, x):
        of = LaurentFraction.of
        return {d: of(c, DV) for d, c in x.coeffs.items()}

    def key_str(self, key):
        return str(key)

    def is_zero(self, x):
        return x.is_zero()


class BrauerTower(_DiagramTowerBase):
    name = "brauer"
    diagram_cls = BrauerDiagram
    default_bound = 4
    axiom_bound = 3

    def dim(self, n):
        return double_factorial_odd(n)

    def h_dim(self, n):
        return math.factorial(n)

    def basis_keys(self, n):
        return brauer_basis(n)

    def element_of_key(self, key, n):
        return DiagramElement.from_diagram(key)

    def e_elt(self, i, n):
        return DiagramElement.from_diagram(BrauerDiagram.e(i, n))

    def generators(self, n):
        out = []
        for i in range(1, n):
            out.append((f"s{i}", DiagramElement.from_diagram(BrauerDiagram.s(i, n))))
            out.append((f"e{i}", DiagramElement.from_diagram(BrauerDiagram.e(i, n))))
        return out

    def h_diagram(self, depth):
        return young_lattice(depth)

    def c_lift(self, lam, n):
        out = DiagramElement(n)
        for v in young_subgroup(lam, n):
            out = out + DiagramElement.from_diagram(BrauerDiagram.from_permutation(v))
        return out

    def dbar(self, lam, mu, i, n):
        """s_{a,i} as a permutation diagram in level n."""
        j = added_node(lam, mu)[0]
        a = sum(mu[:j])
        w = _s_range(a, i, n)
        return DiagramElement.from_diagram(BrauerDiagram.from_permutation(w))

    def ubar(self, lam, mu, i, n):
        """s_{i,a} sum_{r=0..lam_j} s_{a,a-r} as permutation diagrams."""
        j = added_node(lam, mu)[0]
        a = sum(mu[:j])
        lam_j = lam[j - 1] if j <= len(lam) else 0
        left = DiagramElement.from_diagram(
            BrauerDiagram.from_permutation(_s_range(i, a, n))
        )
        acc = DiagramElement(n)
        for r in range(lam_j + 1):
            acc = acc + DiagramElement.from_diagram(
                BrauerDiagram.from_permutation(_s_range(a, a - r, n))
            )
        return left * acc

    def pi(self, x, n):
        return quotient_to_symmetric(x)


class TemperleyLiebTower(_DiagramTowerBase):
    name = "tl"
    diagram_cls = BrauerDiagram
    default_bound = 6
    axiom_bound = 4

    def dim(self, n):
        return catalan_number(n)

    def h_dim(self, n):
        return 1

    def basis_keys(self, n):
        return tl_basis(n)

    def element_of_key(self, key, n):
        return DiagramElement.from_diagram(key)

    def e_elt(self, i, n):
        return DiagramElement.from_diagram(BrauerDiagram.e(i, n))

    def generators(self, n):
        return [
            (f"e{i}", DiagramElement.from_diagram(BrauerDiagram.e(i, n)))
            for i in range(1, n)
        ]

    def h_diagram(self, depth):
        return singleton_chain(depth)

    def c_lift(self, lam, n):
        return self.one(n)

    def dbar(self, lam, mu, i, n):
        return self.one(n)

    def ubar(self, lam, mu, i, n):
        return self.one(n)

    def pi(self, x, n):
        ident = BrauerDiagram.identity(x.n)
        c = x.coeffs.get(ident)
        return SymmetricGroupElement(0, {(): c} if c else {})


class PartitionTower(_DiagramTowerBase):
    """The tower A_0, A_1/2, A_1, ... with half-integer levels interleaved."""

    name = "partition"
    diagram_cls = SetPartitionDiagram
    default_bound = 6
    axiom_bound = 4

    def strands(self, n):
        return (n + 1) // 2

    def dim(self, n):
        return bell_number(n)

    def h_dim(self, n):
        return math.factorial(n // 2)

    def basis_keys(self, n):
        if n % 2 == 0:
            return partition_basis(n // 2)
        return half_level_basis((n + 1) // 2)

    def element_of_key(self, key, n):
        return DiagramElement.from_diagram(key)

    def one(self, n):
        return DiagramElement.one(self.strands(n), SetPartitionDiagram)

    def e_elt(self, i, n):
        s = self.strands(n)
        if i % 2 == 1:  # e_{2k-1} = p_k
            return DiagramElement.from_diagram(SetPartitionDiagram.p_int((i + 1) // 2, s))
        return DiagramElement.from_diagram(SetPartitionDiagram.p_half(i // 2, s))

    def generators(self, n):
        s = self.strands(n)
        out = []
        m = n // 2  # symmetric-group size at this level
        for i in range(1, m):
            out.append((f"t{i}", DiagramElement.from_diagram(SetPartitionDiagram.t(i, s))))
        for i in range(1, n):
            out.append((f"e{i}", self.e_elt(i, n)))
        return out

    def h_diagram(self, depth):
        return partition_half_levels(depth)

    def c_lift(self, lam, n):
        s = self.strands(n)
        out = DiagramElement(s)
        for v in young_subgroup(lam, s):
            out = out + DiagramElement.from_diagram(SetPartitionDiagram.from_permutation(v))
        return out

    def dbar(self, lam, mu, i, n):
        """Level-i H-branching lift, included into level n."""
        s = self.strands(n)
        if i % 2 == 1:  # odd step: lam = mu, coefficient 1
            if lam != mu:
                raise DomainError("odd-level H edges repeat the partition")
            return self.one(n)
        j = added_node(lam, mu)[0]
        a = sum(mu[:j])
        w = _s_range(a, i // 2, s)
        return DiagramElement.from_diagram(SetPartitionDiagram.from_permutation(w))

    def ubar(self, lam, mu, i, n):
        s = self.strands(n)
        if i % 2 == 1:
            if lam != mu:
                raise DomainError("odd-level H edges repeat the partition")
            return self.one(n)
        j = added_node(lam, mu)[0]
        a = sum(mu[:j])
        lam_j = lam[j - 1] if j <= len(lam) else 0
        left = DiagramElement.from_diagram(
            SetPartitionDiagram.from_permutation(_s_range(i // 2, a, s))
        )
        acc = DiagramElement(s)
        for r in range(lam_j + 1):
            acc = acc + DiagramElement.from_diagram(
                SetPartitionDiagram.from_permutation(_s_range(a, a - r, s))
            )
        return left * acc

    def pi(self, x, n):
        g = quotient_to_symmetric(x)
        m = n // 2
        out = {}
        for w, c in g.coeffs.items():
            if all(w[k] == k + 1 for k in range(m, len(w))):
                out[w[:m]] = c
        return SymmetricGroupElement(m, out)


class BMWTower:
    name = "bmw"
    field_vars = QZV
    has_contractions = True
    default_bound = 3
    # products for axiom checks at index n live in rank n+1; rank 4
    # coordinates are expensive, so the default sweep stops at n = 2
    axiom_bound = 2

    def dim(self, n):
        return double_factorial_odd(n)

    def h_dim(self, n):
        return math.factorial(n)

    def strands(self, n):
        return n

    def pivot_key(self, n):
        """Sort key for the basis solver's pivots; None takes the first
        residual key (no other order has been measured to help here)."""
        return None

    def basis_keys(self, n):
        return tuple(d for d, _ in _bmw.bmw_normal_forms(n))

    def element_of_key(self, key, n):
        model = _bmw.bmw_model(n)
        return _bmw.BMWElement.from_word(n, model.words[key])

    def one(self, n):
        return _bmw.BMWElement.one(n)

    def zero(self, n):
        return _bmw.BMWElement(n)

    def mul(self, x, y):
        return x * y

    def star(self, x):
        return x.star()

    def add(self, x, y):
        return x + y

    def scale(self, x, f):
        return x.scale(f)

    def include(self, x, from_level, to_level):
        return x.embed(to_level)

    def is_zero(self, x):
        return x.is_zero()

    def e_elt(self, i, n):
        return _bmw.BMWElement.e(n, i)

    def generators(self, n):
        out = []
        for i in range(1, n):
            out.append((f"g{i}", _bmw.BMWElement.g(n, i)))
            out.append((f"e{i}", _bmw.BMWElement.e(n, i)))
        return out

    def vector(self, x):
        return dict(x.basis_keys())

    def key_str(self, key):
        return str(key)

    def h_diagram(self, depth):
        return young_lattice(depth)

    def c_lift(self, lam, n):
        from .hecke import reduced_word

        out = _bmw.BMWElement(n)
        for v in young_subgroup(lam, n):
            out = out + _bmw.BMWElement.from_word(
                n, reduced_word(v), _bmw.P_Q ** perm_len(v)
            )
        return out

    def dbar(self, lam, mu, i, n):
        d, _ = _bmw.bmw_lift_branching(lam, mu, i, n)
        return d

    def ubar(self, lam, mu, i, n):
        _, u = _bmw.bmw_lift_branching(lam, mu, i, n)
        return u

    def pi(self, x, n):
        return _bmw.bmw_to_hecke(x)


class HeckeTower:
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

    def strands(self, n):
        return n

    def pivot_key(self, n):
        # short permutations first keeps the Murphy reduction near-triangular
        # and its pivots monomial, so no fraction needs a gcd
        return lambda w: (perm_len(w), w)

    def basis_keys(self, n):
        import itertools

        return tuple(sorted(itertools.permutations(range(1, n + 1))))

    def element_of_key(self, key, n):
        return HeckeElement.t_perm(n, key)

    def one(self, n):
        return HeckeElement.one(n)

    def zero(self, n):
        return HeckeElement(n)

    def mul(self, x, y):
        return x * y

    def star(self, x):
        return x.star()

    def add(self, x, y):
        return x + y

    def scale(self, x, f):
        return x.scale(f)

    def include(self, x, from_level, to_level):
        return x.embed(to_level)

    def is_zero(self, x):
        return x.is_zero()

    def generators(self, n):
        return [(f"T{i}", HeckeElement.t_gen(n, i)) for i in range(1, n)]

    def vector(self, x):
        return _hecke_vector(x)

    def key_str(self, key):
        return ",".join(map(str, key))

    def h_diagram(self, depth):
        return young_lattice(depth)

    def c_lift(self, lam, n):
        return m_lambda(lam, n)

    def dbar(self, lam, mu, i, n):
        return d_branching(lam, mu, i).embed(n)

    def ubar(self, lam, mu, i, n):
        return u_branching(lam, mu, i - 1).embed(n)

    def pi(self, x, n):
        return x


def _s_range(a, b, n):
    """The permutation s_{a,b} = s_a s_{a+1} ... s_{b-1} (a <= b, the cycle
    sending a to b) or s_{a-1} s_{a-2} ... s_b (a > b); identity if a = b."""
    from .hecke import perm_from_word

    word = range(a, b) if a <= b else range(a - 1, b - 1, -1)
    return perm_from_word(word, n)


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
