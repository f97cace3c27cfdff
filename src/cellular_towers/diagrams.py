"""Diagram bases and multiplication: Brauer, Temperley-Lieb, partition.

Vertices of an n-strand diagram are the ints 1..n (top row) and -1..-n
(bottom row).  A diagram is a set partition of the vertices, and a Brauer
diagram is one whose blocks are all pairs (Halverson-Ram 2005).  Both kinds
share one core, `_Diagram`: the blocks are stored as a sorted tuple of
sorted blocks, in `_vkey`'s order (tops 1..n, then bottoms -1..-n), and
storage, validation, comparison, the involution, padding and the
permutation methods are written once there.  Only composition and the
generators differ by kind.  Elements are finitely supported coefficient
maps over Z[delta], `linalg.SparseElement`s whose product is diagram
composition.

Composition stacks d1 over d2 (top of the product = top of d1), removing
closed middle components; each removed component contributes a factor
delta (Brauer) or one factor per removed block (partition).  The bottom
row of d1 and the top row of d2 are glued into a middle row 1..n.

Brauer composition walks strands.  Each diagram gets a mate table, and
every strand of the product is traced from its first endpoint in `_vkey`
order: from a top of d1, or, once the tops are done, from a bottom of d2
(a strand that reaches a top was traced already).  At each middle vertex
the walk crosses into the other diagram, until it leaves through a top of
d1 or a bottom of d2.  A strand's far endpoint comes later in `_vkey`
order than its start, and starts are taken in that order, so the pairs
come out canonical and need no sort.  Middle vertices that no strand
visits lie on closed loops, which are counted by walking them too.

Partition composition runs a union-find on the integers 0..3n-1 (tops of
d1, middle row, bottoms of d2).  Tops and then bottoms are grouped by
root in `_vkey` order, so each block is sorted and the blocks are ordered
by their first member: canonical again.  Middle roots that reach no outer
vertex are the removed blocks.

Composition and `star` build their results through the trusted `_raw`
constructor; the public constructors validate and canonicalize input from
outside.
"""

from __future__ import annotations

import itertools
from functools import cache
from operator import neg

from .coeff import DELTA, DV, LaurentPoly
from .errors import DomainError
from .hecke import SymmetricGroupElement
from .linalg import SparseElement, acc

DELTA_POLY = LaurentPoly.gen(DV, DELTA)
DONE = LaurentPoly.one(DV)


def _vkey(v):
    """Sort key putting tops 1..n before bottoms -1..-n."""
    return (0, v) if v > 0 else (1, -v)


def _canon_blocks(blocks):
    # an empty block sorts first, for the constructor to reject
    blocks = (tuple(sorted(b, key=_vkey)) for b in blocks)
    return tuple(sorted(blocks, key=lambda b: _vkey(b[0]) if b else ()))


class _Diagram:
    """Blocks partitioning {1..n, -1..-n}, stored canonically."""

    __slots__ = ("n", "blocks", "_hash")
    _what = "set partition"

    def __init__(self, n, blocks):
        blocks = _canon_blocks(blocks)
        seen = [v for b in blocks for v in b]
        if (
            sorted(seen) != [*range(-n, 0), *range(1, n + 1)]
            or not all(blocks)
            or not self._sizes_ok(blocks)
        ):
            raise DomainError(f"not a {self._what} on {n} strands: {blocks}")
        self.n = n
        self.blocks = blocks
        self._hash = None

    @staticmethod
    def _sizes_ok(blocks):
        return True

    @classmethod
    def _raw(cls, n, blocks):
        """Trusted constructor: `blocks` is already canonical and valid."""
        self = object.__new__(cls)
        self.n = n
        self.blocks = blocks
        self._hash = None
        return self

    @classmethod
    def identity(cls, n):
        return cls(n, [(i, -i) for i in range(1, n + 1)])

    @classmethod
    def from_permutation(cls, w):
        """Permutation diagram: top i joined to bottom w(i)."""
        return cls(len(w), [(i, -w[i - 1]) for i in range(1, len(w) + 1)])

    @classmethod
    def transposition(cls, i, n):
        """The diagram of the simple transposition s_i = (i, i+1)."""
        w = list(range(1, n + 1))
        w[i - 1 : i + 1] = i + 1, i
        return cls.from_permutation(w)

    def star(self):
        """Flip top and bottom rows; the mirror image of a valid diagram is
        valid, so only the order is redone."""
        return self._raw(self.n, _canon_blocks([tuple(map(neg, b)) for b in self.blocks]))

    def pad(self, n):
        """Add vertical strands to reach n strands."""
        extra = [(i, -i) for i in range(self.n + 1, n + 1)]
        return type(self)(n, self.blocks + tuple(extra))

    def propagating(self):
        # a canonical block lists its tops first
        return len([b for b in self.blocks if b[0] > 0 > b[-1]])

    def is_permutation(self):
        # n propagating blocks hold the n tops and the n bottoms one each
        return self.propagating() == self.n

    def permutation(self):
        if not self.is_permutation():
            raise DomainError("not a permutation diagram")
        img = {a: -b for a, b in self.blocks}
        return tuple(img[i] for i in range(1, self.n + 1))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.n, self.blocks))
        return self._hash

    def __lt__(self, other):
        return self.blocks < other.blocks

    def __str__(self):
        return "|".join(["".join(map(_pname, b)) for b in self.blocks])

    __repr__ = __str__

    def key(self):
        return str(self)


class BrauerDiagram(_Diagram):
    """A perfect matching on {1..n, -1..-n}: every block is a pair."""

    __slots__ = ()
    _what = "perfect matching"

    @staticmethod
    def _sizes_ok(blocks):
        return {len(p) for p in blocks} <= {2}

    @property
    def pairs(self):
        return self.blocks

    @classmethod
    def s(cls, i, n):
        return cls.transposition(i, n)

    @classmethod
    def e(cls, i, n):
        pairs = [(k, -k) for k in range(1, n + 1) if k not in (i, i + 1)]
        pairs += [(i, i + 1), (-i, -(i + 1))]
        return cls(n, pairs)

    def compose(self, other):
        """Stack self above other; returns (diagram, closed-loop count)."""
        if self.n != other.n:
            raise DomainError("size mismatch")
        n = self.n
        up, down = _mates(self.blocks, n), _mates(other.blocks, n)
        mid = [False] * (n + 1)  # middle vertices some walk passed through
        done = [False] * (2 * n + 1)  # far endpoints already paired
        pairs = []
        for i in range(1, n + 1):
            if done[i]:
                continue
            v = up[i]
            while v < 0:  # at middle vertex -v, coming down out of self
                mid[-v] = True
                v = down[-v]
                if v < 0:  # a bottom of other
                    done[n - v] = True
                    break
                mid[v] = True
                v = up[n + v]
            else:  # a top of self
                done[v] = True
            pairs.append((i, v))
        for i in range(1, n + 1):
            if done[n + i]:
                continue
            # this strand reaches no top, so every walk up into self turns
            # back down at another middle vertex
            v = down[n + i]
            while v > 0:
                mid[v] = True
                v = -up[n + v]
                mid[v] = True
                v = down[v]
            done[n - v] = True
            pairs.append((-i, v))
        loops = 0
        for j in range(1, n + 1):
            if mid[j]:
                continue
            loops += 1
            v = j
            while not mid[v]:  # around the loop: down into other, up into self
                mid[v] = True
                v = down[v]
                mid[v] = True
                v = -up[n + v]
        return BrauerDiagram._raw(n, tuple(pairs)), loops

    through_count = _Diagram.propagating

    def crossings(self):
        """The number of pairs of strands that cross, drawn as chords in the
        boundary order 1 < ... < n < -n < ... < -1; on the diagram of a
        permutation w it is w's length."""
        end = 2 * self.n + 1
        spans = sorted(tuple(sorted(v if v > 0 else end + v for v in p)) for p in self.blocks)
        # sorted by first endpoint, a later chord crosses an earlier one
        # exactly when it starts inside it and ends outside it
        return sum(
            1
            for (a1, b1), (a2, b2) in itertools.combinations(spans, 2)
            if a2 < b1 < b2
        )

    def is_planar(self):
        """Crossing-free in the boundary order 1 < ... < n < -n < ... < -1."""
        return not self.crossings()

    def to_json(self):
        return {"n": self.n, "pairs": [[_pname(a), _pname(b)] for a, b in self.blocks]}


def _mates(pairs, n):
    """Mate table of a matching: vertex i at index i, vertex -i at n + i."""
    mate = [0] * (2 * n + 1)
    for a, b in pairs:
        mate[a if a > 0 else n - a] = b
        mate[b if b > 0 else n - b] = a
    return mate


@cache
def _pname(v):
    return f"p{v}" if v > 0 else f"q{-v}"


@cache
def brauer_basis(n):
    """All (n, n)-Brauer diagrams; cardinality (2n-1)!!."""
    verts = list(range(1, n + 1)) + list(range(-n, 0))
    verts.sort(key=_vkey)
    out = []

    def rec(rest, pairs):
        if not rest:
            out.append(BrauerDiagram(n, pairs))
            return
        a = rest[0]
        for k in range(1, len(rest)):
            b = rest[k]
            rec(rest[1:k] + rest[k + 1 :], pairs + [(a, b)])

    rec(verts, [])
    return tuple(sorted(out, key=lambda d: d.blocks))


@cache
def tl_basis(n):
    """Crossingless Brauer diagrams; cardinality Catalan(n).

    Enumerates the non-crossing matchings of the boundary
    1 < ... < n < -n < ... < -1 directly: the first vertex pairs with one
    that leaves an even number of vertices on each side, and each side is
    matched on its own.  Sorted like `brauer_basis`, whose planar members
    these are.
    """
    boundary = list(range(1, n + 1)) + list(range(-n, 0))

    def matchings(lo, hi):
        if lo == hi:
            yield []
            return
        for k in range(lo + 1, hi, 2):
            pair = (boundary[lo], boundary[k])
            for inner in matchings(lo + 1, k):
                for outer in matchings(k + 1, hi):
                    yield [pair, *inner, *outer]

    out = [BrauerDiagram(n, pairs) for pairs in matchings(0, 2 * n)]
    return tuple(sorted(out, key=lambda d: d.blocks))


# ---------------------------------------------------------------------------
# partition diagrams
# ---------------------------------------------------------------------------


class SetPartitionDiagram(_Diagram):
    """A set partition of {1..n, -1..-n}."""

    __slots__ = ()

    @classmethod
    def t(cls, i, n):
        return cls.transposition(i, n)

    @classmethod
    def p_int(cls, i, n):
        """p_i: singleton blocks at column i."""
        blocks = [(k, -k) for k in range(1, n + 1) if k != i]
        blocks += [(i,), (-i,)]
        return cls(n, blocks)

    @classmethod
    def p_half(cls, i, n):
        """p_{i+1/2}: one block covering columns i and i+1."""
        blocks = [(k, -k) for k in range(1, n + 1) if k not in (i, i + 1)]
        blocks += [(i, i + 1, -i, -(i + 1))]
        return cls(n, blocks)

    def compose(self, other):
        """Stack self above other; returns (diagram, removed middle blocks)."""
        if self.n != other.n:
            raise DomainError("size mismatch")
        n = self.n
        # tops of self at 0..n-1, middle vertices at n..2n-1, bottoms of
        # other at 2n..3n-1
        parent = list(range(3 * n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for blocks, shift in ((self.blocks, 0), (other.blocks, n)):
            for b in blocks:
                root = None
                for v in b:
                    r = find(shift + v - 1 if v > 0 else shift + n - v - 1)
                    if root is None:
                        root = r
                    elif r != root:
                        parent[r] = root
        groups = {}
        for i in range(1, n + 1):
            groups.setdefault(find(i - 1), []).append(i)
        for i in range(1, n + 1):
            groups.setdefault(find(2 * n + i - 1), []).append(-i)
        removed = len({find(j) for j in range(n, 2 * n)} - groups.keys())
        blocks = tuple(tuple(members) for members in groups.values())
        return SetPartitionDiagram._raw(n, blocks), removed

    def propagating_inversions(self):
        """The pairs of propagating blocks whose first top vertices and first
        bottom vertices come in opposite orders; on the diagram of a
        permutation w it is w's length."""
        # a canonical block lists its tops first, each row in order
        ends = [(b[0], next(v for v in b if v < 0)) for b in self.blocks if b[0] > 0 > b[-1]]
        return sum(1 for (_, x), (_, y) in itertools.combinations(ends, 2) if y > x)

    def half_level(self):
        """True when n and -n share a block (the P_{n-1/2} condition)."""
        blk = next(b for b in self.blocks if self.n in b)
        return -self.n in blk

    def to_json(self):
        return {"n": self.n, "blocks": [[_pname(v) for v in b] for b in self.blocks]}


@cache
def partition_basis(n):
    """All set-partition diagrams on n strands; cardinality Bell(2n)."""
    verts = sorted(list(range(1, n + 1)) + list(range(-n, 0)), key=_vkey)
    out = []

    def rec(rest, blocks):
        if not rest:
            out.append(SetPartitionDiagram(n, blocks))
            return
        a, tail = rest[0], rest[1:]
        for i in range(len(blocks)):
            rec(tail, blocks[:i] + [blocks[i] + [a]] + blocks[i + 1 :])
        rec(tail, blocks + [[a]])

    rec(verts, [])
    return tuple(sorted(out, key=lambda d: d.blocks))


@cache
def half_level_basis(n):
    """Diagrams of P_{n-1/2}; cardinality Bell(2n-1)."""
    return tuple(d for d in partition_basis(n) if d.half_level())


def bell_number(k):
    b = [1]
    for _ in range(k):
        row = [b[-1]]
        for x in b:
            row.append(row[-1] + x)
        b = row
    return b[0] if k else 1


def catalan_number(k):
    out = 1
    for i in range(k):
        out = out * 2 * (2 * i + 1) // (i + 2)
    return out


def double_factorial_odd(n):
    """(2n-1)!! with the empty product for n = 0."""
    out = 1
    for k in range(1, 2 * n, 2):
        out *= k
    return out


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------


class DiagramElement(SparseElement):
    """Finitely supported map diagram -> LaurentPoly in delta."""

    __slots__ = ()

    @classmethod
    def from_diagram(cls, d, coeff=DONE):
        return cls(d.n, {d: coeff})

    @classmethod
    def one(cls, n, kind=BrauerDiagram):
        return cls(n, {kind.identity(n): DONE})

    def __mul__(self, other):
        if not isinstance(other, DiagramElement):
            return self.scale(other)
        if other.n != self.n:
            raise DomainError("size mismatch")
        out = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d, loops = d1.compose(d2)
                acc(out, d, c1 * c2 * DELTA_POLY ** loops if loops else c1 * c2)
        return DiagramElement._raw(self.n, out)

    def star(self):
        return self.map_keys(lambda d: d.star())

    def __str__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({c})*[{d}]" for d, c in sorted(self.coeffs.items(), key=lambda x: str(x[0])))

    def to_json(self):
        return {
            "n": self.n,
            "terms": [
                {"diagram": d.to_json(), "coef": c.to_json()}
                for d, c in sorted(self.coeffs.items(), key=lambda x: str(x[0]))
            ],
        }


def quotient_to_symmetric(x):
    """Quotient map killing the contraction ideal.

    Brauer: diagrams with fewer than n through strands map to 0; partition:
    non-permutation diagrams map to 0.  Permutation diagrams map to their
    permutations; this is the identity on the symmetric-group subalgebra.
    """
    out = {}
    for d, c in x.coeffs.items():
        if d.is_permutation():
            acc(out, d.permutation(), c)
    return SymmetricGroupElement._raw(x.n, out)


def symmetric_to_diagrams(g, kind=BrauerDiagram):
    """The section sending a group-algebra element to permutation diagrams."""
    return DiagramElement(g.n, {kind.from_permutation(w): c for w, c in g.coeffs.items()})
