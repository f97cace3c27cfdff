"""Partitions, tableaux, branching diagrams and paths.

Partitions are plain tuples of weakly decreasing positive ints (() is the
empty partition); nodes are 1-based (row, col) pairs; tableaux are tuples
of row tuples.  Everything is immutable and deterministically ordered so
generated bases are reproducible byte for byte.
"""

from __future__ import annotations

from functools import cache

from .errors import DomainError

# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------


def is_partition(lam):
    return (
        isinstance(lam, tuple)
        and all(isinstance(p, int) and p > 0 for p in lam)
        and all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
    )


@cache
def partitions_of(n):
    """All partitions of n, in descending lexicographic order.

    The order is compatible with dominance: lam |> mu implies lam appears
    first.  partitions_of(3) == ((3,), (2, 1), (1, 1, 1)).
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return ((),)
    out = []

    def rec(rest, maxpart, prefix):
        if rest == 0:
            out.append(tuple(prefix))
            return
        for p in range(min(rest, maxpart), 0, -1):
            prefix.append(p)
            rec(rest - p, p, prefix)
            prefix.pop()

    rec(n, n, [])
    return tuple(out)


def dominance_geq(lam, mu):
    """lam dominates mu: all partial sums of lam are >= those of mu."""
    if sum(lam) != sum(mu):
        raise DomainError(f"dominance needs equal sizes: {lam} vs {mu}")
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return True


def dominance_gt(lam, mu):
    return lam != mu and dominance_geq(lam, mu)


def removable_nodes(lam):
    """Removable nodes of lam, listed bottom to top."""
    out = []
    for i in range(len(lam), 0, -1):
        if i == len(lam) or lam[i - 1] > lam[i]:
            out.append((i, lam[i - 1]))
    return out


def addable_nodes(lam):
    """Addable nodes of lam, listed top to bottom."""
    out = []
    for i in range(1, len(lam) + 1):
        if i == 1 or lam[i - 2] > lam[i - 1]:
            out.append((i, lam[i - 1] + 1))
    out.append((len(lam) + 1, 1))
    return out


def add_node(lam, node):
    i, j = node
    if node not in addable_nodes(lam):
        raise DomainError(f"{node} is not addable to {lam}")
    rows = list(lam) + [0]
    rows[i - 1] += 1
    return tuple(p for p in rows if p)


def remove_node(lam, node):
    i, j = node
    if node not in removable_nodes(lam):
        raise DomainError(f"{node} is not removable from {lam}")
    rows = list(lam)
    rows[i - 1] -= 1
    return tuple(p for p in rows if p)


# ---------------------------------------------------------------------------
# tableaux
# ---------------------------------------------------------------------------


def shape_of(tab):
    return tuple(len(row) for row in tab)


def superstandard_tableau(lam):
    """The tableau t^lam with 1..n filled along the rows."""
    t, k = [], 1
    for p in lam:
        t.append(tuple(range(k, k + p)))
        k += p
    return tuple(t)


def tableau_entries(tab):
    """Map entry -> node for an injective tableau."""
    pos = {}
    for i, row in enumerate(tab):
        for j, v in enumerate(row):
            pos[v] = (i + 1, j + 1)
    return pos


def is_row_standard(tab):
    n = sum(len(r) for r in tab)
    seen = sorted(v for row in tab for v in row)
    if seen != list(range(1, n + 1)):
        return False
    return all(all(row[j] < row[j + 1] for j in range(len(row) - 1)) for row in tab)


def is_standard(tab):
    if not is_row_standard(tab) or not is_partition(shape_of(tab)):
        return False
    for i in range(len(tab) - 1):
        for j in range(len(tab[i + 1])):
            if tab[i][j] >= tab[i + 1][j]:
                return False
    return True


def standard_tableaux(lam):
    """All standard tableaux of shape lam, ordered by their growth paths.

    The order matches paths_to() on Young's lattice: tableaux whose entry n
    sits in a lower (earlier in removable_nodes) node come first, recursively.
    """
    return tuple(_standard_tableaux(tuple(lam)))


@cache
def _standard_tableaux(lam):
    n = sum(lam)
    if n == 0:
        return ((),)
    out = []
    for node in removable_nodes(lam):
        mu = remove_node(lam, node)
        i = node[0] - 1
        for sub in _standard_tableaux(mu):
            rows = [list(r) for r in sub] + ([[]] if i == len(mu) else [])
            rows[i].append(n)
            out.append(tuple(tuple(r) for r in rows))
    return tuple(out)


def tableau_restrict(tab, k):
    """Delete entries > k; returns the restricted tableau."""
    rows = tuple(tuple(v for v in row if v <= k) for row in tab)
    return tuple(r for r in rows if r)


def tableau_dominance_geq(s, t):
    """s dominates t: shapes of all restrictions dominate (row standard inputs)."""
    n = sum(len(r) for r in s)
    if n != sum(len(r) for r in t):
        raise DomainError("tableaux of different sizes")
    for k in range(1, n + 1):
        a = shape_of(tableau_restrict(s, k))
        b = shape_of(tableau_restrict(t, k))
        total_a = total_b = 0
        for i in range(max(len(a), len(b))):
            total_a += a[i] if i < len(a) else 0
            total_b += b[i] if i < len(b) else 0
            if total_a < total_b:
                return False
    return True


def tableau_dominance_gt(s, t):
    return s != t and tableau_dominance_geq(s, t)


def tableau_add_entry(tab, node, entry):
    i, j = node
    rows = [list(r) for r in tab]
    if i - 1 == len(rows):
        rows.append([])
    if j - 1 != len(rows[i - 1]):
        raise DomainError(f"node {node} is not the next free slot of row {i}")
    rows[i - 1].append(entry)
    return tuple(tuple(r) for r in rows)


def garnir_tableau(lam, node):
    """The (i, j)-Garnir tableau: t^lam outside the strip, a..b filled left to
    right first along row i+1, then along row i within the strip."""
    i, j = node
    if not (i <= len(lam) and j <= lam[i - 1]) or not (i + 1 <= len(lam) and j <= lam[i]):
        raise DomainError(f"({i},{j}) and ({i+1},{j}) must both be nodes of {lam}")
    tsup = [list(r) for r in superstandard_tableau(lam)]
    a = tsup[i - 1][j - 1]
    b = tsup[i][j - 1]
    strip = [(i + 1, c) for c in range(1, j + 1)] + [(i, c) for c in range(j, lam[i - 1] + 1)]
    for entry, (r, c) in zip(range(a, b + 1), strip):
        tsup[r - 1][c - 1] = entry
    return tuple(tuple(r) for r in tsup)


# -- semistandard tableaux ---------------------------------------------------


def semistandard_tableaux(lam, mu):
    """Semistandard tableaux of shape lam and type mu (entry i occurs mu_i times)."""
    lam, mu = tuple(lam), tuple(mu)
    if sum(lam) != sum(mu):
        raise DomainError("shape and type must have equal size")
    out = []
    rows = [[0] * p for p in lam]
    counts = list(mu)

    def rec(cells, idx):
        if idx == len(cells):
            out.append(tuple(tuple(r) for r in rows))
            return
        i, j = cells[idx]
        lo = 1
        if j > 0:
            lo = max(lo, rows[i][j - 1])
        if i > 0:
            lo = max(lo, rows[i - 1][j] + 1)
        for v in range(lo, len(counts) + 1):
            if counts[v - 1] > 0:
                counts[v - 1] -= 1
                rows[i][j] = v
                rec(cells, idx + 1)
                counts[v - 1] += 1

    cells = [(i, j) for i, p in enumerate(lam) for j in range(p)]
    rec(cells, 0)
    return tuple(out)


def tableau_type_map(tab, mu):
    """Replace each entry k of tab by the row index of k in t^mu."""
    tmu = superstandard_tableau(mu)
    row_of = {}
    for i, row in enumerate(tmu):
        for v in row:
            row_of[v] = i + 1
    return tuple(tuple(row_of[v] for v in row) for row in tab)


# ---------------------------------------------------------------------------
# branching diagrams
# ---------------------------------------------------------------------------


class BranchingDiagram:
    """A leveled multiplicity-free graph, built lazily level by level.

    `levels[k]` lists the vertices at level k in a fixed descending order
    (poset-compatible); `edge(k, u, v)` says whether u at level k is joined
    to v at level k+1.  Vertex payloads are partitions, or (partition, l)
    pairs for reflected diagrams.
    """

    def __init__(self, levels, edge_fn):
        self.levels = [tuple(lv) for lv in levels]
        self._edge = edge_fn
        if len(self.levels[0]) != 1:
            raise DomainError("level 0 must be a singleton")

    @property
    def depth(self):
        return len(self.levels) - 1

    def vertices(self, k):
        return self.levels[k]

    def edge(self, k, u, v):
        return self._edge(k, u, v)

    def predecessors(self, k, v):
        """Vertices u at level k-1 with u -> v, in level order (descending)."""
        return tuple(u for u in self.levels[k - 1] if self._edge(k - 1, u, v))

    def successors(self, k, u):
        return tuple(v for v in self.levels[k + 1] if self._edge(k, u, v))

    def vertex_index(self, k, v):
        return self.levels[k].index(v)


def young_lattice(depth):
    levels = [partitions_of(k) for k in range(depth + 1)]

    def edge(k, u, v):
        return covers(u, v)

    return BranchingDiagram(levels, edge)


def _row_diffs(u, v):
    m = max(len(u), len(v))
    return [(v[i] if i < len(v) else 0) - (u[i] if i < len(u) else 0) for i in range(m)]


def _is_single_box(u, v):
    d = _row_diffs(u, v)
    return sorted(d) == [0] * (len(d) - 1) + [1] and is_partition(v)


def covers(u, v):
    """v = u plus one box (edge of Young's lattice)."""
    return sum(v) == sum(u) + 1 and _is_single_box(u, v)


def singleton_chain(depth):
    """The trivial branching diagram () -> () -> ... (Temperley-Lieb H-side)."""
    levels = [((),)] * (depth + 1)
    return BranchingDiagram(levels, lambda k, u, v: True)


def partition_half_levels(depth):
    """H-side diagram of the partition tower: levels 2i and 2i+1 both hold
    the partitions of i; edges add a box (even step) or repeat (odd step)."""
    levels = [partitions_of(k // 2) for k in range(depth + 1)]

    def edge(k, u, v):
        if k % 2 == 0:
            return u == v
        return covers(u, v)

    return BranchingDiagram(levels, edge)


def reflect_branching(h, depth=None):
    """The branching diagram obtained by reflections: vertices (lam, l) with
    lam at H-level n-2l; (lam,l)->(mu,l) iff lam->mu in H, and
    (lam,l)->(mu,l+1) iff mu->lam in H."""
    if depth is None:
        depth = h.depth
    if depth > h.depth:
        raise DomainError("reflection deeper than the input diagram")
    levels = []
    for n in range(depth + 1):
        lv = []
        for l in range(n // 2, -1, -1):
            for lam in h.vertices(n - 2 * l):
                lv.append((lam, l))
        levels.append(tuple(lv))

    def edge(k, u, v):
        lam, l = u
        mu, m = v
        if m == l:
            return h.edge(k - 2 * l, lam, mu)
        if m == l + 1:
            return h.edge(k - 2 * l - 1, mu, lam)
        return False

    return BranchingDiagram(levels, edge)


def vertex_gt(u, v):
    """Strict order on reflected-diagram vertices: higher l wins, then dominance."""
    (lam, l), (mu, m) = u, v
    if l != m:
        return l > m
    return dominance_gt(lam, mu)


# ---------------------------------------------------------------------------
# paths
# ---------------------------------------------------------------------------


def paths_to(diagram, level, vertex):
    """All paths from the level-0 root to `vertex`, in reverse-lex descending
    order (the first listed path takes the largest predecessor at each
    late level)."""
    if vertex not in diagram.levels[level]:
        raise DomainError(f"{vertex} not at level {level}")
    return _paths_to(diagram, level, vertex)


def _paths_to(diagram, level, vertex):
    if level == 0:
        return (tuple([vertex]),)
    out = []
    for u in diagram.predecessors(level, vertex):
        for p in _paths_to(diagram, level - 1, u):
            out.append(p + (vertex,))
    return tuple(out)


def path_count(diagram, level, vertex):
    counts = {diagram.levels[0][0]: 1}
    for k in range(1, level + 1):
        counts = {
            v: sum(counts[u] for u in diagram.predecessors(k, v))
            for v in diagram.levels[k]
        }
    return counts[vertex]


def reverse_lex_leq(s, t, vertex_key):
    """s precedes t in reverse lexicographic order: compare vertices at the
    last index where the paths disagree; `vertex_key(level, v)` must give a
    descending sort key within each level (index in the level listing)."""
    if len(s) != len(t):
        raise DomainError("paths of different lengths are incomparable")
    for j in range(len(s) - 1, -1, -1):
        if s[j] != t[j]:
            # a smaller listing index means a larger vertex in the poset
            return vertex_key(j, s[j]) > vertex_key(j, t[j])
    return True


def tableau_to_path(tab):
    """A standard tableau as a path on Young's lattice."""
    n = sum(len(r) for r in tab)
    return tuple(shape_of(tableau_restrict(tab, k)) for k in range(n + 1))


def path_to_tableau(path):
    """Inverse of tableau_to_path."""
    tab = ()
    for k in range(1, len(path)):
        u, v = path[k - 1], path[k]
        d = _row_diffs(u, v)
        i = d.index(1) + 1
        tab = tableau_add_entry(tab, (i, (u[i - 1] if i <= len(u) else 0) + 1), k)
    return tab
