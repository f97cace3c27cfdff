"""The generic Jones-basic-construction engine.

Given a tower specification (see `towers`), this module produces the
contraction ladders e^(l), the lifted cell generators c_(lambda,l), the
tower branching coefficients in both recursive and closed form, the path
elements d_t, and the full cellular basis  d_s* c_(lambda,l) d_t,  then
verifies the cell-datum axioms, the framework axioms, and the restriction
filtrations by exact rank certificates over the fraction field.

Every module or ideal statement is checked as a rank statement on explicit
spanning sets; failures are reported with located counterexamples rather
than raised.
"""

from __future__ import annotations

from functools import cache

from .combinatorics import (
    BranchingDiagram,
    paths_to,
    reflect_branching,
    vertex_gt,
)
from .errors import DomainError, InternalInvariantError
from .linalg import SpanSolver
from .towers import tower

# ---------------------------------------------------------------------------
# branching data
# ---------------------------------------------------------------------------


@cache
def a_hat_diagram(tower_name, depth):
    """The branching diagram of the A tower: the reflection of the H-side
    diagram, or the H diagram itself (tagged with l = 0) for a degenerate
    tower with no contractions."""
    t = tower(tower_name)
    h = t.h_diagram(depth)
    if t.has_contractions:
        return reflect_branching(h, depth)
    levels = [tuple((lam, 0) for lam in h.vertices(k)) for k in range(depth + 1)]

    def edge(k, u, v):
        return h.edge(k, u[0], v[0])

    return BranchingDiagram(levels, edge)


def a_hat(tower_name, n):
    """Vertices (lambda, l) at level n, in descending poset order."""
    return a_hat_diagram(tower_name, n).vertices(n)


def cell_paths(tower_name, n, vertex):
    return paths_to(a_hat_diagram(tower_name, n), n, vertex)


def e_ladder(t, i, l, level):
    """e_i^(l) = e_{i-2l+2} e_{i-2l+4} ... e_i inside A_level; 1 for l = 0,
    0 when the ladder would leave the algebra (l > floor((i+1)/2))."""
    if l == 0:
        return t.one(level)
    if l > (i + 1) // 2:
        return t.zero(level)
    out = t.one(level)
    for j in range(i - 2 * l + 2, i + 1, 2):
        out = t.mul(out, t.e_elt(j, level))
    return out


def e_power(tower_name, n, l, level=None):
    """The element e_{n-1}^(l) of A_n (or of A_level if given)."""
    t = tower(tower_name)
    if level is None:
        level = n
    if l == 0:
        return t.one(level)
    if l > n // 2:
        return t.zero(level)
    return e_ladder(t, n - 1, l, level)


def c_lambda_l(tower_name, vertex, n):
    """c_(lambda,l) = c_(lambda,0) e_{n-1}^(l) in A_n."""
    t = tower(tower_name)
    lam, l = vertex
    if vertex not in a_hat(tower_name, n):
        raise DomainError(f"{vertex} is not a vertex at level {n}")
    c0 = t.c_lift(lam, n)
    if l == 0:
        return c0
    return t.mul(c0, e_power(tower_name, n, l, n))


def _edge_case(tower_name, u, v, n):
    """Which closed-form case the edge u at level n -> v at level n+1 is in."""
    diag = a_hat_diagram(tower_name, n + 1)
    if not diag.edge(n, u, v):
        raise DomainError(f"no edge {u} -> {v} at level {n}")
    (lam, l), (mu, m) = u, v
    if m == l:
        return "same"
    if m == l + 1:
        return "up"
    raise DomainError(f"no edge {u} -> {v}")


def branching_closed_form(tower_name, u, v, n, direction="d"):
    """The closed-form branching coefficient for the edge u@n -> v@(n+1).

    d-direction (restriction) and u-direction (induction):
      same-l edge:  d = dbar^{(n+1-2l)} e_{n-1}^(l),  u = ubar^{(n+1-2l)} e_n^(l)
      l+1 edge:     d = ubar_{mu->lam}^{(n-2l)} e_{n-1}^(l),
                    u = dbar_{mu->lam}^{(n-2l)} e_n^(l+1)
    """
    t = tower(tower_name)
    case = _edge_case(tower_name, u, v, n)
    (lam, l), (mu, m) = u, v
    level = n + 1
    if case == "same":
        if direction == "d":
            base = t.dbar(lam, mu, n + 1 - 2 * l, level)
            return t.mul(base, e_ladder(t, n - 1, l, level))
        base = t.ubar(lam, mu, n + 1 - 2 * l, level)
        return t.mul(base, e_ladder(t, n, l, level))
    if direction == "d":
        base = t.ubar(mu, lam, n - 2 * l, level)
        return t.mul(base, e_ladder(t, n - 1, l, level))
    base = t.dbar(mu, lam, n - 2 * l, level)
    return t.mul(base, e_ladder(t, n, l + 1, level))


def branching_recursive(tower_name, u, v, n, direction="d", _memo=None):
    """The recursively determined branching coefficient for u@n -> v@(n+1):
    base cases pass to the H-side lifts, the l-step cases unroll
      d_{(lam,l)->(mu,m+1)}^{(n+1)} = u_{(mu,m)->(lam,l)}^{(n)}  and
      u_{(lam,l)->(mu,m+1)}^{(n+1)} = d_{(mu,m)->(lam,l)}^{(n)} e_n.
    """
    t = tower(tower_name)
    if _memo is None:
        _memo = {}
    key = (u, v, n, direction)
    if key in _memo:
        return _memo[key]
    _edge_case(tower_name, u, v, n)
    (lam, l), (mu, m) = u, v
    if m == 0:
        # base case: both contraction counts are zero
        out = (
            t.dbar(lam, mu, n + 1, n + 1)
            if direction == "d"
            else t.ubar(lam, mu, n + 1, n + 1)
        )
    elif direction == "d":
        prev = branching_recursive(tower_name, (mu, m - 1), (lam, l), n - 1, "u", _memo)
        out = t.include(prev, n, n + 1)
    else:
        prev = branching_recursive(tower_name, (mu, m - 1), (lam, l), n - 1, "d", _memo)
        out = t.mul(t.include(prev, n, n + 1), t.e_elt(n, n + 1))
    _memo[key] = out
    return out


@cache
def path_element(tower_name, path):
    """d_t: the right-to-left product of closed-form edge coefficients."""
    t = tower(tower_name)
    n = len(path) - 1
    if n == 0:
        return t.one(0)
    out = branching_closed_form(tower_name, path[n - 1], path[n], n - 1, "d")
    for k in range(n - 1, 0, -1):
        step = branching_closed_form(tower_name, path[k - 1], path[k], k - 1, "d")
        out = t.mul(out, t.include(step, k, n))
    return out


# ---------------------------------------------------------------------------
# the cell datum
# ---------------------------------------------------------------------------


class CellDatum:
    """The full cellular basis of A_n with its transition certificate.

    `index` lists (vertex, s_idx, t_idx) in a linear extension of the cell
    order (largest cells first); `elements` holds the basis elements
    d_s* c_(lambda,l) d_t; `solver` expresses arbitrary elements over the
    basis, which is how all congruences mod cell ideals are decided.
    """

    def __init__(self, tower_name, n):
        t = tower(tower_name)
        self.tower_name = tower_name
        self.t = t
        self.n = n
        self.vertices = a_hat(tower_name, n)
        self.paths = {v: cell_paths(tower_name, n, v) for v in self.vertices}
        dim = t.dim(n)
        if sum(len(self.paths[v]) ** 2 for v in self.vertices) != dim:
            raise InternalInvariantError(
                f"path-count identity fails at {tower_name} level {n}"
            )
        self.index = []
        self.elements = {}
        for v in self.vertices:
            cv = c_lambda_l(tower_name, v, n)
            d_elts = [path_element(tower_name, p) for p in self.paths[v]]
            for si, ds in enumerate(d_elts):
                left = t.mul(t.star(ds), cv)
                for ti, dt in enumerate(d_elts):
                    self.index.append((v, si, ti))
                    self.elements[(v, si, ti)] = t.mul(left, dt)
        self._certify()

    def _certify(self):
        """Insert the elements into a fresh solver in `index` order, pivoting
        in the tower's order; set `free` (no element depends on earlier
        ones) and, when they span A_n, the transition determinant `det`.
        The action rows kept from an earlier solver are dropped."""
        t = self.t
        self.solver = SpanSolver(pivot_key=t.pivot_key(self.n))
        self._actions = {}  # vertex -> action_rows(vertex)
        self.free = True
        for key in self.index:
            status, _ = self.solver.insert(t.vector(self.elements[key]))
            if status != "new":
                self.free = False
                break
        self.det = None
        if self.free and self.solver.rank == t.dim(self.n):
            self.det = self.solver.det_unit(sorted(t.basis_keys(self.n), key=t.key_str))

    def express(self, x):
        """Coordinates of x over the cellular basis; None if x lies outside
        (which certifies a broken basis)."""
        combo = self.solver.express(self.t.vector(x))
        if combo is None:
            return None
        return {self.index[i]: c for i, c in combo.items()}

    def cell_element(self, vertex, si, ti):
        return self.elements[(vertex, si, ti)]

    def action_rows(self, vertex):
        """The action of the generators of A_n on the cell module at
        `vertex`: {label: [row of c_(0,ti) a, for each ti]}, or None when a
        product leaves the cell ideal.  Computed once per datum."""
        if vertex not in self._actions:
            self._actions[vertex] = _action_rows(self, vertex, self.t.generators(self.n))
        return self._actions[vertex]

    def cell_row(self, vertex, si, ti, a):
        """Row si of c_(si,ti) a in the cell of `vertex`, and its leaks.

        Returns (row, leaks). `row` maps each tj to the coefficient of the
        basis element (vertex, si, tj), i.e. r_tj(ti, a) of the cell module.
        `leaks` lists, in coordinate order, ("row", sj, tj) for support on
        another row of the same cell and ("cell", w) for support on a cell w
        not strictly above `vertex`; a cellular basis has none.  When the
        product lies outside the span, row is None (and leaks empty).
        """
        coords = self.express(self.t.mul(self.elements[(vertex, si, ti)], a))
        if coords is None:
            return None, []
        row = {}
        leaks = []
        for (w, sj, tj), c in coords.items():
            if w == vertex:
                if sj == si:
                    row[tj] = c
                else:
                    leaks.append(("row", sj, tj))
            elif not vertex_gt(w, vertex):
                leaks.append(("cell", w))
        return row, leaks

    def to_json(self):
        t = self.t
        return {
            "algebra": self.tower_name,
            "level": self.n,
            "dimension": t.dim(self.n),
            "poset": [vertex_str(v) for v in self.vertices],
            "paths": {
                vertex_str(v): [[vertex_str(u) for u in p] for p in self.paths[v]]
                for v in self.vertices
            },
            "basis": [
                {
                    "vertex": vertex_str(v),
                    "s": si,
                    "t": ti,
                    "coeffs": {
                        t.key_str(k): c.to_json()
                        for k, c in sorted(
                            t.vector(self.elements[(v, si, ti)]).items(),
                            key=lambda kv: t.key_str(kv[0]),
                        )
                    },
                }
                for (v, si, ti) in self.index
            ],
            "free": self.free,
        }

    def replaced(self, key, element):
        """A copy with one basis element replaced (negative-control hook)."""
        new = object.__new__(CellDatum)
        new.tower_name, new.t, new.n = self.tower_name, self.t, self.n
        new.vertices, new.paths, new.index = self.vertices, self.paths, self.index
        new.elements = dict(self.elements)
        new.elements[key] = element
        new._certify()
        return new


def vertex_str(v):
    lam, l = v
    return f"({','.join(map(str, lam))};{l})"


@cache
def cellular_basis(tower_name, n):
    return CellDatum(tower_name, n)


# ---------------------------------------------------------------------------
# verification: cell-datum axioms
# ---------------------------------------------------------------------------


def verify_cell_datum(datum, generators=None):
    """Check the cell-datum axioms by exact linear algebra.

    (freeness)  the basis is free of rank dim A_n;
    (action)    c_st a = sum_v r_v(t, a) c_sv modulo strictly larger cells,
                with r_v(t, a) independent of s;
    (star)      (c_st)* = c_ts modulo strictly larger cells;
    (ideal)     left and right generator multiples of each cell stay in the
                order ideal spanned by >= cells;
    (c-star)    c_(lambda,l)* = c_(lambda,l) modulo larger cells;
    (cyclic)    c_(lambda,l) A_n has rank #paths modulo larger cells.

    The generators must generate A_n as an algebra (the cyclic check and
    the row certificate below both rest on it).

    Action and ideal are first certified once per cell-module row.  With
    c_v = c_(lambda,l), L_s = d_s* c_v, R_t = c_v d_t, and I_{>v} (I_{>=v})
    the span of the cells strictly above v (and v's own), at every vertex:
      1. (identity) each basis element c_st equals L_s d_t, as elements;
      2. (rows)     each R_u expresses into cells >= v, and the projections
                    of the R_u on v's cell are independent;
      3. (action)   each R_t a, a a generator, expresses into cells >= v, and
                    its projection on v's cell lies in the span of step 2;
      4. (ideal)    each a L_s expresses into cells >= v.
    Soundness, by downward induction on the cell poset: if I_{>=w} is a
    two-sided ideal for every w > v, so is their sum I_{>v}.  Steps 2-3 give
    R_t a = sum_u r_u R_u mod I_{>v}, so c_st a = d_s* R_t a =
    sum_u r_u c_su mod I_{>v} (I_{>v} a left ideal), with r independent of
    s; hence I_{>=v} is a right ideal.  Then a c_st = (a L_s) d_t lies in
    I_{>=v} by step 4, so I_{>=v} is two-sided.  Freeness makes coordinates
    unique, so the per-element loops would find nothing.  If any step fails
    at any vertex, those loops run and report the counterexamples.

    Returns a report dict; failures carry located counterexamples.
    """
    t = datum.t
    n = datum.n
    if generators is None:
        generators = t.generators(n)
    report = {
        "algebra": datum.tower_name,
        "level": n,
        "checks": {},
        "counterexamples": [],
    }

    def fail(name, payload):
        report["checks"][name] = False
        report["counterexamples"].append({"check": name, **payload})

    report["checks"]["freeness"] = datum.free and datum.solver.rank == t.dim(n)
    if not report["checks"]["freeness"]:
        fail("freeness", {"rank": datum.solver.rank, "dim": t.dim(n)})
        report["pass"] = False
        return report

    cells = {v: c_lambda_l(datum.tower_name, v, n) for v in datum.vertices}
    if all(_rows_certify(datum, v, cv, generators) for v, cv in cells.items()):
        action_ok = ideal_ok = True
    else:
        action_ok, ideal_ok = _element_loops(datum, generators, fail)
    report["checks"]["action"] = action_ok
    report["checks"]["ideal"] = ideal_ok

    star_ok = True
    for v in datum.vertices:
        npaths = len(datum.paths[v])
        for si in range(npaths):
            for ti in range(npaths):
                delta = t.add(
                    t.star(datum.cell_element(v, si, ti)),
                    t.scale(datum.cell_element(v, ti, si), -1),
                )
                coords = datum.express(delta)
                if coords is None or any(not vertex_gt(w, v) for (w, _, _) in coords):
                    fail("star", {"vertex": v, "s": si, "t": ti})
                    star_ok = False
    report["checks"]["star"] = star_ok

    cstar_ok = True
    cyclic_ok = True
    for v, cv in cells.items():
        delta = t.add(t.star(cv), t.scale(cv, -1))
        coords = datum.express(delta)
        if coords is None or any(not vertex_gt(w, v) for (w, _, _) in coords):
            fail("c_star", {"vertex": v})
            cstar_ok = False
        # rank of c_v A_n modulo the larger cells
        span = SpanSolver()
        queue = [cv]
        seen_rank = 0
        coords0 = datum.express(cv)
        if coords0 is None:
            fail("cyclic", {"vertex": v})
            cyclic_ok = False
            continue
        span.insert(_project_cell(coords0, v))
        while queue:
            x = queue.pop()
            for label, a in generators:
                y = t.mul(x, a)
                cy = datum.express(y)
                if cy is None:
                    fail("cyclic", {"vertex": v, "gen": label})
                    cyclic_ok = False
                    continue
                status, _ = span.insert(_project_cell(cy, v))
                if status == "new":
                    queue.append(y)
        if span.rank != len(datum.paths[v]):
            fail("cyclic", {"vertex": v, "rank": span.rank, "paths": len(datum.paths[v])})
            cyclic_ok = False
    report["checks"]["c_star"] = cstar_ok
    report["checks"]["cyclic"] = cyclic_ok
    report["pass"] = all(report["checks"].values())
    return report


def _rows_certify(datum, v, cv, generators):
    """Steps 1-4 of verify_cell_datum's row certificate at vertex v."""
    t = datum.t
    d_elts = [path_element(datum.tower_name, p) for p in datum.paths[v]]
    lefts = [t.mul(t.star(ds), cv) for ds in d_elts]
    for si, left in enumerate(lefts):
        for ti, dt in enumerate(d_elts):
            if datum.elements[(v, si, ti)] != t.mul(left, dt):
                return False

    def cell_part(x):
        """x's coordinates on v's cell; None if x leaves the cells >= v."""
        coords = datum.express(x)
        if coords is None or any(not (w == v or vertex_gt(w, v)) for w, _, _ in coords):
            return None
        return _project_cell(coords, v)

    rights = [t.mul(cv, dt) for dt in d_elts]
    rows = SpanSolver()
    for right in rights:
        part = cell_part(right)
        if part is None or rows.insert(part)[0] != "new":
            return False
    for _, a in generators:
        for right in rights:
            part = cell_part(t.mul(right, a))
            if part is None or not rows.contains(part):
                return False
        for left in lefts:
            if cell_part(t.mul(a, left)) is None:
                return False
    return True


def _element_loops(datum, generators, fail):
    """The action and ideal checks on every basis element and generator,
    reporting each counterexample through `fail`; (action_ok, ideal_ok)."""
    t = datum.t
    action_ok = True
    ideal_ok = True
    for v in datum.vertices:
        npaths = len(datum.paths[v])
        for label, a in generators:
            for ti in range(npaths):
                reference = None
                for si in range(npaths):
                    row, leaks = datum.cell_row(v, si, ti, a)
                    if row is None:
                        fail("action", {"vertex": v, "s": si, "t": ti, "gen": label})
                        action_ok = False
                        continue
                    for leak in leaks:
                        fail(
                            "action",
                            {"vertex": v, "s": si, "t": ti, "gen": label, "leak": leak},
                        )
                        action_ok = False
                    if reference is None:
                        reference = row
                    elif row != reference:
                        fail(
                            "action",
                            {"vertex": v, "t": ti, "gen": label, "s_mismatch": si},
                        )
                        action_ok = False
            # order-ideal property for left multiples
            for si in range(npaths):
                for ti in range(npaths):
                    prod = t.mul(a, datum.cell_element(v, si, ti))
                    coords = datum.express(prod)
                    if coords is None or any(
                        not (w == v or vertex_gt(w, v)) for (w, _, _) in coords
                    ):
                        fail(
                            "ideal",
                            {"vertex": v, "s": si, "t": ti, "gen": label, "side": "left"},
                        )
                        ideal_ok = False
    return action_ok, ideal_ok


def _project_cell(coords, v):
    return {(si, ti): c for (w, si, ti), c in coords.items() if w == v}


# ---------------------------------------------------------------------------
# verification: framework axioms
# ---------------------------------------------------------------------------


def contraction_ideal_rank(tower_name, n):
    """Rank of the two-sided ideal A_n e_{n-1} A_n (generator closure)."""
    t = tower(tower_name)
    gens = t.generators(n)
    ideal = SpanSolver()
    e = t.e_elt(n - 1, n)
    ideal.insert(t.vector(e))
    queue = [e]
    while queue:
        x = queue.pop()
        for _, a in gens:
            for y in (t.mul(a, x), t.mul(x, a)):
                status, _ = ideal.insert(t.vector(y))
                if status == "new":
                    queue.append(y)
    return ideal.rank


def verify_framework_axioms(tower_name, n):
    """Rank certificates for the Jones-construction axioms at index n.

    axiom 3: A_n/(A_n e_{n-1} A_n) has dimension dim H_n, and the quotient
             map is multiplicative;
    axiom 4: e_n A_n e_n lies in A_{n-1} e_n;
    axiom 5: A_{n+1} e_n = A_n e_n and x -> x e_n is injective on A_n;
    axiom 6: e_{n-1} = e_{n-1} e_n e_{n-1} (explicit witness product).
    Products for axioms 4-6 are computed inside A_{n+1}.
    """
    t = tower(tower_name)
    if not t.has_contractions:
        raise DomainError(f"{tower_name} is a degenerate tower; axioms are vacuous")
    report = {"algebra": tower_name, "n": n, "checks": {}}

    # axiom 3: corank of the ideal generated by e_{n-1} inside A_n
    if n >= 2:
        corank = t.dim(n) - contraction_ideal_rank(tower_name, n)
        report["checks"]["axiom3_corank"] = corank == t.h_dim(n)
        # the quotient map kills e_{n-1}, pi(x)·pi(1) = pi(x) and
        # pi(x·a) = pi(x)·pi(a) for every basis element x and generator a;
        # by linearity and induction on words in the generators, which
        # span A_n, pi is then multiplicative on every product
        pi_ok = t.pi(t.e_elt(n - 1, n), n).is_zero()
        pi_one = t.pi(t.one(n), n)
        gens = [(a, t.pi(a, n)) for _, a in t.generators(n)]
        for k in t.basis_keys(n):
            x = t.element_of_key(k, n)
            px = t.pi(x, n)
            if px * pi_one != px or any(t.pi(t.mul(x, a), n) != px * pa for a, pa in gens):
                pi_ok = False
        report["checks"]["axiom3_quotient_map"] = pi_ok

    if n >= 1:
        level = n + 1
        e_n = t.e_elt(n, level)
        # axiom 4
        target = SpanSolver()
        for k in t.basis_keys(n - 1):
            x = t.include(t.element_of_key(k, n - 1), n - 1, level)
            target.insert(t.vector(t.mul(x, e_n)))
        ok4 = True
        for k in t.basis_keys(n):
            x = t.include(t.element_of_key(k, n), n, level)
            if not target.contains(t.vector(t.mul(t.mul(e_n, x), e_n))):
                ok4 = False
        report["checks"]["axiom4"] = ok4

        # axiom 5: left ideal A_{n+1} e_n equals the span of A_n e_n
        an_en = SpanSolver()
        vecs = []
        for k in t.basis_keys(n):
            x = t.include(t.element_of_key(k, n), n, level)
            y = t.mul(x, e_n)
            vecs.append(y)
            an_en.insert(t.vector(y))
        report["checks"]["axiom5_injective"] = an_en.rank == t.dim(n)
        closure = SpanSolver()
        closure.insert(t.vector(e_n))
        queue = [e_n]
        gens_up = t.generators(level)
        while queue:
            x = queue.pop()
            for _, a in gens_up:
                y = t.mul(a, x)
                status, _ = closure.insert(t.vector(y))
                if status == "new":
                    queue.append(y)
        report["checks"]["axiom5_equality"] = closure.rank == an_en.rank

        # axiom 6 witness: e_{n-1} e_n e_{n-1} = e_{n-1}
        if n >= 2:
            e_prev = t.e_elt(n - 1, level)
            prod = t.mul(t.mul(e_prev, e_n), e_prev)
            report["checks"]["axiom6_witness"] = prod == e_prev

    # involutions fix the contractions
    if n >= 2:
        e = t.e_elt(n - 1, n)
        report["checks"]["e_star"] = t.star(e) == e

    report["pass"] = all(report["checks"].values())
    return report


# ---------------------------------------------------------------------------
# verification: restriction filtrations for the A tower
# ---------------------------------------------------------------------------


def restriction_filtration_a(tower_name, vertex, n):
    """Certify the order-preserving cell filtration of Res A_{n-1} of the
    cell module at `vertex` in level n.

    Layers are indexed by the predecessors of `vertex` (descending); layer j
    spans the path-basis elements whose level-(n-1) vertex is among the
    first j predecessors.  Checks: A_{n-1}-stability of each partial span,
    subquotient action equal to the predecessor cell module, ranks, and
    order preservation.  Level 0 has no level below it to restrict to.
    """
    if n < 1:
        raise DomainError(f"restriction needs a level n >= 1, not {n}")
    t = tower(tower_name)
    datum = cellular_basis(tower_name, n)
    if vertex not in datum.vertices:
        raise DomainError(f"{vertex} not at level {n}")
    diag = a_hat_diagram(tower_name, n)
    preds = diag.predecessors(n, vertex)
    paths = datum.paths[vertex]
    layer_of = [preds.index(p[n - 1]) for p in paths]
    gens = [(label, t.include(a, n - 1, n)) for label, a in t.generators(n - 1)]
    datum_prev = cellular_basis(tower_name, n - 1)
    # actions of A_{n-1} on the cell module at `vertex` and on those of its
    # predecessors (s fixed to path 0)
    action = _action_rows(datum, vertex, gens)
    prev_actions = [datum_prev.action_rows(u) for u in preds]
    if action is None or None in prev_actions:
        return {"pass": False, "reason": "action left the cell ideal"}
    report = {
        "algebra": tower_name,
        "vertex": vertex,
        "level": n,
        "layers": [],
        "stable": True,
        "subquotients_match": True,
        "order_preserving": all(
            vertex_gt(preds[i], preds[i + 1]) for i in range(len(preds) - 1)
        ),
        "frobenius_symmetric": True,
    }
    for j, u in enumerate(preds):
        members = [ti for ti in range(len(paths)) if layer_of[ti] == j]
        allowed = {ti for ti in range(len(paths)) if layer_of[ti] <= j}
        stable = all(
            set(action[label][ti]) <= allowed for label, _ in gens for ti in members
        )
        report["stable"] &= stable
        # subquotient: compare with the cell module of u at level n-1
        prev_paths = datum_prev.paths[u]
        prefix_index = {}
        for ti in members:
            prefix_index[ti] = prev_paths.index(paths[ti][:n])
        match = len(members) == len(prev_paths)
        for label, _ in gens:
            prev_rows = prev_actions[j][label]
            for ti in members:
                got = {
                    prefix_index[tj]: c
                    for tj, c in action[label][ti].items()
                    if layer_of[tj] == j
                }
                want = prev_rows[prefix_index[ti]]
                if got != want:
                    match = False
        report["subquotients_match"] &= match
        report["layers"].append(
            {"vertex": u, "rank": len(members), "expected_rank": len(prev_paths)}
        )
        if len(members) != len(prev_paths):
            report["frobenius_symmetric"] = False
    report["pass"] = (
        report["stable"]
        and report["subquotients_match"]
        and report["order_preserving"]
        and report["frobenius_symmetric"]
    )
    return report


def _action_rows(datum, vertex, gens):
    """{label: [row of c_(0,ti) a, for each ti]} on the cell module at
    `vertex`, or None when a product leaves the cell ideal."""
    action = {}
    for label, a in gens:
        rows = []
        for ti in range(len(datum.paths[vertex])):
            row, leaks = datum.cell_row(vertex, 0, ti, a)
            if row is None or leaks:
                return None
            rows.append(row)
        action[label] = rows
    return action


# ---------------------------------------------------------------------------
# cross-checks
# ---------------------------------------------------------------------------


def branching_agreement(tower_name, n_max):
    """Recursive and closed-form branching coefficients agree on every edge
    up to level n_max (both directions)."""
    memo = {}
    for n in range(n_max):
        diag = a_hat_diagram(tower_name, n + 1)
        for u in diag.vertices(n):
            for v in diag.successors(n, u):
                for direction in ("d", "u"):
                    closed = branching_closed_form(tower_name, u, v, n, direction)
                    rec = branching_recursive(tower_name, u, v, n, direction, memo)
                    if closed != rec:
                        return False, (n, u, v, direction)
    return True, None


def dimension_identity(tower_name, n):
    """sum of squared path counts equals the algebra dimension."""
    t = tower(tower_name)
    total = sum(len(cell_paths(tower_name, n, v)) ** 2 for v in a_hat(tower_name, n))
    return total == t.dim(n), total, t.dim(n)
