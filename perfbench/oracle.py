"""Known answers for the benchmark's verdicts.

Nothing here imports the package under test: the expected dimensions are a
frozen table, partitions and hook lengths are recomputed from scratch, and
the generated bases are compared byte for byte with the golden files.  Each
check returns a list of problems; an empty list is a correct verdict.
"""

import json
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN = os.path.join(ROOT, "tests", "golden")

# sum over cells of (#paths)^2 = dim: (2n-1)!!, Catalan, Bell, n!
DIMENSIONS = {
    ("brauer", 2): 3,
    ("brauer", 4): 105,
    ("tl", 4): 14,
    ("tl", 6): 132,
    ("partition", 3): 5,
    ("partition", 6): 203,
    ("hecke", 3): 6,
    ("hecke", 4): 24,
    ("bmw", 2): 3,
    ("bmw", 3): 15,
}

# highest framework-axiom index the CLI sweeps per tower (hecke has none)
AXIOM_TOP = {"brauer": 3, "tl": 4, "partition": 4, "bmw": 2}

RELATION_CHECK = {
    "brauer": "brauer_involution_n{n}",
    "tl": "tl_involution_n{n}",
    "partition": "partition_involution_n{n}",
    "hecke": "hecke_relations_n{n}",
    "bmw": "bmw_relations_n{n}",
}


def expected_checks(algebra, n):
    names = {
        f"dimension_identity_n{n}",
        f"cell_datum_n{n}",
        f"branching_agreement_n{n}",
        f"restriction_filtrations_n{n}",
        RELATION_CHECK[algebra].format(n=n),
    }
    if algebra in AXIOM_TOP:
        names.update(f"framework_axioms_n{k}" for k in range(1, min(n, AXIOM_TOP[algebra]) + 1))
    return names


def _exit_problems(job):
    if job["code"] != 0:
        tail = job["stderr"].strip().splitlines()[-1:] or [""]
        return [f"exit code {job['code']}: {tail[0][:200]}"]
    return []


def check_verify(algebra, n):
    def check(job):
        problems = _exit_problems(job)
        if problems:
            return problems
        try:
            report = json.loads(job["stdout"])
        except ValueError:
            return ["verify output is not JSON"]
        checks = report.get("checks", {})
        if report.get("algebra") != algebra or report.get("level") != n:
            problems.append("report is for another algebra or level")
        if report.get("pass") is not True:
            problems.append("verdict is not pass")
        problems += [f"check {k} is {v}" for k, v in sorted(checks.items()) if v is not True]
        problems += [f"check {k} missing" for k in sorted(expected_checks(algebra, n) - set(checks))]
        return problems

    return check


def check_gen_basis(algebra, n, golden):
    def check(job):
        problems = _exit_problems(job)
        if problems:
            return problems
        with open(os.path.join(GOLDEN, golden), "rb") as fh:
            if job["stdout_bytes"] != fh.read():
                problems.append(f"output differs from tests/golden/{golden}")
        payload = json.loads(job["stdout"])
        dim = DIMENSIONS[(algebra, n)]
        squares = sum(len(paths) ** 2 for paths in payload["paths"].values())
        if squares != dim or payload["dimension"] != dim or len(payload["basis"]) != dim:
            problems.append(f"sum of squared path counts {squares}, expected {dim}")
        if payload["free"] is not True:
            problems.append("basis is not free")
        return problems

    return check


def partitions(n, largest=None):
    """All partitions of n as tuples, largest parts first."""
    if n == 0:
        return [()]
    largest = n if largest is None else largest
    out = []
    for first in range(min(n, largest), 0, -1):
        out += [(first,) + rest for rest in partitions(n - first, first)]
    return out


def standard_tableau_count(shape):
    """f^shape by the hook length formula."""
    cols = [sum(1 for r in shape if r > j) for j in range(shape[0])] if shape else []
    hooks = 1
    for i, r in enumerate(shape):
        for j in range(r):
            hooks *= (r - j - 1) + (cols[j] - i - 1) + 1
    return math.factorial(sum(shape)) // hooks


def dominates(lam, mu):
    a = b = 0
    for i in range(max(len(lam), len(mu))):
        a += lam[i] if i < len(lam) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def removals(shape):
    """Shapes obtained by removing one removable node."""
    out = []
    for i, r in enumerate(shape):
        if i + 1 == len(shape) or shape[i + 1] < r:
            out.append(tuple(x for x in shape[:i] + (r - 1,) + shape[i + 1:] if x))
    return out


def is_unit_monomial(rational):
    """True for +-q^k: one term with coefficient +-1 over a monic monomial."""
    num, den = rational["num"]["terms"], rational["den"]["terms"]
    return len(num) == 1 and len(den) == 1 and abs(int(num[0]["coef"])) == 1 and int(den[0]["coef"]) == 1


def check_murphy(n):
    def check(job):
        problems = _exit_problems(job)
        if problems:
            return problems
        payload = json.loads(job["stdout"])
        if not is_unit_monomial(payload["det"]):
            problems.append(f"Murphy transition determinant at n={n} is not a unit monomial")
        shapes = [tuple(f["shape"]) for f in payload["filtrations"]]
        if sorted(shapes) != sorted(partitions(n)):
            problems.append("filtrations do not cover every shape")
        for f in payload["filtrations"]:
            lam = tuple(f["shape"])
            for flag in ("stable", "subquotients_match", "order_preserving"):
                if f[flag] is not True:
                    problems.append(f"filtration of {lam}: {flag} is {f[flag]}")
            layers = [tuple(x["shape"]) for x in f["layers"]]
            if sorted(layers) != sorted(removals(lam)):
                problems.append(f"filtration of {lam}: layers {layers}")
            if any(not dominates(a, b) for a, b in zip(layers, layers[1:])):
                problems.append(f"filtration of {lam}: layers not in dominance order")
            for x in f["layers"]:
                if x["rank"] != standard_tableau_count(tuple(x["shape"])):
                    problems.append(f"filtration of {lam}: layer {x['shape']} has rank {x['rank']}")
        return problems

    return check


def check_bases(paths_squared, bases):
    """The warm-query worker's bases have the frozen dimensions."""
    return [
        f"{name}{n}: sum of squared path counts {paths_squared.get(f'{name}{n}')}, "
        f"expected {DIMENSIONS[(name, n)]}"
        for name, n in bases
        if paths_squared.get(f"{name}{n}") != DIMENSIONS[(name, n)]
    ]
