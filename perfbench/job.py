"""One benchmark job, run in a fresh process by `run.py`.

    python perfbench/job.py '<json config>'

The config's "mode" selects the job:

  cli       run `cellular_towers.cli.main(argv)`; stdout is the CLI's output
  murphy    the Hecke library job: the rank-n Murphy transition determinant
            and the restriction filtration of every shape of n
  serve     the warm-query worker: build the bases, warm up, then answer a
            seeded stream of product-and-express requests
  control   the negative controls: a perturbed basis and a tampered query
            must both be rejected
  import    import the package and exit (set-up probe)

Messages to the harness go to stderr as lines starting with MARK followed
by one JSON object: {"ready": t} once the package is imported, {"built": t}
once the warm-query bases exist, and {"trace": {...}} at exit when tracing.
Times are `time.monotonic()`, which is one clock for every process.
"""

import json
import os
import random
import sys
import time

MARK = "@perfbench "
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

EXIT_WRONG_PACKAGE = 90


def emit(payload):
    sys.stderr.write(MARK + json.dumps(payload) + "\n")
    sys.stderr.flush()


def import_package():
    import cellular_towers
    from cellular_towers import cli  # noqa: F401

    where = os.path.dirname(os.path.abspath(cellular_towers.__file__))
    if where != os.path.join(SRC, "cellular_towers"):
        sys.stderr.write(f"imported cellular_towers from {where}, not from {SRC}\n")
        sys.exit(EXIT_WRONG_PACKAGE)
    emit({"ready": time.monotonic(), "kernel": cellular_towers.KERNEL})


# ---------------------------------------------------------------------------
# oracle helpers shared by the warm-query worker and the controls
# ---------------------------------------------------------------------------


class Algebra:
    """One built cellular basis with the harness's per-key caches."""

    def __init__(self, name, n):
        from cellular_towers import cellular_basis

        self.name = name
        self.n = n
        self.datum = cellular_basis(name, n)
        self.t = self.datum.t
        self.keys = list(self.t.basis_keys(n))
        self._key_elements = {}
        self._basis_vectors = {}
        self._deck = []

    def draw_key(self, rng):
        """Keys are dealt from reshuffled decks, so every seed uses each key
        equally often and only the pairing of keys varies."""
        if not self._deck:
            self._deck = list(self.keys)
            rng.shuffle(self._deck)
        return self._deck.pop()

    def key_element(self, key):
        x = self._key_elements.get(key)
        if x is None:
            x = self._key_elements[key] = self.t.element_of_key(key, self.n)
        return x

    def random_element(self, rng, terms):
        """A sum of `terms` random nonzero integer multiples of basis keys."""
        t = self.t
        out = None
        for _ in range(terms):
            term = t.scale(self.key_element(self.draw_key(rng)), rng.choice((-3, -2, -1, 1, 2, 3)))
            out = term if out is None else t.add(out, term)
        return out

    def rebuilds(self, coords, product):
        """True when sum(c * basis element) equals the product, key by key."""
        if coords is None:
            return False
        acc = {}
        for index_key, c in coords.items():
            vec = self._basis_vectors.get(index_key)
            if vec is None:
                vec = self._basis_vectors[index_key] = self.t.vector(self.datum.elements[index_key])
            for k, v in vec.items():
                s = acc.get(k)
                s = c * v if s is None else s + c * v
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        return acc == self.t.vector(product)


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def run_cli(cfg):
    from cellular_towers import cli

    return cli.main(cfg["argv"])


def run_murphy(cfg):
    from cellular_towers import hecke
    from cellular_towers.combinatorics import partitions_of

    n = cfg["n"]
    det = hecke.murphy_transition_det(n)
    filtrations = []
    for lam in partitions_of(n):
        rep = hecke.restriction_filtration(lam, n)
        filtrations.append(
            {
                "shape": list(lam),
                "stable": rep["stable"],
                "subquotients_match": rep["subquotients_match"],
                "order_preserving": rep["order_preserving"],
                "layers": [{"shape": list(x["shape"]), "rank": x["rank"]} for x in rep["layers"]],
            }
        )
    print(json.dumps({"det": det.to_json(), "filtrations": filtrations}))
    return 0


# every (terms of a, terms of b) pair from 1-3 terms, cycled in a fixed order
# per algebra so that no seed draws a lighter or heavier mix of shapes
TERM_SHAPES = [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]


def warmup_pairs(dim):
    """Every product of two keys where there are at most 256 of them, else
    each key squared; this fills the memo tables of the read path (BMW
    rewriting and multiplication rows) before anything is timed."""
    if dim * dim <= 256:
        return [(i, j) for i in range(dim) for j in range(dim)]
    return [(i, i) for i in range(dim)]


def run_serve(cfg):
    algebras = [Algebra(name, n) for name, n in cfg["bases"]]
    emit({"built": time.monotonic()})
    result = {"paths_squared": {f"{a.name}{a.n}": len(a.datum.index) for a in algebras}}
    if cfg["setup_only"]:
        print(json.dumps(result))
        return 0
    warmup = wrong = 0
    for a in algebras:
        for i, j in warmup_pairs(len(a.keys)):
            prod = a.t.mul(a.key_element(a.keys[i]), a.key_element(a.keys[j]))
            warmup += 1
            wrong += not a.rebuilds(a.datum.express(prod), prod)
    result.update(warmup=warmup, warmup_wrong=wrong)

    rng = random.Random(cfg["seed"])
    batch = len(algebras) * len(TERM_SHAPES)  # every algebra x shape once
    clock, cpu_clock = time.perf_counter, time.process_time
    latencies, cpu, wrong_ids = [], [], []
    deadline = time.monotonic() + cfg["seconds"]
    limit = cfg["queries"]
    i = 0
    while True:
        if limit:
            if i >= limit:
                break
        elif i and i % batch == 0 and time.monotonic() >= deadline:
            break  # stop only at a batch boundary
        a = algebras[i % len(algebras)]
        shape = TERM_SHAPES[(i // len(algebras)) % len(TERM_SHAPES)]
        x, y = a.random_element(rng, shape[0]), a.random_element(rng, shape[1])
        c0 = cpu_clock()
        t0 = clock()
        prod = a.t.mul(x, y)
        coords = a.datum.express(prod)
        t1 = clock()
        c1 = cpu_clock()
        latencies.append(t1 - t0)
        cpu.append(c1 - c0)
        if not a.rebuilds(coords, prod):
            wrong_ids.append(i)
        i += 1
    result.update(batch=batch, latencies=latencies, cpu=cpu, wrong=wrong_ids)
    print(json.dumps(result))
    return 0


def run_control(cfg):
    from cellular_towers import verify_cell_datum

    report = {}
    a = Algebra(*cfg["basis"])
    datum, t = a.datum, a.t
    # perturb one basis element by an element of a strictly smaller cell
    low = datum.vertices[-1]
    key = next(k for k in datum.index if k[0] != low)
    bad = t.add(datum.elements[key], datum.elements[(low, 0, 0)])
    rep = verify_cell_datum(datum.replaced(key, bad))
    report["perturbed_basis_rejected"] = not rep["pass"]
    report["counterexample_located"] = any("vertex" in c for c in rep["counterexamples"])
    # a query whose coordinates are tampered with must fail the rebuild check
    rng = random.Random(cfg["seed"])
    x, y = a.random_element(rng, 2), a.random_element(rng, 2)
    prod = t.mul(x, y)
    coords = datum.express(prod)
    report["honest_query_accepted"] = a.rebuilds(coords, prod)
    tampered = dict(coords or {})
    k0 = datum.index[0]  # present or not: the product may even be zero
    tampered[k0] = tampered.get(k0, 0) + 1
    report["tampered_query_rejected"] = not a.rebuilds(tampered, prod)
    print(json.dumps(report))
    return 0


MODES = {
    "cli": run_cli,
    "murphy": run_murphy,
    "serve": run_serve,
    "control": run_control,
    "import": lambda cfg: 0,
}


def main():
    cfg = json.loads(sys.argv[1])
    import_package()
    tracer = None
    if cfg.get("trace"):
        import tracer as tracing  # the script's directory is on sys.path

        tracer = tracing.Tracer()
        tracing.install(tracer)
    code = MODES[cfg["mode"]](cfg)
    sys.stdout.flush()
    if tracer is not None:
        dump = tracer.dump()
        from cellular_towers import bmw

        dump["counters"]["bmw.reduce_memo.size"] = len(bmw._REDUCE_MEMO)
        emit({"trace": dump})
    return code


if __name__ == "__main__":
    sys.exit(main())
