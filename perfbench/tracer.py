"""Per-layer spans and counters, installed from outside the package.

`install()` wraps the public functions and methods of every layer module
(`_kernel`, `coeff`, `linalg`, `diagrams`, `hecke`, `bmw`, `combinatorics`,
`towers`, `framework`) and rebinds every name under which a caller imported
them, so no file of the package changes.  Each wrapped call is a span; a
span's self time is its duration minus the time covered by its child spans.

Spans are aggregated in memory per name (calls, self time, and busy time,
which is the duration of outermost calls only so recursion is not counted
twice) and per (parent, child) edge; `dump()` returns the whole record when
the process ends.  Keeping every span individually would take hundreds of
megabytes on the heavier jobs, which run millions of kernel calls.

The stack is shared by all threads, so a traced process must do its work on
one thread (the benchmark runs the CLI with `--jobs 1`).
"""

import sys
import time
import types

LAYERS = (
    "_kernel",
    "coeff",
    "linalg",
    "diagrams",
    "hecke",
    "bmw",
    "combinatorics",
    "towers",
    "framework",
)

# operators that carry the arithmetic, wrapped although they are dunders
OPERATORS = {
    "__init__",
    "__add__",
    "__radd__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__neg__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
}

# private names that mark a layer boundary the per-layer metrics need
PRIVATE_SPANS = {
    "linalg": {"SpanSolver._reduce"},
    "bmw": {"_Model._build"},
}


class Tracer:
    def __init__(self):
        self.stats = {}  # span name -> [calls, self_s, busy_s, open depth]
        self.edges = {}  # (parent span, child span) -> calls
        self.counters = {}
        # one [span name, child seconds] frame per open span; the bottom
        # frame collects time spent in spans called from untraced code
        self._stack = [[None, 0.0]]

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, probe=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            edge = (stack[-1][0], name)
            edges[edge] = edges.get(edge, 0) + 1
            frame = [name, 0.0]
            stack.append(frame)
            stat[3] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration - frame[1]
                stat[3] -= 1
                if not stat[3]:
                    stat[2] += duration
            if probe is not None:
                probe(args, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def dump(self):
        return {
            "spans": {k: v[:3] for k, v in self.stats.items()},
            "edges": [[p, c, n] for (p, c), n in self.edges.items()],
            "counters": dict(self.counters),
        }


def _probes(tracer):
    """Counters measured at the boundary, where the work happens."""

    def term_products(args, result):
        tracer.count("kernel.term_products", len(args[0]) * len(args[1]))

    def gcd_outcome(args, result):
        terms = result.terms
        if len(terms) == 1 and terms.get((0,) * len(result.vars)) == 1:
            tracer.count("coeff.gcd.trivial")

    def insert_outcome(args, result):
        if result[0] == "new":
            tracer.count("linalg.insert.new")

    return {
        "kernel.terms_mul": term_products,
        "coeff.poly_gcd": gcd_outcome,
        "linalg.SpanSolver.insert": insert_outcome,
    }


def _mult_rows_wrapper(tracer, name, fn):
    inner = tracer.wrap(name, fn)

    def mult_rows(self, d):
        if d in self._mult_rows:
            tracer.count("bmw.mult_rows.hit")
        return inner(self, d)

    return mult_rows


def install(tracer):
    """Wrap every layer's public callables and rebind their imported names."""
    import cellular_towers  # noqa: F401  (loads every layer)
    from cellular_towers import cli  # noqa: F401

    package = "cellular_towers."
    probes = _probes(tracer)
    originals = {}  # id(original) -> (original, wrapper)
    for suffix in LAYERS:
        module = sys.modules[package + suffix]
        layer = "kernel" if suffix == "_kernel" else suffix
        extra = PRIVATE_SPANS.get(suffix, set())
        for name, obj in list(vars(module).items()):
            if isinstance(obj, type):
                if obj.__module__ != module.__name__:
                    continue
                for attr, raw in list(vars(obj).items()):
                    qual = f"{obj.__name__}.{attr}"
                    if attr.startswith("_") and attr not in OPERATORS and qual not in extra:
                        continue
                    span = f"{layer}.{qual}"
                    if isinstance(raw, classmethod):
                        setattr(obj, attr, classmethod(tracer.wrap(span, raw.__func__)))
                    elif isinstance(raw, staticmethod):
                        setattr(obj, attr, staticmethod(tracer.wrap(span, raw.__func__)))
                    elif isinstance(raw, types.FunctionType):
                        if span == "bmw._Model.mult_rows":
                            setattr(obj, attr, _mult_rows_wrapper(tracer, span, raw))
                        else:
                            setattr(obj, attr, tracer.wrap(span, raw, probes.get(span)))
                continue
            if name.startswith("_") or not callable(obj):
                continue
            if suffix == "_kernel":
                if not name.startswith("terms_"):
                    continue
            elif getattr(obj, "__module__", None) != module.__name__:
                continue
            span = f"{layer}.{name}"
            originals[id(obj)] = (obj, tracer.wrap(span, obj, probes.get(span)))
    # rebind the names under which callers imported the wrapped functions
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == "cellular_towers" or modname.startswith(package)):
            continue
        for name, obj in list(vars(module).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, name, hit[1])
