"""Command-line driver: generate bases, verify, and tabulate dimensions.

Subcommands:
  gen-basis  construct the cellular basis of one algebra level as JSON
  verify     run the verification suites (cell datum, relations, axioms,
             filtrations) and exit 0 only if everything passes
  dims       print (level, dimension, sum of squared path counts) rows

Exit codes: 0 pass, 1 verification failure, 2 usage or bound violation,
3 internal invariant violation.  Identical configurations produce byte
identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import BoundExceededError, CellularTowersError, InternalInvariantError, max_level
from . import framework as fw
from .towers import TOWERS, tower

ALGEBRAS = ("hecke", "brauer", "bmw", "tl", "partition")
FORMATS = ("json", "text")
# config-file key -> argument dest
CONFIG_KEYS = {"algebra": "algebra", "n": "level", "level": "level",
               "out": "out", "format": "format", "jobs": "jobs"}

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def _bound(t):
    return max_level(t.default_bound)


def _check_level(t, n):
    if n < 0:
        raise BoundExceededError("level must be >= 0")
    if n > _bound(t):
        raise BoundExceededError(
            f"level {n} exceeds the bound {_bound(t)} for {t.name} "
            "(override with CELLULAR_TOWERS_MAX_LEVEL)"
        )


def _emit(payload, out_path):
    text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_gen_basis(args):
    t = tower(args.algebra)
    _check_level(t, args.level)
    datum = fw.cellular_basis(args.algebra, args.level)
    _emit(datum.to_json(), args.out)
    return EXIT_PASS


def _relation_checks(algebra, n):
    """Presentation relation sweeps (BMW matrices / diagram identities)."""
    checks = []
    if algebra == "bmw":
        from . import bmw as _bmw

        def run(k=n):
            return _bmw.bmw_model(k).check_relations()

        checks.append((f"bmw_relations_n{n}", run))
    elif algebra == "hecke":
        def run():
            from .hecke import HeckeElement, QPOLY, QINV

            ok = True
            one = HeckeElement.one(n)
            for i in range(1, n):
                ti = HeckeElement.t_gen(n, i)
                ok &= ti.times_gen(i) == one + ti.scale(QPOLY - QINV)
                if i < n - 1:
                    ok &= ti.times_gen(i + 1).times_gen(i) == HeckeElement.t_gen(
                        n, i + 1
                    ).times_gen(i).times_gen(i + 1)
                for j in range(i + 2, n):
                    ok &= ti.times_gen(j) == HeckeElement.t_gen(n, j).times_gen(i)
            return ok

        checks.append((f"hecke_relations_n{n}", run))
    elif algebra in ("brauer", "tl", "partition"):
        def run():
            t = tower(algebra)
            one = t.one(n)
            ok = True
            for label, a in t.generators(n):
                ok &= t.star(a) == a if label.startswith("e") else True
            for _, a in t.generators(n):
                for _, b in t.generators(n):
                    ok &= t.star(t.mul(a, b)) == t.mul(t.star(b), t.star(a))
            return ok and not one.is_zero()

        checks.append((f"{algebra}_involution_n{n}", run))
    return checks


def _verify_checks(args):
    algebra, n = args.algebra, args.level
    t = tower(algebra)
    checks = []
    run_all = args.all
    if run_all or not (args.relations or args.axioms or args.filtrations):
        def dim_check():
            ok, total, dim = fw.dimension_identity(algebra, n)
            return ok

        checks.append((f"dimension_identity_n{n}", dim_check))

        def cell_check():
            datum = fw.cellular_basis(algebra, n)
            return fw.verify_cell_datum(datum)["pass"]

        checks.append((f"cell_datum_n{n}", cell_check))

        def branching_check():
            ok, _ = fw.branching_agreement(algebra, n)
            return ok

        checks.append((f"branching_agreement_n{n}", branching_check))
    if run_all or args.relations:
        checks.extend(_relation_checks(algebra, n))
    if (run_all or args.axioms) and t.has_contractions:
        top = min(n, getattr(t, "axiom_bound", n))
        for k in range(1, top + 1):
            def axiom_check(k=k):
                return fw.verify_framework_axioms(algebra, k)["pass"]

            checks.append((f"framework_axioms_n{k}", axiom_check))
    if (run_all or args.filtrations) and n >= 1:
        def filtration_check():
            ok = True
            for v in fw.a_hat(algebra, n):
                ok &= fw.restriction_filtration_a(algebra, v, n)["pass"]
            return ok

        checks.append((f"restriction_filtrations_n{n}", filtration_check))
    return checks


def cmd_verify(args):
    t = tower(args.algebra)
    _check_level(t, args.level)
    checks = _verify_checks(args)
    results = {name: bool(fn()) for name, fn in checks}
    report = {
        "algebra": args.algebra,
        "level": args.level,
        "checks": results,
        "pass": all(results.values()),
    }
    _emit(report, args.out)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def cmd_dims(args):
    t = tower(args.algebra)
    rows = []
    top = args.level if args.level is not None else _bound(t)
    _check_level(t, top)
    start = 1 if args.algebra != "partition" else 2
    for n in range(start, top + 1):
        ok, total, dim = fw.dimension_identity(args.algebra, n)
        rows.append({"level": n, "dimension": dim, "paths_squared": total, "match": ok})
    if args.format == "json":
        _emit({"algebra": args.algebra, "rows": rows}, args.out)
    else:
        lines = [f"{'level':>6} {'dim':>10} {'sum paths^2':>12}"]
        for r in rows:
            mark = "" if r["match"] else "  MISMATCH"
            lines.append(f"{r['level']:>6} {r['dimension']:>10} {r['paths_squared']:>12}{mark}")
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    return EXIT_PASS if all(r["match"] for r in rows) else EXIT_FAIL


def _load_config(path):
    """Flat KEY=VALUE file of subcommand defaults, keyed by argument dest;
    flags on the command line override them.  An unknown key is an error,
    so a misspelt one cannot silently do nothing."""
    out = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"bad config line: {line!r}")
            k, v = (part.strip() for part in line.split("=", 1))
            if k not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {k!r}")
            out[CONFIG_KEYS[k]] = v
    # argparse converts string defaults with `type` but never checks `choices`
    if out.get("format", "json") not in FORMATS:
        raise ValueError(f"bad config format {out['format']!r}; choose from {FORMATS}")
    return out


def build_parser(config=None):
    """The CLI parser; `config` (from `_load_config`) supplies subcommand defaults."""
    config = config or {}
    parser = argparse.ArgumentParser(
        prog="cellular-towers",
        description="Exact cellular bases for towers of diagram algebras.",
    )
    parser.add_argument("--config", help="flat KEY=VALUE config file", default=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, level_required=True):
        p.add_argument("--algebra", choices=ALGEBRAS, required="algebra" not in config)
        p.add_argument("--n", "--level", dest="level", type=int,
                       required=level_required and "level" not in config)
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=FORMATS, default="json")
        p.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored; checks run one after another")
        p.set_defaults(**config)

    p = sub.add_parser("gen-basis", help="construct a cellular basis as JSON")
    common(p)
    p.set_defaults(fn=cmd_gen_basis)

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--all", action="store_true", help="every available check")
    p.add_argument("--relations", action="store_true", help="presentation sweeps")
    p.add_argument("--axioms", action="store_true", help="framework axioms")
    p.add_argument("--filtrations", action="store_true", help="restriction filtrations")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("dims", help="dimension table with path-count cross-check")
    common(p, level_required=False)
    p.set_defaults(fn=cmd_dims)
    return parser


def main(argv=None):
    # --config is read first: its values become the subcommand's defaults
    pre = argparse.ArgumentParser(prog="cellular-towers", add_help=False)
    pre.add_argument("--config", default=None)
    try:
        config_path = pre.parse_known_args(argv)[0].config
        config = _load_config(config_path) if config_path else {}
        args = build_parser(config).parse_args(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except BoundExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CellularTowersError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
