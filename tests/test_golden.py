"""Golden files: generated bases must be byte-identical across runs and
machines (the deterministic-ordering contract)."""

import hashlib
import json
import pathlib

import pytest

from cellular_towers import cli
from cellular_towers.framework import (
    cellular_basis,
    restriction_filtration_a,
    verify_cell_datum,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"

CASES = [
    ("tl_n4_basis.json", ["gen-basis", "--algebra", "tl", "--n", "4"]),
    ("brauer_n2_basis.json", ["gen-basis", "--algebra", "brauer", "--n", "2"]),
    ("partition_l3_basis.json", ["gen-basis", "--algebra", "partition", "--level", "3"]),
    ("partition_dims.json", ["dims", "--algebra", "partition", "--n", "6"]),
]


@pytest.mark.parametrize("fname,argv", CASES, ids=[c[0] for c in CASES])
def test_golden(fname, argv, tmp_path):
    out = tmp_path / fname
    code = cli.main(argv + ["--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (GOLDEN / fname).read_bytes()


# SHA-256 of the `gen-basis` output at the levels the benchmark verifies,
# recorded before composition moved off the tagged-vertex union-find; the
# same under every PYTHONHASHSEED tried.  Digests keep large files out.
# Hecke 3 and 4, recorded while every coefficient was still a
# RationalFunction, are the only outputs with a non-unit denominator (q),
# so they pin LaurentFraction's JSON form.  BMW 2 and 3, recorded while the
# rank-n model was still built by closing over words and quotienting by a
# relation kernel, are the only outputs whose denominators are not
# monomials, so they pin the RationalFunction form over Q(q, z).  BMW 4,
# recorded while every product still read a cached right-multiplication
# matrix per basis diagram, is the level where products do the most work;
# the same under PYTHONHASHSEED 0, 1 and random.
DIGESTS = [
    ("brauer", 4, "fad2df6c78a88017078c80d08b83e3af2f918716ff6c98f0d7352c3c43000343"),
    ("tl", 6, "d92751e8980ed3a6cb8aa21f56f5842b998947681ae7ea993d9b907eb6160853"),
    ("partition", 5, "34ed0b43c34cc1ff2a2b01fa32e3b5d51d32c575d13a4df7491393fb09836a29"),
    ("partition", 6, "c4ec5aaa3ae08a0e1f499722ad682a55d5fa12ad0258c83d48e5ea273f3933c1"),
    ("hecke", 3, "5fe836fb6a81442f22e4d571fe2ba124bb1190d2fb7de3b98282c44bf049da5d"),
    ("hecke", 4, "67e51af887665d96a3116ab8cfb6dfc31fa1dbaa81a34027491e449f13ea66ea"),
    ("bmw", 2, "b5135dbb1dbfc822e472219aa59e6876f69f41209f0ecc10232237ebe43585e9"),
    ("bmw", 3, "a05773493e5f566b884c64fabcef1f6d6f7c15591f465e40b5e35e0bc90bd898"),
    ("bmw", 4, "6cf79b0bd90e4c015ad1526766449c3c030baf8497d9246ac0fb65f8b79fe8dd"),
]


@pytest.mark.parametrize(
    "algebra,level,digest", DIGESTS, ids=[f"{a}_{n}" for a, n, _ in DIGESTS]
)
def test_gen_basis_digest(algebra, level, digest, tmp_path):
    out = tmp_path / "basis.json"
    argv = ["gen-basis", "--algebra", algebra, "--n", str(level), "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# SHA-256 of JSON dumps (insertion order kept) of what a failed or passed
# certificate reports, recorded before the cell-module readers shared one
# row reader; the same under PYTHONHASHSEED 0 and 123.  The counterexample
# lists are the only observable output of a failed verdict.
def _digest(obj):
    return hashlib.sha256(json.dumps(obj).encode()).hexdigest()


PERTURBED_DIGESTS = [
    ("brauer", 2, 7, "6fcbb752d566c6d1e4275009c46f32701be33587bb913c0277628a8b9e166a64"),
    ("tl", 3, 6, "8bdc790162f89959de3f8b8e323fa1b6ead4b4ac3523f382319fba30a9180bfe"),
    ("hecke", 3, 13, "513cdf84953d72a235bd2d387ba7fb522556b5b9121bac056de792a7d4687f75"),
    ("partition", 3, 6, "f1a82b9f0625a9ba63006de506f9fb23c7dda7764cb4c30d03ea3c1e59fa5c55"),
    ("bmw", 2, 9, "272650e83172cee96253fdc1805e15c8176160a2d930611e2960511074bfbc5e"),
]


@pytest.mark.parametrize(
    "algebra,level,count,digest",
    PERTURBED_DIGESTS,
    ids=[f"{a}_{n}" for a, n, _, _ in PERTURBED_DIGESTS],
)
def test_perturbed_counterexamples_digest(algebra, level, count, digest):
    # the criterion-10 perturbation: the first key outside the lowest cell
    # gains that cell's (vertex, 0, 0) element
    datum = cellular_basis(algebra, level)
    low = datum.vertices[-1]
    key = next(k for k in datum.index if k[0] != low)
    bad = datum.t.add(datum.elements[key], datum.elements[(low, 0, 0)])
    rep = verify_cell_datum(datum.replaced(key, bad))
    assert len(rep["counterexamples"]) == count
    pinned = {"checks": rep["checks"], "counterexamples": rep["counterexamples"]}
    assert _digest(pinned) == digest


FILTRATION_DIGESTS = [
    ("brauer", 3, "08acb229b233cea4c4393ee43f26be976c11df1950b55ea2696cfb1800f54cc7"),
    ("tl", 4, "b425aa503ac0722a985f3fcb05e101c3cc83fcfa2f9511fb683a7cd1c4b2c832"),
    ("partition", 4, "689b57dbd26178f186b22e705e76aa36b6930c1fc2b1f2544e35fe409a8b2217"),
    ("bmw", 3, "9fdf128d531730822ad6b375edb6add6534f65afbe67be76b7d71185e5fcd60c"),
    ("hecke", 4, "bbf125823dfa4e68fb28e01df819c892e38a5ed1397ac0d60df3e11c4219b0ec"),
]


@pytest.mark.parametrize(
    "algebra,level,digest",
    FILTRATION_DIGESTS,
    ids=[f"{a}_{n}" for a, n, _ in FILTRATION_DIGESTS],
)
def test_restriction_filtration_digest(algebra, level, digest):
    reports = [
        restriction_filtration_a(algebra, v, level)
        for v in cellular_basis(algebra, level).vertices
    ]
    assert all(r["pass"] for r in reports)
    assert _digest(reports) == digest
