"""Golden files: generated bases must be byte-identical across runs and
machines (the deterministic-ordering contract)."""

import hashlib
import pathlib

import pytest

from cellular_towers import cli

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
# monomials, so they pin the RationalFunction form over Q(q, z).
DIGESTS = [
    ("brauer", 4, "fad2df6c78a88017078c80d08b83e3af2f918716ff6c98f0d7352c3c43000343"),
    ("tl", 6, "d92751e8980ed3a6cb8aa21f56f5842b998947681ae7ea993d9b907eb6160853"),
    ("partition", 5, "34ed0b43c34cc1ff2a2b01fa32e3b5d51d32c575d13a4df7491393fb09836a29"),
    ("partition", 6, "c4ec5aaa3ae08a0e1f499722ad682a55d5fa12ad0258c83d48e5ea273f3933c1"),
    ("hecke", 3, "5fe836fb6a81442f22e4d571fe2ba124bb1190d2fb7de3b98282c44bf049da5d"),
    ("hecke", 4, "67e51af887665d96a3116ab8cfb6dfc31fa1dbaa81a34027491e449f13ea66ea"),
    ("bmw", 2, "b5135dbb1dbfc822e472219aa59e6876f69f41209f0ecc10232237ebe43585e9"),
    ("bmw", 3, "a05773493e5f566b884c64fabcef1f6d6f7c15591f465e40b5e35e0bc90bd898"),
]


@pytest.mark.parametrize(
    "algebra,level,digest", DIGESTS, ids=[f"{a}_{n}" for a, n, _ in DIGESTS]
)
def test_gen_basis_digest(algebra, level, digest, tmp_path):
    out = tmp_path / "basis.json"
    argv = ["gen-basis", "--algebra", algebra, "--n", str(level), "--out", str(out)]
    assert cli.main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
