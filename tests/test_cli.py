import json
import os

import pytest

from cellular_towers import cli, framework
from cellular_towers.framework import cellular_basis, verify_cell_datum


def run(argv):
    return cli.main(argv)


def test_dims_brauer(tmp_path, capsys):
    out = tmp_path / "dims.json"
    code = run(["dims", "--algebra", "brauer", "--n", "4", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert [r["dimension"] for r in data["rows"]] == [1, 3, 15, 105]
    assert all(r["match"] for r in data["rows"])


def test_dims_tl_and_partition(tmp_path):
    out = tmp_path / "dims.json"
    assert run(["dims", "--algebra", "tl", "--n", "6", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [r["dimension"] for r in data["rows"]] == [1, 2, 5, 14, 42, 132]
    assert run(["dims", "--algebra", "partition", "--n", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert [r["dimension"] for r in data["rows"]] == [2, 5, 15]


def test_gen_basis_counts(tmp_path):
    out = tmp_path / "basis.json"
    assert run(["gen-basis", "--algebra", "tl", "--n", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["basis"]) == 14 and data["free"]
    assert run(["gen-basis", "--algebra", "brauer", "--n", "1", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["basis"]) == 1
    assert run(["gen-basis", "--algebra", "partition", "--level", "3", "--out", str(out)]) == 0
    assert len(json.loads(out.read_text())["basis"]) == 5


def test_gen_basis_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["gen-basis", "--algebra", "brauer", "--n", "3", "--out", str(a)])
    run(["gen-basis", "--algebra", "brauer", "--n", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_bound_exceeded_exit_2():
    assert run(["gen-basis", "--algebra", "brauer", "--n", "9"]) == 2
    assert run(["dims", "--algebra", "tl", "--n", "40"]) == 2


def test_usage_error_exit_2():
    assert run(["gen-basis", "--algebra", "nosuch", "--n", "2"]) == 2


def test_verify_pass(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--algebra", "brauer", "--n", "3", "--all", "--out", str(out)])
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["pass"] and all(rep["checks"].values())


def test_verify_relations_bmw(tmp_path):
    out = tmp_path / "rep.json"
    code = run(["verify", "--algebra", "bmw", "--n", "3", "--relations", "--out", str(out)])
    assert code == 0


def test_verify_parallel_matches_serial(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "--algebra", "tl", "--n", "4", "--all", "--out", str(a)])
    run(["verify", "--algebra", "tl", "--n", "4", "--all", "--jobs", "4", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_verify_failure_exit_1(tmp_path, monkeypatch):
    datum = cellular_basis("brauer", 2)
    key = (((2,), 0), 0, 0)
    bad = datum.t.add(datum.elements[key], datum.elements[(((1, 1), 0), 0, 0)])
    corrupted = datum.replaced(key, bad)
    monkeypatch.setattr(framework, "cellular_basis", lambda name, n: corrupted)
    monkeypatch.setattr(cli.fw, "cellular_basis", lambda name, n: corrupted)
    out = tmp_path / "rep.json"
    code = run(["verify", "--algebra", "brauer", "--n", "2", "--out", str(out)])
    assert code == 1
    rep = json.loads(out.read_text())
    assert not rep["pass"] and not rep["checks"]["cell_datum_n2"]
    # the underlying report locates the failure
    assert verify_cell_datum(corrupted)["counterexamples"]


def test_env_bound_override(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CELLULAR_TOWERS_MAX_LEVEL", "2")
    assert run(["gen-basis", "--algebra", "tl", "--n", "3"]) == 2
    monkeypatch.setenv("CELLULAR_TOWERS_MAX_LEVEL", "5")
    out = tmp_path / "b.json"
    assert run(["gen-basis", "--algebra", "tl", "--n", "5", "--out", str(out)]) == 0
    # a malformed bound is a usage error, not a verification failure
    monkeypatch.setenv("CELLULAR_TOWERS_MAX_LEVEL", "abc")
    capsys.readouterr()
    assert run(["dims", "--algebra", "tl", "--n", "3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_file(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("algebra=tl\nlevel=4\n")
    out = tmp_path / "d.json"
    # flags take precedence over the file; the file fills what is missing
    code = run(["--config", str(cfg), "dims", "--algebra", "tl", "--out", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["rows"][-1]["level"] == 4


def test_config_sets_subcommand_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("format=text\n")
    capsys.readouterr()
    assert run(["--config", str(cfg), "dims", "--algebra", "tl", "--n", "3"]) == 0
    assert capsys.readouterr().out.split()[0] == "level"
    # an explicit flag wins even when it equals the parser default
    assert run(["--config", str(cfg), "dims", "--algebra", "tl", "--n", "3", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["algebra"] == "tl"


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "error:"),
        ("format text\n", "error:"),
        ("level=abc\n", "error:"),
        ("levle=2\n", "error: unknown config key 'levle'"),
    ],
    ids=["missing", "malformed", "level", "unknown"],
)
def test_bad_config_exit_2(tmp_path, capsys, content, message):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_text(content)
    capsys.readouterr()
    assert run(["--config", str(cfg), "dims", "--algebra", "tl"]) == 2
    assert message in capsys.readouterr().err
