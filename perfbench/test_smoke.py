"""Smoke tests of the benchmark at tiny levels (brauer 2, hecke 3, bmw 2).

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import oracle  # noqa: E402
import run as bench  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run(workload, trace, seed=0, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )
    return proc


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload):
    proc = run(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    rows = {line.split()[0]: line.split()[-1] for line in lines[:-1] if not line.startswith("#")}
    for name, unit in expected.items():
        assert rows.get(name) == unit
        assert result["metrics"][name]["value"] > 0
    assert rows.get("error_rate") == "ratio"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = (json.loads(run(workload, 1, seed=5).stdout.splitlines()[-1]) for _ in range(2))
    per_layer = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == per_layer
    assert first["correct"] and second["correct"]
    counts = [name for name, unit in per_layer.items() if unit == "count"]
    assert [first["metrics"][n]["value"] for n in counts] == [second["metrics"][n]["value"] for n in counts]
    assert first["metrics"]["kernel.calls"]["value"] > 0


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("cold-bmw", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_oracle_rejects_wrong_answers():
    good = {"num": {"terms": [{"exp": [380], "coef": "1"}]}, "den": {"terms": [{"exp": [0], "coef": "1"}]}}
    bad = {"num": {"terms": [{"exp": [380], "coef": "2"}]}, "den": {"terms": [{"exp": [0], "coef": "1"}]}}
    assert oracle.is_unit_monomial(good) and not oracle.is_unit_monomial(bad)
    assert len(oracle.partitions(5)) == 7
    assert [oracle.standard_tableau_count(s) for s in oracle.partitions(5)] == [1, 4, 5, 6, 5, 4, 1]
    assert oracle.check_bases({"brauer4": 104}, [["brauer", 4]])
    with open(os.path.join(oracle.GOLDEN, "brauer_n2_basis.json"), "rb") as fh:
        golden = fh.read()
    job = {"code": 0, "stderr": "", "stdout_bytes": golden.replace(b'"free": true', b'"free": false')}
    job["stdout"] = job["stdout_bytes"].decode()
    assert oracle.check_gen_basis("brauer", 2, "brauer_n2_basis.json")(job)
    job = {"code": 0, "stderr": "", "stdout_bytes": golden, "stdout": golden.decode()}
    assert oracle.check_gen_basis("brauer", 2, "brauer_n2_basis.json")(job) == []
    report = {"algebra": "brauer", "level": 2, "pass": True, "checks": {"cell_datum_n2": True}}
    job = {"code": 0, "stderr": "", "stdout": json.dumps(report)}
    assert any("missing" in p for p in oracle.check_verify("brauer", 2)(job))
    verdicts = bench.Run()
    job = {"code": 0, "stderr": "", "stdout": "not json", "kernel": "python"}
    verdicts.record("murphy 3", job, oracle.check_murphy(3))
    assert verdicts.failed == 1 and verdicts.attempted == 1
