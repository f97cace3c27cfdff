"""The repository's benchmark: cold verify jobs and a warm query loop.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see README.md in this directory for why each exists):

  cold-diagram  fresh-process `verify --all` for brauer 4, tl 6, partition 6
                and `gen-basis` for brauer 2, tl 4, partition level 3
  cold-hecke    fresh-process `verify --all` for hecke 4 and a library job:
                the rank-5 Murphy transition determinant and the restriction
                filtration of every shape of 5
  cold-bmw      fresh-process `verify --all` for bmw 3
  warm-query    one process builds five bases, then answers a seeded stream
                of product-and-express requests

Jobs run one at a time (a closed loop with a single client).  Cold batches
repeat, in a seeded order, until S seconds have passed; the warm stream runs
for S seconds.  Every verdict is checked against known answers (oracle.py),
and negative controls prove in every run that the checks can fail.

With --trace 0 the last line of stdout holds the end-to-end metrics, with
--trace 1 the per-layer metrics of one traced batch (or a fixed number of
queries) and the tracing overhead against the same work untraced.
--smoke runs the same workloads at tiny levels; --workload all runs the four
in turn and ends with one object whose metric names carry the workload.
"""

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
JOB = os.path.join(HERE, "job.py")
MARK = "@perfbench "

JOB_TIMEOUT_S = 150
IMPORT_PROBES = 8  # set-up samples per cold run, besides the jobs themselves
SETUP_WORKERS = 3  # warm-query set-ups per run (the last one serves)
TRACED_QUERIES = {"full": 200, "smoke": 40}

END_TO_END = {
    "setup_s": "s",
    "makespan_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "latency_ms.p50": "ms",
    "latency_ms.p99": "ms",
}


def verify(algebra, n):
    argv = ["verify", "--algebra", algebra, "--n", str(n), "--all", "--jobs", "1"]
    return (f"verify {algebra} {n}", {"mode": "cli", "argv": argv}, oracle.check_verify(algebra, n))


def gen_basis(algebra, n, golden):
    argv = ["gen-basis", "--algebra", algebra, "--n", str(n)]
    return (f"gen-basis {algebra} {n}", {"mode": "cli", "argv": argv}, oracle.check_gen_basis(algebra, n, golden))


def murphy(n):
    return (f"murphy {n}", {"mode": "murphy", "n": n}, oracle.check_murphy(n))


COLD = {
    "cold-diagram": {
        "full": [
            verify("brauer", 4),
            verify("tl", 6),
            verify("partition", 6),
            gen_basis("brauer", 2, "brauer_n2_basis.json"),
            gen_basis("tl", 4, "tl_n4_basis.json"),
            gen_basis("partition", 3, "partition_l3_basis.json"),
        ],
        "smoke": [verify("brauer", 2), gen_basis("brauer", 2, "brauer_n2_basis.json")],
    },
    "cold-hecke": {
        "full": [verify("hecke", 4), murphy(5)],
        "smoke": [verify("hecke", 3), murphy(3)],
    },
    "cold-bmw": {
        "full": [verify("bmw", 3)],
        "smoke": [verify("bmw", 2)],
    },
}

WARM = {
    "warm-query": {
        "full": [["brauer", 4], ["tl", 6], ["partition", 6], ["hecke", 4], ["bmw", 3]],
        "smoke": [["brauer", 2], ["hecke", 3], ["bmw", 2]],
    }
}

WORKLOADS = sorted(COLD) + sorted(WARM)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def job_env():
    env = dict(os.environ)
    # neither may silently change the work
    env.pop("CELLULAR_TOWERS_MAX_LEVEL", None)
    env.pop("CELLULAR_TOWERS_PURE", None)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # set iteration order, and with it every traced count, repeats exactly
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cfg):
    """Run one job to completion; per-child resources come from wait4."""
    with tempfile.TemporaryFile(dir=HERE) as out, tempfile.TemporaryFile(dir=HERE) as err:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, JOB, json.dumps(cfg)], stdout=out, stderr=err, env=job_env(), cwd=ROOT
        )
        killer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        killer.start()
        status = None
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
            if status is None:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
        end = time.monotonic()
        # reaped here, so Popen must not wait for the pid again
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout_bytes, stderr = out.read(), err.read().decode("utf-8", "replace")
    messages = {}
    for line in stderr.splitlines():
        if line.startswith(MARK):
            messages.update(json.loads(line[len(MARK):]))
    return {
        "code": proc.returncode,
        "wall": end - start,
        "setup": messages["ready"] - start if "ready" in messages else None,
        "built": messages["built"] - start if "built" in messages else None,
        "kernel": messages.get("kernel"),
        "trace": messages.get("trace"),
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "stdout_bytes": stdout_bytes,
        "stdout": stdout_bytes.decode("utf-8", "replace"),
        "stderr": stderr,
    }


class Run:
    """What one benchmark run has seen: verdicts, kernels and problems."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.kernels = set()
        self.problems = []
        self.controls = {}

    def record(self, name, job, check):
        """Count one job's verdict; `check` lists what is wrong with it."""
        self.attempted += 1
        self.kernels.add(job["kernel"])
        try:
            problems = check(job)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problems = [f"output is not readable: {exc!r}"]
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems]

    def control(self, basis, seed):
        job = spawn({"mode": "control", "basis": basis, "seed": seed})
        self.kernels.add(job["kernel"])
        try:
            self.controls = json.loads(job["stdout"].strip().splitlines()[-1])
        except (ValueError, IndexError):
            self.controls = {"control job": False}
            self.problems.append(f"control job failed (exit {job['code']})")

    def controls_ok(self):
        return bool(self.controls) and all(self.controls.values())


def median_or_zero(values):
    """The median; 0 only when every sample is missing (the run is wrong)."""
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def unit_of(name):
    """Per-layer units follow the metric names: *_s, *_ratio, else counts."""
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def merge_traces(dumps):
    spans, counters = {}, {}
    for dump in dumps:
        for name, row in dump["spans"].items():
            acc = spans.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return spans, counters


CALLS, SELF, BUSY = 0, 1, 2  # the fields of a merged span row


def layer_metrics(dumps, overhead):
    spans, counters = merge_traces(dumps)

    def span(name, field):
        return spans.get(name, [0, 0.0, 0.0])[field]

    def layer(prefix, field):
        return sum(row[field] for name, row in spans.items() if name.startswith(prefix + "."))

    def ratio(part, whole):
        return part / whole if whole else 0.0

    gcd_calls = span("coeff.poly_gcd", CALLS)
    inserts = span("linalg.SpanSolver.insert", CALLS)
    values = {
        "kernel.calls": layer("kernel", CALLS),
        "kernel.term_products": counters.get("kernel.term_products", 0),
        "kernel.self_s": layer("kernel", SELF),
        "coeff.rf_new.calls": span("coeff.RationalFunction.__init__", CALLS),
        "coeff.gcd.calls": gcd_calls,
        # gcds that returned 1: work that cancelled nothing
        "coeff.gcd.trivial_ratio": ratio(counters.get("coeff.gcd.trivial", 0), gcd_calls),
        "coeff.gcd.self_s": span("coeff.poly_gcd", SELF),
        "coeff.gcd.busy_s": span("coeff.poly_gcd", BUSY),
        "coeff.delta_eliminate.calls": span("coeff.delta_eliminate", CALLS),
        "coeff.self_s": layer("coeff", SELF),
        "linalg.insert.calls": inserts,
        "linalg.insert.new_ratio": ratio(counters.get("linalg.insert.new", 0), inserts),
        "linalg.insert.busy_s": span("linalg.SpanSolver.insert", BUSY),
        "linalg.express.calls": span("linalg.SpanSolver.express", CALLS),
        "linalg.express.busy_s": span("linalg.SpanSolver.express", BUSY),
        "linalg.self_s": layer("linalg", SELF),
        "diagrams.compose.calls": span("diagrams.BrauerDiagram.compose", CALLS)
        + span("diagrams.SetPartitionDiagram.compose", CALLS),
        "diagrams.mul.calls": span("diagrams.DiagramElement.__mul__", CALLS),
        "diagrams.self_s": layer("diagrams", SELF),
        "hecke.times_gen.calls": span("hecke.HeckeElement.times_gen", CALLS),
        "hecke.murphy_basis.busy_s": span("hecke.murphy_basis", BUSY),
        "hecke.express_in_murphy.calls": span("hecke.express_in_murphy", CALLS),
        "hecke.self_s": layer("hecke", SELF),
        "bmw.model_build.busy_s": span("bmw._Model._build", BUSY),
        "bmw.reduce_word.calls": span("bmw.reduce_word", CALLS),
        "bmw.reduce_memo.size": counters.get("bmw.reduce_memo.size", 0),
        "bmw.mult_rows.hit_ratio": ratio(counters.get("bmw.mult_rows.hit", 0), span("bmw._Model.mult_rows", CALLS)),
        "bmw.self_s": layer("bmw", SELF),
        "framework.cellular_basis.busy_s": span("framework.cellular_basis", BUSY),
        "framework.verify_cell_datum.busy_s": span("framework.verify_cell_datum", BUSY),
        "framework.express.calls": span("framework.CellDatum.express", CALLS),
        "framework.self_s": layer("framework", SELF),
        "towers.self_s": layer("towers", SELF),
        "combinatorics.self_s": layer("combinatorics", SELF),
        "trace.overhead_ratio": overhead,
    }
    return {name: (value, unit_of(name)) for name, value in values.items()}


def write_trace(workload, seed, dumps, run_meta):
    """The merged spans, edges and counters of the traced run, for reading."""
    spans, counters = merge_traces(dumps)
    edges = {}
    for dump in dumps:
        for parent, child, n in dump["edges"]:
            key = f"{parent} -> {child}"
            edges[key] = edges.get(key, 0) + n
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"meta": run_meta, "spans": {k: {"calls": v[0], "self_s": v[1], "busy_s": v[2]}
                                         for k, v in sorted(spans.items())},
             "edges": dict(sorted(edges.items())), "counters": counters},
            fh,
            indent=1,
        )
    return path


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def cold_batch(run, jobs, order, trace):
    start = time.monotonic()
    records = []
    for i in order:
        name, cfg, check = jobs[i]
        job = spawn(dict(cfg, trace=trace))
        job["index"] = i
        run.record(name, job, check)
        records.append(job)
    return {"wall": time.monotonic() - start, "jobs": records}


def run_cold(run, workload, size, seed, seconds, trace):
    """Returns (metrics, extra rows, trace dumps)."""
    jobs = COLD[workload][size]
    rng = random.Random(seed)
    spawn({"mode": "import"})  # untimed: fills the bytecode cache
    setups = [spawn({"mode": "import"})["setup"] for _ in range(IMPORT_PROBES)]
    run.control(["brauer", 2], seed)
    batches = []
    start = time.monotonic()
    while not batches or (not trace and time.monotonic() - start < seconds):
        order = list(range(len(jobs)))
        rng.shuffle(order)
        batches.append(cold_batch(run, jobs, order, trace=False))
    if trace:
        traced = cold_batch(run, jobs, order, trace=True)
        dumps = [j["trace"] for j in traced["jobs"] if j["trace"]]
        overhead = traced["wall"] / batches[0]["wall"] - 1.0
        return layer_metrics(dumps, overhead), {}, dumps
    all_jobs = [j for b in batches for j in b["jobs"]]
    setups = [s for s in setups + [j["setup"] for j in all_jobs] if s is not None]
    # a job's latency is its median over batches, so one slow sample cannot
    # become the p99; the percentiles are then taken over the jobs
    latencies = [statistics.median(j["wall"] * 1e3 for j in all_jobs if j["index"] == i)
                 for i in range(len(jobs))]
    metrics = {
        # time until the package is imported, summed over one batch
        "setup_s": median_or_zero(setups) * len(jobs),
        "makespan_s": statistics.median(b["wall"] for b in batches),
        "cpu_s": statistics.median(sum(j["cpu"] for j in b["jobs"]) for b in batches),
        "peak_rss_mb": max(j["rss_mb"] for j in all_jobs),
        "latency_ms.p50": statistics.median(latencies),
        "latency_ms.p99": percentile(latencies, 99),
    }
    extra = {"jobs": (len(all_jobs), "count"), "batches": (len(batches), "count")}
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, extra, []


def serve(run, bases, seed, seconds, queries, trace, setup_only=False):
    cfg = {
        "mode": "serve",
        "bases": bases,
        "seed": seed,
        "seconds": seconds,
        "queries": queries,
        "setup_only": setup_only,
        "trace": trace,
    }
    job = spawn(cfg)
    run.kernels.add(job["kernel"])
    try:
        result = json.loads(job["stdout"].strip().splitlines()[-1])
    except (ValueError, IndexError):
        run.attempted += 1
        run.failed += 1
        run.problems.append(f"warm-query worker failed (exit {job['code']}): {job['stderr'][-300:]}")
        return job, None
    problems = oracle.check_bases(result["paths_squared"], bases)
    run.attempted += len(bases)
    run.failed += len(problems)
    run.problems += problems
    if not setup_only:
        run.attempted += result["warmup"] + len(result["latencies"])
        run.failed += result["warmup_wrong"] + len(result["wrong"])
        run.problems += [f"query {i}: coordinates do not rebuild the product" for i in result["wrong"]]
        if result["warmup_wrong"]:
            run.problems.append(f"{result['warmup_wrong']} warm-up products do not rebuild")
    return job, result


def run_warm(run, workload, size, seed, seconds, trace):
    bases = WARM[workload][size]
    run.control(["brauer", 2], seed)
    if trace:
        count = TRACED_QUERIES[size]
        plain, _ = serve(run, bases, seed, 0, count, trace=False)
        traced, _ = serve(run, bases, seed, 0, count, trace=True)
        overhead = traced["wall"] / plain["wall"] - 1.0
        dumps = [traced["trace"]] if traced["trace"] else []
        return layer_metrics(dumps, overhead), {}, dumps
    workers = [serve(run, bases, seed, 0, 0, trace=False, setup_only=True) for _ in range(SETUP_WORKERS - 1)]
    workers.append(serve(run, bases, seed, seconds, 0, trace=False))
    job, result = workers[-1]
    if result is None:
        return None, {}, []
    lat = result["latencies"]
    cpu = result["cpu"]
    per = result["batch"]
    batch_lat = [sum(lat[i:i + per]) for i in range(0, len(lat) - per + 1, per)]
    batch_cpu = [sum(cpu[i:i + per]) for i in range(0, len(cpu) - per + 1, per)]
    lat_ms = [x * 1e3 for x in lat]
    metrics = {
        "setup_s": median_or_zero([w[0]["built"] for w in workers if w[0]["built"] is not None]),
        "makespan_s": statistics.median(batch_lat),
        "cpu_s": statistics.median(batch_cpu),
        "peak_rss_mb": max(w[0]["rss_mb"] for w in workers),
        "latency_ms.p50": statistics.median(lat_ms),
        "latency_ms.p99": percentile(lat_ms, 99),
    }
    extra = {
        "query_ms.p50": (metrics["latency_ms.p50"], "ms"),
        "query_ms.p99": (metrics["latency_ms.p99"], "ms"),
        "queries_per_s": (len(lat) / sum(lat), "1/s"),
        "queries": (len(lat), "count"),
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, extra, []


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny levels (brauer 2, hecke 3, bmw 2)")
    return p.parse_args(argv)


def run_workload(workload, size, seed, seconds, trace):
    """Run one workload and print its table; returns the result object, or
    None when the warm-query worker died and there is nothing to report."""
    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
    }
    run = Run()
    runner = run_cold if workload in COLD else run_warm
    metrics, extra, dumps = runner(run, workload, size, seed, seconds, bool(trace))
    run.kernels.discard(None)
    meta["kernel"] = sorted(run.kernels)
    meta["controls"] = run.controls
    if len(run.kernels) > 1:
        run.problems.append(f"jobs ran on different kernels: {sorted(run.kernels)}")
    if not run.controls_ok():
        run.problems.append(f"negative control not rejected: {run.controls}")
    if metrics is None:
        for problem in run.problems[:20]:
            print(f"problem: {problem}", file=sys.stderr)
        return None
    if trace:
        meta["trace_file"] = os.path.relpath(write_trace(workload, seed, dumps, meta), ROOT)
    print("# " + json.dumps(meta, sort_keys=True))
    for problem in run.problems[:20]:
        print(f"# problem: {problem}")
    rows = dict(metrics)
    rows.update(extra)
    if not trace:
        rows["error_rate"] = (run.failed / max(run.attempted, 1), "ratio")
    for name, (value, unit) in rows.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    return {
        "correct": run.failed == 0 and not run.problems and run.attempted > 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cellular_towers", "__init__.py")):
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    size = "smoke" if args.smoke else "full"
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for workload in workloads:
        if len(workloads) > 1:
            print(f"## {workload}")
        results[workload] = run_workload(workload, size, args.seed, args.seconds, args.trace)
        if results[workload] is None:
            return 1
    if len(workloads) == 1:
        print(json.dumps(results[args.workload]))
        return 0
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}/{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
